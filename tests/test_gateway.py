"""Backends: scripted mock behavior, HTTP retry/parse/connection contracts
against a loopback server, proxies, and the in-order executor with the
failure policy both teacher stages share."""

import threading
import time

import pytest

from mcqa_distill.core import ChatMessage
from mcqa_distill.gateway import (
    ABSORBED_ERRORS,
    AHEAD,
    UNAVAILABLE_AFTER,
    BackendConfig,
    CompletionRequest,
    CompletionResult,
    GatewayError,
    HttpBackend,
    MockBackend,
    ProtocolError,
    RequestRejected,
    RequestTimeout,
    ScriptMiss,
    TeacherUnavailable,
    TransportError,
    in_order,
    load_script,
    request_digest,
    save_script,
)
from mcqa_distill.generation import STAGE_FAILURE, GenerationConfig, generate
from mcqa_distill.scoring import (
    FALLBACK,
    SCORED,
    SKIPPED,
    ScoringConfig,
    one_hot_scores,
    score_instances,
)

from conftest import NESTED_TOO_DEEPLY, Reply, ScriptedTeacher, make_instance

MESSAGES = (ChatMessage("user", "say wood"),)


def req(messages=MESSAGES, temperature=0.0, max_new_tokens=8, want=0):
    return CompletionRequest(messages, temperature, max_new_tokens, want)


class TestMockBackend:
    def test_scripted_echo(self):
        backend = MockBackend({request_digest(MESSAGES): CompletionResult("wood")})
        assert backend.complete(req()).text == "wood"

    def test_unscripted_digest_misses(self):
        backend = MockBackend({})
        with pytest.raises(ScriptMiss) as excinfo:
            backend.complete(req())
        assert request_digest(MESSAGES) in str(excinfo.value)

    def test_pure_replay(self):
        backend = MockBackend({request_digest(MESSAGES): CompletionResult("wood")})
        assert backend.complete(req()) == backend.complete(req())

    def test_logprobs_only_when_requested(self):
        scripted = CompletionResult("A", {"A": -0.1, "B": -2.0})
        backend = MockBackend({request_digest(MESSAGES): scripted})
        assert backend.complete(req(want=0)).first_token_logprobs is None
        assert backend.complete(req(want=2)).first_token_logprobs == {
            "A": -0.1,
            "B": -2.0,
        }

    def test_logprobs_truncated_to_top_k(self):
        scripted = CompletionResult("A", {"A": -0.1, "B": -2.0, "C": -3.0})
        backend = MockBackend({request_digest(MESSAGES): scripted})
        assert backend.complete(req(want=1)).first_token_logprobs == {"A": -0.1}

    def test_script_file_round_trip(self, tmp_path):
        script = {
            request_digest(MESSAGES): CompletionResult("A", {"A": -0.5, "B": -1.5}),
            "otherdigest": CompletionResult("plain text"),
        }
        path = tmp_path / "script.json"
        save_script(script, path)
        loaded = load_script(path)
        assert loaded == script


def ok_payload(text="wood", top_logprobs=None):
    choice = {"message": {"content": text}}
    if top_logprobs is not None:
        choice["logprobs"] = {
            "content": [
                {"top_logprobs": [{"token": t, "logprob": lp} for t, lp in top_logprobs]}
            ]
        }
    return {"choices": [choice]}


def http_backend(teacher, replies, retry_limit=2, sleep=lambda _s: None, **config):
    teacher.replies.extend(replies)
    return HttpBackend(
        BackendConfig(base_url=teacher.base_url, retry_limit=retry_limit, **config),
        sleep=sleep,
    )


class TestHttpBackend:
    def test_success_path_and_wire_shape(self, scripted_teacher):
        backend = http_backend(scripted_teacher, [Reply(200, ok_payload("wood"))])
        result = backend.complete(req(temperature=2.0, max_new_tokens=64))
        assert result.text == "wood"
        (call,) = scripted_teacher.received
        assert call.method == "POST"
        assert call.target == "/v1/chat/completions"
        assert call.headers["Host"] == scripted_teacher.base_url.removeprefix("http://")
        assert call.headers["Content-Type"] == "application/json"
        assert set(call.json) == {"model", "messages", "temperature", "max_tokens"}
        assert call.json["model"] == "default"
        assert call.json["messages"] == [{"role": "user", "content": "say wood"}]
        assert call.json["temperature"] == 2.0
        assert call.json["max_tokens"] == 64
        assert "logprobs" not in call.json

    def test_logprob_request_fields(self, scripted_teacher):
        backend = http_backend(
            scripted_teacher, [Reply(200, ok_payload("A", [("A", -0.1)]))]
        )
        result = backend.complete(req(want=20, max_new_tokens=1))
        assert result.first_token_logprobs == {"A": -0.1}
        assert scripted_teacher.received[0].json["logprobs"] is True
        assert scripted_teacher.received[0].json["top_logprobs"] == 20

    def test_500_thrice_with_retry_limit_2_is_transport_error(self, scripted_teacher):
        backend = http_backend(scripted_teacher, [Reply(500)] * 3, retry_limit=2)
        with pytest.raises(TransportError):
            backend.complete(req())
        assert len(scripted_teacher.received) == 3

    def test_500_then_success_recovers(self, scripted_teacher):
        backend = http_backend(scripted_teacher, [Reply(500), Reply(200, ok_payload())])
        assert backend.complete(req()).text == "wood"

    def test_timeout_surfaces_after_retries(self, scripted_teacher):
        backend = http_backend(
            scripted_teacher, [Reply(200, ok_payload(), delay=5.0)] * 2,
            retry_limit=1, request_timeout=0.1,
        )
        with pytest.raises(RequestTimeout):
            backend.complete(req())
        assert len(scripted_teacher.received) == 2

    def test_429_waits_retry_after_seconds(self, scripted_teacher):
        sleeps = []
        backend = http_backend(
            scripted_teacher,
            [Reply(429, headers={"Retry-After": "3"}), Reply(200, ok_payload())],
            sleep=sleeps.append,
        )
        assert backend.complete(req()).text == "wood"
        assert sleeps == [3]
        assert len(scripted_teacher.received) == 2

    @pytest.mark.parametrize(
        "retry_after", [None, "Wed, 21 Oct 2015 07:28:00 GMT", "soon", "-1", "1.5", "\u00b2"]
    )
    def test_429_without_delta_seconds_backs_off(self, scripted_teacher, retry_after):
        sleeps = []
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        backend = http_backend(
            scripted_teacher,
            [Reply(429, headers=headers), Reply(200, ok_payload())],
            sleep=sleeps.append,
        )
        assert backend.complete(req()).text == "wood"
        assert sleeps == [0.25]

    def test_429_thrice_with_retry_limit_2_is_transport_error(self, scripted_teacher):
        backend = http_backend(scripted_teacher, [Reply(429)] * 3, retry_limit=2)
        with pytest.raises(TransportError):
            backend.complete(req())
        assert len(scripted_teacher.received) == 3

    def test_client_error_fails_fast(self, scripted_teacher):
        backend = http_backend(scripted_teacher, [Reply(401)], retry_limit=3)
        with pytest.raises(RequestRejected):
            backend.complete(req())
        assert len(scripted_teacher.received) == 1

    def test_missing_content_is_protocol_error(self, scripted_teacher):
        backend = http_backend(scripted_teacher, [Reply(200, {"choices": [{"message": {}}]})])
        with pytest.raises(ProtocolError):
            backend.complete(req())

    @pytest.mark.parametrize(
        "logprobs",
        ["yes",
         {"content": [{"top_logprobs": [{"token": 1, "logprob": -0.1}]}]},
         {"content": [{"top_logprobs": [{"token": "A", "logprob": "-0.1"}]}]},
         {"content": [{"top_logprobs": [{"token": "A", "logprob": True}]}]}],
        ids=["not_an_object", "number_token", "text_logprob", "boolean_logprob"],
    )
    def test_malformed_logprobs_are_a_protocol_error(self, scripted_teacher, logprobs):
        payload = {"choices": [{"message": {"content": "A"}, "logprobs": logprobs}]}
        backend = http_backend(scripted_teacher, [Reply(200, payload)])
        with pytest.raises(ProtocolError, match="malformed logprob payload"):
            backend.complete(req(want=2))

    @pytest.mark.parametrize("body", [b"body", NESTED_TOO_DEEPLY.encode()],
                             ids=["bad_syntax", "nested_too_deeply"])
    def test_non_json_body_is_protocol_error(self, scripted_teacher, body):
        backend = http_backend(scripted_teacher, [Reply(200, body=body)])
        with pytest.raises(ProtocolError, match="response body is not JSON"):
            backend.complete(req())

    def test_retry_after_is_capped_at_request_timeout(self, scripted_teacher):
        sleeps = []
        backend = http_backend(
            scripted_teacher,
            [Reply(429, headers={"Retry-After": "3600"}), Reply(200, ok_payload())],
            request_timeout=30.0,
            sleep=sleeps.append,
        )
        assert backend.complete(req()).text == "wood"
        assert sleeps == [30]

    def test_backoff_does_not_hold_the_slot(self, scripted_teacher):
        """With one slot, another thread's request completes while the first
        request waits out its Retry-After."""
        other_texts = []
        other = threading.Thread(
            target=lambda: other_texts.append(backend.complete(req()).text)
        )
        done_during_backoff = []

        def sleep(_seconds):
            other.start()
            other.join(timeout=5)
            done_during_backoff.append(not other.is_alive())

        backend = http_backend(
            scripted_teacher,
            [
                Reply(429, headers={"Retry-After": "5"}),
                Reply(200, ok_payload("other")),
                Reply(200, ok_payload("first")),
            ],
            max_parallel_requests=1,
            sleep=sleep,
        )
        assert backend.complete(req()).text == "first"
        other.join(timeout=5)
        assert not other.is_alive()
        assert done_during_backoff == [True]
        assert other_texts == ["other"]

    def test_sequential_calls_share_one_connection(self, scripted_teacher):
        backend = http_backend(scripted_teacher, [Reply(200, ok_payload())] * 20)
        for _ in range(20):
            assert backend.complete(req()).text == "wood"
        assert len(scripted_teacher.received) == 20
        assert scripted_teacher.connections == 1

    def test_concurrent_calls_open_at_most_one_connection_per_slot(self, scripted_teacher):
        backend = http_backend(
            scripted_teacher, [Reply(200, ok_payload(), delay=0.01)] * 24,
            max_parallel_requests=3,
        )
        texts = []

        def worker():
            for _ in range(4):
                texts.append(backend.complete(req()).text)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert texts == ["wood"] * 24
        assert 1 <= scripted_teacher.connections <= 3

    def test_idle_connection_closed_by_the_server_is_reopened(self, scripted_teacher):
        sleeps = []
        backend = http_backend(
            scripted_teacher,
            [Reply(200, ok_payload("first"), drop=True), Reply(200, ok_payload("second"))],
            sleep=sleeps.append,
        )
        assert backend.complete(req()).text == "first"
        scripted_teacher.wait_closed(1)
        assert backend.complete(req()).text == "second"
        assert sleeps == []
        assert [r.connection for r in scripted_teacher.received] == [1, 2]

    def test_server_slower_than_request_timeout_is_request_timeout(self, scripted_teacher):
        backend = http_backend(
            scripted_teacher, [Reply(200, ok_payload(), delay=5.0)],
            retry_limit=0, request_timeout=0.2,
        )
        started = time.monotonic()
        with pytest.raises(RequestTimeout):
            backend.complete(req())
        assert time.monotonic() - started < 2.0
        assert len(scripted_teacher.received) == 1


class TestProxies:
    @pytest.fixture
    def proxy(self, monkeypatch):
        with ScriptedTeacher() as recorder:
            port = recorder.base_url.rpartition(":")[2]
            monkeypatch.setenv("http_proxy", f"http://us%40er:pw@127.0.0.1:{port}")
            monkeypatch.setenv("https_proxy", f"http://us%40er:pw@127.0.0.1:{port}")
            yield recorder

    def test_http_goes_to_the_proxy_with_an_absolute_target(self, proxy):
        proxy.replies.append(Reply(200, ok_payload("proxied")))
        backend = HttpBackend(BackendConfig(base_url="http://teacher.test:9000/api/"))
        assert backend.complete(req()).text == "proxied"
        (call,) = proxy.received
        assert call.method == "POST"
        assert call.target == "http://teacher.test:9000/api/v1/chat/completions"
        assert call.headers["Host"] == "teacher.test:9000"
        assert call.headers["Proxy-Authorization"] == "Basic dXNAZXI6cHc="  # us@er:pw
        assert call.json["messages"] == [{"role": "user", "content": "say wood"}]

    def test_https_opens_a_tunnel_through_the_proxy(self, proxy):
        proxy.replies.append(Reply(403, {"error": "no tunnels here"}))
        backend = HttpBackend(BackendConfig(base_url="https://teacher.test", retry_limit=0))
        with pytest.raises(TransportError, match="403"):
            backend.complete(req())
        (call,) = proxy.received
        assert call.method == "CONNECT"
        assert call.target == "teacher.test:443"
        assert call.headers["Proxy-Authorization"] == "Basic dXNAZXI6cHc="

    def test_no_proxy_host_is_reached_directly(self, proxy, scripted_teacher, monkeypatch):
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        scripted_teacher.replies.append(Reply(200, ok_payload("direct")))
        backend = HttpBackend(BackendConfig(base_url=scripted_teacher.base_url))
        assert backend.complete(req()).text == "direct"
        assert proxy.received == []
        assert scripted_teacher.received[0].target == "/v1/chat/completions"

    def test_proxy_must_be_an_http_url(self, proxy, monkeypatch):
        monkeypatch.setenv("http_proxy", "socks5://127.0.0.1:1080")
        with pytest.raises(ValueError, match="http_proxy must be an http:// URL"):
            HttpBackend(BackendConfig(base_url="http://teacher.test"))


def window(width):
    """Calls ``in_order`` keeps submitted but not yet yielded at ``width``."""
    return AHEAD * width if width > 1 else 1


class TestInOrder:
    @pytest.mark.parametrize("width", [1, 3])
    def test_results_in_index_order(self, width):
        def slow_first(i):
            time.sleep(0.002 * (8 - i))
            return i * i

        assert list(in_order(slow_first, 8, width)) == [i * i for i in range(8)]

    @pytest.mark.parametrize("width", [1, 4])
    def test_earliest_error_surfaces_and_queued_calls_never_start(self, width):
        started = []
        lock = threading.Lock()

        def call(i):
            with lock:
                started.append(i)
            if i == 2:
                time.sleep(0.05)
                raise KeyError(i)
            if i == 3:
                raise ValueError(i)
            return i

        seen = []
        with pytest.raises(KeyError):
            for value in in_order(call, 100, width):
                seen.append(value)
        assert seen == [0, 1]
        assert max(started) <= 2 + window(width) - 1
        assert len(started) == len(set(started))

    def test_closing_early_cancels_queued_calls(self):
        """What a Ctrl-C in the caller's loop does: the generator closes, no
        further call starts and the running ones are waited for."""
        started = []
        finished = []

        def call(i):
            started.append(i)
            time.sleep(0.01)
            finished.append(i)
            return i

        results = in_order(call, 100, 4)
        assert next(results) == 0
        results.close()
        assert sorted(started) == sorted(finished)
        assert max(started) <= window(4) - 1

    def test_room_bounds_calls_in_flight(self):
        in_flight = high = 0
        lock = threading.Lock()

        def call(i):
            nonlocal in_flight, high
            with lock:
                in_flight += 1
                high = max(high, in_flight)
            time.sleep(0.002)
            with lock:
                in_flight -= 1
            return i

        taken = []
        for value in in_order(call, 50, 8, lambda: 5 - len(taken)):
            taken.append(value)
        assert taken == [0, 1, 2, 3, 4]
        assert 2 <= high <= 5

    def test_a_slow_head_holds_up_no_other_thread(self):
        """Call 0 returns only once calls 1 .. window - 1 have all finished:
        the other threads keep working past it, never more than ``width``
        at once. A pool that refills only as the head is taken waits out
        the timeout instead."""
        width = 4
        rest = set(range(1, window(width)))
        finished = set()
        rest_finished = threading.Event()
        running = high = 0
        lock = threading.Lock()

        def call(i):
            nonlocal running, high
            with lock:
                running += 1
                high = max(high, running)
            try:
                if i == 0:
                    return rest_finished.wait(timeout=5)
                time.sleep(0.002)
                return i
            finally:
                with lock:
                    running -= 1
                    finished.add(i)
                    if rest <= finished:
                        rest_finished.set()

        results = list(in_order(call, 2 * window(width), width))
        assert results == [True, *range(1, 2 * window(width))]
        assert 2 <= high <= width

    def test_no_call_after_a_failure_starts_while_earlier_results_wait(self):
        """Call 1 fails while call 0 still runs: the thread it frees starts
        none of the calls queued behind it."""
        started = []
        release = threading.Event()

        def call(i):
            started.append(i)
            if i == 0:
                assert release.wait(timeout=5)
            if i == 1:
                raise KeyError(i)
            return i

        results = in_order(call, 100, 2)
        timer = threading.Timer(0.05, release.set)
        timer.start()
        assert next(results) == 0
        with pytest.raises(KeyError):
            next(results)
        timer.join(timeout=5)
        assert sorted(started) == [0, 1]

    @pytest.mark.parametrize("stop", ["raise", "close"])
    def test_no_call_starts_after_the_generator_exits(self, stop):
        started = []

        def call(i):
            started.append(i)
            time.sleep(0.002)
            if i == 5:
                raise KeyError(i)
            return i

        results = in_order(call, 1000, 4)
        if stop == "raise":
            with pytest.raises(KeyError):
                list(results)
        else:
            next(results)
            results.close()
        count = len(started)
        time.sleep(0.05)
        assert len(started) == count <= 5 + window(4)

    @pytest.mark.parametrize("width", [1, 4])
    def test_an_answer_resets_the_failure_run(self, width):
        """15 absorbed failures, one answer, 15 more: no stop, and every
        error is yielded in its call's slot."""

        def call(i):
            if i == UNAVAILABLE_AFTER - 1:
                return "answer"
            raise TransportError(f"call {i}")

        results = list(in_order(call, 2 * UNAVAILABLE_AFTER - 1, width))
        errors = results[: UNAVAILABLE_AFTER - 1] + results[UNAVAILABLE_AFTER:]
        assert results[UNAVAILABLE_AFTER - 1] == "answer"
        assert all(isinstance(error, TransportError) for error in errors)
        assert [str(error) for error in results] == [
            "answer" if i == UNAVAILABLE_AFTER - 1 else f"call {i}"
            for i in range(2 * UNAVAILABLE_AFTER - 1)
        ]

    @pytest.mark.parametrize("width", [1, 4])
    def test_failures_in_a_row_stop_where_the_last_is_due(self, width):
        def call(i):
            raise RequestTimeout(f"call {i}")

        results = in_order(call, 100, width)
        seen = []
        with pytest.raises(TeacherUnavailable) as excinfo:
            for value in results:
                seen.append(value)
        assert [str(error) for error in seen] == [
            f"call {i}" for i in range(UNAVAILABLE_AFTER - 1)
        ]
        assert list(results) == []
        cause = excinfo.value.__cause__
        assert isinstance(cause, RequestTimeout)
        assert str(cause) == f"call {UNAVAILABLE_AFTER - 1}"
        assert str(excinfo.value) == (
            f"teacher unavailable: {UNAVAILABLE_AFTER} calls in a row failed after their "
            f"retries; the last with RequestTimeout: call {UNAVAILABLE_AFTER - 1}"
        )


class TestRequestValidation:
    def test_empty_messages_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest((), 0.0, 1)

    def test_bad_temperature_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest(MESSAGES, float("inf"), 1)
        with pytest.raises(ValueError):
            CompletionRequest(MESSAGES, -0.5, 1)

    def test_backend_config_bounds(self):
        with pytest.raises(ValueError):
            BackendConfig(max_parallel_requests=0)
        with pytest.raises(ValueError):
            BackendConfig(retry_limit=-1)
        with pytest.raises(ValueError, match="unknown backend kind 'grpc'"):
            BackendConfig(kind="grpc")

    @pytest.mark.parametrize(
        "base_url",
        ["localhost:8000", "ftp://teacher.test", "http://", "http:///v1", "teacher.test",
         "http://teacher.test:port", "http://[::1"],
    )
    def test_base_url_must_be_requestable(self, base_url):
        with pytest.raises(ValueError, match="base_url") as excinfo:
            BackendConfig(kind="http", base_url=base_url)
        assert repr(base_url) in str(excinfo.value)

    @pytest.mark.parametrize(
        "base_url", ["http://localhost:8000", "https://api.test/openai/", "http://[::1]:80"]
    )
    def test_http_and_https_urls_with_a_host_are_accepted(self, base_url):
        assert BackendConfig(kind="http", base_url=base_url).base_url == base_url


class Failing:
    """A backend whose every request raises ``error``."""

    def __init__(self, error):
        self.error = error

    def complete(self, request):
        raise self.error("failed")


GATEWAY_ERRORS = sorted(GatewayError.__subclasses__(), key=lambda cls: cls.__name__)


@pytest.mark.parametrize("width", [1, 4])
class TestFailurePolicy:
    """Both teacher stages absorb exactly ``ABSORBED_ERRORS``; every other
    backend error propagates."""

    @pytest.mark.parametrize("error", GATEWAY_ERRORS, ids=lambda cls: cls.__name__)
    def test_generate(self, science_fewshot, error, width):
        cfg = GenerationConfig(strategy="json", target_count=1, max_attempts=3)
        if error in ABSORBED_ERRORS:
            instances, report = generate(science_fewshot, cfg, Failing(error), width)
            assert instances == []
            assert report.rejected_by_reason == {STAGE_FAILURE: 3}
        else:
            with pytest.raises(error):
                generate(science_fewshot, cfg, Failing(error), width)

    @pytest.mark.parametrize("error", GATEWAY_ERRORS, ids=lambda cls: cls.__name__)
    def test_score_instances(self, science_fewshot, error, width):
        inst = make_instance(answer_index=1)
        cfg = ScoringConfig(fallback="one_hot")
        if error in ABSORBED_ERRORS:
            scored, counts = score_instances([inst], science_fewshot, cfg, Failing(error), width)
            assert counts == {SCORED: 0, FALLBACK: 1, SKIPPED: 0}
            assert scored[0].teacher_scores == one_hot_scores(1, 4)
        else:
            with pytest.raises(error):
                score_instances([inst], science_fewshot, cfg, Failing(error), width)
