"""Backends: scripted mock behavior, HTTP retry/parse contracts, the in-order executor."""

import threading
import time

import pytest

from mcqa_distill.core import ChatMessage
from mcqa_distill.gateway import (
    BackendConfig,
    CompletionRequest,
    CompletionResult,
    HttpBackend,
    MockBackend,
    ProtocolError,
    RequestRejected,
    RequestTimeout,
    ScriptMiss,
    TransportError,
    in_order,
    load_script,
    request_digest,
    save_script,
)

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


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text="body", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "timeout": timeout})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def ok_payload(text="wood", top_logprobs=None):
    choice = {"message": {"content": text}}
    if top_logprobs is not None:
        choice["logprobs"] = {
            "content": [
                {"top_logprobs": [{"token": t, "logprob": lp} for t, lp in top_logprobs]}
            ]
        }
    return {"choices": [choice]}


def http_backend(responses, retry_limit=2, sleep=lambda _s: None):
    session = FakeSession(responses)
    backend = HttpBackend(
        BackendConfig(base_url="http://api.test", retry_limit=retry_limit),
        session=session,
        sleep=sleep,
    )
    return backend, session


class TestHttpBackend:
    def test_success_path_and_wire_shape(self):
        backend, session = http_backend([FakeResponse(200, ok_payload("wood"))])
        result = backend.complete(req(temperature=2.0, max_new_tokens=64))
        assert result.text == "wood"
        call = session.calls[0]
        assert call["url"] == "http://api.test/v1/chat/completions"
        assert call["json"]["messages"] == [{"role": "user", "content": "say wood"}]
        assert call["json"]["temperature"] == 2.0
        assert call["json"]["max_tokens"] == 64
        assert "logprobs" not in call["json"]

    def test_logprob_request_fields(self):
        backend, session = http_backend(
            [FakeResponse(200, ok_payload("A", [("A", -0.1)]))]
        )
        result = backend.complete(req(want=20, max_new_tokens=1))
        assert result.first_token_logprobs == {"A": -0.1}
        assert session.calls[0]["json"]["logprobs"] is True
        assert session.calls[0]["json"]["top_logprobs"] == 20

    def test_500_thrice_with_retry_limit_2_is_transport_error(self):
        backend, session = http_backend([FakeResponse(500)] * 3, retry_limit=2)
        with pytest.raises(TransportError):
            backend.complete(req())
        assert len(session.calls) == 3

    def test_500_then_success_recovers(self):
        backend, _ = http_backend([FakeResponse(500), FakeResponse(200, ok_payload())])
        assert backend.complete(req()).text == "wood"

    def test_timeout_surfaces_after_retries(self):
        import requests

        backend, session = http_backend(
            [requests.Timeout("slow")] * 2, retry_limit=1
        )
        with pytest.raises(RequestTimeout):
            backend.complete(req())
        assert len(session.calls) == 2

    def test_429_waits_retry_after_seconds(self):
        sleeps = []
        backend, session = http_backend(
            [FakeResponse(429, headers={"Retry-After": "3"}), FakeResponse(200, ok_payload())],
            sleep=sleeps.append,
        )
        assert backend.complete(req()).text == "wood"
        assert sleeps == [3]
        assert len(session.calls) == 2

    @pytest.mark.parametrize(
        "retry_after", [None, "Wed, 21 Oct 2015 07:28:00 GMT", "soon", "-1", "1.5", "\u00b2"]
    )
    def test_429_without_delta_seconds_backs_off(self, retry_after):
        sleeps = []
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        backend, _ = http_backend(
            [FakeResponse(429, headers=headers), FakeResponse(200, ok_payload())],
            sleep=sleeps.append,
        )
        assert backend.complete(req()).text == "wood"
        assert sleeps == [0.25]

    def test_429_thrice_with_retry_limit_2_is_transport_error(self):
        backend, session = http_backend([FakeResponse(429)] * 3, retry_limit=2)
        with pytest.raises(TransportError):
            backend.complete(req())
        assert len(session.calls) == 3

    def test_client_error_fails_fast(self):
        backend, session = http_backend([FakeResponse(401)], retry_limit=3)
        with pytest.raises(RequestRejected):
            backend.complete(req())
        assert len(session.calls) == 1

    def test_missing_content_is_protocol_error(self):
        backend, _ = http_backend([FakeResponse(200, {"choices": [{"message": {}}]})])
        with pytest.raises(ProtocolError):
            backend.complete(req())

    def test_non_json_body_is_protocol_error(self):
        backend, _ = http_backend([FakeResponse(200, None)])
        with pytest.raises(ProtocolError):
            backend.complete(req())


    def test_retry_after_is_capped_at_request_timeout(self):
        sleeps = []
        session = FakeSession(
            [FakeResponse(429, headers={"Retry-After": "3600"}), FakeResponse(200, ok_payload())]
        )
        backend = HttpBackend(
            BackendConfig(request_timeout=30.0), session=session, sleep=sleeps.append
        )
        assert backend.complete(req()).text == "wood"
        assert sleeps == [30]

    def test_backoff_does_not_hold_the_slot(self):
        """With one slot, another thread's request completes while the first
        request waits out its Retry-After."""
        session = FakeSession(
            [
                FakeResponse(429, headers={"Retry-After": "5"}),
                FakeResponse(200, ok_payload("other")),
                FakeResponse(200, ok_payload("first")),
            ]
        )
        other_texts = []
        other = threading.Thread(
            target=lambda: other_texts.append(backend.complete(req()).text)
        )
        done_during_backoff = []

        def sleep(_seconds):
            other.start()
            other.join(timeout=5)
            done_during_backoff.append(not other.is_alive())

        backend = HttpBackend(
            BackendConfig(max_parallel_requests=1), session=session, sleep=sleep
        )
        assert backend.complete(req()).text == "first"
        other.join(timeout=5)
        assert not other.is_alive()
        assert done_during_backoff == [True]
        assert other_texts == ["other"]

    def test_own_session_pools_one_connection_per_slot(self):
        backend = HttpBackend(BackendConfig(max_parallel_requests=16))
        for url in ("http://api.test", "https://api.test"):
            pool_kw = backend._session.get_adapter(url).poolmanager.connection_pool_kw
            assert pool_kw["maxsize"] == 16

    def test_injected_session_is_used_as_given(self):
        session = FakeSession([])
        backend = HttpBackend(BackendConfig(max_parallel_requests=16), session=session)
        assert backend._session is session


class TestInOrder:
    @pytest.mark.parametrize("width", [1, 3])
    def test_results_in_index_order(self, width):
        def slow_first(i):
            time.sleep(0.002 * (8 - i))
            return i * i

        assert list(in_order(slow_first, 8, width)) == [i * i for i in range(8)]

    def test_earliest_error_surfaces_and_queued_calls_never_start(self):
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
            for value in in_order(call, 100, 4):
                seen.append(value)
        assert seen == [0, 1]
        assert max(started) <= 2 + 3
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
        assert max(started) <= 4

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
