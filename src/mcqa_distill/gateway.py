"""Transport to any OpenAI-compatible chat-completion endpoint, plus a
deterministic scripted mock backend for offline runs.

A backend is anything with ``complete(request) -> CompletionResult``. The HTTP
backend talks to ``{base_url}/v1/chat/completions`` over the standard
library's ``http.client``, one keep-alive connection per request slot, and
extracts the first generated token's top log-probabilities when asked; the
mock backend replays scripted responses keyed by a digest of the exact
message sequence, so whole pipeline runs are bit-reproducible without a
server.

``in_order`` is the executor both teacher stages run on. It keeps
``max_parallel_requests`` worker threads busy, starting the next call whenever
any of them frees, while results are yielded in call order from a reorder
buffer of at most ``AHEAD`` calls per thread. It also owns the teacher
failure policy: a request that outlasts its retries is yielded as its error,
any other failure stops later calls from starting, and a run whose teacher
answers nothing stops with ``TeacherUnavailable``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import select
import threading
import time
import urllib.parse
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence

from .core import ChatMessage, write_json

API_KEY_ENV = "MCQA_API_KEY"

# Format version of the mock script files ``save_script`` writes.
SCRIPT_VERSION = 1


class GatewayError(Exception):
    """Base class for backend failures."""


class TransportError(GatewayError):
    """Request could not be completed after exhausting retries."""


class RequestTimeout(GatewayError):
    """Request timed out after exhausting retries."""


class RequestRejected(GatewayError):
    """The backend refused the request with a status no retry can change."""


class ProtocolError(GatewayError):
    """The backend answered with a payload we cannot interpret."""


class NoLogprobSupport(GatewayError):
    """Log-probabilities were requested but the backend returned none."""


class ScriptMiss(GatewayError):
    """The mock backend has no scripted response for a request digest."""


# Requests that still fail after the backend's retries. ``in_order`` yields
# such an error in its call's slot, so it costs only that call; any other
# ``GatewayError`` would fail every request alike, so it stops the run.
ABSORBED_ERRORS = (TransportError, RequestTimeout)


class TeacherUnavailable(GatewayError):
    """So many absorbed failures in a row that the teacher answers nothing."""


# Absorbed failures in a row, with no answer between them, after which a run
# stops. Each one already outlasted the backend's retries: a teacher that
# fails even half its calls at random fails 16 in a row about once in 2**17
# calls, while a dead one (a refused port, a wrong host) costs at most 16
# calls plus the reorder buffer, not the whole attempt budget.
UNAVAILABLE_AFTER = 16

# What a call that sends no request returns: to ``in_order`` it is neither
# an answer nor a failure.
NO_REQUEST = object()


@dataclass(frozen=True)
class CompletionRequest:
    messages: tuple
    temperature: float
    max_new_tokens: int
    want_top_logprobs: int = 0

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise ValueError("request needs at least one message")
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise ValueError(f"temperature must be finite and >= 0: {self.temperature}")
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        if self.want_top_logprobs < 0:
            raise ValueError("want_top_logprobs must be >= 0")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    first_token_logprobs: Optional[dict] = None


def _logprob_map(pairs) -> Dict[str, float]:
    """``{token: logprob}`` from ``(token, logprob)`` pairs read from outside
    the program; ValueError unless each is a string and a number."""
    logprobs = {}
    for token, logprob in pairs:
        if not isinstance(token, str):
            raise ValueError(f"token {token!r} is not a string")
        if isinstance(logprob, bool) or not isinstance(logprob, (int, float)):
            raise ValueError(f"log-probability of token {token!r} is not a number: {logprob!r}")
        logprobs[token] = float(logprob)
    return logprobs


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "mock"
    script: str = ""
    base_url: str = "http://localhost:8000"
    model_name: str = "default"
    request_timeout: float = 120.0
    max_parallel_requests: int = 4
    retry_limit: int = 2

    def __post_init__(self):
        if self.kind not in ("mock", "http"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if not 0 < self.request_timeout < math.inf:  # also false for NaN
            raise ValueError(f"request_timeout must be finite and > 0: {self.request_timeout}")
        if self.max_parallel_requests < 1:
            raise ValueError("max_parallel_requests must be >= 1")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        try:
            url = urllib.parse.urlsplit(self.base_url)
            url.port  # a port that is not a number raises ValueError
        except ValueError:
            url = None
        if url is None or url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(
                f"base_url must be an http:// or https:// URL with a host: {self.base_url!r}"
            )


def request_digest(messages: Sequence[ChatMessage]) -> str:
    """Canonical digest of a message sequence; the mock script key."""
    canon = json.dumps(
        [[m.role, m.content] for m in messages],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class MockBackend:
    """Replays scripted responses by exact request digest.

    The script maps ``request_digest(messages)`` to a ``CompletionResult``.
    Unknown digests raise ``ScriptMiss`` naming the digest, which keeps
    silently-drifting prompts from passing as green runs.
    """

    def __init__(self, script: Mapping[str, CompletionResult]):
        self._script: Dict[str, CompletionResult] = dict(script)

    def complete(self, req: CompletionRequest) -> CompletionResult:
        digest = request_digest(req.messages)
        if digest not in self._script:
            raise ScriptMiss(f"no scripted response for request digest {digest}")
        scripted = self._script[digest]
        if req.want_top_logprobs > 0 and scripted.first_token_logprobs:
            top = sorted(
                scripted.first_token_logprobs.items(), key=lambda kv: (-kv[1], kv[0])
            )[: req.want_top_logprobs]
            return CompletionResult(scripted.text, dict(top))
        return CompletionResult(scripted.text, None)


def save_script(script: Mapping[str, CompletionResult], path) -> None:
    """Write a mock script to JSON (digest -> {text, first_token_logprobs})."""
    payload = {
        "version": SCRIPT_VERSION,
        "responses": {
            digest: {
                "text": result.text,
                "first_token_logprobs": result.first_token_logprobs,
            }
            for digest, result in script.items()
        },
    }
    write_json(payload, path)


def load_script(path) -> Dict[str, CompletionResult]:
    """Read a mock script written by ``save_script``.

    A file of any other shape or version raises ValueError naming ``path``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:  # syntax, digit limit, nesting
            raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("responses"), dict):
        raise ValueError(f"{path}: not a mock script: expected an object with 'responses'")
    if payload.get("version") != SCRIPT_VERSION:
        raise ValueError(f"{path}: unsupported mock script version {payload.get('version')!r}")
    script = {}
    for digest, entry in payload["responses"].items():
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("text"), str)
            and isinstance(entry.get("first_token_logprobs"), (dict, type(None)))
        ):
            raise ValueError(f"{path}: response {digest} is not a text with optional logprobs")
        logprobs = entry.get("first_token_logprobs")
        if logprobs is not None:
            try:
                logprobs = _logprob_map(logprobs.items())
            except ValueError as exc:
                raise ValueError(f"{path}: response {digest}: {exc}") from None
        script[digest] = CompletionResult(entry["text"], logprobs)
    return script


class HttpBackend:
    """OpenAI-compatible chat-completions client on the standard library.

    Transient failures (connection errors, timeouts, HTTP 429 and 5xx) are
    retried up to ``retry_limit`` times with exponential backoff, or after the
    response's ``Retry-After`` delay when it is given in seconds (RFC 9110
    §10.2.3), capped at ``request_timeout``. Any other non-200 status (a wrong
    key, model name or URL, or a redirect, which is not followed) raises
    ``RequestRejected`` at once. ``max_parallel_requests`` is enforced with a
    semaphore so the backend can be shared across threads; a request backs
    off without holding its slot.

    Each slot keeps one keep-alive ``http.client`` connection. An idle one the
    server has closed is reopened before it carries a request. TLS is
    verified by ``ssl.create_default_context()``. The ``http_proxy``,
    ``https_proxy`` and ``no_proxy`` environment variables are honoured: an
    http request goes to the proxy with an absolute-form target, an https one
    through a CONNECT tunnel.
    """

    def __init__(self, config: BackendConfig, sleep=time.sleep):
        # Imported here so that commands which never talk HTTP do not load
        # them, and not in ``complete``, whose first call may run on an
        # ``in_order`` worker thread.
        import http.client
        import urllib.request

        self.config = config
        self._sleep = sleep
        self._slots = threading.Semaphore(config.max_parallel_requests)
        self._idle: list = []  # connections between requests
        self._errors = (OSError, http.client.HTTPException)
        url = urllib.parse.urlsplit(config.base_url)
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and urllib.request.proxy_bypass(url.hostname):
            proxy = None
        self._target, self._proxy_headers, self._connect = _route(
            url, proxy, config.request_timeout
        )

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json", **self._proxy_headers}
        token = os.environ.get(API_KEY_ENV, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _body(self, req: CompletionRequest) -> dict:
        body = {
            "model": self.config.model_name,
            "messages": [{"role": m.role, "content": m.content} for m in req.messages],
            "temperature": req.temperature,
            "max_tokens": req.max_new_tokens,
        }
        if req.want_top_logprobs > 0:
            body["logprobs"] = True
            body["top_logprobs"] = req.want_top_logprobs
        return body

    def complete(self, req: CompletionRequest) -> CompletionResult:
        body = json.dumps(self._body(req)).encode("utf-8")
        headers = self._headers()
        last_error: Optional[GatewayError] = None
        delay = 0.0
        for attempt in range(self.config.retry_limit + 1):
            if attempt:
                self._sleep(delay)
            with self._slots:
                try:
                    status, retry_after, data = self._post(body, headers)
                except TimeoutError as exc:
                    status, last_error = None, RequestTimeout(str(exc))
                except self._errors as exc:
                    status, last_error = None, TransportError(str(exc) or repr(exc))
            delay = 0.25 * 2**attempt
            if status is None:
                continue
            if status == 429 or status >= 500:
                last_error = TransportError(f"HTTP {status}")
                # Only the delta-seconds form; an HTTP-date backs off.
                value = retry_after.strip()
                if value.isascii() and value.isdigit():
                    delay = min(int(value), self.config.request_timeout)
                continue
            if status != 200:
                text = data.decode("utf-8", "replace")
                raise RequestRejected(f"HTTP {status}: {text[:200]}")
            return self._parse(data)
        raise last_error

    def _post(self, body: bytes, headers: dict):
        """One POST on this slot's connection: (status, Retry-After, body)."""
        try:
            conn = self._idle.pop()
        except IndexError:
            conn = self._connect()
        if conn.sock is not None and _readable(conn.sock):
            # The server closed the idle connection (or sent bytes nobody
            # asked for); http.client reconnects on the next request.
            conn.close()
        try:
            conn.request("POST", self._target, body, headers)
            response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        self._idle.append(conn)
        return response.status, response.getheader("Retry-After", ""), data

    @staticmethod
    def _parse(data: bytes) -> CompletionResult:
        try:
            payload = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"response body is not JSON: {exc}") from exc
        try:
            choice = payload["choices"][0]
            text = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed completion payload: {exc!r}") from exc
        if not isinstance(text, str):
            raise ProtocolError(f"completion content is not text: {type(text)}")
        logprobs = None
        lp = choice.get("logprobs")
        try:
            if lp and lp.get("content"):
                top = lp["content"][0]["top_logprobs"]
                logprobs = _logprob_map((e["token"], e["logprob"]) for e in top)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed logprob payload: {exc!r}") from exc
        return CompletionResult(text=text, first_token_logprobs=logprobs)


def _route(url, proxy: Optional[str], timeout: float):
    """(request target, proxy headers, connection factory) for requests to
    ``url``, made directly or through an http ``proxy``."""
    import http.client
    import ssl

    path = url.path.rstrip("/") + "/v1/chat/completions"
    if url.scheme == "https":
        connection = functools.partial(
            http.client.HTTPSConnection, context=ssl.create_default_context()
        )
    else:
        connection = http.client.HTTPConnection
    if not proxy:
        return path, {}, functools.partial(connection, url.hostname, url.port, timeout=timeout)
    proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
    if proxy_url.scheme != "http" or not proxy_url.hostname:
        raise ValueError(f"{url.scheme}_proxy must be an http:// URL: {proxy!r}")
    auth = {}
    if proxy_url.username is not None:
        import base64

        credentials = ":".join(
            urllib.parse.unquote(part or "") for part in (proxy_url.username, proxy_url.password)
        )
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(
            credentials.encode("utf-8")
        ).decode("ascii")
    via_proxy = functools.partial(
        connection, proxy_url.hostname, proxy_url.port or 80, timeout=timeout
    )
    if url.scheme == "http":
        host = url.netloc.rpartition("@")[2]
        return f"http://{host}{path}", auth, via_proxy

    def tunnel():
        conn = via_proxy()
        conn.set_tunnel(url.hostname, url.port, auth)
        return conn

    return path, {}, tunnel


def _readable(sock) -> bool:
    """Whether a socket has something to read right now (urllib3's check of
    an idle keep-alive connection: readable means closed or out of step)."""
    return bool(select.select([sock], [], [], 0)[0])


# Calls ``in_order`` keeps submitted but not yet yielded (queued, running, or
# finished and buffered), per worker thread. A slow call at the head then
# holds up at most this many results per thread, not every other thread.
AHEAD = 4


class _Inline:
    """The width-1 executor: runs each call on the calling thread at submit."""

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False) -> None:
        pass


def in_order(
    fn: Callable[[int], object],
    count: int,
    width: int,
    room: Optional[Callable[[], int]] = None,
) -> Iterator:
    """Yield ``fn(0), ..., fn(count - 1)`` in index order, on ``width``
    worker threads.

    Up to ``AHEAD * width`` calls are submitted but not yet yielded: queued,
    running, or finished and held until every earlier result has been
    yielded. A thread that frees starts the next queued call, so one slow
    call holds up no other thread, and at most ``width`` calls run at once.
    ``room()``, when given, is how many more results the caller can still
    use; the calls submitted and not yet yielded never exceed it, so every
    call made is one a serial loop would also have made.

    The failure policy of both teacher stages lives here. A call that
    raises one of ``ABSORBED_ERRORS`` yields that error as its result. Such
    errors are counted in index order, so the stop falls on the same call at
    any width: any other result resets the count, except ``NO_REQUEST``,
    which neither counts nor resets. Where the ``UNAVAILABLE_AFTER``-th in a
    row is due, ``TeacherUnavailable`` is raised instead, naming it and
    chained from it. Any other exception from ``fn(i)`` is raised where
    result ``i`` is due, after every earlier result, and no call after ``i``
    starts once it is raised.

    On any exit (an exception, Ctrl-C or closing the generator) no further
    call starts, and running ones are waited for; a caller that stops early
    closes the generator (``contextlib.closing``), so this happens on its
    own thread. Width 1 runs each call inline, with no thread, when its
    result is due.
    """
    if width > 1:
        pool, window = ThreadPoolExecutor(width, "teacher"), AHEAD * width
    else:
        pool, window = _Inline(), 1
    # Calls past this index do not start: the earliest that has raised, or
    # -1 once the generator exits.
    last_to_start = count
    lock = threading.Lock()

    def call(i):
        nonlocal last_to_start
        if i > last_to_start:
            return None  # never yielded: an earlier call's error comes first
        try:
            return fn(i)
        except ABSORBED_ERRORS as error:
            return error
        except BaseException:
            with lock:
                last_to_start = min(last_to_start, i)
            raise

    pending: deque = deque()
    issued = failures = 0
    try:
        while True:
            limit = window if room is None else min(window, room())
            while issued < count and len(pending) < limit:
                pending.append(pool.submit(call, issued))
                issued += 1
            if not pending:
                return
            result = pending.popleft().result()
            if isinstance(result, ABSORBED_ERRORS):
                failures += 1
                if failures == UNAVAILABLE_AFTER:
                    raise TeacherUnavailable(
                        f"teacher unavailable: {failures} calls in a row failed after "
                        f"their retries; the last with {type(result).__name__}: {result}"
                    ) from result
            elif result is not NO_REQUEST:
                failures = 0
            yield result
    finally:
        with lock:
            last_to_start = -1
        pool.shutdown(wait=True, cancel_futures=True)
