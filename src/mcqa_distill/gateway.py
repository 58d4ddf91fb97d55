"""Transport to any OpenAI-compatible chat-completion endpoint, plus a
deterministic scripted mock backend for offline runs.

A backend is anything with ``complete(request) -> CompletionResult``. The HTTP
backend talks to ``{base_url}/v1/chat/completions`` and extracts the first
generated token's top log-probabilities when asked; the mock backend replays
scripted responses keyed by a digest of the exact message sequence, so whole
pipeline runs are bit-reproducible without a server. ``in_order`` is the
executor both teacher stages run on: bounded concurrency, results in order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence

import requests
from requests.adapters import HTTPAdapter

from .core import ChatMessage, write_json

API_KEY_ENV = "MCQA_API_KEY"

# Raw log-probability assigned to identifiers absent from the returned top-K:
# the smallest present value minus this margin, keeping absent letters ranked
# strictly below present ones while the downstream softmax stays defined.
MISSING_LOGPROB_MARGIN = 10.0


class GatewayError(Exception):
    """Base class for backend failures."""


class TransportError(GatewayError):
    """Request could not be completed after exhausting retries."""


class RequestTimeout(GatewayError):
    """Request timed out after exhausting retries."""


class ProtocolError(GatewayError):
    """The backend answered with a payload we cannot interpret."""


class NoLogprobSupport(GatewayError):
    """Log-probabilities were requested but the backend returned none."""


class ScriptMiss(GatewayError):
    """The mock backend has no scripted response for a request digest."""


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


@dataclass(frozen=True)
class BackendConfig:
    base_url: str = "http://localhost:8000"
    model_name: str = "default"
    request_timeout: float = 120.0
    max_parallel_requests: int = 4
    retry_limit: int = 2

    def __post_init__(self):
        if self.max_parallel_requests < 1:
            raise ValueError("max_parallel_requests must be >= 1")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")


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

    The script maps ``request_digest(messages)`` to either a plain string (the
    completion text) or a full ``CompletionResult``. Unknown digests raise
    ``ScriptMiss`` naming the digest, which keeps silently-drifting prompts
    from passing as green runs.
    """

    def __init__(self, script: Mapping[str, object]):
        self._script: Dict[str, CompletionResult] = {}
        for digest, value in script.items():
            if isinstance(value, str):
                value = CompletionResult(text=value)
            self._script[digest] = value

    def __len__(self) -> int:
        return len(self._script)

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
        "version": 1,
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
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return {
        digest: CompletionResult(
            text=entry["text"],
            first_token_logprobs=entry.get("first_token_logprobs"),
        )
        for digest, entry in payload["responses"].items()
    }


class HttpBackend:
    """OpenAI-compatible chat-completions client.

    Transient failures (connection errors, timeouts, HTTP 429 and 5xx) are
    retried up to ``retry_limit`` times with exponential backoff, or after the
    response's ``Retry-After`` delay when it is given in seconds (RFC 9110
    §10.2.3), capped at ``request_timeout``; anything else fails immediately.
    ``max_parallel_requests`` is enforced with a semaphore so the backend can
    be shared across threads; a request backs off without holding its slot.
    """

    def __init__(self, config: BackendConfig, session=None, sleep=time.sleep):
        self.config = config
        if session is None:
            # requests keeps 10 connections per host unless told otherwise.
            session = requests.Session()
            adapter = HTTPAdapter(pool_maxsize=config.max_parallel_requests)
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self._session = session
        self._sleep = sleep
        self._slots = threading.Semaphore(config.max_parallel_requests)

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
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
        url = self.config.base_url.rstrip("/") + "/v1/chat/completions"
        body = self._body(req)
        last_error: Optional[GatewayError] = None
        delay = 0.0
        for attempt in range(self.config.retry_limit + 1):
            if attempt:
                self._sleep(delay)
            with self._slots:
                try:
                    response = self._session.post(
                        url,
                        json=body,
                        headers=self._headers(),
                        timeout=self.config.request_timeout,
                    )
                except requests.Timeout as exc:
                    response, last_error = None, RequestTimeout(str(exc))
                except requests.RequestException as exc:
                    response, last_error = None, TransportError(str(exc))
            delay = 0.25 * 2**attempt
            if response is None:
                continue
            if response.status_code == 429 or response.status_code >= 500:
                last_error = TransportError(f"HTTP {response.status_code}")
                # Only the delta-seconds form; an HTTP-date backs off.
                value = response.headers.get("Retry-After", "").strip()
                if value.isascii() and value.isdigit():
                    delay = min(int(value), self.config.request_timeout)
                continue
            if response.status_code != 200:
                raise TransportError(
                    f"HTTP {response.status_code}: {response.text[:200]}"
                )
            return self._parse(response)
        raise last_error

    @staticmethod
    def _parse(response) -> CompletionResult:
        try:
            payload = response.json()
        except ValueError as exc:
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
        if lp and lp.get("content"):
            try:
                top = lp["content"][0]["top_logprobs"]
                logprobs = {e["token"]: float(e["logprob"]) for e in top}
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise ProtocolError(f"malformed logprob payload: {exc!r}") from exc
        return CompletionResult(text=text, first_token_logprobs=logprobs)


def score_identifiers(
    backend,
    req: CompletionRequest,
    identifiers: Sequence[str],
    floor_margin: float = MISSING_LOGPROB_MARGIN,
) -> Dict[str, float]:
    """First-token log-probability for each identifier letter.

    Identifiers absent from the returned top-K get the smallest present value
    minus ``floor_margin``; if none are present at all, every identifier gets
    an equal 0.0 (uniform after the downstream softmax).
    """
    identifiers = list(identifiers)
    if len(set(identifiers)) != len(identifiers):
        raise ValueError("identifiers must be distinct")
    if req.want_top_logprobs < len(identifiers):
        req = replace(req, want_top_logprobs=len(identifiers))
    result = backend.complete(req)
    if result.first_token_logprobs is None:
        raise NoLogprobSupport("backend returned no log-probability data")
    # Tokens may carry whitespace (' A'); collapse to the stripped form,
    # keeping the most probable variant.
    by_token: Dict[str, float] = {}
    for token, logprob in result.first_token_logprobs.items():
        key = token.strip()
        if key not in by_token or logprob > by_token[key]:
            by_token[key] = logprob
    present = {i: by_token[i] for i in identifiers if i in by_token}
    if not present:
        return {i: 0.0 for i in identifiers}
    floor = min(present.values()) - floor_margin
    return {i: present.get(i, floor) for i in identifiers}


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
    """Yield ``fn(0), ..., fn(count - 1)`` in index order, up to ``width``
    calls running at once.

    ``room()``, when given, is how many more results the caller can still
    use; the calls in flight never exceed it, so every call made is one a
    serial loop would also have made. An exception from ``fn(i)`` is raised
    where result ``i`` is due, after every earlier result. On any exit
    (an exception, Ctrl-C or closing the generator) calls not yet started
    are cancelled and running ones are waited for. Width 1 runs each call
    inline, with no thread.
    """
    pool = ThreadPoolExecutor(width, "teacher") if width > 1 else _Inline()
    pending: deque = deque()
    issued = 0
    try:
        while True:
            limit = width if room is None else min(width, room())
            while issued < count and len(pending) < limit:
                pending.append(pool.submit(fn, issued))
                issued += 1
            if not pending:
                return
            yield pending.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
