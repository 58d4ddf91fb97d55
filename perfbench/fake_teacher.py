"""A fake OpenAI-compatible teacher for the benchmark's HTTP workload.

``FakeTeacher`` serves ``POST /v1/chat/completions`` on 127.0.0.1 from one
asyncio loop running in a background thread. Requests are handled
concurrently (each waits on its own ``asyncio.sleep``), so a client that
sends requests in parallel sees them overlap; a serial client sees an
in-flight maximum of 1.

Every reply is a deterministic function of the workload seed and the whole
request body: the reply text, the first-token log-probabilities and the
added delay. Changing any body field, such as an OpenAI ``seed``, changes
the reply. The delay has a fixed median and a seeded tail, so a client that
commits results in order pays for the slow requests.

The server never answers 429; a malformed request gets a 4xx, which the
counters record as a non-200 reply.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import random
import re
import threading
from dataclasses import dataclass

SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou")
VOCABULARY_SIZE = len(SYLLABLES) ** 3
QUESTION_WORDS = 9
ANSWER_WORDS = 3
FILLER_TOKENS = ("The", " I", "Answer", " The")
_CHOICE_LINE = re.compile(r"^([A-Z])\. ", re.MULTILINE)

# Delay shape, in units of the median: 90% of requests are uniform in
# [0.5, 1.4), the slowest 10% are uniform in [1.4, 5.4). The shape is
# synthetic, not a measured provider's: a spread body plus a long tail is
# what makes a client that commits results in order wait on its slowest
# request, which is what the workload must be able to show.
TAIL_SHARE = 0.1
TAIL_SPAN = 4.0


def word(index: int) -> str:
    """The index-th synthetic word: three syllables, distinct per index."""
    n = len(SYLLABLES)
    return SYLLABLES[index // (n * n) % n] + SYLLABLES[index // n % n] + SYLLABLES[index % n]


def delay_factor(u: float) -> float:
    """Map a uniform draw to a delay multiple of the median (median = 1.0)."""
    body = 1.0 - TAIL_SHARE
    if u < body:
        return 0.5 + u
    return 0.5 + body + TAIL_SPAN * (u - body) / TAIL_SHARE


def reply_rng(seed: int, body: dict) -> random.Random:
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    digest = hashlib.sha256(f"{seed}\x1f{canon}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _phrase(rng: random.Random, n_words: int) -> str:
    return " ".join(word(rng.randrange(VOCABULARY_SIZE)) for _ in range(n_words))


def completion(seed: int, body: dict, median_delay_s: float):
    """(delay seconds, response payload) for one chat-completion request."""
    rng = reply_rng(seed, body)
    delay = median_delay_s * delay_factor(rng.random())
    messages = body["messages"]
    system = " ".join(m["content"] for m in messages if m["role"] == "system").lower()
    last_user = next(m["content"] for m in reversed(messages) if m["role"] == "user")
    logprobs = None
    if body.get("logprobs"):
        letters = _CHOICE_LINE.findall(last_user.split("\n", 1)[-1]) or ["A"]
        tokens = list(dict.fromkeys(letters)) + list(FILLER_TOKENS)
        raw = [rng.gauss(0.0, 2.0) for _ in tokens]
        top = max(raw)
        log_z = top + math.log(sum(math.exp(r - top) for r in raw))
        entries = sorted(
            ({"token": t, "logprob": r - log_z} for t, r in zip(tokens, raw)),
            key=lambda e: (-e["logprob"], e["token"]),
        )[: max(1, int(body.get("top_logprobs") or 1))]
        text = entries[0]["token"]
        logprobs = {
            "content": [
                {"token": text, "logprob": entries[0]["logprob"], "top_logprobs": entries}
            ]
        }
    elif "creating question" in system:
        text = f"Which {_phrase(rng, QUESTION_WORDS)}?"
    else:
        text = _phrase(rng, ANSWER_WORDS)
    choice = {
        "index": 0,
        "message": {"role": "assistant", "content": text},
        "finish_reason": "stop",
        "logprobs": logprobs,
    }
    payload = {
        "id": f"chatcmpl-{rng.getrandbits(64):016x}",
        "object": "chat.completion",
        "model": body.get("model", ""),
        "choices": [choice],
    }
    return delay, payload


@dataclass
class TeacherStats:
    requests: int = 0
    non_200: int = 0
    delay_s: float = 0.0
    in_flight_max: int = 0


class FakeTeacher:
    """The server; use as a context manager or call ``start``/``close``."""

    def __init__(self, seed: int, median_delay_s: float):
        self.seed = seed
        self.median_delay_s = median_delay_s
        self.port = None
        self._stats = TeacherStats()
        self._in_flight = 0
        self._lock = threading.Lock()
        self._loop = None
        self._thread = None
        self._server = None
        self._connections = set()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def start(self) -> "FakeTeacher":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="fake-teacher", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            asyncio.start_server(self._serve, "127.0.0.1", 0), self._loop
        )
        self._server = future.result(timeout=10)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def close(self) -> None:
        if self._loop is None:
            return

        async def shutdown():
            self._server.close()
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()

        asyncio.run_coroutine_threadsafe(shutdown(), self._loop).result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("fake teacher thread did not stop")
        self._loop.close()
        self._loop = None

    def __enter__(self) -> "FakeTeacher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def take_stats(self) -> TeacherStats:
        """Counters since the previous call (or since start), then reset them."""
        with self._lock:
            stats, self._stats = self._stats, TeacherStats()
        return stats

    def _count(self, status: int, delay: float) -> None:
        with self._lock:
            self._stats.requests += 1
            self._stats.delay_s += delay
            if status != 200:
                self._stats.non_200 += 1

    def _enter(self) -> None:
        with self._lock:
            self._in_flight += 1
            self._stats.in_flight_max = max(self._stats.in_flight_max, self._in_flight)

    def _leave(self) -> None:
        with self._lock:
            self._in_flight -= 1

    async def _serve(self, reader, writer) -> None:
        self._connections.add(writer)
        try:
            while True:
                request_line = await reader.readline()
                if not request_line.strip():
                    break
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                body = await reader.readexactly(int(headers.get("content-length", "0")))
                self._enter()
                try:
                    status, payload = await self._respond(request_line, body)
                    data = json.dumps(payload).encode("utf-8")
                    writer.write(
                        f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                        f"Content-Type: application/json\r\n"
                        f"Content-Length: {len(data)}\r\n\r\n".encode("latin-1")
                        + data
                    )
                    await writer.drain()
                finally:
                    self._leave()
                if headers.get("connection", "").lower() == "close":
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()

    async def _respond(self, request_line: bytes, body: bytes):
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2 or parts[0] != "POST" or parts[1] != "/v1/chat/completions":
            self._count(404, 0.0)
            return 404, {"error": {"message": f"no route {request_line!r}"}}
        try:
            request = json.loads(body)
            delay, payload = completion(self.seed, request, self.median_delay_s)
        except (ValueError, KeyError, TypeError, StopIteration) as exc:
            self._count(400, 0.0)
            return 400, {"error": {"message": f"bad request: {exc!r}"}}
        await asyncio.sleep(delay)
        self._count(200, delay)
        return 200, payload
