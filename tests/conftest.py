import http.server
import json
import os
import socket
import threading
from dataclasses import dataclass, field

# One BLAS thread for the test process, as the mcqa CLI sets it: numpy's idle
# OpenBLAS pool only adds start-up cost. An exported value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from mcqa_distill.core import FewShotSet, McqaInstance, shuffled, stable_seed
from mcqa_distill.datasets import Corpus, CorpusMeta
from mcqa_distill.gateway import MockBackend
from mcqa_distill.generation import attempt_instance, attempt_seed, generate
from mcqa_distill.mock_script import _record_run, add_scoring_responses


def make_instance(
    instance_id="inst-0",
    topic="grade school science",
    question="Which energy resource is non-renewable?",
    choices=("oil", "solar", "water", "wind"),
    answer_index=0,
    teacher_scores=None,
):
    return McqaInstance(
        id=instance_id,
        topic=topic,
        question=question,
        choices=tuple(choices),
        answer_index=answer_index,
        teacher_scores=teacher_scores,
    )


def build_separable_corpus(
    count: int, num_choices: int = 4, seed: int = 0, marker: str = "lodestone"
) -> Corpus:
    """Instances whose gold choice contains a marker token; linearly separable."""
    rng = np.random.default_rng(stable_seed(seed, "separable"))
    vocab = [f"word{k:02d}" for k in range(30)]
    instances = []
    for i in range(count):
        answer = int(rng.integers(num_choices))
        choices = []
        seen = set()
        for j in range(num_choices):
            while True:
                tokens = list(rng.choice(vocab, size=3, replace=False))
                if j == answer:
                    tokens.append(marker)
                text = " ".join(tokens)
                if text not in seen:
                    break
            seen.add(text)
            choices.append(text)
        instances.append(
            McqaInstance(
                f"sep-{seed}-{i:05d}",
                "synthetic",
                f"which entry is marked in batch {i}?",
                choices,
                answer,
            )
        )
    return Corpus(tuple(instances), CorpusMeta(source="separable-synthetic"))


def fabricate_decomposed_run(fs, cfg, scoring_cfg=None):
    """Script a decomposed run with distinct negatives for every slot.

    Attempt ``i`` is answered with its question, its positive, then its
    negatives in slot order. ``expected`` holds the instances the run emits:
    those replies dealt by ``core.shuffled`` under the attempt's shuffle
    seed, with the gold at the positive's position.

    Two attempts can share a question prompt, and the script then answers
    both with the later one's replies, each dealt under its own seed; so the
    scoring replies cover the instances a run of the script really emits.
    """
    expected, plans = [], []
    for attempt in range(cfg.target_count):
        question = f"Synthetic staged {fs.topic} question {attempt}?"
        positive = f"right answer {attempt}"
        plan = [positive] + [f"wrong answer {attempt}-{slot}" for slot in range(cfg.negatives_n)]
        choices = shuffled(plan, attempt_seed(cfg.seed, "shuffle", attempt))
        fields = (question, choices, choices.index(positive))
        expected.append(attempt_instance("decompose", fs, cfg, attempt, fields))
        plans.append([question, *plan])
    script, expected = _record_run("decompose", fs, cfg, plans, expected, None)
    if scoring_cfg is not None:
        emitted, _ = generate(fs, cfg, MockBackend(script))
        add_scoring_responses(script, emitted, fs, scoring_cfg)
    return script, expected


def fabricate_paraphrase_run(fs, cfg, rewrite=lambda text: f"{text} (reworded)"):
    """Script a paraphrase run; ``rewrite`` fabricates each rewritten field."""
    expected = []
    for attempt in range(cfg.target_count):
        source = fs.examples[attempt % len(fs.examples)]
        question = rewrite(source.question)
        choices = [rewrite(c) for c in source.choices]
        fields = (question, choices, source.answer_index)
        expected.append(attempt_instance("paraphrase", fs, cfg, attempt, fields))
    plans = [[inst.question, *inst.choices] for inst in expected]
    return _record_run("paraphrase", fs, cfg, plans, expected, None)


# JSON nested past the interpreter's recursion limit: ``json.loads`` raises
# RecursionError on it, not ValueError.
NESTED_TOO_DEEPLY = "[" * 100_000 + "]" * 100_000


SCIENCE_EXAMPLES = (
    (
        "Which of the following materials would best slow the transfer of heat?",
        ("aluminum", "copper", "glass", "wood"),
        3,
    ),
    (
        "In which environment is white fur color an advantage for survival?",
        ("desert", "grassland", "arctic tundra", "temperate forest"),
        2,
    ),
    (
        "The mathematical model for calculating speed is shown below. Speed = "
        "distance/time. An airplane traveled 700 kilometers in two hours during "
        "a trip. What was the average speed of the plane during the trip?",
        (
            "5.8 kilometers per hour",
            "350 kilometers per hour",
            "1400 kilometers per hour",
            "84,000 kilometers per hour",
        ),
        1,
    ),
    (
        "The aloe plant can absorb a lot of water during a rain shower. The "
        "extra water is stored in its leaves. The ability to store water in its "
        "leaves is most likely an adaptation to which type of environment?",
        (
            "one near the ocean",
            "one with dry conditions",
            "one with a variety of organisms",
            "one that receives a lot of sunlight",
        ),
        1,
    ),
    (
        "Near Earth's equator, water generally exists naturally in the liquid "
        "and gas states. In which other part of Earth is water usually found "
        "naturally in only two states?",
        ("Indian Ocean", "interior of Africa", "South Pole", "Tropic of Cancer"),
        2,
    ),
)


@pytest.fixture
def science_fewshot():
    """Five seed examples sharing one topic."""
    examples = tuple(
        make_instance(f"seed-{i}", "grade school science", q, choices, answer)
        for i, (q, choices, answer) in enumerate(SCIENCE_EXAMPLES)
    )
    return FewShotSet(topic="grade school science", examples=examples)


class FixedLogitStudent:
    """Test double scoring (question, choice) pairs from a lookup table.

    ``params`` holds the table's logits, then ``default``; each pair's
    feature vector is the single unit coordinate of its entry, so every
    logit equals its table value bit for bit.
    """

    def __init__(self, table, default=0.0):
        table = dict(table)
        self.slots = {pair: k for k, pair in enumerate(table)}
        self.params = np.array([*table.values(), default], dtype=np.float64)

    def instance_features(self, items):
        one = np.array([1.0])
        for question, choices in items:
            yield tuple(
                (np.array([self.slots.get((question, c), len(self.slots))]), one)
                for c in choices
            )


@pytest.fixture
def fixed_logit_student():
    return FixedLogitStudent


@dataclass
class Reply:
    """One scripted answer: JSON ``payload`` (or raw ``body`` bytes) under
    ``status`` and ``headers``, sent after ``delay`` seconds. ``drop`` closes
    the connection after the reply without saying so in a header."""

    status: int = 200
    payload: object = None
    body: bytes = None
    headers: dict = field(default_factory=dict)
    delay: float = 0.0
    drop: bool = False


@dataclass
class Received:
    method: str
    target: str
    headers: dict
    body: bytes
    connection: int

    @property
    def json(self):
        return json.loads(self.body)


class _Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out in two writes

    def setup(self):
        super().setup()
        self.connection_number = self.server.teacher._opened(self.connection)

    def do_POST(self):
        teacher = self.server.teacher
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        reply = teacher._received(
            Received(self.command, self.path, dict(self.headers), raw, self.connection_number)
        )
        if reply.delay:
            teacher._stopping.wait(reply.delay)
        data = reply.body if reply.body is not None else json.dumps(reply.payload).encode()
        self.send_response(reply.status)
        for key, value in reply.headers.items():
            self.send_header(key, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        if reply.drop:
            self.close_connection = True

    do_CONNECT = do_POST

    def log_message(self, *args):
        pass


class _Server(http.server.ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address):
        pass  # a client that timed out hung up before its reply

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.teacher._closed(request)


class ScriptedTeacher:
    """A loopback HTTP/1.1 server (keep-alive, one thread per connection).

    Each request gets the next reply of ``replies`` or, once they run out,
    ``respond(received)``. It records every request in ``received`` and
    counts the TCP connections it accepted and closed.
    """

    def __init__(self, respond=None):
        self.replies = []
        self.respond = respond or (lambda received: Reply(404, {"error": "unscripted"}))
        self.received = []
        self.connections = 0
        self.closed = 0
        self._open = set()
        self._lock = threading.Condition()
        self._stopping = threading.Event()
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.teacher = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stopping.set()
        self._server.shutdown()
        with self._lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self._server.server_close()
        self._thread.join(timeout=10)

    def wait_closed(self, count: int, timeout: float = 5.0) -> None:
        with self._lock:
            assert self._lock.wait_for(lambda: self.closed >= count, timeout)

    def _opened(self, sock) -> int:
        with self._lock:
            self._open.add(sock)
            self.connections += 1
            return self.connections

    def _closed(self, sock) -> None:
        with self._lock:
            self._open.discard(sock)
            self.closed += 1
            self._lock.notify_all()

    def _received(self, received: Received) -> Reply:
        with self._lock:
            self.received.append(received)
            if self.replies:
                return self.replies.pop(0)
        return self.respond(received)


@pytest.fixture(autouse=True)
def _no_proxy_from_the_host(monkeypatch):
    """Loopback servers are reached directly, whatever proxy the host sets."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.fixture
def scripted_teacher():
    """A running ``ScriptedTeacher``, stopped after the test."""
    with ScriptedTeacher() as teacher:
        yield teacher
