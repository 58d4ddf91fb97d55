"""Span recorder for the benchmark's traced runs, and the analysis of its output.

A traced CLI command runs under ``launcher.py``, which installs a
``Recorder`` before handing control to ``mcqa_distill.cli.main``. The
recorder replaces each public function listed in ``TARGETS`` with a wrapper
at the name its caller looks up (``generation.build_negative_prompt``, not
only ``prompts.build_negative_prompt``), so calls from inside the program
are seen. Each call records a span (name, start, end, parent); spans stay
in memory and are written as one JSON file when the command exits.

The program itself is not edited: the spans sit around calls into each
layer, from the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import threading
import time
from collections import Counter, defaultdict

ROOT = "command"

# (module, attribute path, span name). A span name may be shared by several
# functions that do the same job for different callers.
TARGETS = (
    ("mcqa_distill.cli", "generate", "generation.generate"),
    ("mcqa_distill.cli", "score_instances", "scoring.score"),
    ("mcqa_distill.cli", "train", "distillation.train"),
    ("mcqa_distill.cli", "evaluate_accuracy", "evaluation.accuracy"),
    ("mcqa_distill.cli", "read_jsonl", "datasets.read"),
    ("mcqa_distill.cli", "write_jsonl", "datasets.write"),
    ("mcqa_distill.generation", "build_json_generation_prompt", "prompts.build"),
    ("mcqa_distill.generation", "build_question_prompt", "prompts.build"),
    ("mcqa_distill.generation", "build_positive_prompt", "prompts.build"),
    ("mcqa_distill.generation", "build_negative_prompt", "prompts.build"),
    ("mcqa_distill.generation", "build_paraphrase_prompt", "prompts.build"),
    ("mcqa_distill.generation", "parse_json_candidate", "generation.parse"),
    ("mcqa_distill.scoring", "fit_scoring_prompt", "scoring.fit"),
    ("mcqa_distill.scoring", "build_scoring_prompt", "prompts.build"),
    ("mcqa_distill.scoring", "scoring_user_block", "prompts.build"),
    ("mcqa_distill.gateway", "request_digest", "gateway.digest"),
    ("mcqa_distill.gateway", "MockBackend.complete", "gateway.complete"),
    ("mcqa_distill.gateway", "HttpBackend.complete", "gateway.complete"),
    ("mcqa_distill.distillation", "soften", "scoring.soften"),
    ("mcqa_distill.distillation", "batch_loss_and_gradient", "distillation.kernel"),
    ("mcqa_distill.students", "hashed_pair_features", "students.hash"),
)


def _parse_ok(counts, args, result):
    if result[0] is not None:
        counts["generation.parse_ok"] += 1


def _bytes_read(counts, args, result):
    counts["datasets.bytes"] += os.path.getsize(args[0])


def _bytes_written(counts, args, result):
    counts["datasets.bytes"] += os.path.getsize(args[1])


# Counters taken from a call's arguments or result, keyed like TARGETS.
RESULT_COUNTERS = {
    ("mcqa_distill.generation", "parse_json_candidate"): _parse_ok,
    ("mcqa_distill.cli", "read_jsonl"): _bytes_read,
    ("mcqa_distill.cli", "write_jsonl"): _bytes_written,
}


class Recorder:
    """In-memory spans and counters for one process.

    Span 0 is the root (``ROOT``), opened when the recorder is created and
    closed by ``dump``. A span's parent is the innermost open span of the
    same thread; spans opened on another thread hang off the root.
    """

    def __init__(self):
        self.names = [ROOT]
        self._name_ids = {ROOT: 0}
        self.spans = [[0, time.perf_counter(), None, -1]]
        self.counts = Counter()
        self.missing = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._caches = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        stack = self._stack()
        start = time.perf_counter()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name_id, start, None, stack[-1]])
        stack.append(index)
        return index

    def _close(self, index):
        self._stack().pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name, on_result=None):
        """``fn`` with a span around every call; raised calls are counted."""
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{name}.raised"] += 1
                raise
            finally:
                self._close(index)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            if hasattr(fn, "cache_info"):
                self._caches[name] = fn
            hook = RESULT_COUNTERS.get((module_name, path))
            setattr(owner, attr, self.wrap(fn, name, hook))

    def dump(self, path) -> None:
        now = time.perf_counter()
        for span in self.spans:
            if span[2] is None:
                span[2] = now
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        payload = {
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "caches": caches,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


class Trace:
    """One command's spans, loaded from a file ``Recorder.dump`` wrote."""

    def __init__(self, payload: dict):
        self.names = payload["names"]
        self.spans = payload["spans"]
        self.counts = Counter(payload["counts"])
        self.caches = payload["caches"]
        self.missing = payload["missing"]
        self.durations = defaultdict(list)
        for name_id, start, end, _ in self.spans:
            self.durations[self.names[name_id]].append(end - start)

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    @property
    def root_s(self) -> float:
        _, start, end, _ = self.spans[0]
        return end - start

    def self_times(self) -> Counter:
        """Seconds per span name: duration minus what child spans cover."""
        children = defaultdict(list)
        for _, s, e, parent in self.spans:
            if parent >= 0:
                children[parent].append((s, e))
        totals = Counter()
        for position, (name_id, s, e, _) in enumerate(self.spans):
            totals[self.names[name_id]] += (e - s) - _covered(children[position], s, e)
        return totals

    def parent_names(self, name) -> Counter:
        """How many spans called ``name`` sit under each parent span name."""
        found = Counter()
        for name_id, _, _, parent in self.spans:
            if self.names[name_id] == name and parent >= 0:
                found[self.names[self.spans[parent][0]]] += 1
        return found
