"""Benchmark of the mcqa pipeline, driving the real CLI one command at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload (see ``workloads.py``) is a closed loop: one pipeline at a time,
each command a fresh ``python -m mcqa_distill`` process started when the
previous one exits. The run sets its inputs up several times (``setup_s`` is
the median of the time spent in the program's calls), runs one full
pipeline, then repeats the workload's ``rerun`` stages while the next
repetition fits in ``--seconds``, and reports per-stage medians. Every
repetition's outputs are checked; a failed check makes the run print
``"correct": false`` and exit 1.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced pipelines with pipelines whose commands run
under ``launcher.py`` (span recorder installed) and reports the per-layer
metrics, including the tracing overhead and the time no span accounts for.
``--smoke`` shrinks every workload so a run takes seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
SOURCE_DATE_EPOCH = "1700000000"
SETUP_ROUNDS = 3
SETUP_ROUND_S = 0.25
STARTUP_REPEATS = 5
COMMAND_TIMEOUT_S = 170.0
N_FEATURES = 2**18


class CheckFailed(Exception):
    """A command failed or an output is not what the workload must produce."""


@dataclass
class Command:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


@dataclass
class Pipeline:
    commands: dict  # stage -> Command
    traced: bool
    teacher: object  # the fake teacher's TeacherStats over the pipeline, or None
    outcome: dict  # what check_outputs returned

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands.values())


def run_command(argv, cwd: Path, env: dict, log: Path) -> Command:
    """Run one process to completion; CPU and peak RSS from its own rusage."""
    with log.open("ab") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-5:]
        raise CheckFailed(f"{log.stem} exited {proc.returncode}: {tail}")
    return Command(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def lines_digest(path: Path) -> str:
    """SHA-256 of a corpus's instance lines (the meta line holds the config
    digest, which includes the fake teacher's port)."""
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for number, line in enumerate(fh):
            if number or not line.startswith(b'{"meta"'):
                h.update(line)
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(workload, size, inputs, run_dir: Path) -> dict:
    """Check one pipeline's artifacts; return what the metrics need."""
    import numpy as np
    from mcqa_distill.core import validate_instance
    from mcqa_distill.datasets import read_jsonl
    from mcqa_distill.students import ToyStudent
    from workloads import CORPUS, EVAL, MODEL, SCORED

    out = {"digests": {}}
    scored = read_jsonl(run_dir / SCORED).instances
    if workload.generates:
        corpus = read_jsonl(run_dir / CORPUS).instances
        if len(corpus) != size.instances:
            raise CheckFailed(f"corpus holds {len(corpus)} instances, target {size.instances}")
        if [i.id for i in scored] != [i.id for i in corpus]:
            raise CheckFailed("scored corpus does not hold the generated instances in order")
        out["digests"]["corpus"] = lines_digest(run_dir / CORPUS)
        out["report"] = json.loads((run_dir / f"{CORPUS}.report.json").read_text())
        out["score_counts"] = json.loads((run_dir / f"{SCORED}.manifest.json").read_text())["counts"]
        if inputs.expected is not None:
            same = sum(
                (a.question, a.choices, a.answer_index) == (b.question, b.choices, b.answer_index)
                for a, b in zip(corpus, inputs.expected)
            )
            out["expected_match_share"] = same / len(inputs.expected)
    else:
        corpus = scored
    for inst in (*corpus, *scored) if workload.generates else corpus:
        codes = validate_instance(inst)
        if codes:
            raise CheckFailed(f"instance {inst.id} is invalid: {codes}")
    if any(inst.teacher_scores is None for inst in scored):
        raise CheckFailed("a scored instance has no teacher_scores")
    out["digests"]["scored"] = lines_digest(run_dir / SCORED)
    out["distinct_share"] = len({inst.question for inst in corpus}) / len(corpus)

    student = ToyStudent.load(run_dir / MODEL)
    if student.n_features != N_FEATURES:
        raise CheckFailed(f"model has {student.n_features} features, expected {N_FEATURES}")
    if not np.isfinite(student.weights).all():
        raise CheckFailed("model weights are not finite")
    out["active_features"] = int((student.weights != 0).sum())
    out["digests"]["model"] = file_digest(run_dir / MODEL)
    rows = (run_dir / f"{MODEL}.trace.csv").read_text().splitlines()[1:]
    losses = [float(row.split(",")[1]) for row in rows]
    if len(losses) != size.iterations or not all(math.isfinite(x) for x in losses):
        raise CheckFailed(f"loss trace has {len(losses)} rows for {size.iterations} steps")
    out["final_loss"] = losses[-1]
    evaluation = json.loads((run_dir / EVAL).read_text())
    if evaluation["instances"] != len(scored) or not 0.0 <= evaluation["value"] <= 1.0:
        raise CheckFailed(f"eval.json does not cover the corpus: {evaluation}")
    out["accuracy"] = evaluation["value"]
    return out


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.size = workload.size(smoke)
        self.dir = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH)
        self.inputs = None
        self.setup_s = []
        self.fabricate_s = []
        self.pipelines = []
        self.attempted = 0
        self.failed = 0

    def close(self) -> None:
        if self.inputs is not None:
            self.inputs.close()

    def setup(self) -> None:
        """Set the inputs up for the pipelines, then time one warm-up round
        and SETUP_ROUNDS rounds of set-up."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.inputs = self.workload.setup(self.dir, self.seed, self.size)
        (self.dir / "logs").mkdir()
        (self.dir / "spans").mkdir()
        self.time_setup(record=False)
        for _ in range(SETUP_ROUNDS):
            self.time_setup()

    def time_setup(self, record: bool = True) -> None:
        """One round: set the inputs up again in a side directory, at least
        once and until SETUP_ROUND_S has passed, recording the time each
        set-up spent in the program's calls. ``measure`` runs a round after
        every repetition, so the ``setup_s`` median spans the whole run
        rather than the host's state during its first seconds."""
        side = self.dir / "setup"
        started = time.perf_counter()
        while True:
            shutil.rmtree(side, ignore_errors=True)
            side.mkdir()
            inputs = self.workload.setup(side, self.seed, self.size)
            inputs.close()
            if record:
                self.setup_s.append(inputs.program_s)
                self.fabricate_s.append(inputs.fabricate_s)
            if time.perf_counter() - started >= SETUP_ROUND_S:
                break
        shutil.rmtree(side)

    def mcqa(self, *args) -> list:
        return [sys.executable, "-m", "mcqa_distill", *args]

    def pipeline(self, traced: bool, stages=None) -> Pipeline:
        """Run ``stages`` (all of the workload's by default) in order, then
        check every artifact; a partial pipeline reuses earlier outputs."""
        n = len(self.pipelines)
        commands = {}
        if self.inputs.teacher is not None:
            self.inputs.teacher.take_stats()
        for stage, args in self.workload.stages.items():
            if stages is not None and stage not in stages:
                continue
            if traced:
                spans = self.dir / "spans" / f"{n}-{stage}.json"
                argv = [sys.executable, str(HERE / "launcher.py"), str(spans), *args]
            else:
                argv = self.mcqa(*args)
            self.attempted += 1
            try:
                commands[stage] = run_command(argv, self.dir, self.env, self.dir / "logs" / f"{stage}.log")
            except CheckFailed:
                self.failed += 1
                raise
        teacher = self.inputs.teacher.take_stats() if self.inputs.teacher else None
        try:
            outcome = check_outputs(self.workload, self.size, self.inputs, self.dir)
        except (OSError, ValueError, KeyError) as exc:
            raise CheckFailed(f"outputs unreadable: {exc!r}") from exc
        p = Pipeline(commands, traced, teacher, outcome)
        self._count_operations(p)
        if self.pipelines and p.outcome["digests"] != self.pipelines[0].outcome["digests"]:
            raise CheckFailed("artifact digests differ between pipelines of one run")
        self.pipelines.append(p)
        print(f"perfbench: pipeline {n}{' (traced)' if traced else ''}: {p.wall_s:.3f} s ("
              + ", ".join(f"{k} {c.wall_s:.3f}" for k, c in commands.items()) + ")",
              file=sys.stderr)
        return p

    def _count_operations(self, p: Pipeline) -> None:
        """Failed operations: rejections, fallbacks, skips, non-200 replies."""
        report = p.outcome.get("report")
        if report is not None and "generate" in p.commands:
            self.attempted += report["attempted"]
            self.failed += report["attempted"] - report["parsed"]
        counts = p.outcome.get("score_counts")
        if counts is not None and "score" in p.commands:
            self.attempted += sum(counts.values())
            self.failed += counts.get("fallback", 0) + counts.get("skipped", 0)
        if p.teacher is not None:
            self.attempted += p.teacher.requests
            self.failed += p.teacher.non_200

    def measure(self, seconds: float, trace: bool) -> None:
        """Run one full pipeline, then repeat while the next repetition is
        expected to end within ``seconds``. Untraced runs repeat the
        workload's ``rerun`` stages; traced runs repeat an untraced and a
        traced full pipeline. Each repetition ends with a set-up round."""
        started = time.perf_counter()
        while True:
            began = time.perf_counter()
            if trace:
                last = [self.pipeline(traced=False), self.pipeline(traced=True)]
                stages = None
            else:
                last = [self.pipeline(traced=False, stages=self.workload.rerun if self.pipelines else None)]
                stages = self.workload.rerun
            self.time_setup()
            took = time.perf_counter() - began
            commands = sum(p.wall_s for p in last)
            upcoming = sum(c.wall_s for p in last for k, c in p.commands.items()
                           if stages is None or k in stages)
            # The next repetition: its commands plus the same checking and set-up overhead.
            if time.perf_counter() - started + upcoming * took / commands > seconds:
                break

    def startup_s(self) -> float:
        log = self.dir / "logs" / "version.log"
        return statistics.median(
            run_command(self.mcqa("--version"), self.dir, self.env, log).wall_s
            for _ in range(STARTUP_REPEATS)
        )


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def stage_medians(pipelines, field: str) -> dict:
    """Per stage, the median of one Command field over the pipelines that ran it."""
    stages = dict.fromkeys(stage for p in pipelines for stage in p.commands)
    return {
        stage: _median(getattr(p.commands[stage], field) for p in pipelines if stage in p.commands)
        for stage in stages
    }


def end_to_end(run: Run) -> dict:
    plain = [p for p in run.pipelines if not p.traced]
    last = plain[-1].outcome
    wall = stage_medians(plain, "wall_s")
    return {
        "pipeline_s": sum(wall.values()),
        "pipeline_cpu_s": sum(stage_medians(plain, "cpu_s").values()),
        "train_s": wall["train"],
        "setup_s": _median(run.setup_s),
        "peak_rss_mb": max(stage_medians(plain, "peak_rss_mb").values()),
        "eval_accuracy": last["accuracy"],
        "corpus_distinct_share": last["distinct_share"],
    }


def layer_metrics(run: Run, index: int, p: Pipeline, rejected_names) -> dict:
    """Per-layer metrics of one traced pipeline (``index`` in ``run.pipelines``)."""
    from tracer import Trace

    traces = {
        stage: Trace.load(run.dir / "spans" / f"{index}-{stage}.json")
        for stage in run.workload.stages
    }
    durations = Counter()
    calls = Counter()
    self_s = Counter()
    counts = Counter()
    samples = {"gateway.complete": [], "distillation.kernel": []}
    hits = lookups = 0
    unattributed = 0.0
    for stage, t in traces.items():
        if t.missing:
            print(f"perfbench: not traced (missing): {t.missing}", file=sys.stderr)
        own = t.self_times()
        self_s.update(own)
        counts.update(t.counts)
        for name, d in t.durations.items():
            durations[name] += sum(d)
            calls[name] += len(d)
            if name in samples:
                samples[name].extend(d)
        for cache in t.caches.values():
            hits += cache["hits"]
            lookups += cache["hits"] + cache["misses"]
        # Self times of all spans but the root add up to root minus root self.
        stage_unattributed = p.commands[stage].wall_s - (t.root_s - own["command"])
        unattributed += stage_unattributed
        print(f"perfbench: {stage}: wall {p.commands[stage].wall_s:.3f} s, "
              f"unattributed {stage_unattributed:.3f} s, self times "
              + ", ".join(f"{k} {v:.3f}" for k, v in own.most_common() if k != "command"),
              file=sys.stderr)
    teacher = p.teacher
    wait = teacher.delay_s if teacher else 0.0
    report = p.outcome.get("report", {"attempted": 0, "parsed": 0, "rejected_by_reason": {}})
    rejected = report["rejected_by_reason"]
    score_counts = p.outcome.get("score_counts", {})
    generate = traces.get("generate")
    gen_requests = len(generate.durations["gateway.complete"]) if generate else 0
    score = traces.get("score")
    request_ms = [d * 1000.0 for d in samples["gateway.complete"]]
    kernel_ms = [d * 1000.0 for d in samples["distillation.kernel"]]
    parse_calls = calls["generation.parse"]
    metrics = {
        "prompts.build_s": durations["prompts.build"],
        "prompts.build_calls": calls["prompts.build"],
        "gateway.digest_s": durations["gateway.digest"],
        "gateway.digest_calls": calls["gateway.digest"],
        "gateway.requests": calls["gateway.complete"],
        "gateway.errors": counts["gateway.complete.raised"],
        "gateway.retries": max(0, teacher.requests - calls["gateway.complete"]) if teacher else 0,
        "gateway.teacher_wait_s": wait,
        "gateway.transport_s": self_s["gateway.complete"] - wait,
        "gateway.request_ms.p50": _percentile(request_ms, 50),
        "gateway.request_ms.p99": _percentile(request_ms, 99),
        "gateway.request_ms.samples": len(request_ms),
        "gateway.in_flight_max": teacher.in_flight_max if teacher else 0,
        "generation.attempts": report["attempted"],
        "generation.accepted": report["parsed"],
        "generation.parse_s": durations["generation.parse"],
        "generation.parse_calls": parse_calls,
        "generation.parse_ok_ratio": counts["generation.parse_ok"] / parse_calls if parse_calls else 0.0,
        "generation.requests_per_instance": gen_requests / report["parsed"] if report["parsed"] else 0.0,
        "generation.expected_match_share": p.outcome.get("expected_match_share", 0.0),
        "scoring.fit_s": durations["scoring.fit"],
        "scoring.fit_builds": score.parent_names("prompts.build")["scoring.fit"] if score else 0,
        "scoring.scored": score_counts.get("scored", 0),
        "scoring.fallback": score_counts.get("fallback", 0),
        "scoring.skipped": score_counts.get("skipped", 0),
        "scoring.soften_s": durations["scoring.soften"],
        "scoring.soften_calls": calls["scoring.soften"],
        "datasets.read_s": durations["datasets.read"],
        "datasets.write_s": durations["datasets.write"],
        "datasets.bytes": counts["datasets.bytes"],
        "students.hash_s": durations["students.hash"],
        "students.hash_calls": calls["students.hash"],
        "students.hash_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "students.active_features": p.outcome["active_features"],
        "distillation.kernel_s": durations["distillation.kernel"],
        "distillation.kernel_calls": len(kernel_ms),
        "distillation.kernel_ms.p50": _percentile(kernel_ms, 50),
        "distillation.kernel_ms.p99": _percentile(kernel_ms, 99),
        "distillation.optimizer_s": self_s["distillation.train"],
        "distillation.final_loss": p.outcome["final_loss"],
        "evaluation.accuracy_s": durations["evaluation.accuracy"],
        "trace.unattributed_s": unattributed,
    }
    prefix = "generation.rejected."
    for name in rejected_names:
        reason = name[len(prefix):]
        if reason == "other":
            known = {n[len(prefix):] for n in rejected_names}
            metrics[name] = sum(v for k, v in rejected.items() if k not in known)
        else:
            metrics[name] = rejected.get(reason, 0)
    return metrics


def per_layer(run: Run, startup_s: float, names) -> dict:
    plain = [p for p in run.pipelines if not p.traced]
    traced = [(i, p) for i, p in enumerate(run.pipelines) if p.traced]
    rejected_names = [n for n in names if n.startswith("generation.rejected.")]
    per_pipeline = [layer_metrics(run, i, p, rejected_names) for i, p in traced]
    metrics = {k: _median(m[k] for m in per_pipeline) for k in per_pipeline[0]}

    wall = stage_medians(plain, "wall_s")
    metrics.update({
        "cli.startup_s": startup_s,
        "cli.generate_s": wall.get("generate", 0.0),
        "cli.score_s": wall.get("score", 0.0),
        "cli.eval_s": wall["eval"],
        "teacher_stage_s": wall.get("generate", 0.0) + wall.get("score", 0.0),
        "failed_share": run.failed / run.attempted,
        "mock_script.fabricate_s": _median(run.fabricate_s),
        "trace.overhead_s": _median(p.wall_s for _, p in traced) - _median(p.wall_s for p in plain),
    })
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: bool, smoke: bool, names):
    """Returns (attempted, failed, metrics); raises CheckFailed. ``names``
    are the per-layer metric names of BENCHMARK.json."""
    run = Run(workload, seed, smoke)
    try:
        run.setup()
        run_command(run.mcqa("--version"), run.dir, run.env, run.dir / "logs" / "version.log")
        startup = run.startup_s() if trace else None
        run.measure(seconds, trace)
        if trace:
            metrics = per_layer(run, startup, names)
        else:
            metrics = end_to_end(run)
    finally:
        run.close()
    digests = run.pipelines[0].outcome["digests"]
    print(f"digests {workload.name} seed={seed} " + json.dumps(digests, sort_keys=True))
    shutil.rmtree(run.dir, ignore_errors=True)
    return run.attempted, run.failed, metrics


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; seconds per run")
    args = parser.parse_args(argv)

    if not (SRC / "mcqa_distill" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root (src/mcqa_distill and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [args.workload] if args.workload != "all" else list(WORKLOADS)
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    results = {}
    attempted = failed = 0
    try:
        for name in names:
            a, f, metrics = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.smoke, list(units)
            )
            attempted, failed = attempted + a, failed + f
            if set(metrics) != set(units):
                raise CheckFailed(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
            results[name] = metrics
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(_result(False, attempted, max(failed, 1), {}))
        return 1

    payload = {}
    for name, metrics in results.items():
        for metric, value in metrics.items():
            print(f"{name:24s} {metric:36s} {value:14.6f} {units[metric]}")
            key = metric if len(results) == 1 else f"{name}.{metric}"
            payload[key] = {"value": float(value), "unit": units[metric]}
    print(_result(True, attempted, failed, payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
