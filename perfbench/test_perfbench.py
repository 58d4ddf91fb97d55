"""Tests of the benchmark harness itself.

Run from the repository root: ``python -m pytest perfbench -q``. The smoke
runs drive the real CLI at tiny sizes, so the harness cannot rot unnoticed.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from fake_teacher import FakeTeacher, completion
from mcqa_distill.core import ChatMessage
from mcqa_distill.gateway import BackendConfig, CompletionRequest, HttpBackend
from tracer import Trace

REPO = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _bench(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


def test_http_run_repeats_only_train_and_eval_after_the_first_pipeline():
    proc = _bench("--workload", "http-decompose-latency", "--seed", "3", "--seconds", "10",
                  "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    first, *repeats = [l for l in proc.stderr.splitlines() if l.startswith("perfbench: pipeline")]
    assert "generate" in first and "score" in first
    assert repeats, proc.stderr[-2000:]
    assert all("generate" not in l and "score" not in l and "train" in l for l in repeats)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mock-json-ref", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _question_request(topic):
    return CompletionRequest(
        [ChatMessage("system", "You are a bot that excel at creating question!"),
         ChatMessage("user", f"create a question about {topic}!")],
        temperature=2.0,
        max_new_tokens=16,
    )


def test_fake_teacher_replies_are_a_function_of_seed_and_body():
    body = {"model": "m", "messages": [{"role": "user", "content": "Q?\nA. x\nB. y"}],
            "logprobs": True, "top_logprobs": 20}
    assert completion(1, body, 0.01) == completion(1, body, 0.01)
    assert completion(1, body, 0.01) != completion(2, body, 0.01)
    assert completion(1, body, 0.01) != completion(1, dict(body, seed=7), 0.01)
    tokens = {e["token"] for e in completion(1, body, 0.01)[1]["choices"][0]["logprobs"]
              ["content"][0]["top_logprobs"]}
    assert {"A", "B"} <= tokens and "C" not in tokens


def test_fake_teacher_serves_concurrent_requests_without_serializing():
    with FakeTeacher(seed=5, median_delay_s=0.2) as teacher:
        replies = [None] * 4

        def ask(i):
            backend = HttpBackend(BackendConfig(base_url=teacher.base_url))
            replies[i] = backend.complete(_question_request(f"topic {i}")).text

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        stats = teacher.take_stats()
    assert all(r and r.endswith("?") for r in replies)
    assert stats.requests == 4 and stats.non_200 == 0
    assert stats.in_flight_max >= 2


def test_self_time_subtracts_the_union_of_child_spans():
    trace = Trace({
        "names": ["command", "outer", "inner"],
        "spans": [
            [0, 0.0, 10.0, -1],
            [1, 1.0, 5.0, 0],
            [2, 2.0, 3.0, 1],
            [2, 2.5, 4.0, 1],  # overlaps the first inner span (another thread)
        ],
        "counts": {}, "caches": {}, "missing": [],
    })
    own = trace.self_times()
    assert own["command"] == pytest.approx(6.0)
    assert own["outer"] == pytest.approx(2.0)
    assert own["inner"] == pytest.approx(2.5)
    assert trace.parent_names("inner") == {"outer": 2}
