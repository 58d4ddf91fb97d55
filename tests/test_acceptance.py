"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
runtime budget and prints one pass line. Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the pass lines as they complete).
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from mcqa_distill.core import FewShotSet
from mcqa_distill.datasets import (
    Corpus,
    CorpusMeta,
    cumulative_subsets,
    filter_by_tokens,
    read_jsonl,
    write_jsonl,
)
from mcqa_distill.distillation import (
    TrainConfig,
    instance_target,
    loss_kernel,
    one_hot,
    soften,
    train,
)
from mcqa_distill.gateway import MockBackend, save_script
from mcqa_distill.generation import GenerationConfig, generate
from mcqa_distill.mock_script import fabricate_decomposed_run, fabricate_json_run
from mcqa_distill.scoring import ScoringConfig
from mcqa_distill.students import ToyStudent, instance_logits
from mcqa_distill.synthetic import (
    build_noisy_teacher_universe,
    build_separable_corpus,
    run_noisy_teacher_experiment,
)

from conftest import SCIENCE_EXAMPLES, make_instance
from test_distillation import cross_entropy, loss_and_gradient
from test_generation import PARSER_FIXTURES, SequencedBackend, judge_reply


@contextmanager
def criterion(name, budget_seconds):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s < {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"{name} exceeded its {budget_seconds}s budget"


def science_fewshot_set():
    examples = tuple(
        make_instance(f"seed-{i}", "grade school science", q, choices, answer)
        for i, (q, choices, answer) in enumerate(SCIENCE_EXAMPLES)
    )
    return FewShotSet(topic="grade school science", examples=examples)


def random_instance(rng, num_choices=4):
    vocab = [f"w{k}" for k in range(40)]
    question = " ".join(rng.choice(vocab, size=6))
    choices = []
    while len(choices) < num_choices:
        text = " ".join(rng.choice(vocab, size=3)) + f" u{len(choices)}"
        choices.append(text)
    return make_instance(
        f"rand-{rng.integers(1 << 30)}",
        question=question,
        choices=choices,
        answer_index=int(rng.integers(num_choices)),
        teacher_scores=tuple(rng.normal(size=num_choices)),
    )


def test_loss_exactness():
    with criterion("loss exactness", 1.0):
        value = cross_entropy(one_hot(0, 4), np.zeros(4))
        assert abs(value - math.log(4) / 4) <= 1e-12

        rng = np.random.default_rng(100)
        # Identity case: for hard labels the cross-entropy at the target is 0
        # exactly; logits 0 at the gold choice and -1000 elsewhere predict it
        # exactly, since exp(-1000) is 0.0. (For non-degenerate soft labels
        # ce(p, p) equals the scaled entropy of p, which is positive; the
        # matching identity there is that p minimizes ce(p, .) over
        # predictions, here the softmax of log(q).)
        for _ in range(100):
            length = int(rng.integers(2, 7))
            hard = one_hot(int(rng.integers(length)), length)
            assert cross_entropy(hard, (hard - 1.0) * 1000.0) == 0.0
        for _ in range(100):
            p = np.array(tuple(rng.dirichlet(np.ones(4))))
            base = cross_entropy(p, np.log(p))
            q = np.array(tuple(rng.dirichlet(np.ones(4))))
            assert cross_entropy(p, np.log(q)) >= base - 1e-12

        student = ToyStudent(n_features=2**12)
        student.weights[:] = rng.normal(0.0, 0.1, student.n_features)
        for _ in range(100):
            inst = random_instance(rng)
            relabeled = make_instance(
                inst.id,
                question=inst.question,
                choices=inst.choices,
                answer_index=int(np.argmax(inst.teacher_scores)),
            )
            logits = next(instance_logits(student, [(inst.question, inst.choices)]))
            distill = loss_kernel(logits, *instance_target(inst, "distill", 0.0))[0]
            assert distill == loss_kernel(logits, *instance_target(relabeled, "generate"))[0]


def test_gradient_fidelity():
    with criterion("gradient fidelity", 10.0):
        rng = np.random.default_rng(200)
        student = ToyStudent(n_features=2**12)
        student.weights[:] = rng.normal(0.0, 0.05, student.n_features)
        modes = [
            ("generate", 1.0),
            ("distill", 0.5),
            ("distill", 1.0),
            ("distill", 2.0),
            ("binary_bce", 1.0),
        ]
        step = 1e-5
        for _ in range(20):
            inst = random_instance(rng)
            for mode, r in modes:
                grad = loss_and_gradient(student, inst, mode, r)[1]
                scale = np.abs(grad).max()
                assert scale > 0
                candidates = np.flatnonzero(np.abs(grad) >= 1e-3 * scale)
                probes = rng.choice(
                    candidates, size=min(8, candidates.size), replace=False
                )
                for coordinate in probes:
                    original = student.weights[coordinate]
                    student.weights[coordinate] = original + step
                    upper = loss_and_gradient(student, inst, mode, r)[0]
                    student.weights[coordinate] = original - step
                    lower = loss_and_gradient(student, inst, mode, r)[0]
                    student.weights[coordinate] = original
                    numeric = (upper - lower) / (2 * step)
                    analytic = grad[coordinate]
                    rel = abs(analytic - numeric) / max(
                        abs(analytic), abs(numeric), 1e-10
                    )
                    assert rel < 1e-4, f"{mode} r={r}: rel error {rel}"


def test_softening_properties():
    with criterion("softening properties", 5.0):
        rng = np.random.default_rng(300)
        for _ in range(1000):
            length = int(rng.integers(2, 7))
            scores = rng.normal(0.0, 3.0, length)
            r = float(rng.uniform(0.05, 20.0))
            probs = np.asarray(tuple(soften(scores, r)))
            assert abs(probs.sum() - 1.0) <= 1e-9

            shift = float(rng.uniform(-25.0, 25.0))
            shifted = np.asarray(tuple(soften(scores + shift, r)))
            assert np.max(np.abs(probs - shifted)) <= 1e-12

            gap = np.sort(scores)[-1] - np.sort(scores)[-2]
            if gap > 1e-9:
                assert int(probs.argmax()) == int(scores.argmax())
                hard = np.asarray(tuple(soften(scores, 0.0)))
                assert hard[int(scores.argmax())] == 1.0
                if gap >= 0.1:
                    nearly = np.asarray(tuple(soften(scores, 1e-3)))
                    assert np.max(np.abs(nearly - hard)) < 1e-6

            r_low, r_high = sorted(
                (float(rng.uniform(0.05, 20.0)), float(rng.uniform(0.05, 20.0)))
            )
            assert (
                max(tuple(soften(scores, r_low)))
                >= max(tuple(soften(scores, r_high))) - 1e-12
            )


def test_parser_fixture_suite():
    with criterion("parser fixture suite", 1.0):
        assert len(PARSER_FIXTURES) >= 12
        accepted = [f for f in PARSER_FIXTURES if f[2] == "ok"]
        rejected_reasons = {f[2] for f in PARSER_FIXTURES if f[2] != "ok"}
        assert len(accepted) >= 3  # strict, single-quoted, prose-wrapped styles
        assert {"NO_OBJECT", "UNBALANCED", "BAD_SYNTAX", "MISSING_KEY", "WRONG_TYPE"} <= rejected_reasons
        for _, raw, expected in PARSER_FIXTURES:
            judged = judge_reply(raw)
            if expected == "ok":
                assert isinstance(judged, tuple)
            else:
                assert judged == expected

        fs = science_fewshot_set()
        cfg = GenerationConfig(strategy="json", target_count=1000, max_attempts=100, seed=0)
        valid_attempts = set(range(0, 100, 2)) | {1, 3}
        replies = [
            (
                f"{{'question': 'Scripted question {attempt}?', "
                f"'choices': ['a{attempt}', 'b{attempt}'], 'answer': 0}}"
                if attempt in valid_attempts
                else "not an object"
            )
            for attempt in range(100)
        ]
        instances, report = generate(fs, cfg, SequencedBackend(replies))
        assert report.attempted == 100
        assert report.parsed == len(instances) == 52
        assert report.success_rate == pytest.approx(0.52)
        assert report.parsed + sum(report.rejected_by_reason.values()) == report.attempted


class _RecordingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def complete(self, req):
        self.requests.append(req)
        return self.inner.complete(req)


def test_decomposed_pipeline_structure():
    with criterion("decomposed pipeline structure", 5.0):
        fs = science_fewshot_set()
        cfg = GenerationConfig(strategy="decompose", target_count=8, negatives_n=5, seed=21)
        script, _ = fabricate_decomposed_run(fs, cfg)
        recorder = _RecordingBackend(MockBackend(script))
        instances, report = generate(fs, cfg, recorder)
        assert len(instances) == 8
        assert report.parsed == 8
        for inst in instances:
            assert inst.num_choices == 6
            assert inst.answer_index == 0
            assert len({c.strip().casefold() for c in inst.choices}) == 6
        negative_requests = [
            r for r in recorder.requests
            if "Forbidden Answer :" in r.messages[-1].content
        ]
        assert len(negative_requests) == 8 * 5
        for start in range(0, len(negative_requests), 5):
            per_instance = negative_requests[start : start + 5]
            bullet_counts = [
                sum(
                    1
                    for line in r.messages[-1].content.splitlines()
                    if line.startswith("- ")
                )
                for r in per_instance
            ]
            assert bullet_counts == [1 + (i - 1) for i in range(1, 6)]


def test_noisy_teacher_ordering():
    with criterion("noisy-teacher ordering", 60.0):
        universe = build_noisy_teacher_universe(
            n_train=512, n_heldout=256, num_choices=4, seed=0, teacher_accuracy=0.7
        )
        assert 0.6 <= universe.teacher_argmax_accuracy <= 0.8
        results = run_noisy_teacher_experiment(
            universe, seeds=(1, 2, 3, 4, 5), iterations=500
        )
        generate_mean = results["generate"].mean
        distill_r1_mean = results["distill_r1"].mean
        distill_r0_mean = results["distill_r0"].mean
        assert distill_r1_mean >= generate_mean + 0.02, (
            f"soft distillation {distill_r1_mean:.4f} vs generated labels {generate_mean:.4f}"
        )
        assert distill_r1_mean >= distill_r0_mean, (
            f"soft {distill_r1_mean:.4f} vs hard teacher labels {distill_r0_mean:.4f}"
        )


def test_training_loop_accounting():
    with criterion("training-loop accounting", 30.0):
        corpus = build_separable_corpus(48, seed=31)
        cfg = TrainConfig(iterations=500, micro_batch=4, grad_accumulation=2, seed=17)
        student_a, result_a = train(ToyStudent(n_features=2**13), corpus.instances, cfg)
        assert result_a.instance_visits == 4000
        assert len(result_a.losses) == 500
        student_b, result_b = train(ToyStudent(n_features=2**13), corpus.instances, cfg)
        assert np.array_equal(student_a.weights, student_b.weights)
        assert result_a.losses == result_b.losses


def test_dataset_mechanics(tmp_path):
    with criterion("dataset mechanics", 5.0):
        # Token filter: 320/480 boundary plus monotonicity.
        def instance_with_pair_tokens(k, pair_tokens):
            question = " ".join(f"w{j}" for j in range(pair_tokens - 1))
            return make_instance(
                f"len-{k}-{pair_tokens}", question=question, choices=("x", "y"),
                answer_index=0,
            )

        boundary = Corpus(
            (instance_with_pair_tokens(0, 320), instance_with_pair_tokens(1, 321)),
            CorpusMeta(),
        )
        at_320 = filter_by_tokens(boundary, 320)
        at_480 = filter_by_tokens(boundary, 480)
        assert [i.id for i in at_320] == ["len-0-320"]  # 321-token pair dropped
        assert len(at_480) == 2
        assert {i.id for i in at_320} <= {i.id for i in at_480}
        assert filter_by_tokens(at_320, 320) == at_320

        # Cumulative subsets: prefix property across [16, 32, 64, 128].
        big = Corpus(
            tuple(
                make_instance(f"c{k:04d}", question=f"question {k}?")
                for k in range(128)
            ),
            CorpusMeta(),
        )
        sizes = [16, 32, 64, 128]
        subsets = cumulative_subsets(big, sizes, seed=7)
        for small, large in zip(sizes, sizes[1:]):
            assert subsets[large].instances[:small] == subsets[small].instances

        # JSONL round-trip with and without teacher scores.
        corpus = Corpus(
            (
                make_instance("scored", teacher_scores=(-1.047, -1.542, -1.546, -1.505)),
                make_instance("plain", question="Another question?", answer_index=3),
            ),
            CorpusMeta(source="acceptance", created_at="2024-05-01T00:00:00+00:00",
                       config_digest="d1"),
        )
        path = tmp_path / "round_trip.jsonl"
        write_jsonl(corpus, path)
        assert read_jsonl(path) == corpus


def _run_pipeline(run_dir, src_root):
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    env["SOURCE_DATE_EPOCH"] = "1700000000"

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "mcqa_distill", *map(str, args)],
            capture_output=True, text=True, env=env, cwd=run_dir,
        )
        assert proc.returncode == 0, f"{args}: {proc.stderr}"
        return proc

    cli("generate", "--config", "run.ini", "--fewshot", "fewshot.jsonl",
        "--out", "corpus.jsonl")
    cli("score", "--config", "run.ini", "--fewshot", "fewshot.jsonl",
        "--in", "corpus.jsonl", "--out", "scored.jsonl")
    cli("train", "--config", "run.ini", "--in", "scored.jsonl", "--out", "model.bin",
        "--loss", "distill", "--iterations", 200, "--seed", 5)
    cli("eval", "--config", "run.ini", "--in", "scored.jsonl", "--model", "model.bin",
        "--out", "eval.json")


E2E_ARTIFACTS = [
    "corpus.jsonl",
    "corpus.jsonl.report.json",
    "corpus.jsonl.manifest.json",
    "scored.jsonl",
    "scored.jsonl.manifest.json",
    "model.bin",
    "model.bin.trace.csv",
    "model.bin.manifest.json",
    "eval.json",
    "eval.json.manifest.json",
]


def test_end_to_end_mock_run(tmp_path):
    with criterion("end-to-end mock run", 30.0):
        fs = science_fewshot_set()
        gen_cfg = GenerationConfig(strategy="json", target_count=64, seed=13)
        script, _ = fabricate_json_run(fs, gen_cfg, ScoringConfig())

        src_root = str(Path(__file__).resolve().parents[1] / "src")
        runs = []
        for name in ("run1", "run2"):
            run_dir = tmp_path / name
            run_dir.mkdir()
            write_jsonl(Corpus(fs.examples, CorpusMeta(source="seed")),
                        run_dir / "fewshot.jsonl")
            save_script(script, run_dir / "script.json")
            (run_dir / "run.ini").write_text(
                "[backend]\nkind = mock\nscript = script.json\n"
                "[generation]\nstrategy = json\ntarget_count = 64\nseed = 13\n"
            )
            _run_pipeline(run_dir, src_root)
            runs.append(run_dir)

        for artifact in E2E_ARTIFACTS:
            first = (runs[0] / artifact).read_bytes()
            second = (runs[1] / artifact).read_bytes()
            assert first == second, f"{artifact} differs between identical runs"

        corpus = read_jsonl(runs[0] / "corpus.jsonl")
        assert len(corpus) == 64
        scored = read_jsonl(runs[0] / "scored.jsonl")
        assert all(inst.teacher_scores is not None for inst in scored)
        payload = json.loads((runs[0] / "eval.json").read_text())
        assert payload["metric"] == "accuracy"
        assert 0.0 <= payload["value"] <= 1.0
