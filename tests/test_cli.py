"""End-to-end command surface: exit codes, artifacts, manifests."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcqa_distill.core import FewShotSet
from mcqa_distill.datasets import Corpus, CorpusMeta, read_jsonl, write_jsonl
from mcqa_distill.gateway import save_script
from mcqa_distill.generation import GenerationConfig
from mcqa_distill.mock_script import fabricate_decomposed_run, fabricate_json_run
from mcqa_distill.prompts import PromptTemplateSet
from mcqa_distill.scoring import ScoringConfig
from mcqa_distill.students import ToyStudent

from conftest import SCIENCE_EXAMPLES, make_instance

REPO = Path(__file__).resolve().parents[1]
SRC = str(REPO / "src")


def run_cli(*args, expect=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["SOURCE_DATE_EPOCH"] = "1700000000"
    proc = subprocess.run(
        [sys.executable, "-m", "mcqa_distill", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    return proc


def science_fewshot_set():
    examples = tuple(
        make_instance(f"seed-{i}", "grade school science", q, choices, answer)
        for i, (q, choices, answer) in enumerate(SCIENCE_EXAMPLES)
    )
    return FewShotSet(topic="grade school science", examples=examples)


@pytest.fixture
def workspace(tmp_path):
    """Few-shot file plus a mock script covering a 16-instance json run and scoring."""
    fs = science_fewshot_set()
    fewshot_path = tmp_path / "fewshot.jsonl"
    write_jsonl(Corpus(fs.examples, CorpusMeta(source="seed")), fewshot_path)

    gen_cfg = GenerationConfig(strategy="json", target_count=16, seed=11)
    script, expected = fabricate_json_run(fs, gen_cfg, ScoringConfig())
    script_path = tmp_path / "script.json"
    save_script(script, script_path)

    config_path = tmp_path / "run.ini"
    config_path.write_text(
        "[backend]\n"
        "kind = mock\n"
        f"script = {script_path}\n"
        "[generation]\n"
        "strategy = json\n"
        "target_count = 16\n"
        "seed = 11\n"
    )
    return {
        "dir": tmp_path,
        "fs": fs,
        "fewshot": fewshot_path,
        "config": config_path,
        "script": script_path,
        "expected": expected,
    }


class TestGenerateCommand:
    def test_json_run_writes_corpus_report_manifest(self, workspace):
        out = workspace["dir"] / "corpus.jsonl"
        proc = run_cli(
            "generate", "--config", workspace["config"],
            "--fewshot", workspace["fewshot"], "--out", out,
        )
        assert "generated 16/16" in proc.stdout
        corpus = read_jsonl(out)
        assert len(corpus) == 16
        assert out.with_name("corpus.jsonl.report.json").exists()
        manifest = json.loads((workspace["dir"] / "corpus.jsonl.manifest.json").read_text())
        assert manifest["counts"] == {"attempted": 16, "parsed": 16, "target": 16}
        assert manifest["seed"] == 11

    def test_manifest_digest_recomputable_from_stored_config(self, workspace):
        out = workspace["dir"] / "corpus.jsonl"
        run_cli("generate", "--config", workspace["config"],
                "--fewshot", workspace["fewshot"], "--out", out)
        manifest = json.loads((workspace["dir"] / "corpus.jsonl.manifest.json").read_text())
        canon = json.dumps(manifest["config"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canon.encode()).hexdigest() == manifest["config_digest"]

    def test_missing_fewshot_exits_2_naming_path(self, workspace):
        missing = workspace["dir"] / "nowhere.jsonl"
        proc = run_cli(
            "generate", "--config", workspace["config"],
            "--fewshot", missing, "--out", workspace["dir"] / "c.jsonl",
            expect=2,
        )
        assert "nowhere.jsonl" in proc.stderr

    def test_flags_override_config(self, workspace):
        out = workspace["dir"] / "four.jsonl"
        run_cli(
            "generate", "--config", workspace["config"],
            "--fewshot", workspace["fewshot"], "--count", 4, "--out", out,
        )
        assert len(read_jsonl(out)) == 4

    def test_budget_exhaustion_exits_1_with_partial_corpus(self, workspace):
        out = workspace["dir"] / "partial.jsonl"
        proc = run_cli(
            "generate", "--config", workspace["config"],
            "--fewshot", workspace["fewshot"],
            "--max-attempts", 2, "--out", out,
            expect=1,
        )
        assert len(read_jsonl(out)) == 2
        assert "exhausted" in proc.stderr

    def test_decompose_run_has_six_choices(self, tmp_path):
        fs = science_fewshot_set()
        fewshot_path = tmp_path / "fewshot.jsonl"
        write_jsonl(Corpus(fs.examples, CorpusMeta()), fewshot_path)
        cfg = GenerationConfig(strategy="decompose", target_count=4, negatives_n=5, seed=3)
        script, _ = fabricate_decomposed_run(fs, cfg)
        script_path = tmp_path / "script.json"
        save_script(script, script_path)
        config = tmp_path / "run.ini"
        config.write_text(f"[backend]\nkind = mock\nscript = {script_path}\n")
        out = tmp_path / "decomposed.jsonl"
        run_cli(
            "generate", "--config", config, "--fewshot", fewshot_path,
            "--strategy", "decompose", "--count", 4, "--negatives", 5,
            "--seed", 3, "--out", out,
        )
        corpus = read_jsonl(out)
        assert all(len(inst.choices) == 6 for inst in corpus)
        assert all(inst.answer_index == 0 for inst in corpus)

    def test_template_override_changes_prompts(self, tmp_path):
        fs = science_fewshot_set()
        fewshot_path = tmp_path / "fewshot.jsonl"
        write_jsonl(Corpus(fs.examples, CorpusMeta()), fewshot_path)
        templates = PromptTemplateSet(topic_instruction_pattern="gimme a {topic} item!")
        cfg = GenerationConfig(strategy="json", target_count=2, seed=0)
        script, _ = fabricate_json_run(fs, cfg, templates=templates)
        script_path = tmp_path / "script.json"
        save_script(script, script_path)
        config = tmp_path / "run.ini"
        config.write_text(
            f"[backend]\nkind = mock\nscript = {script_path}\n"
            "[generation]\ntarget_count = 2\nseed = 0\n"
            "[templates]\ntopic_instruction_pattern = gimme a {topic} item!\n"
        )
        out = tmp_path / "corpus.jsonl"
        # The script only answers prompts built from the overridden template,
        # so success proves the override reached the builders.
        run_cli("generate", "--config", config, "--fewshot", fewshot_path, "--out", out)
        assert len(read_jsonl(out)) == 2


class TestScoreCommand:
    def generate_first(self, workspace):
        corpus_path = workspace["dir"] / "corpus.jsonl"
        run_cli("generate", "--config", workspace["config"],
                "--fewshot", workspace["fewshot"], "--out", corpus_path)
        return corpus_path

    def test_scores_every_line(self, workspace):
        corpus_path = self.generate_first(workspace)
        scored_path = workspace["dir"] / "scored.jsonl"
        proc = run_cli(
            "score", "--config", workspace["config"], "--fewshot", workspace["fewshot"],
            "--in", corpus_path, "--out", scored_path,
        )
        assert "scored=16 fallback=0 skipped=0" in proc.stdout
        corpus = read_jsonl(scored_path)
        assert all(
            inst.teacher_scores is not None
            and len(inst.teacher_scores) == len(inst.choices)
            for inst in corpus
        )

    def test_rescoring_is_byte_idempotent(self, workspace):
        corpus_path = self.generate_first(workspace)
        first = workspace["dir"] / "scored1.jsonl"
        second = workspace["dir"] / "scored2.jsonl"
        run_cli("score", "--config", workspace["config"], "--fewshot", workspace["fewshot"],
                "--in", corpus_path, "--out", first)
        run_cli("score", "--config", workspace["config"], "--fewshot", workspace["fewshot"],
                "--in", first, "--out", second)
        # The leading meta line records lineage (differing source paths); the
        # instance lines themselves must be overwritten identically.
        instance_lines = lambda p: p.read_bytes().split(b"\n")[1:]
        assert instance_lines(first) == instance_lines(second)
        assert read_jsonl(first).instances == read_jsonl(second).instances

    def test_skip_fallback_counts_oversize(self, workspace, tmp_path):
        fs = workspace["fs"]
        oversized = make_instance(
            "oversize", "grade school science",
            question="very long question " * 500, choices=("a", "b"), answer_index=0,
        )
        corpus_path = tmp_path / "big.jsonl"
        write_jsonl(Corpus((oversized,), CorpusMeta()), corpus_path)
        out = tmp_path / "scored.jsonl"
        proc = run_cli(
            "score", "--config", workspace["config"], "--fewshot", workspace["fewshot"],
            "--in", corpus_path, "--out", out, "--fallback", "skip",
        )
        assert "skipped=1" in proc.stdout
        assert read_jsonl(out).instances[0].teacher_scores is None


class TestTrainEvalCommands:
    @pytest.fixture
    def scored_corpus(self, workspace):
        corpus_path = workspace["dir"] / "corpus.jsonl"
        scored_path = workspace["dir"] / "scored.jsonl"
        run_cli("generate", "--config", workspace["config"],
                "--fewshot", workspace["fewshot"], "--out", corpus_path)
        run_cli("score", "--config", workspace["config"], "--fewshot", workspace["fewshot"],
                "--in", corpus_path, "--out", scored_path)
        return scored_path

    def test_train_writes_model_trace_manifest(self, workspace, scored_corpus):
        model = workspace["dir"] / "model.bin"
        proc = run_cli(
            "train", "--config", workspace["config"], "--in", scored_corpus,
            "--out", model, "--loss", "distill", "--iterations", 20,
            "--micro-batch", 4, "--accum", 2, "--seed", 1,
        )
        assert "160 instance visits" in proc.stdout
        assert model.exists()
        trace = (workspace["dir"] / "model.bin.trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss"
        assert len(trace) == 21
        manifest = json.loads((workspace["dir"] / "model.bin.manifest.json").read_text())
        assert manifest["counts"]["instance_visits"] == 160
        assert manifest["counts"]["visited_instances"] == 16
        weights = ToyStudent.load(model).weights
        assert manifest["counts"]["active_features"] == np.count_nonzero(weights)

    def test_distill_without_scores_exits_2(self, workspace):
        corpus_path = workspace["dir"] / "corpus.jsonl"
        run_cli("generate", "--config", workspace["config"],
                "--fewshot", workspace["fewshot"], "--out", corpus_path)
        proc = run_cli(
            "train", "--config", workspace["config"], "--in", corpus_path,
            "--out", workspace["dir"] / "m.bin", "--loss", "distill",
            expect=2,
        )
        assert "teacher scores" in proc.stderr

    def test_eval_reports_accuracy(self, workspace, scored_corpus):
        model = workspace["dir"] / "model.bin"
        run_cli("train", "--config", workspace["config"], "--in", scored_corpus,
                "--out", model, "--loss", "generate", "--iterations", 30, "--seed", 0)
        results = workspace["dir"] / "eval.json"
        proc = run_cli("eval", "--config", workspace["config"], "--in", scored_corpus,
                       "--model", model, "--out", results)
        payload = json.loads(results.read_text())
        assert payload["metric"] == "accuracy"
        assert 0.0 <= payload["value"] <= 1.0
        assert "accuracy" in proc.stdout

    def test_eval_empty_corpus_exits_2(self, workspace, scored_corpus, tmp_path):
        model = workspace["dir"] / "model.bin"
        run_cli("train", "--config", workspace["config"], "--in", scored_corpus,
                "--out", model, "--iterations", 5)
        empty = tmp_path / "empty.jsonl"
        write_jsonl(Corpus((), CorpusMeta()), empty)
        run_cli("eval", "--config", workspace["config"], "--in", empty,
                "--model", model, "--out", tmp_path / "r.json", expect=2)


class TestDataCommands:
    @pytest.fixture
    def corpus_path(self, workspace):
        path = workspace["dir"] / "corpus.jsonl"
        run_cli("generate", "--config", workspace["config"],
                "--fewshot", workspace["fewshot"], "--out", path)
        return path

    def test_subset_prefix_property(self, workspace, corpus_path):
        out_dir = workspace["dir"] / "subsets"
        run_cli("subset", "--in", corpus_path, "--sizes", "4,8,16",
                "--seed", 3, "--out-dir", out_dir)
        small = read_jsonl(out_dir / "subset_4.jsonl")
        medium = read_jsonl(out_dir / "subset_8.jsonl")
        large = read_jsonl(out_dir / "subset_16.jsonl")
        assert medium.instances[:4] == small.instances
        assert large.instances[:8] == medium.instances
        assert (out_dir / "subsets.manifest.json").exists()

    def test_stats_with_report(self, workspace, corpus_path):
        out = workspace["dir"] / "stats.json"
        run_cli("stats", "--in", corpus_path, "--out", out,
                "--report", str(corpus_path) + ".report.json")
        payload = json.loads(out.read_text())
        assert payload["count"] == 16
        assert payload["parse_success_rate"] == 1.0
        assert payload["token_len_mean"] > 0

    def test_similarity(self, workspace, corpus_path):
        out = workspace["dir"] / "similarity.json"
        proc = run_cli("similarity", "--generated", corpus_path,
                       "--reference", workspace["fewshot"], "--out", out)
        payload = json.loads(out.read_text())
        assert 0.0 <= payload["avg_of_max"] <= payload["max_of_max"] <= 1.0
        assert "avg_of_max" in proc.stdout

    def test_import_arc_csv(self, workspace, tmp_path):
        csv_path = tmp_path / "arc.csv"
        csv_path.write_text(
            "id,question,choices,answerKey\n"
            'a1,Which energy resource is non-renewable?,"(A) oil | (B) solar | (C) water | (D) wind",A\n'
        )
        out = tmp_path / "imported.jsonl"
        run_cli("import", "--in", csv_path, "--format", "arc_csv",
                "--topic", "grade school science", "--out", out)
        corpus = read_jsonl(out)
        assert corpus.instances[0].answer_index == 0
        assert corpus.instances[0].choices[0] == "oil"

    def test_unknown_config_key_exits_2(self, workspace):
        bad = workspace["dir"] / "bad.ini"
        bad.write_text("[generation]\nnot_a_key = 1\n")
        proc = run_cli("generate", "--config", bad, "--fewshot", workspace["fewshot"],
                       "--out", workspace["dir"] / "x.jsonl", expect=2)
        assert "not_a_key" in proc.stderr

    def test_scoring_distill_temperature_key_exits_2(self, workspace, corpus_path):
        bad = workspace["dir"] / "old.ini"
        bad.write_text("[scoring]\ndistill_temperature_r = 1.0\n")
        proc = run_cli("score", "--config", bad, "--fewshot", workspace["fewshot"],
                       "--in", corpus_path, "--out", workspace["dir"] / "s.jsonl",
                       expect=2)
        assert "unknown config key [scoring] distill_temperature_r" in proc.stderr


def test_mock_pipeline_script_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_mock_pipeline.py"), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(r"^final accuracy on the scored corpus: [01]\.\d{4}$", proc.stdout, re.M)
