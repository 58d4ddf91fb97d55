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
from test_students import MALFORMED_MODELS

REPO = Path(__file__).resolve().parents[1]
SRC = str(REPO / "src")


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["SOURCE_DATE_EPOCH"] = "1700000000"
    return env


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "mcqa_distill", *map(str, args)],
        capture_output=True,
        text=True,
        env=cli_env(),
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
        assert "mcqa generate:" in proc.stderr
        assert "nowhere.jsonl" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_empty_fewshot_exits_2_naming_the_empty_set(self, workspace):
        empty = workspace["dir"] / "empty.jsonl"
        write_jsonl(Corpus((), CorpusMeta()), empty)
        out = workspace["dir"] / "c.jsonl"
        proc = run_cli(
            "generate", "--config", workspace["config"],
            "--fewshot", empty, "--out", out,
            expect=2,
        )
        assert "mcqa generate: few-shot set needs at least one example" in proc.stderr
        assert not out.exists()

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

    def test_negative_max_attempts_exits_2(self, workspace):
        out = workspace["dir"] / "none.jsonl"
        proc = run_cli(
            "generate", "--config", workspace["config"],
            "--fewshot", workspace["fewshot"],
            "--max-attempts", -3, "--out", out,
            expect=2,
        )
        assert "mcqa generate: max_attempts must be >= 0: -3" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["{}", "[1]", '{"version": 1, "responses": {"abc": {"first_token_logprobs": null}}}',
         '{"version": 2, "responses": {}}', "not json"],
        ids=["empty_object", "list", "entry_without_text", "version_2", "not_json"],
    )
    def test_malformed_script_exits_2_naming_path(self, workspace, text):
        workspace["script"].write_text(text)
        out = workspace["dir"] / "c.jsonl"
        proc = run_cli(
            "generate", "--config", workspace["config"],
            "--fewshot", workspace["fewshot"], "--out", out,
            expect=2,
        )
        assert f"mcqa generate: {workspace['script']}: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

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
        assert (
            "mcqa train: distill loss needs teacher scores on every instance; 16 missing"
            in proc.stderr
        )
        assert not (workspace["dir"] / "m.bin").exists()

    def test_train_empty_corpus_exits_2(self, workspace, tmp_path):
        empty = tmp_path / "empty.jsonl"
        write_jsonl(Corpus((), CorpusMeta()), empty)
        proc = run_cli("train", "--config", workspace["config"], "--in", empty,
                       "--out", tmp_path / "m.bin", expect=2)
        assert "mcqa train: training dataset is empty" in proc.stderr
        assert not (tmp_path / "m.bin").exists()

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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--lr", "-0.5"), "learning_rate must be finite and > 0: -0.5"),
            (("--loss", "distill", "--distill-r", "nan"),
             "distill_temperature_r must be finite and >= 0: nan"),
        ],
        ids=["negative_lr", "nan_distill_r"],
    )
    def test_out_of_range_training_value_exits_2(self, workspace, scored_corpus, flags, message):
        proc = run_cli("train", "--config", workspace["config"], "--in", scored_corpus,
                       "--out", workspace["dir"] / "m.bin", *flags, expect=2)
        assert f"mcqa train: {message}" in proc.stderr
        assert not (workspace["dir"] / "m.bin").exists()

    @pytest.mark.parametrize("loss", ["generate", "binary_bce"])
    def test_diverging_train_exits_2_naming_the_step(self, workspace, scored_corpus, loss):
        model = workspace["dir"] / "m.bin"
        proc = run_cli("train", "--config", workspace["config"], "--in", scored_corpus,
                       "--out", model, "--loss", loss, "--lr", "1e308", expect=2)
        assert re.search(r"mcqa train: training diverged (at|by) step \d+: non-finite", proc.stderr)
        assert "Traceback" not in proc.stderr
        assert not model.exists()
        assert not (workspace["dir"] / "m.bin.trace.csv").exists()

    def test_eval_empty_corpus_exits_2(self, workspace, scored_corpus, tmp_path):
        model = workspace["dir"] / "model.bin"
        run_cli("train", "--config", workspace["config"], "--in", scored_corpus,
                "--out", model, "--iterations", 5)
        empty = tmp_path / "empty.jsonl"
        write_jsonl(Corpus((), CorpusMeta()), empty)
        proc = run_cli("eval", "--config", workspace["config"], "--in", empty,
                       "--model", model, "--out", tmp_path / "r.json", expect=2)
        assert "mcqa eval: cannot evaluate an empty corpus" in proc.stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("name", [
        "missing_hash_seed", "header_is_a_list", "n_features_is_a_string", "too_few_weights",
        "nan_weight",
    ])
    def test_eval_malformed_model_exits_2_naming_it(self, workspace, scored_corpus, name):
        header, blob = MALFORMED_MODELS[name]
        model = workspace["dir"] / "broken.bin"
        model.write_bytes(header + b"\n" + blob)
        proc = run_cli("eval", "--config", workspace["config"], "--in", scored_corpus,
                       "--model", model, "--out", workspace["dir"] / "r.json", expect=2)
        assert f"mcqa eval: {model}:" in proc.stderr
        assert "Traceback" not in proc.stderr


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

    @pytest.mark.parametrize(
        "report",
        [{"parsed": 3}, [16, 16], {"attempted": "16", "parsed": 16}],
        ids=["missing-attempted", "json-array", "text-count"],
    )
    def test_stats_malformed_report_exits_2(self, workspace, corpus_path, report):
        report_path = workspace["dir"] / "bad.report.json"
        report_path.write_text(json.dumps(report))
        proc = run_cli("stats", "--in", corpus_path, "--out", workspace["dir"] / "s.json",
                       "--report", report_path, expect=2)
        assert proc.stderr.startswith("mcqa stats: ")
        assert "is not a generation report" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("meta", [5, {"source": 5}], ids=["number", "source_number"])
    def test_stats_malformed_meta_exits_2(self, tmp_path, meta):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"meta": meta}) + "\n")
        proc = run_cli("stats", "--in", corpus, "--out", tmp_path / "s.json", expect=2)
        assert proc.stderr.startswith("mcqa stats: line 1: meta")
        assert "Traceback" not in proc.stderr

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
        assert proc.stderr.startswith("mcqa generate: ")
        assert "not_a_key" in proc.stderr

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[generation]\nshuffle_choices = ture\n",
             "[generation] shuffle_choices must be a boolean"),
            ("[generation]\ntarget_count = many\n",
             "[generation] target_count must be an integer, got 'many'"),
        ],
        ids=["bool", "int"],
    )
    def test_mistyped_config_value_exits_2(self, workspace, line, message):
        bad = workspace["dir"] / "typo.ini"
        bad.write_text(line)
        proc = run_cli("generate", "--config", bad, "--fewshot", workspace["fewshot"],
                       "--out", workspace["dir"] / "x.jsonl", expect=2)
        assert proc.stderr.startswith(f"mcqa generate: {message}")
        assert "Traceback" not in proc.stderr

    def test_scoring_distill_temperature_key_exits_2(self, workspace, corpus_path):
        bad = workspace["dir"] / "old.ini"
        bad.write_text("[scoring]\ndistill_temperature_r = 1.0\n")
        proc = run_cli("score", "--config", bad, "--fewshot", workspace["fewshot"],
                       "--in", corpus_path, "--out", workspace["dir"] / "s.jsonl",
                       expect=2)
        assert "unknown config key [scoring] distill_temperature_r" in proc.stderr


# Each command imports only the layers it runs: a fresh interpreter runs the
# command in process, then reports which top-level packages it loaded.
LOADED_AFTER = """
import json, sys
from mcqa_distill import cli
code = None
if sys.argv[1:]:
    try:
        cli.main(args=sys.argv[1:], prog_name="mcqa")
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"exit": code, "loaded": sorted({m.split(".")[0] for m in sys.modules})}))
"""


def loaded_after(*args, expect=None):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER, *map(str, args)],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == expect, proc.stdout + proc.stderr
    return set(result["loaded"])


class TestCommandImports:
    @pytest.mark.parametrize(
        "args, expect", [((), None), (("--version",), 0), (("train", "--help"), 0)],
        ids=["import", "version", "train-help"],
    )
    def test_start_up_loads_neither_requests_nor_numpy(self, args, expect):
        loaded = loaded_after(*args, expect=expect)
        assert "click" in loaded
        assert not {"requests", "numpy"} & loaded

    def test_mock_generate_loads_neither_requests_nor_numpy(self, workspace):
        loaded = loaded_after("generate", "--config", workspace["config"],
                              "--fewshot", workspace["fewshot"],
                              "--out", workspace["dir"] / "corpus.jsonl", expect=0)
        assert not {"requests", "numpy"} & loaded

    def test_mock_score_train_eval_do_not_load_requests(self, workspace):
        d = workspace["dir"]
        run_cli("generate", "--config", workspace["config"],
                "--fewshot", workspace["fewshot"], "--out", d / "corpus.jsonl")
        commands = [
            ("score", "--config", workspace["config"], "--fewshot", workspace["fewshot"],
             "--in", d / "corpus.jsonl", "--out", d / "scored.jsonl"),
            ("train", "--config", workspace["config"], "--in", d / "scored.jsonl",
             "--out", d / "model.bin", "--iterations", 5),
            ("eval", "--config", workspace["config"], "--in", d / "scored.jsonl",
             "--model", d / "model.bin", "--out", d / "eval.json"),
        ]
        for args in commands:
            loaded = loaded_after(*args, expect=0)
            # score stores raw teacher scores; only train and eval need numpy.
            assert ("numpy" in loaded) == (args[0] in ("train", "eval")), args[0]
            assert "requests" not in loaded, args[0]

    def test_http_backend_loads_requests_and_maps_its_timeout(self):
        program = """
import sys
from mcqa_distill.core import ChatMessage
from mcqa_distill.gateway import (
    BackendConfig, CompletionRequest, HttpBackend, RequestTimeout,
)
assert "requests" not in sys.modules


class TimingOut:
    def post(self, *args, **kwargs):
        import requests
        raise requests.Timeout("slow")


backend = HttpBackend(BackendConfig(retry_limit=0), session=TimingOut())
assert "requests" in sys.modules
req = CompletionRequest((ChatMessage("user", "hi"),), 0.0, 1)
try:
    backend.complete(req)
except RequestTimeout:
    print("RequestTimeout")
"""
        proc = subprocess.run([sys.executable, "-c", program],
                              capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "RequestTimeout"


def test_mock_pipeline_script_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_mock_pipeline.py"), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(r"^final accuracy on the scored corpus: [01]\.\d{4}$", proc.stdout, re.M)


@pytest.mark.parametrize("script", ["run_mock_pipeline.py", "noisy_teacher_experiment.py"])
def test_script_help_writes_nothing(tmp_path, script):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), "--help"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith(f"usage: {script}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("script", ["run_mock_pipeline.py", "noisy_teacher_experiment.py"])
def test_script_unknown_option_exits_2(tmp_path, script):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), "--no-such-option"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "unrecognized arguments: --no-such-option" in proc.stderr
    assert list(tmp_path.iterdir()) == []
