"""End-to-end command surface: exit codes, artifacts, manifests."""

import ast
import functools
import hashlib
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcqa_distill import cli
from mcqa_distill.config import effective_config
from mcqa_distill.core import FewShotSet
from mcqa_distill.datasets import Corpus, CorpusMeta, read_jsonl, write_jsonl
from mcqa_distill.gateway import AHEAD, UNAVAILABLE_AFTER, HttpBackend, save_script
from mcqa_distill.generation import GenerationConfig
from mcqa_distill.mock_script import fabricate_json_run
from mcqa_distill.scoring import ScoringConfig
from mcqa_distill.students import ToyStudent

from conftest import (
    NESTED_TOO_DEEPLY,
    SCIENCE_EXAMPLES,
    Reply,
    fabricate_decomposed_run,
    make_instance,
)
from test_students import MALFORMED_MODELS

REPO = Path(__file__).resolve().parents[1]
SRC = str(REPO / "src")


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["SOURCE_DATE_EPOCH"] = "1700000000"
    return env


def run_cli(*args, expect=0, epoch="1700000000", cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "mcqa_distill", *map(str, args)],
        capture_output=True,
        text=True,
        env={**cli_env(), "SOURCE_DATE_EPOCH": epoch},
        cwd=cwd,
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    return proc


# A SOURCE_DATE_EPOCH that is not an integer, and one past datetime's range.
BAD_EPOCHS = ["abc", "99999999999999999999"]


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

    def test_manifest_records_the_prompt_topic(self, workspace):
        """Two runs that differ only in ``--topic`` write manifests that
        differ only in ``topic``."""
        d = workspace["dir"]
        astronomy = FewShotSet("astronomy", workspace["fs"].examples)
        cfg = GenerationConfig(strategy="json", target_count=16, seed=11)
        script, _ = fabricate_json_run(workspace["fs"], cfg)
        script.update(fabricate_json_run(astronomy, cfg)[0])
        save_script(script, workspace["script"])
        run_cli("generate", "--config", workspace["config"], "--fewshot", workspace["fewshot"],
                "--out", d / "science.jsonl")
        run_cli("generate", "--config", workspace["config"], "--fewshot", workspace["fewshot"],
                "--topic", "astronomy", "--out", d / "astronomy.jsonl")
        science = json.loads((d / "science.jsonl.manifest.json").read_text())
        other = json.loads((d / "astronomy.jsonl.manifest.json").read_text())
        assert science.pop("topic") == "grade school science"
        assert other.pop("topic") == "astronomy"
        assert science == other
        assert {i.topic for i in read_jsonl(d / "astronomy.jsonl").instances} == {"astronomy"}

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
         '{"version": 2, "responses": {}}', "not json",
         '{"version": 1, "responses": {"abc": {"text": "A", "first_token_logprobs": {"A": "x"}}}}',
         NESTED_TOO_DEEPLY, '{"version": 1, "responses": {}, "n": %s}' % ("9" * 5000)],
        ids=["empty_object", "list", "entry_without_text", "version_2", "not_json",
             "text_logprob", "nested_too_deeply", "integer_past_the_digit_limit"],
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

    @pytest.mark.parametrize("epoch", BAD_EPOCHS)
    def test_bad_source_date_epoch_exits_2_before_training(
        self, workspace, scored_corpus, epoch
    ):
        d = workspace["dir"]
        proc = run_cli("train", "--config", workspace["config"], "--in", scored_corpus,
                       "--out", d / "model.bin", "--iterations", 2, expect=2, epoch=epoch)
        assert proc.stderr.startswith("mcqa train: SOURCE_DATE_EPOCH must be an integer")
        assert "Traceback" not in proc.stderr
        assert not list(d.glob("model.bin*"))

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
        "missing_hash_seed", "header_is_a_list", "header_nested_too_deeply",
        "n_features_is_a_string", "too_few_weights", "nan_weight",
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
        "text",
        [
            json.dumps({"parsed": 3}),
            json.dumps([16, 16]),
            json.dumps({"attempted": "16", "parsed": 16}),
            json.dumps({"attempted": 2, "parsed": 9}),
            json.dumps({"attempted": True, "parsed": True}),
            json.dumps({"attempted": -4, "parsed": -2}),
            NESTED_TOO_DEEPLY,
        ],
        ids=["missing-attempted", "json-array", "text-count", "parsed-over-attempted",
             "boolean-counts", "negative-counts", "nested-too-deeply"],
    )
    def test_stats_malformed_report_exits_2(self, workspace, corpus_path, text):
        report_path = workspace["dir"] / "bad.report.json"
        report_path.write_text(text)
        proc = run_cli("stats", "--in", corpus_path, "--out", workspace["dir"] / "s.json",
                       "--report", report_path, expect=2)
        assert proc.stderr.startswith(f"mcqa stats: {report_path} is not a generation report")
        assert "Traceback" not in proc.stderr
        assert not (workspace["dir"] / "s.json").exists()

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

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_unknown_config_key_exits_2(self, tmp_path, command):
        """Every command takes one --config and resolves it before it reads
        or writes a file (none of its input files exists here)."""
        (tmp_path / "bad.ini").write_text("[generation]\nnot_a_key = 1\n")
        proc = run_cli(command, "--config", "bad.ini", *REQUIRED_ARGS[command],
                       expect=2, cwd=tmp_path)
        assert proc.stderr.startswith(f"mcqa {command}: ")
        assert "not_a_key" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert [path.name for path in tmp_path.iterdir()] == ["bad.ini"]
        options = cli.COMMANDS[command].options
        assert sum("--config" in flags for flags, _ in options) == 1

    @pytest.mark.parametrize(
        "text",
        ["iterations = 3\n", "[backend]\nkind = mock\n[backend]\n",
         "[training]\niterations = 3\niterations = 4\n", "[training]\niterations\n"],
        ids=["no_section_header", "repeated_section", "repeated_key", "line_without_equals"],
    )
    def test_unparsable_config_file_exits_2_naming_path(self, workspace, corpus_path, text):
        bad = workspace["dir"] / "bad.ini"
        bad.write_text(text)
        proc = run_cli("stats", "--config", bad, "--in", corpus_path,
                       "--out", workspace["dir"] / "s.json", expect=2)
        assert proc.stderr.startswith(f"mcqa stats: {bad}: ")
        assert "Traceback" not in proc.stderr

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


class TestParsing:
    def test_no_command_prints_usage_and_exits_2(self, tmp_path):
        proc = run_cli(expect=2, cwd=tmp_path)
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: mcqa ")
        assert list(tmp_path.iterdir()) == []

    def test_option_prefix_is_not_an_option(self, workspace):
        """A prefix of a long option is rejected, not read as the option; a
        negative number is still an option's value."""
        cwd = workspace["dir"] / "cwd"
        cwd.mkdir()
        proc = run_cli("train", "--iter", 3, *REQUIRED_ARGS["train"], expect=2, cwd=cwd)
        assert "unrecognized arguments: --iter 3" in proc.stderr
        assert proc.stderr.startswith("usage: mcqa train ")
        assert list(cwd.iterdir()) == []
        corpus = workspace["dir"] / "corpus.jsonl"
        run_cli("generate", "--config", workspace["config"],
                "--fewshot", workspace["fewshot"], "--out", corpus)
        out_dir = workspace["dir"] / "subsets"
        run_cli("subset", "--in", corpus, "--sizes", "4", "--seed", -1, "--out-dir", out_dir)
        manifest = json.loads((out_dir / "subsets.manifest.json").read_text())
        assert manifest["seed"] == -1

    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_unknown_option_shows_the_commands_usage(self, name, capsys, tmp_path,
                                                      monkeypatch):
        """An option a command does not take is reported under that command's
        usage, which lists the options it does take, not the group's."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as stop:
            cli.main([name, *REQUIRED_ARGS[name], "--no-such-option", "3"])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: mcqa {name} [-h] [--config CONFIG_PATH]")
        assert err.endswith(f"mcqa {name}: error: unrecognized arguments: --no-such-option 3\n")
        assert list(tmp_path.iterdir()) == []


# Each command imports only the layers it runs: a fresh interpreter runs the
# command in process, then reports which modules and top-level packages it
# loaded.
LOADED_AFTER = """
import json, sys
from mcqa_distill import cli
code = None
if sys.argv[1:]:
    try:
        cli.main(args=sys.argv[1:], prog_name="mcqa")
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"exit": code, "loaded": sorted(sys.modules)}))
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
    modules = set(result["loaded"])
    return modules | {m.split(".")[0] for m in modules}


@functools.lru_cache(maxsize=None)
def bare_interpreter_packages():
    """The top-level packages a bare interpreter loads (its site hooks')."""
    program = "import sys; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                          env=cli_env(), check=True)
    return frozenset(m.split(".")[0] for m in proc.stdout.split())


def third_party(loaded):
    """The top-level packages of ``loaded`` from outside the standard library
    and this package, past what a bare interpreter loads."""
    packages = {m for m in loaded if "." not in m}
    return packages - set(sys.stdlib_module_names) - {"mcqa_distill"} - bare_interpreter_packages()


class TestCommandImports:
    @pytest.mark.parametrize(
        "args, expect", [((), None), (("--version",), 0), (("train", "--help"), 0)],
        ids=["import", "version", "train-help"],
    )
    def test_start_up_loads_neither_requests_nor_numpy(self, args, expect):
        loaded = loaded_after(*args, expect=expect)
        assert not {"requests", "numpy", "http.client"} & loaded
        assert third_party(loaded) == set()

    def test_mock_generate_loads_neither_requests_nor_numpy(self, workspace):
        loaded = loaded_after("generate", "--config", workspace["config"],
                              "--fewshot", workspace["fewshot"],
                              "--out", workspace["dir"] / "corpus.jsonl", expect=0)
        assert not {"requests", "numpy", "http.client"} & loaded
        assert third_party(loaded) == set()

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
            if args[0] == "score":
                assert "http.client" not in loaded
                assert third_party(loaded) == set()

    def test_http_backend_loads_http_client_and_maps_its_timeout(self):
        program = """
import socket, sys
from mcqa_distill.core import ChatMessage
from mcqa_distill.gateway import (
    BackendConfig, CompletionRequest, HttpBackend, RequestTimeout,
)
assert "http.client" not in sys.modules

# Accepts the connection (the kernel's backlog) but never answers.
silent = socket.create_server(("127.0.0.1", 0))
url = "http://127.0.0.1:%d" % silent.getsockname()[1]
backend = HttpBackend(BackendConfig(base_url=url, retry_limit=0, request_timeout=0.2))
assert "http.client" in sys.modules
assert "requests" not in sys.modules
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


# The one package module no command runs: the mock-script fabricator that
# scripts/run_mock_pipeline.py and the benchmark call.
NOT_RUN_BY_THE_CLI = {"mock_script"}


def test_every_package_module_is_reached_from_the_cli():
    """Every package module is imported, at module level or inside a
    function, on some path from ``cli`` (``mcqa``) or ``__main__``
    (``python -m mcqa_distill``)."""
    package = REPO / "src" / "mcqa_distill"
    modules = {path.stem for path in package.glob("*.py")}
    reached, todo = set(), ["__init__", "cli", "__main__"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
                todo += [n for n in names if n in modules]
    assert sorted(modules - reached - NOT_RUN_BY_THE_CLI) == []


def teacher_reply(received):
    """A plausible teacher: a question, an answer or choice logprobs, each a
    function of the request body."""
    body = received.json
    number = int.from_bytes(hashlib.sha256(received.body).digest()[:6], "big")
    system = " ".join(m["content"] for m in body["messages"] if m["role"] == "system")
    choice = {}
    if body.get("logprobs"):
        last_user = body["messages"][-1]["content"].split("\n", 1)[-1]
        letters = re.findall(r"^([A-Z])\. ", last_user, re.MULTILINE)
        top = [{"token": letter, "logprob": -0.5 * (1 + k)} for k, letter in enumerate(letters)]
        text = letters[0]
        choice["logprobs"] = {"content": [{"token": text, "logprob": -0.5, "top_logprobs": top}]}
    elif "creating question" in system:
        text = f"Which of the planets is number {number}?"
    else:
        text = f"planet {number}"
    return Reply(200, {"choices": [{"message": {"content": text}, **choice}]})


class TestHttpTeacher:
    """The teacher commands over real HTTP, to a loopback server."""

    def http_config(self, tmp_path, base_url, width=2):
        path = tmp_path / "http.ini"
        path.write_text(
            "[backend]\n"
            "kind = http\n"
            f"base_url = {base_url}\n"
            f"max_parallel_requests = {width}\n"
            "retry_limit = 0\n"
        )
        return path

    def test_generate_and_score(self, workspace, scripted_teacher):
        scripted_teacher.respond = teacher_reply
        d = workspace["dir"]
        config = self.http_config(d, scripted_teacher.base_url, width=2)
        loaded = loaded_after("generate", "--config", config, "--fewshot", workspace["fewshot"],
                              "--strategy", "decompose", "--count", 2, "--seed", 3,
                              "--out", d / "corpus.jsonl", expect=0)
        assert "http.client" in loaded and "requests" not in loaded
        # Two attempts: a question, its answer and five negatives each.
        assert len(scripted_teacher.received) == 2 * (2 + 5)
        assert 1 <= scripted_teacher.connections <= 2
        assert len(read_jsonl(d / "corpus.jsonl")) == 2

        generate_connections = scripted_teacher.connections
        loaded = loaded_after("score", "--config", config, "--fewshot", workspace["fewshot"],
                              "--in", d / "corpus.jsonl", "--out", d / "scored.jsonl", expect=0)
        assert "requests" not in loaded
        scoring = scripted_teacher.received[2 * (2 + 5):]
        assert len(scoring) == 2
        assert all(r.json["logprobs"] is True for r in scoring)
        assert 1 <= scripted_teacher.connections - generate_connections <= 2
        assert {r.target for r in scripted_teacher.received} == {"/v1/chat/completions"}
        scored = read_jsonl(d / "scored.jsonl").instances
        assert len(scored) == 2
        assert all(inst.teacher_scores is not None for inst in scored)
        counts = json.loads((d / "scored.jsonl.manifest.json").read_text())["counts"]
        assert counts == {"scored": 2, "fallback": 0, "skipped": 0}

    def test_rejected_request_stops_generate(self, workspace, scripted_teacher):
        scripted_teacher.respond = lambda received: Reply(401, body=b"invalid api key")
        d = workspace["dir"]
        config = self.http_config(d, scripted_teacher.base_url, width=2)
        proc = run_cli("generate", "--count", 4, "--config", config,
                       "--fewshot", workspace["fewshot"], "--out", d / "corpus.jsonl", expect=2)
        assert "HTTP 401" in proc.stderr
        assert 1 <= len(scripted_teacher.received) <= 2
        assert not list(d.glob("corpus.jsonl*"))

    @pytest.mark.parametrize("command", ["generate", "score"])
    def test_refused_port_stops_the_run(self, workspace, monkeypatch, capsys, command):
        """Nothing listens: the run stops after UNAVAILABLE_AFTER failed
        requests in a row (plus the calls already ahead of them), exits 2
        naming the last error and writes no corpus, one-hot or other."""
        d = workspace["dir"]
        with socket.socket() as unlistened:  # bound, never listening: refused
            unlistened.bind(("127.0.0.1", 0))
            base_url = "http://127.0.0.1:%d" % unlistened.getsockname()[1]
            config = self.http_config(d, base_url, width=2)
            posts = []
            real_post = HttpBackend._post

            def post(backend, body, headers):
                posts.append(body)
                return real_post(backend, body, headers)

            monkeypatch.setattr(HttpBackend, "_post", post)
            if command == "generate":
                args = ["generate", "--count", "64"]
            else:
                corpus = [make_instance(f"q{i}", question=f"Question {i}?") for i in range(64)]
                write_jsonl(Corpus(tuple(corpus), CorpusMeta(source="seed")), d / "in.jsonl")
                args = ["score", "--fallback", "one_hot", "--in", str(d / "in.jsonl")]
            with pytest.raises(SystemExit) as exited:
                cli.main([*args, "--config", str(config), "--fewshot", str(workspace["fewshot"]),
                          "--out", str(d / "out.jsonl")])
        stderr = capsys.readouterr().err
        assert exited.value.code == 2, stderr
        assert f"mcqa {command}: teacher unavailable" in stderr
        assert "TransportError" in stderr
        assert UNAVAILABLE_AFTER <= len(posts) <= UNAVAILABLE_AFTER + AHEAD * 2 - 1
        assert not list(d.glob("out.jsonl*"))

    def test_isolated_failures_do_not_stop_the_run(self, workspace, scripted_teacher):
        """A teacher that fails one request in four: generate and score finish
        with those failures counted, at width 2 as at width 1."""

        def flaky(received):
            if hashlib.sha256(received.body).digest()[0] % 4 == 0:
                return Reply(500, body=b"overloaded")
            return teacher_reply(received)

        scripted_teacher.respond = flaky
        d = workspace["dir"]
        outputs = []
        for width in (1, 2):
            config = self.http_config(d, scripted_teacher.base_url, width=width)
            corpus, scored = d / f"corpus{width}.jsonl", d / f"scored{width}.jsonl"
            run_cli("generate", "--config", config, "--fewshot", workspace["fewshot"],
                    "--strategy", "decompose", "--negatives", 2, "--count", 24, "--seed", 3,
                    "--out", corpus, expect=0)
            run_cli("score", "--config", config, "--fewshot", workspace["fewshot"],
                    "--in", corpus, "--out", scored, expect=0)
            report = json.loads((d / f"corpus{width}.jsonl.report.json").read_text())
            counts = json.loads((d / f"scored{width}.jsonl.manifest.json").read_text())["counts"]
            outputs.append((read_jsonl(corpus).instances, report, read_jsonl(scored).instances))
            assert report["rejected_by_reason"]["STAGE_FAILURE"] > 0
            assert counts["scored"] + counts["fallback"] == 24 and counts["fallback"] > 0
        assert outputs[0] == outputs[1]

    def test_empty_top_logprobs_stops_score(self, workspace, scripted_teacher):
        """A teacher whose replies list no top log-probabilities cannot score:
        ``mcqa score`` exits 2 and writes nothing, as for the mock's empty map,
        instead of counting uniform scores as scored."""
        logprobs = {"content": [{"token": "A", "logprob": -0.1, "top_logprobs": []}]}
        scripted_teacher.respond = lambda received: Reply(
            200, {"choices": [{"message": {"content": "A"}, "logprobs": logprobs}]}
        )
        d = workspace["dir"]
        corpus = [make_instance(f"q{i}", question=f"Question {i}?") for i in range(4)]
        write_jsonl(Corpus(tuple(corpus), CorpusMeta(source="seed")), d / "in.jsonl")
        config = self.http_config(d, scripted_teacher.base_url)
        proc = run_cli("score", "--config", config, "--fewshot", workspace["fewshot"],
                       "--in", d / "in.jsonl", "--out", d / "scored.jsonl", expect=2)
        assert proc.stderr.startswith("mcqa score: backend returned no log-probability data")
        assert scripted_teacher.received[0].json["logprobs"] is True
        assert not list(d.glob("scored.jsonl*"))

    @pytest.mark.parametrize("epoch", BAD_EPOCHS)
    @pytest.mark.parametrize("command", ["generate", "score"])
    def test_bad_source_date_epoch_exits_2_before_any_request(
        self, workspace, scripted_teacher, command, epoch
    ):
        scripted_teacher.respond = teacher_reply
        d = workspace["dir"]
        config = self.http_config(d, scripted_teacher.base_url)
        if command == "generate":
            args = ("generate", "--count", 2)
        else:
            write_jsonl(Corpus((make_instance("q0"),), CorpusMeta(source="seed")), d / "in.jsonl")
            args = ("score", "--in", d / "in.jsonl")
        proc = run_cli(*args, "--config", config, "--fewshot", workspace["fewshot"],
                       "--out", d / "out.jsonl", expect=2, epoch=epoch)
        assert proc.stderr.startswith(f"mcqa {command}: SOURCE_DATE_EPOCH must be an integer")
        assert repr(epoch) in proc.stderr and "Traceback" not in proc.stderr
        assert scripted_teacher.received == []
        assert not list(d.glob("out.jsonl*"))

    @pytest.mark.parametrize("command", ["generate", "score"])
    def test_base_url_without_scheme_exits_2_at_once(self, workspace, command):
        d = workspace["dir"]
        config = self.http_config(d, "localhost:8000")
        if command == "generate":
            args = ("generate", "--count", 4)
        else:
            write_jsonl(Corpus((make_instance("q0"),), CorpusMeta(source="seed")), d / "in.jsonl")
            args = ("score", "--fallback", "one_hot", "--in", d / "in.jsonl")
        proc = run_cli(*args, "--config", config, "--fewshot", workspace["fewshot"],
                       "--out", d / "out.jsonl", expect=2)
        assert "base_url" in proc.stderr and "'localhost:8000'" in proc.stderr
        assert not (d / "out.jsonl").exists()


# (command, flag, [section] key, value in the config file, value on the flag)
CONFIG_FLAGS = [
    ("generate", "--strategy", "generation", "strategy", "decompose", "paraphrase"),
    ("generate", "--count", "generation", "target_count", 64, 8),
    ("generate", "--temperature", "generation", "temperature", 0.7, 1.5),
    ("generate", "--negatives", "generation", "negatives_n", 3, 4),
    ("generate", "--seed", "generation", "seed", 7, 11),
    ("generate", "--max-attempts", "generation", "max_attempts", 99, 5),
    ("generate", "--base-url", "backend", "base_url", "http://file.test", "http://flag.test"),
    ("generate", "--model", "backend", "model_name", "file-model", "flag-model"),
    ("score", "--token-limit", "scoring", "prompt_token_limit", 512, 256),
    ("score", "--fallback", "scoring", "fallback", "skip", "one_hot"),
    ("score", "--base-url", "backend", "base_url", "http://file.test", "http://flag.test"),
    ("score", "--model", "backend", "model_name", "file-model", "flag-model"),
    ("train", "--loss", "training", "loss_mode", "distill", "binary_bce"),
    ("train", "--iterations", "training", "iterations", 20, 30),
    ("train", "--micro-batch", "training", "micro_batch", 2, 3),
    ("train", "--accum", "training", "grad_accumulation", 3, 5),
    ("train", "--lr", "training", "learning_rate", 0.25, 0.125),
    ("train", "--distill-r", "training", "distill_temperature_r", 0.5, 2.0),
    ("train", "--seed", "training", "seed", 9, 13),
]
REQUIRED_ARGS = {
    "generate": ("--fewshot", "seed.jsonl", "--out", "corpus.jsonl"),
    "score": ("--fewshot", "seed.jsonl", "--in", "corpus.jsonl", "--out", "scored.jsonl"),
    "train": ("--in", "scored.jsonl", "--out", "model.bin"),
    "eval": ("--in", "scored.jsonl", "--model", "model.bin", "--out", "eval.json"),
    "stats": ("--in", "corpus.jsonl", "--out", "stats.json"),
    "subset": ("--in", "corpus.jsonl", "--sizes", "4,8", "--out-dir", "subsets"),
    "similarity": ("--generated", "corpus.jsonl", "--reference", "seed.jsonl",
                   "--out", "similarity.json"),
    "import": ("--in", "arc.csv", "--format", "arc_csv", "--out", "imported.jsonl"),
}


class ConfigResolved(Exception):
    """Stops a command once its config is resolved, before any stage runs."""


class TestConfigFlags:
    def resolve(self, monkeypatch, config_path, command, *flag_args):
        resolved = []

        def record(path, overrides):
            resolved.append(effective_config(path, overrides))
            raise ConfigResolved

        monkeypatch.setattr(cli, "effective_config", record)
        with pytest.raises(ConfigResolved):
            cli.main([command, "--config", str(config_path), *REQUIRED_ARGS[command], *flag_args])
        return resolved[0]

    @pytest.mark.parametrize(
        "command, flag, section, key, file_value, flag_value",
        CONFIG_FLAGS,
        ids=[f"{command}{flag}" for command, flag, *_ in CONFIG_FLAGS],
    )
    def test_flag_sets_its_key_and_unset_keeps_the_file_value(
        self, monkeypatch, tmp_path, command, flag, section, key, file_value, flag_value
    ):
        config_path = tmp_path / "run.ini"
        config_path.write_text(f"[{section}]\n{key} = {file_value}\n")
        flagged = self.resolve(monkeypatch, config_path, command, flag, str(flag_value))
        assert flagged[section][key] == flag_value
        unset = self.resolve(monkeypatch, config_path, command)
        assert unset[section][key] == file_value

    def test_every_config_flag_is_covered(self):
        """Each config flag is declared with the ``[section] key`` it sets as
        its ``dest``, and every option with such a ``dest`` is in the table."""
        declared = {
            (name, flags[0], attrs["dest"])
            for name, command in cli.COMMANDS.items()
            for flags, attrs in command.options
            if "." in attrs.get("dest", "")
        }
        assert declared == {
            (command, flag, f"{section}.{key}") for command, flag, section, key, *_ in CONFIG_FLAGS
        }


def test_readme_command_table_lists_every_flag():
    """Each row of the README's command table names exactly the command's
    declared options, apart from --config and --help."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|.*\| `([^`]*)` \|$", table, re.M)
    assert sorted(name for name, _ in rows) == sorted(cli.COMMANDS)
    for name, flags in rows:
        declared = {
            flag for option_flags, _ in cli.COMMANDS[name].options for flag in option_flags
        } - {"--config"}
        assert {word for word in flags.split() if word.startswith("--")} == declared, name


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
