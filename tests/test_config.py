"""Layered configuration: dataclass defaults <- config file <- flags."""

from pathlib import Path

import pytest

from mcqa_distill.config import (
    DEFAULTS,
    SECTIONS,
    ScoringConfig,
    TrainConfig,
    config_digest,
    effective_config,
    stage_config,
)
from mcqa_distill.gateway import BackendConfig
from mcqa_distill.generation import GenerationConfig

# Every key of every section, each set to a value that is not its default.
EVERY_KEY_INI = """\
[backend]
kind = http
script = teacher.json
base_url = http://teacher.test:9000
model_name = tiny-teacher
request_timeout = 30.5
max_parallel_requests = 8
retry_limit = 5

[generation]
strategy = decompose
temperature = 0.7
negatives_n = 3
target_count = 64
seed = 7
max_attempts = 99

[scoring]
prompt_token_limit = 512
fallback = skip

[training]
iterations = 20
batch_size = 6
learning_rate = 0.25
loss_mode = distill
distill_temperature_r = 0.5
seed = 9
n_features = 4096
hash_seed = 3
"""


def test_defaults_are_the_reference_run():
    cfg = effective_config()
    gen = stage_config(cfg, "generation")
    assert (gen.temperature, gen.negatives_n, gen.target_count) == (2.0, 5, 1024)
    train = stage_config(cfg, "training")
    # Batch 8: the paper's micro-batch 4 with 2-step accumulation.
    assert (train.iterations, train.batch_size) == (500, 8)
    assert (train.n_features, train.hash_seed) == (2**18, 0)
    scoring = stage_config(cfg, "scoring")
    assert (scoring.prompt_token_limit, scoring.fallback) == (1024, "one_hot")
    # The "derive it" zero, typed as the manifests have always recorded it.
    assert cfg["generation"]["max_attempts"] == 0
    assert gen.attempt_budget == 20 * 1024
    assert train.learning_rate == 0.5
    assert list(cfg) == ["backend", "generation", "scoring", "training"]


def test_no_key_is_boolean():
    """A file value is read by its default's type, and ``bool("no")`` is
    True, so a boolean key would read every word as on."""
    values = [value for entries in DEFAULTS.values() for value in entries.values()]
    assert not any(isinstance(value, bool) for value in values)


# Every corpus meta line and every run manifest records this digest, so a
# change to it changes them all and must be declared in CHANGES.md.
DEFAULT_CONFIG_DIGEST = "8260fd17a7581837597581823193b96a7e68844a07cb63815216a44603a0ef3e"


def test_default_config_digest_is_pinned():
    assert config_digest(effective_config()) == DEFAULT_CONFIG_DIGEST


def test_every_key_from_file_reaches_its_stage(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(EVERY_KEY_INI)
    cfg = effective_config(path)
    for section, entries in DEFAULTS.items():
        assert cfg[section].keys() == entries.keys()
        for key, default in entries.items():
            assert cfg[section][key] != default, f"[{section}] {key} left at default"

    assert stage_config(cfg, "backend") == BackendConfig(
        kind="http",
        script="teacher.json",
        base_url="http://teacher.test:9000",
        model_name="tiny-teacher",
        request_timeout=30.5,
        max_parallel_requests=8,
        retry_limit=5,
    )
    assert stage_config(cfg, "generation") == GenerationConfig(
        strategy="decompose",
        temperature=0.7,
        negatives_n=3,
        target_count=64,
        seed=7,
        max_attempts=99,
    )
    assert stage_config(cfg, "scoring") == ScoringConfig(prompt_token_limit=512, fallback="skip")
    assert stage_config(cfg, "training") == TrainConfig(
        iterations=20,
        batch_size=6,
        learning_rate=0.25,
        loss_mode="distill",
        distill_temperature_r=0.5,
        seed=9,
        n_features=4096,
        hash_seed=3,
    )


def test_flag_beats_file_beats_default(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[generation]\ntarget_count = 64\nseed = 3\n")
    cfg = effective_config(path, {"generation": {"target_count": 8, "seed": None}})
    assert cfg["generation"]["target_count"] == 8
    assert cfg["generation"]["seed"] == 3
    assert cfg["generation"]["temperature"] == 2.0
    assert effective_config(None, {"generation": {"seed": 4}})["generation"]["seed"] == 4


@pytest.mark.parametrize(
    "line, message",
    [
        ("[training]\niterations = many\n",
         r"\[training\] iterations must be an integer, got 'many'"),
        ("[backend]\nrequest_timeout = soon\n",
         r"\[backend\] request_timeout must be a number, got 'soon'"),
        ("[datasets]\nmax_tokens = 320\n", r"unknown config section \[datasets\]"),
        # The prompts are constants of ``prompts``, not config.
        ("[templates]\njson_system = J\n", r"unknown config section \[templates\]"),
        ("[scoring]\nnot_a_key = 1\n", r"unknown config key \[scoring\] not_a_key"),
    ],
    ids=["int", "float", "section", "templates", "key"],
)
def test_bad_file_values_name_section_and_key(tmp_path, line, message):
    path = tmp_path / "run.ini"
    path.write_text(line)
    with pytest.raises(ValueError, match=message):
        effective_config(path)


@pytest.mark.parametrize("raw", ["abc", "1.5", "99999999999999999999", "253402300800"])
def test_bad_source_date_epoch_fails_config_resolution(monkeypatch, raw):
    """Not an integer, or not a time in years 1-9999: every command resolves
    its config first, so it stops before it does any work."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", raw)
    with pytest.raises(ValueError, match=rf"SOURCE_DATE_EPOCH .*got {raw!r}"):
        effective_config()


def test_readme_example_config_loads(tmp_path):
    """The example under "### Config file" names only keys the schema has,
    with values every stage dataclass accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Config file\n", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    cfg = effective_config(path)
    stages = {section: stage_config(cfg, section) for section in SECTIONS}
    assert stages["backend"].kind == "http"
    assert stages["training"].loss_mode == "distill"
    assert stages["training"].learning_rate == 0.5
    assert stages["training"].n_features == 2**18


@pytest.mark.parametrize(
    "cls, key, value, message",
    [
        (TrainConfig, "distill_temperature_r", float("nan"),
         "distill_temperature_r must be finite and >= 0: nan"),
        (TrainConfig, "distill_temperature_r", float("inf"),
         "distill_temperature_r must be finite and >= 0: inf"),
        (TrainConfig, "distill_temperature_r", -0.5,
         "distill_temperature_r must be finite and >= 0: -0.5"),
        (TrainConfig, "batch_size", 0, "iterations and batch_size must be >= 1"),
        (GenerationConfig, "negatives_n", 0, "negatives_n must be between 1 and 25: 0"),
        (GenerationConfig, "negatives_n", 26, "negatives_n must be between 1 and 25: 26"),
        (GenerationConfig, "temperature", float("nan"), "temperature must be finite and > 0: nan"),
        (GenerationConfig, "temperature", float("inf"), "temperature must be finite and > 0: inf"),
        (GenerationConfig, "temperature", 0.0, "temperature must be finite and > 0: 0.0"),
        (BackendConfig, "request_timeout", float("nan"),
         "request_timeout must be finite and > 0: nan"),
        (BackendConfig, "request_timeout", float("inf"),
         "request_timeout must be finite and > 0: inf"),
        (BackendConfig, "request_timeout", 0.0, "request_timeout must be finite and > 0: 0.0"),
    ],
)
def test_out_of_range_value_rejected_naming_its_key(cls, key, value, message):
    with pytest.raises(ValueError, match=message):
        cls(**{key: value})
