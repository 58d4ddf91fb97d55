"""Flat key/value configuration with one section per pipeline stage.

Each section's keys are the fields of its stage dataclass, and each default
is written once, on that field. The defaults reproduce the reference
experiment configuration (teacher temperature 2, five negatives, 1024
instances, 500 iterations at batch 8, the paper's micro-batch 4 with 2-step
accumulation), a config file overrides defaults, and command-line flags
override the file. The fully resolved mapping is digested and stored in every
run manifest so any manifest's digest can be recomputed from the config it
embeds.

``TrainConfig`` lives here rather than in the numpy-backed ``distillation``
module, which imports it from here, so resolving a config loads no numpy.
"""

from __future__ import annotations

import configparser
import copy
import hashlib
import json
import math
import os
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import Dict, Optional

from . import __version__
from .core import write_json
from .gateway import BackendConfig
from .generation import GenerationConfig

DEFAULT_FEATURES = 2**18
DEFAULT_HASH_SEED = 0

LOSS_MODES = ("generate", "distill", "binary_bce")
FALLBACKS = ("one_hot", "skip")


@dataclass(frozen=True)
class ScoringConfig:
    prompt_token_limit: int = 1024
    fallback: str = "one_hot"

    def __post_init__(self):
        if self.prompt_token_limit <= 0:
            raise ValueError("prompt_token_limit must be positive")
        if self.fallback not in FALLBACKS:
            raise ValueError(f"unknown fallback {self.fallback!r}")


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 500
    batch_size: int = 8
    # Adam's step size, sized for the student's unit-norm hashed features.
    learning_rate: float = 0.5
    loss_mode: str = "generate"
    distill_temperature_r: float = 1.0
    seed: int = 0
    # The student's hashed feature space, which ``ToyStudent`` checks.
    n_features: int = DEFAULT_FEATURES
    hash_seed: int = DEFAULT_HASH_SEED

    def __post_init__(self):
        if self.iterations < 1 or self.batch_size < 1:
            raise ValueError("iterations and batch_size must be >= 1")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"unknown loss mode {self.loss_mode!r}")
        if not 0 <= self.distill_temperature_r < math.inf:  # also false for NaN
            raise ValueError(
                f"distill_temperature_r must be finite and >= 0: {self.distill_temperature_r}"
            )
        if not 0 < self.learning_rate < math.inf:  # also false for NaN
            raise ValueError(f"learning_rate must be finite and > 0: {self.learning_rate}")


SECTIONS = {
    "backend": BackendConfig,
    "generation": GenerationConfig,
    "scoring": ScoringConfig,
    "training": TrainConfig,
}

DEFAULTS: Dict[str, dict] = {
    section: {f.name: f.default for f in fields(cls)} for section, cls in SECTIONS.items()
}


_KINDS = {int: "an integer", float: "a number"}


def _coerce(section: str, key: str, raw: str, default):
    try:
        if isinstance(default, (int, float)):
            return type(default)(raw)
    except ValueError:
        raise ValueError(
            f"[{section}] {key} must be {_KINDS[type(default)]}, got {raw!r}"
        ) from None
    return raw


def load_config_file(path) -> Dict[str, Dict[str, str]]:
    """``{section: {key: raw value}}``; ValueError naming ``path`` if unparsable."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ValueError(f"{path}: {exc}") from None
    return {section: dict(parser[section]) for section in parser.sections()}


def effective_config(
    config_path: Optional[str] = None, overrides: Optional[Dict[str, dict]] = None
) -> Dict[str, dict]:
    """defaults <- config file <- flag overrides, with typed values throughout.

    override values of None mean "flag not given" and are skipped. Every
    command calls this first, so a bad ``SOURCE_DATE_EPOCH`` stops it here,
    before it sends a request or writes a file.
    """
    fixed_epoch()
    effective = copy.deepcopy(DEFAULTS)
    if config_path:
        for section, entries in load_config_file(config_path).items():
            if section not in effective:
                raise ValueError(f"unknown config section [{section}]")
            for key, raw in entries.items():
                if key not in effective[section]:
                    raise ValueError(f"unknown config key [{section}] {key}")
                effective[section][key] = _coerce(section, key, raw, DEFAULTS[section][key])
    for section, entries in (overrides or {}).items():
        for key, value in entries.items():
            if value is None:
                continue
            if key not in effective[section]:
                raise ValueError(f"unknown override [{section}] {key}")
            effective[section][key] = value
    return effective


def config_digest(effective: Dict[str, dict]) -> str:
    canon = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def stage_config(effective: Dict[str, dict], section: str):
    """The stage dataclass of ``section``, built from its resolved keys."""
    return SECTIONS[section](**effective[section])


def fixed_epoch() -> Optional[int]:
    """SOURCE_DATE_EPOCH when set: run in reproducible-output mode.

    A value that is not an integer, or not a time ``datetime`` can hold,
    raises ValueError naming the variable.
    """
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    if raw is None or not raw.strip():
        return None
    try:
        epoch = int(raw)
        datetime.fromtimestamp(epoch, timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise ValueError(
            f"SOURCE_DATE_EPOCH must be an integer count of seconds since "
            f"1970-01-01 UTC within years 1-9999, got {raw!r}"
        ) from None
    return epoch


def now_iso() -> str:
    epoch = fixed_epoch()
    if epoch is not None:
        return datetime.fromtimestamp(epoch, timezone.utc).isoformat()
    return datetime.now(timezone.utc).isoformat()


def stage_duration(elapsed_seconds: float) -> float:
    """Wall-clock duration, zeroed in reproducible-output mode."""
    if fixed_epoch() is not None:
        return 0.0
    return round(elapsed_seconds, 6)


def write_manifest(
    out,
    effective: Dict[str, dict],
    seed: int,
    timings: Dict[str, float],
    counts: Dict[str, int],
    **fields,
) -> None:
    """Write ``<out>.manifest.json`` for the artifact ``out``: the tool
    version, the seed, the resolved config and its digest, the stage
    timings (raw seconds, passed through ``stage_duration``) and counts,
    plus any further ``fields`` (``generate`` records its prompt topic)."""
    manifest = {
        **fields,
        "tool_version": __version__,
        "seed": seed,
        "config_digest": config_digest(effective),
        "config": effective,
        "stage_timings": {stage: stage_duration(sec) for stage, sec in timings.items()},
        "counts": counts,
    }
    write_json(manifest, f"{out}.manifest.json")
