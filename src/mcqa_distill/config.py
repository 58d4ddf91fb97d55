"""Flat key/value configuration with one section per pipeline stage.

Built-in defaults reproduce the reference experiment configuration (teacher
temperature 2, five negatives, 1024 instances, 500 iterations at batch 4 with
2-step accumulation), a config file overrides defaults, and command-line
flags override the file. The fully resolved mapping is digested and stored in
every run manifest so any manifest's digest can be recomputed from the config
it embeds.
"""

from __future__ import annotations

import configparser
import copy
import hashlib
import json
import os
from datetime import datetime, timezone
from typing import Dict, Optional

from .core import write_json
from .prompts import DEFAULT_TEMPLATES, PromptTemplateSet

TEMPLATE_KEYS = (
    "json_system",
    "decompose_question_system",
    "decompose_positive_system",
    "decompose_negative_system",
    "paraphrase_system",
    "topic_instruction_pattern",
)

# Sentinels: max_attempts 0 means 20x the target count; learning_rate 0 means
# the student's recommended rate.
DEFAULTS: Dict[str, dict] = {
    "backend": {
        "kind": "mock",
        "script": "",
        "base_url": "http://localhost:8000",
        "model_name": "default",
        "request_timeout": 120.0,
        "max_parallel_requests": 4,
        "retry_limit": 2,
    },
    "generation": {
        "strategy": "json",
        "temperature": 2.0,
        "negatives_n": 5,
        "target_count": 1024,
        "seed": 0,
        "max_attempts": 0,
        "shuffle_choices": False,
    },
    "scoring": {
        "prompt_token_limit": 1024,
        "fallback": "one_hot",
    },
    "training": {
        "iterations": 500,
        "micro_batch": 4,
        "grad_accumulation": 2,
        "learning_rate": 0.0,
        "optimizer": "adam",
        "loss_mode": "generate",
        "distill_temperature_r": 1.0,
        "seed": 0,
        "n_features": 2**18,
        "hash_seed": 0,
    },
    "datasets": {
        "max_tokens": 320,
    },
    "templates": {key: getattr(DEFAULT_TEMPLATES, key) for key in TEMPLATE_KEYS},
}


def _coerce(raw: str, default):
    if isinstance(default, bool):
        return raw.strip().lower() in ("1", "true", "yes", "on")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def load_config_file(path) -> Dict[str, Dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    return {section: dict(parser[section]) for section in parser.sections()}


def effective_config(
    config_path: Optional[str] = None, overrides: Optional[Dict[str, dict]] = None
) -> Dict[str, dict]:
    """defaults <- config file <- flag overrides, with typed values throughout.

    override values of None mean "flag not given" and are skipped.
    """
    effective = copy.deepcopy(DEFAULTS)
    if config_path:
        for section, entries in load_config_file(config_path).items():
            if section not in effective:
                raise ValueError(f"unknown config section [{section}]")
            for key, raw in entries.items():
                if key not in effective[section]:
                    raise ValueError(f"unknown config key [{section}] {key}")
                effective[section][key] = _coerce(raw, DEFAULTS[section][key])
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


def templates_from_config(effective: Dict[str, dict]) -> PromptTemplateSet:
    return PromptTemplateSet(**{key: effective["templates"][key] for key in TEMPLATE_KEYS})


def fixed_epoch() -> Optional[int]:
    """SOURCE_DATE_EPOCH when set: run in reproducible-output mode."""
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    if raw is None or not raw.strip():
        return None
    return int(raw)


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
    path,
    effective: Dict[str, dict],
    seed: int,
    stage_timings: Dict[str, float],
    counts: Dict[str, int],
    tool_version: str,
) -> None:
    manifest = {
        "tool_version": tool_version,
        "seed": seed,
        "config_digest": config_digest(effective),
        "config": effective,
        "stage_timings": stage_timings,
        "counts": counts,
    }
    write_json(manifest, path)
