"""Fabricate response scripts for the digest-keyed mock backend.

A script covers one planned pipeline run end to end: every prompt the run
will issue maps to a deterministic fabricated reply, including first-token
log-probabilities for the scoring stage. ``fabricate_json_run`` (what the
demo script and the benchmark run) only plans the reply texts of each
attempt; ``_record_run`` records the script by running the generation
module's own attempt functions against a backend that answers from that
plan, and scoring replies are keyed by the scoring module's own prompt
fitting, so the resulting runs never miss. The test suite's decompose and
paraphrase fabricators record through ``_record_run`` too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import FewShotSet, McqaInstance, stable_seed
from .gateway import CompletionResult, request_digest
from .generation import ATTEMPTS, GenerationConfig, attempt_instance
from .prompts import format_example_object
from .scoring import ScoringConfig, fit_scoring_prompt

Script = Dict[str, CompletionResult]


class _AttemptRecorded(Exception):
    """Ends an attempt as soon as its last planned reply is recorded."""


class _PlanRecorder:
    """Backend that answers an attempt's requests with its planned replies,
    in order, and records ``request_digest -> reply`` into ``script``."""

    def __init__(self):
        self.script: Script = {}
        self.replies: List[str] = []

    def complete(self, req) -> CompletionResult:
        if not self.replies:
            raise ValueError("attempt asked for more replies than its plan holds")
        reply = CompletionResult(text=self.replies.pop(0))
        self.script[request_digest(req.messages)] = reply
        if not self.replies:
            raise _AttemptRecorded
        return reply


def _record_run(strategy, fs, cfg, plans, expected, scoring_cfg):
    """Record the script of a run whose attempt ``i`` gets the replies
    ``plans[i]`` and emits ``expected[i]``, plus scoring replies when asked.

    An attempt stops once its last planned reply is recorded, so no reply is
    parsed here. An empty plan, or one the attempt does not use up, raises
    ValueError.
    """
    recorder = _PlanRecorder()
    for attempt, replies in enumerate(plans):
        recorder.replies = list(replies)
        try:
            ATTEMPTS[strategy](fs, cfg, recorder, attempt)
        except _AttemptRecorded:
            continue
        raise ValueError(f"{strategy} attempt {attempt} left planned replies unused")
    if scoring_cfg is not None:
        add_scoring_responses(recorder.script, expected, fs, scoring_cfg)
    return recorder.script, expected


def _fabricated_fields(topic: str, seed: int, attempt: int, num_choices: int = 4):
    rng = np.random.default_rng(stable_seed(seed, "fabricate", attempt))
    question = f"Synthetic {topic} question {attempt}: which option is marked?"
    choices = [f"option {attempt}-{j} ({'abcdefgh'[j]})" for j in range(num_choices)]
    answer = int(rng.integers(num_choices))
    return question, choices, answer


def _teacher_logprobs(inst: McqaInstance) -> Dict[str, float]:
    # Noisy but gold-leaning: the fabricated teacher prefers the fabricated
    # answer, so scripted distillation runs carry a learnable signal.
    rng = np.random.default_rng(stable_seed("teacher-logprobs", inst.id))
    raw = rng.normal(size=inst.num_choices)
    raw[inst.answer_index] += 1.5
    shifted = raw - raw.max()
    logz = float(np.log(np.exp(shifted).sum()))
    return {
        chr(ord("A") + i): float(shifted[i] - logz) for i in range(inst.num_choices)
    }


def add_scoring_responses(
    script: Script,
    instances: List[McqaInstance],
    fs: FewShotSet,
    scoring_cfg: ScoringConfig,
) -> Script:
    """Script a scoring response for each instance's fitted prompt."""
    for inst in instances:
        messages = fit_scoring_prompt(inst, fs, scoring_cfg)
        if messages is None:
            continue
        logprobs = _teacher_logprobs(inst)
        best = max(logprobs, key=logprobs.get)
        script[request_digest(messages)] = CompletionResult(
            text=best, first_token_logprobs=logprobs
        )
    return script


def fabricate_json_run(
    fs: FewShotSet,
    cfg: GenerationConfig,
    scoring_cfg: Optional[ScoringConfig] = None,
) -> Tuple[Script, List[McqaInstance]]:
    """Script a JSON-strategy run where every attempt parses.

    Returns the script and the instances the run will emit (useful for
    scripting downstream stages).
    """
    expected = [
        attempt_instance(
            "json", fs, cfg, attempt, _fabricated_fields(fs.topic, cfg.seed, attempt)
        )
        for attempt in range(cfg.target_count)
    ]
    plans = [[format_example_object(inst)] for inst in expected]
    return _record_run("json", fs, cfg, plans, expected, scoring_cfg)
