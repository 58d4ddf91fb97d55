"""Fabricate response scripts for the digest-keyed mock backend.

A script covers one planned pipeline run end to end: every prompt the run
will issue maps to a deterministic fabricated reply, including first-token
log-probabilities for the scoring stage. A fabricator only plans the reply
texts of each attempt; the script is recorded by running the generation
module's own attempt functions against a backend that answers from that plan,
and scoring replies are keyed by the scoring module's own prompt fitting, so
the resulting runs never miss.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .core import FewShotSet, McqaInstance, Provenance, stable_seed
from .datasets import simple_token_count
from .gateway import CompletionResult, request_digest
from .generation import ATTEMPTS, GenerationConfig
from .prompts import DEFAULT_TEMPLATES, PromptTemplateSet, format_example_object
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


def _record_run(strategy, fs, cfg, templates, plans, expected, scoring_cfg, tok):
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
            ATTEMPTS[strategy](fs, cfg, recorder, templates, attempt)
        except _AttemptRecorded:
            continue
        raise ValueError(f"{strategy} attempt {attempt} left planned replies unused")
    if scoring_cfg is not None:
        add_scoring_responses(recorder.script, expected, fs, scoring_cfg, tok)
    return recorder.script, expected


def _planned_instance(strategy, fs, cfg, attempt, question, choices, answer_index):
    """The instance a run emits for ``attempt`` when its replies are as planned."""
    return McqaInstance(
        id=f"{strategy}-{cfg.seed}-{attempt:05d}",
        topic=fs.topic,
        question=question,
        choices=tuple(choices),
        answer_index=answer_index,
        provenance=Provenance(strategy, cfg.temperature, attempt),
    )


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
    tok: Callable[[str], int] = simple_token_count,
) -> Script:
    """Script a scoring response for each instance's fitted prompt."""
    for inst in instances:
        messages = fit_scoring_prompt(inst, fs, scoring_cfg, tok)
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
    templates: PromptTemplateSet = DEFAULT_TEMPLATES,
    tok: Callable[[str], int] = simple_token_count,
) -> Tuple[Script, List[McqaInstance]]:
    """Script a JSON-strategy run where every attempt parses.

    Returns the script and the instances the run will emit (useful for
    scripting downstream stages).
    """
    expected = [
        _planned_instance(
            "json", fs, cfg, attempt, *_fabricated_fields(fs.topic, cfg.seed, attempt)
        )
        for attempt in range(cfg.target_count)
    ]
    plans = [[format_example_object(inst)] for inst in expected]
    return _record_run("json", fs, cfg, templates, plans, expected, scoring_cfg, tok)


def fabricate_decomposed_run(
    fs: FewShotSet,
    cfg: GenerationConfig,
    scoring_cfg: Optional[ScoringConfig] = None,
    templates: PromptTemplateSet = DEFAULT_TEMPLATES,
    tok: Callable[[str], int] = simple_token_count,
) -> Tuple[Script, List[McqaInstance]]:
    """Script a decomposed run with distinct negatives for every slot.

    ``expected`` holds the choices in generation order (answer first), as a
    run without shuffle_choices emits them.
    """
    expected = []
    for attempt in range(cfg.target_count):
        question = f"Synthetic staged {fs.topic} question {attempt}?"
        choices = [f"right answer {attempt}"] + [
            f"wrong answer {attempt}-{slot}" for slot in range(cfg.negatives_n)
        ]
        expected.append(
            _planned_instance("decompose", fs, cfg, attempt, question, choices, 0)
        )
    plans = [[inst.question, *inst.choices] for inst in expected]
    return _record_run("decompose", fs, cfg, templates, plans, expected, scoring_cfg, tok)


def fabricate_paraphrase_run(
    fs: FewShotSet,
    cfg: GenerationConfig,
    templates: PromptTemplateSet = DEFAULT_TEMPLATES,
    rewrite: Callable[[str], str] = lambda text: f"{text} (reworded)",
) -> Tuple[Script, List[McqaInstance]]:
    """Script a paraphrase run; ``rewrite`` fabricates each rewritten field."""
    expected = []
    for attempt in range(cfg.target_count):
        source = fs.examples[attempt % len(fs.examples)]
        question = rewrite(source.question)
        choices = [rewrite(c) for c in source.choices]
        expected.append(
            _planned_instance(
                "paraphrase", fs, cfg, attempt, question, choices, source.answer_index
            )
        )
    plans = [[inst.question, *inst.choices] for inst in expected]
    return _record_run("paraphrase", fs, cfg, templates, plans, expected, None, None)
