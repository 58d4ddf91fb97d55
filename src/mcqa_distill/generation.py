"""Produce McqaInstances from a few-shot set: JSON strategy, decomposed
strategy, or the paraphrase baseline, with full parse accounting.

The JSON strategy asks the teacher for a complete object per attempt and is
lossy (malformed output is rejected and accounted). The decomposed strategy
builds one instance from three stages (question, positive answer, N sequential
negatives against a growing forbidden list) and needs no parsing. Paraphrase
rewrites the seed examples field by field.

Each strategy is one per-attempt function; ``generate`` is the single driver
that owns the attempt budget and rejection accounting, and runs attempts
concurrently while committing them in attempt order. ``attempt_instance``
gives an attempt's instance its id and provenance, for ``generate`` and for
the mock script fabricators alike. Every attempt's prompts come from the
``prompts`` builders, whose texts are fixed; only the few-shot set (and its
topic) varies.
"""

from __future__ import annotations

import ast
import functools
import json
import math
import threading
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .core import (
    EMPTY_FIELD,
    MAX_CHOICES,
    FewShotSet,
    McqaInstance,
    Provenance,
    canonical_choice,
    shuffled,
    stable_seed,
    validate_parts,
)
from .gateway import ABSORBED_ERRORS, CompletionRequest, in_order
from .prompts import (
    build_json_generation_prompt,
    build_negative_prompt,
    build_paraphrase_prompt,
    build_positive_prompt,
    build_question_prompt,
)

# Parser rejection reasons (validation codes from core are also used).
NO_OBJECT = "NO_OBJECT"
UNBALANCED = "UNBALANCED"
BAD_SYNTAX = "BAD_SYNTAX"
MISSING_KEY = "MISSING_KEY"
WRONG_TYPE = "WRONG_TYPE"
STAGE_FAILURE = "STAGE_FAILURE"

GENERATION_MAX_NEW_TOKENS = 512
# Identical re-requests for a colliding negative before the slot is dropped.
NEGATIVE_SLOT_RETRIES = 3


@dataclass(frozen=True)
class GenerationConfig:
    strategy: str = "json"
    temperature: float = 2.0
    negatives_n: int = 5
    target_count: int = 1024
    seed: int = 0
    # 0 means 20x target_count.
    max_attempts: int = 0

    def __post_init__(self):
        if self.strategy not in ATTEMPTS:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0 < self.temperature < math.inf:  # also false for NaN
            raise ValueError(f"temperature must be finite and > 0: {self.temperature}")
        # Decompose's choices are the positive plus one per negative slot.
        if not 1 <= self.negatives_n <= MAX_CHOICES - 1:
            raise ValueError(
                f"negatives_n must be between 1 and {MAX_CHOICES - 1}: {self.negatives_n}"
            )
        if self.target_count < 1:
            raise ValueError("target_count must be >= 1")
        if self.max_attempts < 0:
            raise ValueError(f"max_attempts must be >= 0: {self.max_attempts}")

    @property
    def attempt_budget(self) -> int:
        return self.max_attempts or 20 * self.target_count


@dataclass
class GenerationReport:
    """Per-run accounting: attempted = parsed + sum of rejections."""

    attempted: int = 0
    parsed: int = 0
    rejected_by_reason: dict = field(default_factory=dict)

    @property
    def success_rate(self) -> float:
        return self.parsed / self.attempted if self.attempted else 0.0

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "parsed": self.parsed,
            "rejected_by_reason": dict(sorted(self.rejected_by_reason.items())),
            "success_rate": self.success_rate,
        }


def attempt_seed(run_seed: int, stage: str, attempt: int) -> int:
    """Per-attempt shuffle seed, independent of the attempts run before it."""
    return stable_seed(run_seed, stage, attempt)


def extract_object_block(raw: str) -> Tuple[Optional[str], Optional[str]]:
    """Return the first balanced-brace block, skipping braces inside strings."""
    start = raw.find("{")
    if start < 0:
        return None, NO_OBJECT
    depth = 0
    quote = None
    escaped = False
    for i in range(start, len(raw)):
        ch = raw[i]
        if quote is not None:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return raw[start : i + 1], None
    return None, UNBALANCED


# CPython's AST builder is not safe to run on several threads at once
# (3.11.7 raised "SystemError: AST constructor recursion depth mismatch"
# under ``in_order`` workers), so the single-quoted fallback runs one at a
# time; the strict ``json.loads`` path needs no lock.
_LITERAL_EVAL_LOCK = threading.Lock()


def _parse_json_fields(raw: str):
    """``(question, choices, answer_index)`` from one teacher reply, stripped
    but not yet validated (``generate`` runs ``validate_parts`` on them), or
    the rejection reason.

    Accepts strict JSON and the single-quoted object style the few-shot
    prompts demonstrate, and ignores any prose around the object.
    """
    block, reason = extract_object_block(raw)
    if block is None:
        return reason
    obj = None
    try:
        obj = json.loads(block)
    except (ValueError, RecursionError):
        try:
            with _LITERAL_EVAL_LOCK:
                obj = ast.literal_eval(block)
        except (ValueError, SyntaxError, MemoryError, RecursionError):
            return BAD_SYNTAX
    if not isinstance(obj, dict):
        return BAD_SYNTAX
    for key in ("question", "choices", "answer"):
        if key not in obj:
            return MISSING_KEY
    question, choices, answer = obj["question"], obj["choices"], obj["answer"]
    if not isinstance(question, str):
        return WRONG_TYPE
    if not isinstance(choices, (list, tuple)) or not all(
        isinstance(c, str) for c in choices
    ):
        return WRONG_TYPE
    if isinstance(answer, bool) or not isinstance(answer, int):
        return WRONG_TYPE
    return question.strip(), [c.strip() for c in choices], answer


def _ask(gw, cfg: GenerationConfig, messages) -> str:
    """One teacher request at the generation temperature; the stripped reply."""
    return gw.complete(
        CompletionRequest(messages, cfg.temperature, GENERATION_MAX_NEW_TOKENS)
    ).text.strip()


def _json_attempt(fs, cfg, gw, attempt):
    """One complete object per attempt, on a fresh exemplar shuffle; the
    driver validates it."""
    messages = build_json_generation_prompt(fs, attempt_seed(cfg.seed, "json", attempt))
    return _parse_json_fields(_ask(gw, cfg, messages))


def _decomposed_choices(
    fs: FewShotSet, cfg: GenerationConfig, gw, question: str, positive: str
) -> List[str]:
    """Sequential negatives against a growing forbidden list.

    A candidate that collides with an existing choice (after trim/case-fold)
    is re-requested up to NEGATIVE_SLOT_RETRIES times, then its slot is
    dropped. A dropped slot's last colliding form is appended to the
    forbidden list (when its exact form is new) so later slots explicitly
    steer the teacher away from it; with the scripted mock this also keeps
    later prompts distinct from the stuck one.
    """
    choices = [positive]
    forbidden = [positive]
    for _slot in range(cfg.negatives_n):
        for _try in range(1 + NEGATIVE_SLOT_RETRIES):
            candidate = _ask(gw, cfg, build_negative_prompt(fs, question, forbidden))
            if candidate and canonical_choice(candidate) not in {
                canonical_choice(c) for c in choices
            }:
                choices.append(candidate)
                forbidden.append(candidate)
                break
        else:
            if candidate and candidate not in forbidden:
                forbidden.append(candidate)
    return choices


def _decompose_attempt(fs, cfg, gw, attempt):
    """Question, positive answer, then N sequential negatives, dealt into a
    seeded order so the gold sits at no fixed letter; the answer index is
    the positive's position in that order."""
    question_seed = attempt_seed(cfg.seed, "question", attempt)
    question = _ask(gw, cfg, build_question_prompt(fs, question_seed))
    if not question:
        return EMPTY_FIELD
    positive = _ask(gw, cfg, build_positive_prompt(fs, question))
    if not positive:
        return EMPTY_FIELD
    choices = _decomposed_choices(fs, cfg, gw, question, positive)
    choices = shuffled(choices, attempt_seed(cfg.seed, "shuffle", attempt))
    return question, choices, choices.index(positive)


def _paraphrase_attempt(fs, cfg, gw, attempt):
    """Paraphrase each field of seed example ``attempt mod K`` independently,
    keeping its answer index. Textual duplicates across the corpus are allowed
    here (corpus statistics surface them)."""
    source = fs.examples[attempt % len(fs.examples)]
    question = _ask(gw, cfg, build_paraphrase_prompt(source.question))
    choices = [_ask(gw, cfg, build_paraphrase_prompt(choice)) for choice in source.choices]
    return question, choices, source.answer_index


# strategy -> attempt(fs, cfg, gw, attempt), which returns
# (question, choices, answer_index) or a rejection reason and lets gateway
# errors propagate to the driver.
ATTEMPTS = {
    "json": _json_attempt,
    "decompose": _decompose_attempt,
    "paraphrase": _paraphrase_attempt,
}


def attempt_instance(
    strategy: str, fs: FewShotSet, cfg: GenerationConfig, attempt: int, fields
) -> McqaInstance:
    """The instance that attempt ``attempt`` of a ``strategy`` run emits for
    its ``fields`` (question, choices, answer_index), with the run's id and
    provenance for that attempt."""
    question, choices, answer_index = fields
    return McqaInstance(
        id=f"{strategy}-{cfg.seed}-{attempt:05d}",
        topic=fs.topic,
        question=question,
        choices=tuple(choices),
        answer_index=answer_index,
        provenance=Provenance(strategy, cfg.temperature, attempt),
    )


def generate(
    fs: FewShotSet,
    cfg: GenerationConfig,
    gw,
    width: int = 1,
) -> Tuple[List[McqaInstance], GenerationReport]:
    """Run cfg.strategy's attempt until target_count instances or the budget.

    Attempts run on ``width`` threads through ``gateway.in_order``, under its
    failure policy; an attempt whose request outlasted its retries counts as
    STAGE_FAILURE. A run the policy stops returns nothing; a run that
    exhausts its budget returns the partial set, and the report accounts
    every attempt.

    Each thread starts the next attempt as soon as it frees, a few attempts
    ahead of the one due next but never more than the instances still
    missing, and results commit in attempt order. Instances, report, teacher
    requests and the attempt that stops a run are those of a serial run.
    """
    attempt_fn = functools.partial(ATTEMPTS[cfg.strategy], fs, cfg, gw)
    out: List[McqaInstance] = []
    rejected: Counter = Counter()
    attempted = 0
    results = in_order(
        attempt_fn, cfg.attempt_budget, width, lambda: cfg.target_count - len(out)
    )
    with closing(results):  # a stop raised here ends the pool here, too
        for attempt, result in enumerate(results):
            attempted += 1
            if isinstance(result, ABSORBED_ERRORS):
                rejected[STAGE_FAILURE] += 1
                continue
            if isinstance(result, str):
                rejected[result] += 1
                continue
            codes = validate_parts(*result)
            if codes:
                rejected[codes[0]] += 1
                continue
            out.append(attempt_instance(cfg.strategy, fs, cfg, attempt, result))
    return out, GenerationReport(attempted, len(out), dict(rejected))
