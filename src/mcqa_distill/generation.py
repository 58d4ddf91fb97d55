"""Produce McqaInstances from a few-shot set: JSON strategy, decomposed
strategy, or the paraphrase baseline, with full parse accounting.

The JSON strategy asks the teacher for a complete object per attempt and is
lossy (malformed output is rejected and accounted). The decomposed strategy
builds one instance from three stages (question, positive answer, N sequential
negatives against a growing forbidden list) and needs no parsing. Paraphrase
rewrites the seed examples field by field.

Each strategy is one per-attempt function; ``generate`` is the single driver
that owns the attempt budget, rejection accounting, ids and provenance, and
runs attempts concurrently while committing them in attempt order.
"""

from __future__ import annotations

import ast
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .core import (
    EMPTY_FIELD,
    FewShotSet,
    McqaInstance,
    Provenance,
    canonical_choice,
    stable_seed,
    validate_parts,
)
from .gateway import CompletionRequest, GatewayError, ScriptMiss, in_order
from .prompts import (
    DEFAULT_TEMPLATES,
    PromptTemplateSet,
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
    max_attempts: Optional[int] = None
    shuffle_choices: bool = False

    def __post_init__(self):
        if self.strategy not in ATTEMPTS:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.temperature <= 0:
            raise ValueError("generation temperature must be > 0")
        if self.negatives_n < 1:
            raise ValueError("negatives_n must be >= 1")
        if self.target_count < 1:
            raise ValueError("target_count must be >= 1")

    @property
    def attempt_budget(self) -> int:
        return self.max_attempts if self.max_attempts is not None else 20 * self.target_count


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


def _parse_json_fields(raw: str):
    """``(question, choices, answer_index)`` from one teacher reply, stripped
    but not validated, or the rejection reason."""
    block, reason = extract_object_block(raw)
    if block is None:
        return reason
    obj = None
    try:
        obj = json.loads(block)
    except (json.JSONDecodeError, ValueError):
        try:
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


def parse_json_candidate(raw: str) -> Tuple[Optional[dict], Optional[str]]:
    """Parse one teacher reply into instance fields, or name the rejection.

    Accepts strict JSON and the single-quoted object style the few-shot
    prompts demonstrate, and strips any prose around the object. Returns
    ``({question, choices, answer_index}, None)`` on success, else
    ``(None, reason)``; validation codes count as reasons.
    """
    parsed = _parse_json_fields(raw)
    if isinstance(parsed, str):
        return None, parsed
    codes = validate_parts(*parsed)
    if codes:
        return None, codes[0]
    question, choices, answer = parsed
    return {"question": question, "choices": choices, "answer_index": answer}, None


def _ask(gw, cfg: GenerationConfig, messages) -> str:
    """One teacher request at the generation temperature; the stripped reply."""
    return gw.complete(
        CompletionRequest(messages, cfg.temperature, GENERATION_MAX_NEW_TOKENS)
    ).text.strip()


def _json_attempt(fs, cfg, gw, templates, attempt):
    """One complete object per attempt, on a fresh exemplar shuffle; the
    driver validates it."""
    messages = build_json_generation_prompt(
        fs, attempt_seed(cfg.seed, "json", attempt), templates
    )
    return _parse_json_fields(_ask(gw, cfg, messages))


def _decomposed_choices(
    fs: FewShotSet,
    cfg: GenerationConfig,
    gw,
    templates: PromptTemplateSet,
    question: str,
    positive: str,
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
            candidate = _ask(
                gw, cfg, build_negative_prompt(fs, question, forbidden, templates)
            )
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


def _decompose_attempt(fs, cfg, gw, templates, attempt):
    """Question, positive answer, then N sequential negatives; the answer
    index is 0 unless shuffle_choices remaps it."""
    question_seed = attempt_seed(cfg.seed, "question", attempt)
    question = _ask(gw, cfg, build_question_prompt(fs, question_seed, templates))
    if not question:
        return EMPTY_FIELD
    positive = _ask(gw, cfg, build_positive_prompt(fs, question, templates))
    if not positive:
        return EMPTY_FIELD
    choices = _decomposed_choices(fs, cfg, gw, templates, question, positive)
    answer_index = 0
    if cfg.shuffle_choices:
        order = list(range(len(choices)))
        random.Random(attempt_seed(cfg.seed, "shuffle", attempt)).shuffle(order)
        choices = [choices[i] for i in order]
        answer_index = order.index(0)
    return question, choices, answer_index


def _paraphrase_attempt(fs, cfg, gw, templates, attempt):
    """Paraphrase each field of seed example ``attempt mod K`` independently,
    keeping its answer index. Textual duplicates across the corpus are allowed
    here (corpus statistics surface them)."""
    source = fs.examples[attempt % len(fs.examples)]
    question = _ask(gw, cfg, build_paraphrase_prompt(source.question, templates))
    choices = [
        _ask(gw, cfg, build_paraphrase_prompt(choice, templates))
        for choice in source.choices
    ]
    return question, choices, source.answer_index


# strategy -> attempt(fs, cfg, gw, templates, attempt), which returns
# (question, choices, answer_index) or a rejection reason and lets gateway
# errors propagate to the driver.
ATTEMPTS = {
    "json": _json_attempt,
    "decompose": _decompose_attempt,
    "paraphrase": _paraphrase_attempt,
}


def generate(
    fs: FewShotSet,
    cfg: GenerationConfig,
    gw,
    templates: PromptTemplateSet = DEFAULT_TEMPLATES,
    width: int = 1,
) -> Tuple[List[McqaInstance], GenerationReport]:
    """Run cfg.strategy's attempt until target_count instances or the budget.

    A gateway failure discards only its attempt and is counted as
    STAGE_FAILURE; a ScriptMiss is a scripting defect and propagates. A run
    that exhausts its budget returns the partial set; the report accounts
    every attempt either way. Up to ``width`` attempts run at once, never
    more than the instances still missing, and results commit in attempt
    order: instances, report and teacher requests are those of a serial run.
    """
    attempt_fn = ATTEMPTS[cfg.strategy]

    def run(attempt):
        try:
            return attempt_fn(fs, cfg, gw, templates, attempt)
        except ScriptMiss:
            raise
        except GatewayError:
            return STAGE_FAILURE

    out: List[McqaInstance] = []
    rejected: Counter = Counter()
    attempted = 0
    results = in_order(
        run, cfg.attempt_budget, width, lambda: cfg.target_count - len(out)
    )
    for attempt, result in enumerate(results):
        attempted += 1
        if isinstance(result, str):
            rejected[result] += 1
            continue
        question, choices, answer_index = result
        codes = validate_parts(question, choices, answer_index)
        if codes:
            rejected[codes[0]] += 1
            continue
        out.append(
            McqaInstance(
                id=f"{cfg.strategy}-{cfg.seed}-{attempt:05d}",
                topic=fs.topic,
                question=question,
                choices=tuple(choices),
                answer_index=answer_index,
                provenance=Provenance(cfg.strategy, cfg.temperature, attempt),
            )
        )
    return out, GenerationReport(attempted, len(out), dict(rejected))
