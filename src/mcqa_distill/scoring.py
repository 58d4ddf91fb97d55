"""Attach raw teacher scores to instances and soften them into distillation targets.

The teacher scores an instance by answering a letter-identifier prompt; the
first generated token's log-probability for each letter is the raw score for
that choice. ``soften`` turns raw scores into a probability vector at a given
temperature, with temperature 0 meaning hard labels at the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    ChatMessage,
    FewShotSet,
    McqaInstance,
    SoftLabel,
    index_to_identifier,
)
from .gateway import (
    CompletionRequest,
    GatewayError,
    ScriptMiss,
    in_order,
    score_identifiers,
)
from .prompts import build_scoring_prompt, scoring_user_block

# Raw-score margin for the one-hot fallback: softening at any temperature <= 1
# is one-hot within 1e-6 (exp(-20) ~ 2e-9 per wrong choice).
ONE_HOT_MARGIN = 20.0
# Ask for at least this many top logprobs; letter tokens are not always the
# most probable ones.
MIN_TOP_LOGPROBS = 20

SCORED = "scored"
FALLBACK = "fallback"
SKIPPED = "skipped"


class TieAtZeroTemperature(ValueError):
    """Temperature 0 needs a unique argmax to pick a hard label."""


@dataclass(frozen=True)
class ScoringConfig:
    prompt_token_limit: int = 1024
    fallback: str = "one_hot"

    def __post_init__(self):
        if self.prompt_token_limit <= 0:
            raise ValueError("prompt_token_limit must be positive")
        if self.fallback not in ("one_hot", "skip"):
            raise ValueError(f"unknown fallback {self.fallback!r}")


def soften(scores: Sequence[float], r: float) -> SoftLabel:
    """Softmax of scores at temperature r; r = 0 returns a hard one-hot label.

    Computed with max-subtraction so that large raw scores (generation runs
    at temperature 2, missing-identifier floors sit ~10 below the rest) never
    overflow.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("scores must be a non-empty vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores must be finite")
    if r < 0:
        raise ValueError("temperature must be >= 0")
    if r == 0:
        top = arr.max()
        if int((arr == top).sum()) != 1:
            raise TieAtZeroTemperature(f"argmax tie at temperature 0: {list(arr)}")
        probs = np.zeros_like(arr)
        probs[int(arr.argmax())] = 1.0
        return SoftLabel(tuple(probs))
    shifted = (arr - arr.max()) / r
    weights = np.exp(shifted)
    probs = weights / weights.sum()
    return SoftLabel(tuple(probs))


def one_hot_scores(answer_index: int, num_choices: int) -> Tuple[float, ...]:
    """Raw-score encoding of a hard label with ONE_HOT_MARGIN."""
    scores = [0.0] * num_choices
    scores[answer_index] = ONE_HOT_MARGIN
    return tuple(scores)


def prompt_token_count(messages: Sequence[ChatMessage], tok: Callable[[str], int]) -> int:
    return sum(tok(m.content) for m in messages)


def fit_scoring_prompt(
    inst: McqaInstance,
    fs: FewShotSet,
    cfg: ScoringConfig,
    tok: Callable[[str], int],
) -> Optional[List[ChatMessage]]:
    """Largest scoring prompt within the token limit.

    Drops few-shot exemplars one at a time (last first) until the prompt
    fits; with zero exemplars the prompt is the bare instance block. Returns
    None when even that is over the limit.
    """
    for keep in range(len(fs.examples), -1, -1):
        if keep:
            messages = build_scoring_prompt(
                FewShotSet(fs.topic, fs.examples[:keep]), inst
            )
        else:
            messages = [ChatMessage("user", scoring_user_block(inst))]
        if prompt_token_count(messages, tok) <= cfg.prompt_token_limit:
            return messages
    return None


def _score_one(
    inst: McqaInstance,
    fs: FewShotSet,
    cfg: ScoringConfig,
    gw,
    tok: Callable[[str], int],
) -> Tuple[McqaInstance, str]:
    messages = fit_scoring_prompt(inst, fs, cfg, tok)
    if messages is None:
        if cfg.fallback == "one_hot":
            scores = one_hot_scores(inst.answer_index, inst.num_choices)
            return replace(inst, teacher_scores=scores), FALLBACK
        return replace(inst, teacher_scores=None), SKIPPED
    identifiers = [index_to_identifier(i) for i in range(inst.num_choices)]
    request = CompletionRequest(
        messages,
        temperature=0.0,
        max_new_tokens=1,
        want_top_logprobs=max(len(identifiers), MIN_TOP_LOGPROBS),
    )
    try:
        by_identifier = score_identifiers(gw, request, identifiers)
    except ScriptMiss:
        raise
    except GatewayError:
        if cfg.fallback == "skip":
            return replace(inst, teacher_scores=None), SKIPPED
        raise
    scores = tuple(by_identifier[i] for i in identifiers)
    return replace(inst, teacher_scores=scores), SCORED


def score_instance(
    inst: McqaInstance,
    fs: FewShotSet,
    cfg: ScoringConfig,
    gw,
    tok: Callable[[str], int],
) -> McqaInstance:
    """Return the instance with teacher_scores attached (question, choices and
    answer_index are never altered)."""
    return _score_one(inst, fs, cfg, gw, tok)[0]


def score_instances(
    instances: Sequence[McqaInstance],
    fs: FewShotSet,
    cfg: ScoringConfig,
    gw,
    tok: Callable[[str], int],
    width: int = 1,
) -> Tuple[List[McqaInstance], Dict[str, int]]:
    """Score a whole corpus; returns instances plus scored/fallback/skipped counts.

    Up to ``width`` instances are scored at once; results and errors come in
    instance order, as in a serial run.
    """
    counts = {SCORED: 0, FALLBACK: 0, SKIPPED: 0}
    out = []
    results = in_order(
        lambda i: _score_one(instances[i], fs, cfg, gw, tok), len(instances), width
    )
    for scored, status in results:
        counts[status] += 1
        out.append(scored)
    return out, counts
