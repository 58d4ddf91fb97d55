"""Attach raw teacher scores to instances.

The teacher scores an instance by answering a letter-identifier prompt; the
first generated token's log-probability for each letter is the raw score for
that choice. The raw scores are stored as they are: training softens them
into probability vectors (``distillation.soften``), so this module and
``mcqa score`` load no numpy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .config import ScoringConfig
from .core import (
    ChatMessage,
    FewShotSet,
    McqaInstance,
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


def score_instances(
    instances: Sequence[McqaInstance],
    fs: FewShotSet,
    cfg: ScoringConfig,
    gw,
    tok: Callable[[str], int],
    width: int = 1,
) -> Tuple[List[McqaInstance], Dict[str, int]]:
    """Score a whole corpus; returns instances plus scored/fallback/skipped counts.

    Only ``teacher_scores`` is attached; question, choices and answer_index
    are never altered.

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
