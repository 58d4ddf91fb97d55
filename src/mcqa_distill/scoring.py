"""Attach raw teacher scores to instances.

The teacher scores an instance by answering a letter-identifier prompt; the
first generated token's log-probability for each letter is the raw score for
that choice. The raw scores are stored as they are: training softens them
into probability vectors (``distillation.soften``), so this module and
``mcqa score`` load no numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import closing
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from .config import ScoringConfig
from .core import (
    ChatMessage,
    FewShotSet,
    McqaInstance,
    index_to_identifier,
)
from .datasets import simple_token_count
from .gateway import (
    ABSORBED_ERRORS,
    NO_REQUEST,
    CompletionRequest,
    NoLogprobSupport,
    in_order,
)
# build_scoring_prompt is the full prompt fit_scoring_prompt trims; it is kept
# under this module too, where perfbench/tracer.py wraps it.
from .prompts import build_scoring_prompt, exemplars, scoring_user_block  # noqa: F401

# Raw-score margin for the one-hot fallback: softening at any temperature <= 1
# is one-hot within 1e-6 (exp(-20) ~ 2e-9 per wrong choice).
ONE_HOT_MARGIN = 20.0
# Ask for this many top logprobs: letter tokens are not always the most
# probable ones, and 20 is the most the OpenAI Chat Completions API (and
# vLLM's default max_logprobs) accepts, whatever the number of choices.
TOP_LOGPROBS = 20
# Raw log-probability assigned to identifiers absent from the returned top-K:
# the smallest present value minus this margin, keeping absent letters ranked
# strictly below present ones while the downstream softmax stays defined.
MISSING_LOGPROB_MARGIN = 10.0

SCORED = "scored"
FALLBACK = "fallback"
SKIPPED = "skipped"


def one_hot_scores(answer_index: int, num_choices: int) -> Tuple[float, ...]:
    """Raw-score encoding of a hard label with ONE_HOT_MARGIN."""
    scores = [0.0] * num_choices
    scores[answer_index] = ONE_HOT_MARGIN
    return tuple(scores)


def fit_scoring_prompt(
    inst: McqaInstance, fs: FewShotSet, cfg: ScoringConfig
) -> Optional[List[ChatMessage]]:
    """Largest scoring prompt within the token limit.

    ``build_scoring_prompt`` with the few-shot exemplars dropped one at a
    time (last first) until the prompt fits; with zero exemplars the prompt
    is the bare instance block. Returns None when even that is over the
    limit.

    The exemplar turns and the token count of each prefix of them are built
    once per few-shot set (``prompts.exemplars``) and shared read-only
    across teacher threads, so a call counts only the instance block and
    builds one message list.
    """
    turns = exemplars(fs)
    block = scoring_user_block(inst)
    room = cfg.prompt_token_limit - simple_token_count(block)
    keep = bisect_right(turns.scoring_tokens, room) - 1
    if keep < 0:
        return None
    return [*turns.scoring_turns[: 2 * keep], ChatMessage("user", block)]


def score_identifiers(
    backend, messages: Sequence[ChatMessage], identifiers: Sequence[str]
) -> Dict[str, float]:
    """First-token log-probability for each identifier letter.

    Identifiers absent from the returned top-K get the smallest present value
    minus ``MISSING_LOGPROB_MARGIN``; if none are present at all, every
    identifier gets an equal 0.0 (uniform after the downstream softmax). A
    non-finite log-probability (``-inf``, NaN) counts as absent, so the
    scores are always finite, as a corpus line must hold them. A reply with
    no log-probabilities at all, over HTTP or from the mock, raises
    ``NoLogprobSupport``.
    """
    request = CompletionRequest(
        messages,
        temperature=0.0,
        max_new_tokens=1,
        want_top_logprobs=TOP_LOGPROBS,
    )
    result = backend.complete(request)
    if not result.first_token_logprobs:
        raise NoLogprobSupport("backend returned no log-probability data")
    # Tokens may carry whitespace (' A'); collapse to the stripped form,
    # keeping the most probable variant.
    by_token: Dict[str, float] = {}
    for token, logprob in result.first_token_logprobs.items():
        key = token.strip()
        if math.isfinite(logprob) and (key not in by_token or logprob > by_token[key]):
            by_token[key] = logprob
    present = {i: by_token[i] for i in identifiers if i in by_token}
    if not present:
        return {i: 0.0 for i in identifiers}
    floor = min(present.values()) - MISSING_LOGPROB_MARGIN
    return {i: present.get(i, floor) for i in identifiers}


def _unscored(inst: McqaInstance, cfg: ScoringConfig) -> Tuple[McqaInstance, str]:
    """An instance the teacher could not score, under ``cfg.fallback``."""
    if cfg.fallback == "one_hot":
        scores = one_hot_scores(inst.answer_index, inst.num_choices)
        return replace(inst, teacher_scores=scores), FALLBACK
    return replace(inst, teacher_scores=None), SKIPPED


def _score_one(inst: McqaInstance, fs: FewShotSet, cfg: ScoringConfig, gw):
    """The scored instance and its status, or ``NO_REQUEST`` when its prompt
    is over the token limit."""
    messages = fit_scoring_prompt(inst, fs, cfg)
    if messages is None:
        return NO_REQUEST
    identifiers = [index_to_identifier(i) for i in range(inst.num_choices)]
    by_identifier = score_identifiers(gw, messages, identifiers)
    scores = tuple(by_identifier[i] for i in identifiers)
    return replace(inst, teacher_scores=scores), SCORED


def score_instances(
    instances: Sequence[McqaInstance],
    fs: FewShotSet,
    cfg: ScoringConfig,
    gw,
    width: int = 1,
) -> Tuple[List[McqaInstance], Dict[str, int]]:
    """Score a whole corpus; returns instances plus scored/fallback/skipped counts.

    Only ``teacher_scores`` is attached; question, choices and answer_index
    are never altered.

    Instances are scored on ``width`` threads through ``gateway.in_order``,
    in instance order as in a serial run, and under its failure policy: an
    instance whose prompt is over the token limit, or whose request
    outlasted its retries, takes ``cfg.fallback``, and a run the policy
    stops returns nothing under either fallback.
    """
    counts = {SCORED: 0, FALLBACK: 0, SKIPPED: 0}
    out = []
    results = in_order(lambda i: _score_one(instances[i], fs, cfg, gw), len(instances), width)
    with closing(results):  # a stop raised here ends the pool here, too
        for result, inst in zip(results, instances):
            if result is NO_REQUEST or isinstance(result, ABSORBED_ERRORS):
                result = _unscored(inst, cfg)
            scored, status = result
            counts[status] += 1
            out.append(scored)
    return out, counts
