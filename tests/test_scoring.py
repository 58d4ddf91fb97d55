"""Teacher score attachment and temperature softening."""

import math
import random
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcqa_distill.datasets import simple_token_count
from mcqa_distill.gateway import (
    CompletionResult,
    MockBackend,
    NoLogprobSupport,
    TransportError,
    request_digest,
)
from mcqa_distill.scoring import (
    FALLBACK,
    ONE_HOT_MARGIN,
    SCORED,
    SKIPPED,
    ScoringConfig,
    TieAtZeroTemperature,
    fit_scoring_prompt,
    one_hot_scores,
    score_instance,
    score_instances,
    soften,
)

from conftest import make_instance

finite_scores = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=8
)

# Raw first-token log-probabilities whose softmax is the published
# (0.351, 0.214, 0.213, 0.222) example distribution.
REFERENCE_LOGPROBS = {"A": -1.047, "B": -1.542, "C": -1.546, "D": -1.505}


class TestSoften:
    def test_uniform_scores_give_uniform_probs(self):
        assert soften([1, 1, 1, 1], 1.0).probs == (0.25, 0.25, 0.25, 0.25)

    def test_zero_temperature_is_hard_label(self):
        assert soften([2, 0, 0, 0], 0.0).probs == (1.0, 0.0, 0.0, 0.0)

    def test_log_two_gives_two_thirds(self):
        probs = soften([math.log(2), 0.0], 1.0).probs
        assert probs[0] == pytest.approx(2 / 3, abs=1e-12)
        assert probs[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_high_temperature_flattens_toward_uniform(self):
        probs = soften([5, 1, 1, 1], 100.0).probs
        # Direct (non-shifted) evaluation as the independent oracle; at r=100
        # the top entry lands at 0.2576, i.e. within 1e-2 of uniform.
        weights = [math.exp(s / 100.0) for s in [5, 1, 1, 1]]
        direct = [w / sum(weights) for w in weights]
        assert probs == pytest.approx(direct, abs=1e-12)
        assert all(abs(p - 0.25) < 1e-2 for p in probs)
        assert max(probs) < max(soften([5, 1, 1, 1], 1.0).probs)

    def test_tie_at_zero_temperature(self):
        with pytest.raises(TieAtZeroTemperature):
            soften([1.0, 1.0, 0.0], 0.0)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            soften([1.0, 2.0], -1.0)

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError):
            soften([1.0, float("nan")], 1.0)

    def test_huge_scores_stay_stable(self):
        probs = soften([1000.0, 999.0], 1.0).probs
        assert probs[0] == pytest.approx(math.exp(1) / (math.exp(1) + 1))

    @settings(max_examples=200)
    @given(finite_scores, st.floats(min_value=0.01, max_value=50))
    def test_normalization(self, scores, r):
        assert abs(sum(soften(scores, r).probs) - 1.0) <= 1e-9

    @settings(max_examples=200)
    @given(finite_scores, st.floats(min_value=0.01, max_value=50),
           st.floats(min_value=-30, max_value=30))
    def test_shift_invariance(self, scores, r, k):
        base = soften(scores, r).probs
        shifted = soften([s + k for s in scores], r).probs
        assert all(abs(a - b) <= 1e-12 for a, b in zip(base, shifted))

    @settings(max_examples=200)
    @given(finite_scores, st.floats(min_value=0.01, max_value=50))
    def test_argmax_preserved_for_positive_temperature(self, scores, r):
        arr = np.asarray(scores)
        gap = arr.max() - np.sort(arr)[-2]
        if gap < 1e-6:  # effective ties dissolve in float rounding
            return
        assert soften(scores, r).argmax() == int(arr.argmax())

    @settings(max_examples=200)
    @given(finite_scores, st.floats(min_value=0.01, max_value=10),
           st.floats(min_value=0.01, max_value=10))
    def test_monotone_sharpening(self, scores, r1, r2):
        low, high = sorted([r1, r2])
        assert max(soften(scores, low).probs) >= max(soften(scores, high).probs) - 1e-12

    def test_hard_label_limit(self):
        scores = [1.0, 0.4, -0.2, 0.85]
        hard = soften(scores, 0.0).probs
        nearly = soften(scores, 1e-3).probs
        assert max(abs(a - b) for a, b in zip(hard, nearly)) < 1e-6


class TestFitScoringPrompt:
    def test_full_prompt_when_it_fits(self, science_fewshot):
        cfg = ScoringConfig(prompt_token_limit=10_000)
        messages = fit_scoring_prompt(make_instance(), science_fewshot, cfg, simple_token_count)
        assert len(messages) == 11

    def test_exemplars_dropped_last_first(self, science_fewshot):
        full = fit_scoring_prompt(
            make_instance(), science_fewshot, ScoringConfig(prompt_token_limit=10_000),
            simple_token_count,
        )
        full_tokens = sum(simple_token_count(m.content) for m in full)
        cfg = ScoringConfig(prompt_token_limit=full_tokens - 1)
        trimmed = fit_scoring_prompt(make_instance(), science_fewshot, cfg, simple_token_count)
        assert len(trimmed) < len(full)
        # Kept exemplars are a prefix of the original order.
        kept = [m.content for m in trimmed if m.role == "user"][:-1]
        original = [m.content for m in full if m.role == "user"][:-1]
        assert kept == original[: len(kept)]

    def test_zero_exemplar_prompt(self, science_fewshot):
        inst = make_instance()
        bare_tokens = simple_token_count(inst.question) + sum(
            simple_token_count(f"A. {c}") for c in inst.choices
        )
        cfg = ScoringConfig(prompt_token_limit=bare_tokens + 8)
        messages = fit_scoring_prompt(inst, science_fewshot, cfg, simple_token_count)
        assert len(messages) == 1
        assert messages[0].role == "user"

    def test_hopeless_limit_gives_none(self, science_fewshot):
        cfg = ScoringConfig(prompt_token_limit=1)
        assert fit_scoring_prompt(make_instance(), science_fewshot, cfg, simple_token_count) is None


def scripted_for(inst, fs, cfg, result):
    messages = fit_scoring_prompt(inst, fs, cfg, simple_token_count)
    return MockBackend({request_digest(messages): result})


class TestScoreInstance:
    def test_reference_distribution(self, science_fewshot):
        inst = make_instance()
        cfg = ScoringConfig()
        backend = scripted_for(
            inst, science_fewshot, cfg, CompletionResult("A", REFERENCE_LOGPROBS)
        )
        scored = score_instance(inst, science_fewshot, cfg, backend, simple_token_count)
        assert scored.teacher_scores == (-1.047, -1.542, -1.546, -1.505)
        probs = soften(scored.teacher_scores, 1.0).probs
        assert probs == pytest.approx([0.351, 0.214, 0.213, 0.222], abs=5e-4)

    def test_only_scores_change(self, science_fewshot):
        inst = make_instance()
        cfg = ScoringConfig()
        backend = scripted_for(
            inst, science_fewshot, cfg, CompletionResult("A", REFERENCE_LOGPROBS)
        )
        scored = score_instance(inst, science_fewshot, cfg, backend, simple_token_count)
        assert (scored.id, scored.question, scored.choices, scored.answer_index) == (
            inst.id, inst.question, inst.choices, inst.answer_index,
        )

    def test_six_choice_instance_scores_six(self, science_fewshot):
        inst = make_instance(
            choices=("one", "two", "three", "four", "five", "six"), answer_index=2
        )
        cfg = ScoringConfig()
        logprobs = {ch: -float(i + 1) for i, ch in enumerate("ABCDEF")}
        backend = scripted_for(inst, science_fewshot, cfg, CompletionResult("A", logprobs))
        scored = score_instance(inst, science_fewshot, cfg, backend, simple_token_count)
        assert len(scored.teacher_scores) == 6

    def test_one_hot_fallback_when_over_limit(self, science_fewshot):
        inst = make_instance(answer_index=2)
        cfg = ScoringConfig(prompt_token_limit=1, fallback="one_hot")
        scored = score_instance(inst, science_fewshot, cfg, MockBackend({}), simple_token_count)
        assert scored.teacher_scores == one_hot_scores(2, 4)
        probs = soften(scored.teacher_scores, 1.0).probs
        expected = [0.0, 0.0, 1.0, 0.0]
        assert max(abs(a - b) for a, b in zip(probs, expected)) < 1e-6

    def test_skip_fallback_leaves_scores_absent(self, science_fewshot):
        inst = make_instance(teacher_scores=(1.0, 2.0, 3.0, 4.0))
        cfg = ScoringConfig(prompt_token_limit=1, fallback="skip")
        scored = score_instance(inst, science_fewshot, cfg, MockBackend({}), simple_token_count)
        assert scored.teacher_scores is None

    def test_rescoring_is_idempotent(self, science_fewshot):
        inst = make_instance()
        cfg = ScoringConfig()
        backend = scripted_for(
            inst, science_fewshot, cfg, CompletionResult("A", REFERENCE_LOGPROBS)
        )
        once = score_instance(inst, science_fewshot, cfg, backend, simple_token_count)
        twice = score_instance(once, science_fewshot, cfg, backend, simple_token_count)
        assert once == twice

    def test_no_logprob_backend_raises(self, science_fewshot):
        inst = make_instance()
        cfg = ScoringConfig()
        backend = scripted_for(inst, science_fewshot, cfg, CompletionResult("A", None))
        with pytest.raises(NoLogprobSupport):
            score_instance(inst, science_fewshot, cfg, backend, simple_token_count)

    def test_gateway_error_with_skip_keeps_instance_unscored(self, science_fewshot):
        class Exploding:
            def complete(self, req):
                raise TransportError("down")

        inst = make_instance()
        cfg = ScoringConfig(fallback="skip")
        scored = score_instance(inst, science_fewshot, cfg, Exploding(), simple_token_count)
        assert scored.teacher_scores is None

    def test_gateway_error_without_skip_propagates(self, science_fewshot):
        class Exploding:
            def complete(self, req):
                raise TransportError("down")

        cfg = ScoringConfig(fallback="one_hot")
        with pytest.raises(TransportError):
            score_instance(make_instance(), science_fewshot, cfg, Exploding(), simple_token_count)


class TestScoreInstances:
    def test_counts(self, science_fewshot):
        cfg = ScoringConfig()
        good = make_instance("good")
        oversize = make_instance(
            "oversize", question="long words " * 600, choices=("a", "b"), answer_index=0
        )
        backend = scripted_for(
            good, science_fewshot, cfg, CompletionResult("A", REFERENCE_LOGPROBS)
        )
        scored, counts = score_instances(
            [good, oversize], science_fewshot, cfg, backend, simple_token_count
        )
        assert counts == {SCORED: 1, FALLBACK: 1, SKIPPED: 0}
        assert scored[0].teacher_scores == (-1.047, -1.542, -1.546, -1.505)
        assert scored[1].teacher_scores == one_hot_scores(0, 2)

    def test_margin_is_twenty(self):
        assert ONE_HOT_MARGIN == 20.0
        assert one_hot_scores(1, 3) == (0.0, 20.0, 0.0)


class JitteryScorer:
    """Thread-safe scoring backend: delay and logprobs are a function of the
    request digest; a request naming a question in ``fail`` raises after
    ``fail[question]`` seconds. Records the most requests in flight."""

    def __init__(self, fail=None):
        self.fail = fail or {}
        self.in_flight = self.in_flight_max = 0
        self._lock = threading.Lock()

    def complete(self, req):
        digest = request_digest(req.messages)
        rng = random.Random(digest)
        with self._lock:
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)
        try:
            time.sleep(rng.uniform(0.0005, 0.002))
            for question, delay in self.fail.items():
                if question in req.messages[-1].content:
                    time.sleep(delay)
                    raise TransportError(f"down for {question}")
            return CompletionResult(
                "A", {letter: -rng.uniform(0.1, 5.0) for letter in "ABCD"}
            )
        finally:
            with self._lock:
                self.in_flight -= 1


def numbered_corpus(n):
    corpus = [make_instance(f"q{i}", question=f"Question number {i}?") for i in range(n)]
    corpus[4] = make_instance(
        "oversize", question="long words " * 600, choices=("a", "b"), answer_index=0
    )
    return corpus


@pytest.mark.parametrize("fallback", ["one_hot", "skip"])
def test_score_width_changes_no_output(science_fewshot, fallback):
    cfg = ScoringConfig(fallback=fallback)
    corpus = numbered_corpus(24)
    fail = {"Question number 9?": 0.0} if fallback == "skip" else {}
    serial_backend = JitteryScorer(fail)
    serial = score_instances(
        corpus, science_fewshot, cfg, serial_backend, simple_token_count, width=1
    )
    assert serial_backend.in_flight_max == 1
    if fallback == "one_hot":
        assert serial[1] == {SCORED: 23, FALLBACK: 1, SKIPPED: 0}
    else:
        assert serial[1] == {SCORED: 22, FALLBACK: 0, SKIPPED: 2}
    backend = JitteryScorer(fail)
    pooled = score_instances(
        corpus, science_fewshot, cfg, backend, simple_token_count, width=4
    )
    assert pooled == serial
    assert 2 <= backend.in_flight_max <= 4


@pytest.mark.parametrize("width", [1, 4])
def test_score_first_failure_in_order_surfaces(science_fewshot, width):
    """Instance 6 fails slowly, instance 7 at once: 6's error is the one seen."""
    backend = JitteryScorer({"Question number 6?": 0.1, "Question number 7?": 0.0})
    with pytest.raises(TransportError, match="Question number 6"):
        score_instances(
            numbered_corpus(12),
            science_fewshot,
            ScoringConfig(fallback="one_hot"),
            backend,
            simple_token_count,
            width=width,
        )
