"""Teacher score attachment and temperature softening."""

import math
import random
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcqa_distill.datasets import Corpus, CorpusMeta, read_jsonl, simple_token_count, write_jsonl
from mcqa_distill.distillation import TieAtZeroTemperature, soften
from mcqa_distill import prompts
from mcqa_distill.config import FALLBACKS
from mcqa_distill.core import ChatMessage, FewShotSet, index_to_identifier, validate_instance
from mcqa_distill.gateway import (
    BackendConfig,
    CompletionResult,
    HttpBackend,
    MockBackend,
    NoLogprobSupport,
    ProtocolError,
    RequestRejected,
    RequestTimeout,
    UNAVAILABLE_AFTER,
    ScriptMiss,
    TeacherUnavailable,
    TransportError,
    request_digest,
)
from mcqa_distill.scoring import (
    FALLBACK,
    MISSING_LOGPROB_MARGIN,
    ONE_HOT_MARGIN,
    SCORED,
    SKIPPED,
    TOP_LOGPROBS,
    ScoringConfig,
    fit_scoring_prompt,
    one_hot_scores,
    score_identifiers,
    score_instances,
)
from mcqa_distill.prompts import scoring_user_block

from conftest import Reply, make_instance

finite_scores = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=8
)

# Raw first-token log-probabilities whose softmax is the published
# (0.351, 0.214, 0.213, 0.222) example distribution.
REFERENCE_LOGPROBS = {"A": -1.047, "B": -1.542, "C": -1.546, "D": -1.505}


class TestSoften:
    def test_uniform_scores_give_uniform_probs(self):
        assert tuple(soften([1, 1, 1, 1], 1.0)) == (0.25, 0.25, 0.25, 0.25)

    def test_zero_temperature_is_hard_label(self):
        assert tuple(soften([2, 0, 0, 0], 0.0)) == (1.0, 0.0, 0.0, 0.0)

    def test_log_two_gives_two_thirds(self):
        probs = tuple(soften([math.log(2), 0.0], 1.0))
        assert probs[0] == pytest.approx(2 / 3, abs=1e-12)
        assert probs[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_high_temperature_flattens_toward_uniform(self):
        probs = tuple(soften([5, 1, 1, 1], 100.0))
        # Direct (non-shifted) evaluation as the independent oracle; at r=100
        # the top entry lands at 0.2576, i.e. within 1e-2 of uniform.
        weights = [math.exp(s / 100.0) for s in [5, 1, 1, 1]]
        direct = [w / sum(weights) for w in weights]
        assert probs == pytest.approx(direct, abs=1e-12)
        assert all(abs(p - 0.25) < 1e-2 for p in probs)
        assert max(probs) < max(tuple(soften([5, 1, 1, 1], 1.0)))

    def test_tie_at_zero_temperature(self):
        with pytest.raises(TieAtZeroTemperature):
            soften([1.0, 1.0, 0.0], 0.0)

    @pytest.mark.parametrize("r", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_temperature_rejected(self, r):
        with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
            soften([1.0, 2.0], r)

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError):
            soften([1.0, float("nan")], 1.0)

    def test_huge_scores_stay_stable(self):
        probs = tuple(soften([1000.0, 999.0], 1.0))
        assert probs[0] == pytest.approx(math.exp(1) / (math.exp(1) + 1))

    @settings(max_examples=200)
    @given(finite_scores, st.floats(min_value=0.01, max_value=50))
    def test_normalization(self, scores, r):
        assert abs(sum(tuple(soften(scores, r))) - 1.0) <= 1e-9

    @settings(max_examples=200)
    @given(finite_scores, st.floats(min_value=0.01, max_value=50),
           st.floats(min_value=-30, max_value=30))
    def test_shift_invariance(self, scores, r, k):
        base = tuple(soften(scores, r))
        shifted = tuple(soften([s + k for s in scores], r))
        assert all(abs(a - b) <= 1e-12 for a, b in zip(base, shifted))

    @settings(max_examples=200)
    @given(finite_scores, st.floats(min_value=0.01, max_value=50))
    def test_argmax_preserved_for_positive_temperature(self, scores, r):
        arr = np.asarray(scores)
        gap = arr.max() - np.sort(arr)[-2]
        if gap < 1e-6:  # effective ties dissolve in float rounding
            return
        assert int(np.argmax(soften(scores, r))) == int(arr.argmax())

    @settings(max_examples=200)
    @given(finite_scores, st.floats(min_value=0.01, max_value=10),
           st.floats(min_value=0.01, max_value=10))
    def test_monotone_sharpening(self, scores, r1, r2):
        low, high = sorted([r1, r2])
        assert max(tuple(soften(scores, low))) >= max(tuple(soften(scores, high))) - 1e-12

    def test_hard_label_limit(self):
        scores = [1.0, 0.4, -0.2, 0.85]
        hard = tuple(soften(scores, 0.0))
        nearly = tuple(soften(scores, 1e-3))
        assert max(abs(a - b) for a, b in zip(hard, nearly)) < 1e-6


class TestFitScoringPrompt:
    def test_full_prompt_when_it_fits(self, science_fewshot):
        cfg = ScoringConfig(prompt_token_limit=10_000)
        messages = fit_scoring_prompt(make_instance(), science_fewshot, cfg)
        assert len(messages) == 11

    def test_exemplars_dropped_last_first(self, science_fewshot):
        full = fit_scoring_prompt(
            make_instance(), science_fewshot, ScoringConfig(prompt_token_limit=10_000)
        )
        full_tokens = sum(simple_token_count(m.content) for m in full)
        cfg = ScoringConfig(prompt_token_limit=full_tokens - 1)
        trimmed = fit_scoring_prompt(make_instance(), science_fewshot, cfg)
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
        messages = fit_scoring_prompt(inst, science_fewshot, cfg)
        assert len(messages) == 1
        assert messages[0].role == "user"

    def test_hopeless_limit_gives_none(self, science_fewshot):
        cfg = ScoringConfig(prompt_token_limit=1)
        assert fit_scoring_prompt(make_instance(), science_fewshot, cfg) is None


def rebuilt_scoring_prompt(inst, examples):
    messages = []
    for example in examples:
        messages.append(ChatMessage("user", scoring_user_block(example)))
        messages.append(ChatMessage("assistant", index_to_identifier(example.answer_index)))
    return messages + [ChatMessage("user", scoring_user_block(inst))]


def prompt_tokens(messages):
    return sum(simple_token_count(m.content) for m in messages)


def fit_by_rebuilding(inst, fs, cfg):
    """The scoring prompt fitted by rebuilding and recounting it for each
    keep, from every exemplar down to none: an oracle that shares no state
    with ``fit_scoring_prompt``."""
    for keep in range(len(fs.examples), -1, -1):
        messages = rebuilt_scoring_prompt(inst, fs.examples[:keep])
        if prompt_tokens(messages) <= cfg.prompt_token_limit:
            return messages
    return None


def history_fewshot():
    """A few-shot set with another topic and other examples than the
    fixture's, so a reused exemplar turn shows."""
    examples = tuple(
        make_instance(f"hist-{i}", "world history", question, choices, i % len(choices))
        for i, (question, choices) in enumerate([
            ("Who was the first emperor of Rome?", ("Augustus", "Nero", "Caesar")),
            ("In which year did the Berlin Wall fall?", ("1961", "1989", "1991", "1945")),
            ("Which empire built Machu Picchu?", ("Aztec", "Maya", "Inca", "Olmec")),
        ])
    )
    return FewShotSet(topic="world history", examples=examples)


class TestFitScoringPromptOracle:
    """``fit_scoring_prompt`` keeps the exemplar turns and their token counts
    per few-shot set; at every keep boundary it fits what rebuilding finds."""

    def boundary_limits(self, inst, fs):
        """Each keep's prompt total and one below it, keep = K..0; the last,
        one below the bare instance block, fits nothing."""
        limits = []
        for keep in range(len(fs.examples), -1, -1):
            total = prompt_tokens(rebuilt_scoring_prompt(inst, fs.examples[:keep]))
            limits += [total, total - 1]
        return limits

    def test_every_keep_boundary_matches_rebuilding(self, science_fewshot):
        inst = make_instance()
        kept = []
        for limit in self.boundary_limits(inst, science_fewshot):
            cfg = ScoringConfig(prompt_token_limit=limit)
            messages = fit_scoring_prompt(inst, science_fewshot, cfg)
            assert messages == fit_by_rebuilding(inst, science_fewshot, cfg), limit
            kept.append(None if messages is None else len(messages) // 2)
        # At a keep's total that keep fits; one token below, the next one down.
        assert kept == [5, 4, 4, 3, 3, 2, 2, 1, 1, 0, 0, None]

    def test_alternating_sets_never_share_turns(self, science_fewshot):
        """Every call below asks for the other set than the call before."""
        inst = make_instance("q", "world history", "Who founded the Mongol Empire?",
                             ("Genghis Khan", "Kublai Khan", "Attila"), 0)
        science, history = science_fewshot, history_fewshot()
        for limit in self.boundary_limits(inst, science) + self.boundary_limits(inst, history):
            cfg = ScoringConfig(prompt_token_limit=limit)
            for fs in (science, history, science):
                expected = fit_by_rebuilding(inst, fs, cfg)
                assert fit_scoring_prompt(inst, fs, cfg) == expected, (fs.topic, limit)

    def test_an_equal_set_reuses_the_turns_and_another_set_does_not(self, science_fewshot):
        turns = prompts.exemplars(science_fewshot)
        copy = FewShotSet(science_fewshot.topic, list(science_fewshot.examples))
        assert copy is not science_fewshot
        assert prompts.exemplars(copy) is turns
        retitled = FewShotSet("botany", science_fewshot.examples)
        assert prompts.exemplars(retitled) is not turns
        assert prompts.exemplars(retitled).scoring_turns == turns.scoring_turns
        assert prompts.exemplars(retitled).instruction != turns.instruction
        assert prompts.exemplars(science_fewshot) is not turns


def scripted_for(inst, fs, cfg, result):
    messages = fit_scoring_prompt(inst, fs, cfg)
    return MockBackend({request_digest(messages): result})


def score_one(inst, fs, cfg, backend):
    """``inst`` scored as a corpus of one."""
    return score_instances([inst], fs, cfg, backend)[0][0]


class TestScoreInstance:
    def test_reference_distribution(self, science_fewshot):
        inst = make_instance()
        cfg = ScoringConfig()
        backend = scripted_for(
            inst, science_fewshot, cfg, CompletionResult("A", REFERENCE_LOGPROBS)
        )
        scored = score_one(inst, science_fewshot, cfg, backend)
        assert scored.teacher_scores == (-1.047, -1.542, -1.546, -1.505)
        probs = tuple(soften(scored.teacher_scores, 1.0))
        assert probs == pytest.approx([0.351, 0.214, 0.213, 0.222], abs=5e-4)

    def test_only_scores_change(self, science_fewshot):
        inst = make_instance()
        cfg = ScoringConfig()
        backend = scripted_for(
            inst, science_fewshot, cfg, CompletionResult("A", REFERENCE_LOGPROBS)
        )
        scored = score_one(inst, science_fewshot, cfg, backend)
        assert (scored.id, scored.question, scored.choices, scored.answer_index) == (
            inst.id, inst.question, inst.choices, inst.answer_index,
        )

    @pytest.mark.parametrize("bad", [-math.inf, math.nan], ids=["-inf", "nan"])
    def test_non_finite_logprob_takes_the_floor(self, science_fewshot, tmp_path, bad):
        """A teacher's -inf or NaN logprob is absent, not a score: the corpus
        validates and reads back."""
        inst = make_instance()
        cfg = ScoringConfig()
        logprobs = {"A": bad, "B": -0.1, "C": -3.0, "D": -1.0}
        backend = scripted_for(inst, science_fewshot, cfg, CompletionResult("B", logprobs))
        scored, counts = score_instances([inst], science_fewshot, cfg, backend)
        assert counts[SCORED] == 1
        assert scored[0].teacher_scores == pytest.approx((-13.0, -0.1, -3.0, -1.0))
        assert validate_instance(scored[0]) == []
        path = tmp_path / "scored.jsonl"
        write_jsonl(Corpus(tuple(scored), CorpusMeta()), path)
        assert read_jsonl(path).instances == tuple(scored)

    def test_six_choice_instance_scores_six(self, science_fewshot):
        inst = make_instance(
            choices=("one", "two", "three", "four", "five", "six"), answer_index=2
        )
        cfg = ScoringConfig()
        logprobs = {ch: -float(i + 1) for i, ch in enumerate("ABCDEF")}
        backend = scripted_for(inst, science_fewshot, cfg, CompletionResult("A", logprobs))
        scored = score_one(inst, science_fewshot, cfg, backend)
        assert len(scored.teacher_scores) == 6

    def test_one_hot_fallback_when_over_limit(self, science_fewshot):
        inst = make_instance(answer_index=2)
        cfg = ScoringConfig(prompt_token_limit=1, fallback="one_hot")
        scored = score_one(inst, science_fewshot, cfg, MockBackend({}))
        assert scored.teacher_scores == one_hot_scores(2, 4)
        probs = tuple(soften(scored.teacher_scores, 1.0))
        expected = [0.0, 0.0, 1.0, 0.0]
        assert max(abs(a - b) for a, b in zip(probs, expected)) < 1e-6

    def test_skip_fallback_leaves_scores_absent(self, science_fewshot):
        inst = make_instance(teacher_scores=(1.0, 2.0, 3.0, 4.0))
        cfg = ScoringConfig(prompt_token_limit=1, fallback="skip")
        scored = score_one(inst, science_fewshot, cfg, MockBackend({}))
        assert scored.teacher_scores is None

    def test_rescoring_is_idempotent(self, science_fewshot):
        inst = make_instance()
        cfg = ScoringConfig()
        backend = scripted_for(
            inst, science_fewshot, cfg, CompletionResult("A", REFERENCE_LOGPROBS)
        )
        once = score_one(inst, science_fewshot, cfg, backend)
        twice = score_one(once, science_fewshot, cfg, backend)
        assert once == twice

    @pytest.mark.parametrize("fallback", FALLBACKS)
    def test_no_logprob_backend_raises(self, science_fewshot, fallback):
        inst = make_instance()
        cfg = ScoringConfig(fallback=fallback)
        backend = scripted_for(inst, science_fewshot, cfg, CompletionResult("A", None))
        with pytest.raises(NoLogprobSupport):
            score_one(inst, science_fewshot, cfg, backend)

    @pytest.mark.parametrize("fallback", FALLBACKS)
    def test_script_miss_raises(self, science_fewshot, fallback):
        with pytest.raises(ScriptMiss):
            score_one(make_instance(), science_fewshot, ScoringConfig(fallback=fallback),
                      MockBackend({}))

    def test_gateway_error_with_skip_keeps_instance_unscored(self, science_fewshot):
        class Exploding:
            def complete(self, req):
                raise TransportError("down")

        inst = make_instance()
        cfg = ScoringConfig(fallback="skip")
        scored = score_one(inst, science_fewshot, cfg, Exploding())
        assert scored.teacher_scores is None

    @pytest.mark.parametrize("error", [TransportError, RequestTimeout])
    def test_failed_request_takes_the_one_hot_fallback(self, science_fewshot, error):
        class Exploding:
            def complete(self, req):
                raise error("down")

        inst = make_instance(answer_index=1)
        cfg = ScoringConfig(fallback="one_hot")
        scored = score_one(inst, science_fewshot, cfg, Exploding())
        assert scored.teacher_scores == one_hot_scores(1, 4)


    @pytest.mark.parametrize("fallback", FALLBACKS)
    @pytest.mark.parametrize("error", [RequestRejected, ProtocolError])
    def test_unretried_backend_error_raises(self, science_fewshot, fallback, error):
        class Exploding:
            def complete(self, req):
                raise error("refused")

        with pytest.raises(error):
            score_one(make_instance(), science_fewshot, ScoringConfig(fallback=fallback),
                      Exploding())


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
        scored, counts = score_instances([good, oversize], science_fewshot, cfg, backend)
        assert counts == {SCORED: 1, FALLBACK: 1, SKIPPED: 0}
        assert scored[0].teacher_scores == (-1.047, -1.542, -1.546, -1.505)
        assert scored[1].teacher_scores == one_hot_scores(0, 2)

    @pytest.mark.parametrize("fallback", FALLBACKS)
    def test_rejected_http_request_stops_the_run(
        self, science_fewshot, scripted_teacher, fallback
    ):
        scripted_teacher.respond = lambda received: Reply(401, body=b"invalid api key")
        backend = HttpBackend(BackendConfig(kind="http", base_url=scripted_teacher.base_url))
        corpus = [make_instance(f"q{i}", question=f"Question number {i}?") for i in range(3)]
        with pytest.raises(RequestRejected, match="HTTP 401: invalid api key"):
            score_instances(corpus, science_fewshot, ScoringConfig(fallback=fallback), backend)
        assert len(scripted_teacher.received) == 1

    def test_more_choices_than_top_logprobs_are_scored(self, science_fewshot, scripted_teacher):
        """A 22-choice instance asks a server that accepts at most 20 top
        log-probabilities for 20; the two letters its reply leaves out get
        the missing-letter floor."""

        def at_most_twenty(received):
            if received.json["top_logprobs"] > 20:
                return Reply(400, {"error": "top_logprobs must be at most 20"})
            top = [{"token": chr(ord("A") + i), "logprob": -0.1 * (i + 1)} for i in range(20)]
            logprobs = {"content": [{"token": "A", "logprob": -0.1, "top_logprobs": top}]}
            return Reply(200, {"choices": [{"message": {"content": "A"}, "logprobs": logprobs}]})

        scripted_teacher.respond = at_most_twenty
        backend = HttpBackend(BackendConfig(kind="http", base_url=scripted_teacher.base_url))
        inst = make_instance(choices=[f"choice {i}" for i in range(22)])
        scored, counts = score_instances([inst], science_fewshot, ScoringConfig(), backend)
        assert [r.json["top_logprobs"] for r in scripted_teacher.received] == [20]
        assert counts == {SCORED: 1, FALLBACK: 0, SKIPPED: 0}
        scores = scored[0].teacher_scores
        assert scores[:20] == pytest.approx([-0.1 * (i + 1) for i in range(20)])
        assert scores[20:] == pytest.approx([-2.0 - MISSING_LOGPROB_MARGIN] * 2)

    def test_margin_is_twenty(self):
        assert ONE_HOT_MARGIN == 20.0
        assert one_hot_scores(1, 3) == (0.0, 20.0, 0.0)


class JitteryScorer:
    """Thread-safe scoring backend: delay and logprobs are a function of the
    request digest; a request naming a question in ``fail`` raises ``error``
    after ``fail[question]`` seconds, and one naming a question in ``slow``
    answers ``slow[question]`` seconds late. Records the requests' digests
    and the most requests in flight."""

    def __init__(self, fail=None, error=TransportError, slow=None):
        self.fail = fail or {}
        self.error = error
        self.slow = slow or {}
        self.digests = Counter()
        self.in_flight = self.in_flight_max = 0
        self._lock = threading.Lock()

    def complete(self, req):
        digest = request_digest(req.messages)
        rng = random.Random(digest)
        with self._lock:
            self.digests[digest] += 1
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)
        try:
            time.sleep(rng.uniform(0.0005, 0.002))
            for question, delay in self.slow.items():
                if question in req.messages[-1].content:
                    time.sleep(delay)
            for question, delay in self.fail.items():
                if question in req.messages[-1].content:
                    time.sleep(delay)
                    raise self.error(f"down for {question}")
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
    fail = {"Question number 9?": 0.0}
    serial_backend = JitteryScorer(fail)
    serial = score_instances(corpus, science_fewshot, cfg, serial_backend, width=1)
    assert serial_backend.in_flight_max == 1
    if fallback == "one_hot":
        assert serial[1] == {SCORED: 22, FALLBACK: 2, SKIPPED: 0}
    else:
        assert serial[1] == {SCORED: 22, FALLBACK: 0, SKIPPED: 2}
    backend = JitteryScorer(fail)
    pooled = score_instances(corpus, science_fewshot, cfg, backend, width=4)
    assert pooled == serial
    assert 2 <= backend.in_flight_max <= 4


def test_slow_first_request_at_width_4_changes_no_output(science_fewshot):
    cfg = ScoringConfig(fallback="one_hot")
    corpus = numbered_corpus(24)
    fail = {"Question number 9?": 0.0}
    slow = {"Question number 0?": 0.2}
    serial_backend = JitteryScorer(fail, slow=slow)
    serial = score_instances(corpus, science_fewshot, cfg, serial_backend, width=1)
    backend = JitteryScorer(fail, slow=slow)
    pooled = score_instances(corpus, science_fewshot, cfg, backend, width=4)
    assert pooled == serial
    assert backend.digests == serial_backend.digests
    assert 2 <= backend.in_flight_max <= 4


def test_score_at_width_4_from_a_cold_exemplar_memo(science_fewshot, monkeypatch):
    """With no exemplar turns built yet, the first requests of a width-4 run
    build them on whichever threads get there, and the run still scores as
    a serial one does."""
    cfg = ScoringConfig(fallback="one_hot")
    corpus = numbered_corpus(24)
    runs = []
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for width in (1, 4):
            monkeypatch.setattr(prompts, "_last_exemplars", None)
            backend = JitteryScorer()
            runs.append((score_instances(corpus, science_fewshot, cfg, backend, width), backend))
    finally:
        sys.setswitchinterval(switch_interval)
    (serial, serial_backend), (pooled, backend) = runs
    assert pooled == serial
    assert serial[1] == {SCORED: 23, FALLBACK: 1, SKIPPED: 0}
    assert backend.digests == serial_backend.digests
    assert 2 <= backend.in_flight_max <= 4


@pytest.mark.parametrize("width", [1, 4])
def test_transport_failure_falls_back_in_instance_order(science_fewshot, width):
    corpus = [make_instance(f"q{i}", question=f"Question number {i}?") for i in range(3)]
    backend = JitteryScorer({"Question number 1?": 0.05})
    scored, counts = score_instances(
        corpus, science_fewshot, ScoringConfig(fallback="one_hot"), backend, width=width
    )
    assert counts == {SCORED: 2, FALLBACK: 1, SKIPPED: 0}
    assert [inst.id for inst in scored] == ["q0", "q1", "q2"]
    assert scored[1].teacher_scores == one_hot_scores(0, 4)
    assert scored[0].teacher_scores is not None and scored[2].teacher_scores is not None


@pytest.mark.parametrize("width", [1, 4])
def test_score_first_failure_in_order_surfaces(science_fewshot, width):
    """Instance 6 fails slowly, instance 7 at once: 6's error is the one seen."""
    backend = JitteryScorer(
        {"Question number 6?": 0.1, "Question number 7?": 0.0}, error=ScriptMiss
    )
    with pytest.raises(ScriptMiss, match="Question number 6"):
        score_instances(
            numbered_corpus(12),
            science_fewshot,
            ScoringConfig(fallback="one_hot"),
            backend,
            width=width,
        )


@pytest.mark.parametrize("width", [1, 4])
def test_over_limit_prompt_neither_counts_nor_resets_failures_at_any_width(
    science_fewshot, width
):
    """Instance 4 is over the token limit and sends no request; every other
    request fails. 15 failures around it do not stop the run, and a 16th
    after it does."""
    corpus = numbered_corpus(UNAVAILABLE_AFTER + 1)
    fail = {f"Question number {i}?": 0.0 for i in range(len(corpus))}
    cfg = ScoringConfig(fallback="one_hot")
    _, counts = score_instances(
        corpus[:-1], science_fewshot, cfg, JitteryScorer(fail), width=width
    )
    assert counts == {SCORED: 0, FALLBACK: UNAVAILABLE_AFTER, SKIPPED: 0}
    with pytest.raises(TeacherUnavailable, match=f"Question number {UNAVAILABLE_AFTER}\\?"):
        score_instances(corpus, science_fewshot, cfg, JitteryScorer(fail), width=width)


MESSAGES = (ChatMessage("user", "say wood"),)


class TestScoreIdentifiers:
    def scripted(self, logprobs):
        return MockBackend(
            {request_digest(MESSAGES): CompletionResult("A", logprobs)}
        )

    def test_reference_distribution_returned_verbatim(self):
        backend = self.scripted(REFERENCE_LOGPROBS)
        scores = score_identifiers(backend, MESSAGES, ["A", "B", "C", "D"])
        assert scores == REFERENCE_LOGPROBS
        # These raw scores softmax to roughly (0.351, 0.214, 0.213, 0.222).
        weights = {k: math.exp(v) for k, v in scores.items()}
        total = sum(weights.values())
        probs = {k: v / total for k, v in weights.items()}
        assert round(probs["A"], 3) == 0.351
        assert round(probs["B"], 3) == 0.214
        assert round(probs["C"], 3) == 0.213
        assert round(probs["D"], 3) == 0.222

    def test_floor_for_absent_identifiers(self):
        backend = self.scripted({"A": -0.1})
        scores = score_identifiers(backend, MESSAGES, ["A", "B", "C", "D"])
        assert scores["A"] == -0.1
        assert scores["B"] == scores["C"] == scores["D"] == pytest.approx(-10.1)

    def test_no_identifiers_present_gives_equal_floor(self):
        backend = self.scripted({"x": -0.5, "y": -1.0})
        scores = score_identifiers(backend, MESSAGES, ["A", "B"])
        assert scores == {"A": 0.0, "B": 0.0}

    def test_one_finite_entry_per_identifier(self):
        backend = self.scripted({"A": -0.3, "C": -1.2})
        scores = score_identifiers(backend, MESSAGES, ["A", "B", "C", "D", "E"])
        assert set(scores) == {"A", "B", "C", "D", "E"}
        assert all(math.isfinite(v) for v in scores.values())

    def test_whitespace_tokens_collapse(self):
        backend = self.scripted({" A": -0.2, "A": -0.9, "B": -1.0})
        scores = score_identifiers(backend, MESSAGES, ["A", "B"])
        assert scores["A"] == -0.2

    def test_missing_logprob_support(self):
        backend = MockBackend({request_digest(MESSAGES): CompletionResult("A", None)})
        with pytest.raises(NoLogprobSupport):
            score_identifiers(backend, MESSAGES, ["A", "B"])

    @pytest.mark.parametrize("count", [2, 26])
    def test_request_asks_for_twenty_top_logprobs(self, count):
        identifiers = [chr(ord("A") + i) for i in range(count)]
        requests = []

        class Recording:
            def complete(self, req):
                requests.append(req)
                return CompletionResult("A", {"A": -0.4})

        score_identifiers(Recording(), MESSAGES, identifiers)
        (req,) = requests
        assert req.messages == MESSAGES
        assert (req.temperature, req.max_new_tokens) == (0.0, 1)
        assert req.want_top_logprobs == TOP_LOGPROBS == 20
