"""Candidate parsing and the three generation strategies."""

import random
import sys
import threading
import time
from collections import Counter

import pytest

from mcqa_distill.core import ANSWER_RANGE, DUPLICATE_CHOICE, EMPTY_FIELD, TOO_FEW_CHOICES
from mcqa_distill.gateway import (
    CompletionResult,
    MockBackend,
    ScriptMiss,
    TransportError,
    request_digest,
)
from mcqa_distill import generation
from mcqa_distill.generation import (
    BAD_SYNTAX,
    MISSING_KEY,
    NO_OBJECT,
    STAGE_FAILURE,
    UNBALANCED,
    WRONG_TYPE,
    GenerationConfig,
    attempt_seed,
    generate,
    parse_json_candidate,
)
from mcqa_distill.prompts import (
    DEFAULT_TEMPLATES,
    build_json_generation_prompt,
    build_negative_prompt,
    build_positive_prompt,
    build_question_prompt,
)
from mcqa_distill.mock_script import (
    _record_run,
    fabricate_decomposed_run,
    fabricate_json_run,
    fabricate_paraphrase_run,
)

VALID_SINGLE_QUOTED = (
    "{'question': 'Which energy resource is non-renewable?', "
    "'choices': ['oil','solar','water','wind'], 'answer': 0}"
)
VALID_STRICT = (
    '{"question": "Which energy resource is non-renewable?", '
    '"choices": ["oil","solar","water","wind"], "answer": 0}'
)

# reply -> expected (accepted fields or rejection reason)
PARSER_FIXTURES = [
    ("single_quoted", VALID_SINGLE_QUOTED, "ok"),
    ("strict_json", VALID_STRICT, "ok"),
    (
        "prose_wrapped",
        f"Sure! Here it is: {VALID_STRICT} Hope that helps.",
        "ok",
    ),
    (
        "markdown_fenced",
        f"```json\n{VALID_STRICT}\n```",
        "ok",
    ),
    (
        "apostrophe_needs_double_quotes",
        '{\'question\': "What is Earth\'s core made of?", '
        "'choices': ['iron', 'ice'], 'answer': 0}",
        "ok",
    ),
    ("no_object_at_all", "I cannot answer that in the requested format.", NO_OBJECT),
    ("never_closes", "{'question': 'Which?', 'choices': ['a', 'b'", UNBALANCED),
    ("broken_syntax", "{'question': 'Which?', choices: [}", BAD_SYNTAX),
    ("not_a_mapping", "{'set', 'not', 'mapping'}", BAD_SYNTAX),
    ("missing_answer_key", "{'question': 'Which?', 'choices': ['a', 'b']}", MISSING_KEY),
    (
        "missing_choices_key",
        "{'question': 'Which?', 'options': ['a', 'b'], 'answer': 0}",
        MISSING_KEY,
    ),
    (
        "answer_is_text",
        "{'question': 'Which?', 'choices': ['a', 'b'], 'answer': 'a'}",
        WRONG_TYPE,
    ),
    (
        "answer_is_bool",
        "{'question': 'Which?', 'choices': ['a', 'b'], 'answer': True}",
        WRONG_TYPE,
    ),
    (
        "choice_not_text",
        "{'question': 'Which?', 'choices': ['a', 3], 'answer': 0}",
        WRONG_TYPE,
    ),
    (
        "answer_out_of_range",
        "{'question': 'Which?', 'choices': ['oil','solar','water','wind'], 'answer': 7}",
        ANSWER_RANGE,
    ),
    (
        "duplicate_choices",
        "{'question': 'Which?', 'choices': ['wood', 'wood '], 'answer': 0}",
        DUPLICATE_CHOICE,
    ),
    (
        "single_choice",
        "{'question': 'Which?', 'choices': ['only'], 'answer': 0}",
        TOO_FEW_CHOICES,
    ),
    (
        "empty_question",
        "{'question': '  ', 'choices': ['a', 'b'], 'answer': 0}",
        EMPTY_FIELD,
    ),
]


class TestParseJsonCandidate:
    @pytest.mark.parametrize(
        "name,raw,expected", PARSER_FIXTURES, ids=[f[0] for f in PARSER_FIXTURES]
    )
    def test_fixture(self, name, raw, expected):
        fields, reason = parse_json_candidate(raw)
        if expected == "ok":
            assert reason is None
            assert fields is not None
        else:
            assert fields is None
            assert reason == expected

    def test_single_quoted_and_strict_parse_identically(self):
        left, _ = parse_json_candidate(VALID_SINGLE_QUOTED)
        right, _ = parse_json_candidate(VALID_STRICT)
        assert left == right
        assert left == {
            "question": "Which energy resource is non-renewable?",
            "choices": ["oil", "solar", "water", "wind"],
            "answer_index": 0,
        }

    def test_prose_wrapped_extracts_hand_isolated_block(self):
        wrapped = f"Of course. {VALID_STRICT} Let me know if you need more."
        fields, _ = parse_json_candidate(wrapped)
        by_hand, _ = parse_json_candidate(VALID_STRICT)
        assert fields == by_hand

    def test_whitespace_is_stripped_from_fields(self):
        fields, reason = parse_json_candidate(
            "{'question': ' Which one? ', 'choices': [' a ', 'b'], 'answer': 1}"
        )
        assert reason is None
        assert fields["question"] == "Which one?"
        assert fields["choices"] == ["a", "b"]


class SequencedBackend:
    """Test double replying with a fixed list of texts in call order."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.cursor = 0

    def complete(self, req):
        reply = self.replies[self.cursor]
        self.cursor += 1
        return CompletionResult(reply)


class TestGenerateJson:
    def test_all_valid_mock_reaches_target(self, science_fewshot):
        cfg = GenerationConfig(strategy="json", target_count=16, seed=3)
        script, expected = fabricate_json_run(science_fewshot, cfg)
        instances, report = generate(science_fewshot, cfg, MockBackend(script))
        assert len(instances) == 16
        assert report.attempted == 16
        assert report.parsed == 16
        assert report.success_rate == 1.0
        assert [i.id for i in instances] == [e.id for e in expected]

    def test_strict_json_only_mock_has_sr_one(self, science_fewshot):
        cfg = GenerationConfig(strategy="json", target_count=8, seed=0)
        script = {}
        for attempt in range(8):
            messages = build_json_generation_prompt(
                science_fewshot, attempt_seed(cfg.seed, "json", attempt)
            )
            script[request_digest(messages)] = (
                f'{{"question": "Strict question {attempt}?", '
                f'"choices": ["a{attempt}", "b{attempt}"], "answer": 1}}'
            )
        _, report = generate(science_fewshot, cfg, MockBackend(script))
        assert report.success_rate == 1.0

    def test_scripted_52_of_100_success_rate(self, science_fewshot):
        """52 parseable replies over a 100-attempt budget: SR 0.52 exactly."""
        cfg = GenerationConfig(strategy="json", target_count=1000, max_attempts=100, seed=9)
        valid_attempts = set(range(0, 100, 2)) | {1, 3}  # 50 evens + 2 odds = 52
        replies = [
            (
                f"{{'question': 'Scripted question {attempt}?', "
                f"'choices': ['a{attempt}', 'b{attempt}'], 'answer': 0}}"
                if attempt in valid_attempts
                else "Sorry, I will not produce JSON today."
            )
            for attempt in range(100)
        ]
        instances, report = generate(
            science_fewshot, cfg, SequencedBackend(replies)
        )
        assert report.attempted == 100
        assert report.parsed == 52
        assert len(instances) == 52
        assert report.success_rate == pytest.approx(0.52)
        assert report.rejected_by_reason == {NO_OBJECT: 48}
        assert report.parsed + sum(report.rejected_by_reason.values()) == report.attempted

    def test_never_valid_mock_exhausts_budget_with_empty_set(self, science_fewshot):
        cfg = GenerationConfig(strategy="json", target_count=4, max_attempts=10, seed=1)
        script = {}
        for attempt in range(10):
            messages = build_json_generation_prompt(
                science_fewshot, attempt_seed(cfg.seed, "json", attempt)
            )
            script[request_digest(messages)] = "no object here"
        instances, report = generate(science_fewshot, cfg, MockBackend(script))
        assert instances == []
        assert report.attempted == 10
        assert report.parsed == 0

    def test_gateway_failures_counted_per_attempt(self, science_fewshot):
        class FlakyBackend:
            def __init__(self):
                self.calls = 0

            def complete(self, req):
                self.calls += 1
                if self.calls == 1:
                    raise TransportError("boom")
                return CompletionResult(
                    "{'question': 'q?', 'choices': ['a', 'b'], 'answer': 0}"
                )

        cfg = GenerationConfig(strategy="json", target_count=2, seed=0)
        instances, report = generate(science_fewshot, cfg, FlakyBackend())
        assert len(instances) == 2
        assert report.attempted == 3
        assert report.rejected_by_reason == {STAGE_FAILURE: 1}

    def test_script_miss_propagates(self, science_fewshot):
        cfg = GenerationConfig(strategy="json", target_count=1, seed=0)
        with pytest.raises(ScriptMiss):
            generate(science_fewshot, cfg, MockBackend({}))

    def test_default_budget_is_twenty_fold(self):
        cfg = GenerationConfig(strategy="json", target_count=1024)
        assert cfg.attempt_budget == 20480

    def test_emitted_instances_carry_provenance(self, science_fewshot):
        cfg = GenerationConfig(strategy="json", target_count=3, seed=5, temperature=2.0)
        script, _ = fabricate_json_run(science_fewshot, cfg)
        instances, _ = generate(science_fewshot, cfg, MockBackend(script))
        assert all(i.provenance.strategy == "json" for i in instances)
        assert all(i.provenance.gen_temperature == 2.0 for i in instances)
        assert [i.provenance.attempt for i in instances] == [0, 1, 2]


class RecordingBackend:
    """Wraps a backend, logging every request for structural assertions."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def complete(self, req):
        self.requests.append(req)
        return self.inner.complete(req)


class TestGenerateDecomposed:
    def test_five_negatives_give_six_choices_answer_first(self, science_fewshot):
        cfg = GenerationConfig(strategy="decompose", target_count=4, negatives_n=5, seed=2)
        script, _ = fabricate_decomposed_run(science_fewshot, cfg)
        instances, report = generate(science_fewshot, cfg, MockBackend(script))
        assert len(instances) == 4
        assert all(i.num_choices == 6 for i in instances)
        assert all(i.answer_index == 0 for i in instances)
        assert report.parsed == 4
        for inst in instances:
            assert len({c.lower() for c in inst.choices}) == 6

    def test_forbidden_list_growth_per_step(self, science_fewshot):
        cfg = GenerationConfig(strategy="decompose", target_count=1, negatives_n=5, seed=2)
        script, _ = fabricate_decomposed_run(science_fewshot, cfg)
        recorder = RecordingBackend(MockBackend(script))
        generate(science_fewshot, cfg, recorder)
        negative_requests = [
            r for r in recorder.requests if "Forbidden Answer :" in r.messages[-1].content
        ]
        bullet_counts = [
            sum(
                1
                for line in r.messages[-1].content.splitlines()
                if line.startswith("- ")
            )
            for r in negative_requests
        ]
        # Step i carries 1 + (i - 1) forbidden entries.
        assert bullet_counts == [1, 2, 3, 4, 5]

    def test_colliding_slot_dropped_after_retries(self, science_fewshot):
        """One negative slot always answers with the positive: 5 choices remain."""
        cfg = GenerationConfig(strategy="decompose", target_count=1, negatives_n=5, seed=4)
        question = "What slows heat transfer the most?"
        positive = "right answer"
        collider = "Right Answer  "  # canon-collides with the positive
        script = {}
        question_prompt = build_question_prompt(
            science_fewshot, attempt_seed(cfg.seed, "question", 0)
        )
        script[request_digest(question_prompt)] = CompletionResult(question)
        script[request_digest(build_positive_prompt(science_fewshot, question))] = (
            CompletionResult(positive)
        )
        # Slots 0 and 1 produce fresh negatives, slot 2 collides on every
        # retry (identical prompt, identical reply) and is dropped; its raw
        # form joins the forbidden list so slots 3 and 4 see new prompts.
        replies = ["neg one", "neg two", collider, "neg three", "neg four"]
        forbidden = [positive]
        for reply in replies:
            prompt = build_negative_prompt(science_fewshot, question, forbidden)
            script[request_digest(prompt)] = CompletionResult(reply)
            forbidden.append(reply.strip())
        instances, report = generate(science_fewshot, cfg, MockBackend(script))
        assert len(instances) == 1
        assert instances[0].choices == (
            positive, "neg one", "neg two", "neg three", "neg four",
        )
        assert instances[0].num_choices == 5
        assert instances[0].answer_index == 0
        assert report.parsed == 1

    def test_stage_failure_discards_only_that_instance(self, science_fewshot):
        cfg = GenerationConfig(strategy="decompose", target_count=2, negatives_n=2, seed=6)

        class FirstQuestionFails:
            def __init__(self, inner):
                self.inner = inner
                self.fired = False

            def complete(self, req):
                instruction = "create a question about"
                if not self.fired and instruction in req.messages[-1].content:
                    self.fired = True
                    raise TransportError("mid-instance failure")
                return self.inner.complete(req)

        # Attempt 0 fails at its question stage; attempts 1.. must be scripted.
        cfg_more = GenerationConfig(
            strategy="decompose", target_count=3, negatives_n=2, seed=6
        )
        script, _ = fabricate_decomposed_run(science_fewshot, cfg_more)
        instances, report = generate(
            science_fewshot, cfg, FirstQuestionFails(MockBackend(script))
        )
        assert len(instances) == 2
        assert report.attempted == 3
        assert report.rejected_by_reason == {STAGE_FAILURE: 1}

    def test_shuffle_choices_remaps_answer(self, science_fewshot):
        cfg = GenerationConfig(
            strategy="decompose", target_count=6, negatives_n=3, seed=11, shuffle_choices=True
        )
        script, expected = fabricate_decomposed_run(science_fewshot, cfg)
        instances, _ = generate(science_fewshot, cfg, MockBackend(script))
        assert len(instances) == 6
        for inst, plain in zip(instances, expected):
            assert inst.gold_choice == plain.choices[0]
            assert sorted(inst.choices) == sorted(plain.choices)
        assert any(inst.answer_index != 0 for inst in instances)


class TestGenerateParaphrase:
    def test_structure_preserved(self, science_fewshot):
        cfg = GenerationConfig(strategy="paraphrase", target_count=5, seed=0)
        script, _ = fabricate_paraphrase_run(science_fewshot, cfg)
        instances, report = generate(science_fewshot, cfg, MockBackend(script))
        assert len(instances) == 5
        for inst, source in zip(instances, science_fewshot.examples):
            assert inst.num_choices == source.num_choices
            assert inst.answer_index == source.answer_index

    def test_round_robin_reuses_each_seed_twice(self, science_fewshot):
        cfg = GenerationConfig(strategy="paraphrase", target_count=10, seed=0)
        script, _ = fabricate_paraphrase_run(science_fewshot, cfg)
        instances, _ = generate(science_fewshot, cfg, MockBackend(script))
        questions = [i.question for i in instances]
        assert questions[:5] == questions[5:]

    def test_identity_paraphraser_keeps_sources_verbatim(self, science_fewshot):
        cfg = GenerationConfig(strategy="paraphrase", target_count=5, seed=0)
        script, _ = fabricate_paraphrase_run(
            science_fewshot, cfg, rewrite=lambda text: text
        )
        instances, report = generate(science_fewshot, cfg, MockBackend(script))
        assert report.parsed == 5
        for inst, source in zip(instances, science_fewshot.examples):
            assert inst.question == source.question
            assert inst.choices == source.choices


def test_generate_dispatches_on_strategy(science_fewshot):
    cfg = GenerationConfig(strategy="paraphrase", target_count=2, seed=1)
    script, _ = fabricate_paraphrase_run(science_fewshot, cfg)
    instances, _ = generate(science_fewshot, cfg, MockBackend(script))
    assert all(i.provenance.strategy == "paraphrase" for i in instances)


class FaultyBackend:
    """Fails or garbles a seeded share of requests. Every other reply is a
    fresh object that parses as an instance and is distinct as a choice."""

    GARBLED = (
        "",
        "no object here",
        "{'question': 'q?', 'choices': ['x', 'X '], 'answer': 0}",
    )

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.calls = 0

    def complete(self, req):
        self.calls += 1
        roll = self.rng.random()
        if roll < 0.15:
            raise TransportError("injected failure")
        if roll < 0.3:
            return CompletionResult(self.rng.choice(self.GARBLED))
        n = self.calls
        return CompletionResult(
            f"{{'question': 'Q{n}?', 'choices': ['a{n}', 'b{n}'], 'answer': 1}}"
        )


def test_reports_conserve_counts_across_strategies(science_fewshot):
    seen_reasons = set()
    for strategy, fabricate in [
        ("json", fabricate_json_run),
        ("decompose", fabricate_decomposed_run),
        ("paraphrase", fabricate_paraphrase_run),
    ]:
        cfg = GenerationConfig(strategy=strategy, target_count=3, negatives_n=2, seed=8)
        script, _ = fabricate(science_fewshot, cfg)
        _, report = generate(science_fewshot, cfg, MockBackend(script))
        assert report.parsed + sum(report.rejected_by_reason.values()) == report.attempted
        cfg = GenerationConfig(
            strategy=strategy, target_count=20, max_attempts=60, negatives_n=2, seed=8
        )
        for seed in range(3):
            instances, report = generate(science_fewshot, cfg, FaultyBackend(seed))
            assert report.parsed == len(instances) > 0
            assert report.rejected_by_reason
            assert report.parsed + sum(report.rejected_by_reason.values()) == report.attempted
            seen_reasons |= set(report.rejected_by_reason)
    assert {STAGE_FAILURE, NO_OBJECT, DUPLICATE_CHOICE, EMPTY_FIELD} <= seen_reasons


@pytest.mark.parametrize(
    "strategy,fabricate",
    [
        ("json", fabricate_json_run),
        ("decompose", fabricate_decomposed_run),
        ("paraphrase", fabricate_paraphrase_run),
    ],
)
def test_script_miss_propagates_for_every_strategy(science_fewshot, strategy, fabricate):
    """A miss on an attempt's last request raises instead of being counted."""
    cfg = GenerationConfig(strategy=strategy, target_count=2, negatives_n=2, seed=8)
    script, _ = fabricate(science_fewshot, cfg)
    del script[list(script)[-1]]
    with pytest.raises(ScriptMiss):
        generate(science_fewshot, cfg, MockBackend(script))


@pytest.mark.parametrize(
    "plan", [[], ["Q?", "right", "wrong", "extra"]], ids=["empty", "too_many"]
)
def test_fabricator_plan_must_fit_its_attempt(science_fewshot, plan):
    cfg = GenerationConfig(strategy="decompose", target_count=1, negatives_n=1)
    with pytest.raises(ValueError):
        _record_run(
            "decompose", science_fewshot, cfg, DEFAULT_TEMPLATES, [plan], [], None, None
        )


class JitteryBackend:
    """A thread-safe FaultyBackend. Each request's delay, failure and reply
    are a function of the seed and the request digest, not of the order in
    which threads send requests. Counts request digests and the most
    requests in flight at once."""

    def __init__(self, seed):
        self.seed = seed
        self.digests = Counter()
        self.in_flight = self.in_flight_max = 0
        self._lock = threading.Lock()

    def complete(self, req):
        digest = request_digest(req.messages)
        rng = random.Random(f"{self.seed}:{digest}")
        with self._lock:
            self.digests[digest] += 1
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)
        try:
            time.sleep(rng.uniform(0.0005, 0.002))
            roll = rng.random()
            if roll < 0.15:
                raise TransportError("injected failure")
            if roll < 0.3:
                return CompletionResult(rng.choice(FaultyBackend.GARBLED))
            n = digest[:8]
            return CompletionResult(
                f"{{'question': 'Q{n}?', 'choices': ['a{n}', 'b{n}'], 'answer': 1}}"
            )
        finally:
            with self._lock:
                self.in_flight -= 1


@pytest.mark.parametrize("shuffle", [False, True], ids=["ordered", "shuffled"])
@pytest.mark.parametrize("strategy", ["json", "decompose", "paraphrase"])
def test_width_changes_no_output_and_no_request(science_fewshot, strategy, shuffle):
    cfg = GenerationConfig(
        strategy=strategy,
        target_count=12,
        max_attempts=30,
        negatives_n=2,
        seed=5,
        shuffle_choices=shuffle,
    )
    serial_backend = JitteryBackend(seed=3)
    serial, serial_report = generate(science_fewshot, cfg, serial_backend, width=1)
    assert serial_backend.in_flight_max == 1
    assert serial and serial_report.rejected_by_reason
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for width in (2, 4, 8):
            backend = JitteryBackend(seed=3)
            instances, report = generate(science_fewshot, cfg, backend, width=width)
            assert instances == serial
            assert report.to_dict() == serial_report.to_dict()
            assert backend.digests == serial_backend.digests
            assert 2 <= backend.in_flight_max <= width
    finally:
        sys.setswitchinterval(switch_interval)


def test_budget_bounds_attempts_at_any_width(science_fewshot):
    """A target the budget cannot reach: every width stops at the budget."""
    cfg = GenerationConfig(strategy="json", target_count=50, max_attempts=20, seed=1)
    serial_backend = JitteryBackend(seed=0)
    serial, serial_report = generate(science_fewshot, cfg, serial_backend)
    assert serial_report.attempted == 20 and len(serial) < 50
    backend = JitteryBackend(seed=0)
    instances, report = generate(science_fewshot, cfg, backend, width=8)
    assert (instances, report) == (serial, serial_report)
    assert backend.digests == serial_backend.digests


@pytest.mark.parametrize("width", [1, 4])
def test_script_miss_surfaces_past_later_attempts_in_flight(
    science_fewshot, monkeypatch, width
):
    """Attempt 3 misses after a delay; later attempts already running or done
    do not hide it, and none past the window starts."""
    started = []
    lock = threading.Lock()
    real_attempt = generation.ATTEMPTS["json"]

    def attempt(fs, cfg, gw, templates, index):
        with lock:
            started.append(index)
        if index == 3:
            time.sleep(0.2)
            raise ScriptMiss("no scripted response for attempt 3")
        return real_attempt(fs, cfg, gw, templates, index)

    monkeypatch.setitem(generation.ATTEMPTS, "json", attempt)
    cfg = GenerationConfig(strategy="json", target_count=20, seed=2)
    with pytest.raises(ScriptMiss, match="attempt 3"):
        generate(science_fewshot, cfg, JitteryBackend(seed=1), width=width)
    assert sorted(started) == list(range(max(started) + 1))
    if width == 1:
        assert max(started) == 3
    else:
        assert 3 < max(started) <= 3 + width - 1
