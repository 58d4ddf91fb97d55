"""Prompt builders: structure, determinism, and the fixed prompt texts."""

import hashlib
import itertools
import json

import pytest
from hypothesis import given, strategies as st

from mcqa_distill.core import FewShotSet, identifier_to_index
from mcqa_distill.prompts import (
    build_json_generation_prompt,
    build_negative_prompt,
    build_paraphrase_prompt,
    build_positive_prompt,
    build_question_prompt,
    build_scoring_prompt,
    format_example_object,
)

from conftest import make_instance


def roles(messages):
    return [m.role for m in messages]


def assert_well_formed(messages):
    """Optional system first, then strictly alternating user/assistant, ending user."""
    body = messages[1:] if messages[0].role == "system" else messages
    expected = ["user", "assistant"] * (len(body) // 2) + ["user"]
    assert [m.role for m in body] == expected
    assert messages[-1].role == "user"


class TestJsonGenerationPrompt:
    def test_five_shot_message_count(self, science_fewshot):
        messages = build_json_generation_prompt(science_fewshot, seed=1)
        # 1 system + 5 user/assistant pairs + 1 trailing user.
        assert len(messages) == 12
        assert_well_formed(messages)

    def test_topic_instruction_text(self, science_fewshot):
        messages = build_json_generation_prompt(science_fewshot, seed=1)
        assert messages[1].content == "create a question about grade school science!"
        assert messages[-1].content == "create a question about grade school science!"

    def test_system_text(self, science_fewshot):
        messages = build_json_generation_prompt(science_fewshot, seed=1)
        assert messages[0].content == (
            "You are a bot that excel at creating question about the given topics, "
            "and will create question in JSON format!"
        )

    def test_deterministic(self, science_fewshot):
        one = build_json_generation_prompt(science_fewshot, seed=7)
        two = build_json_generation_prompt(science_fewshot, seed=7)
        assert one == two

    def test_seeds_permute_but_preserve_multiset(self):
        examples = tuple(
            make_instance(f"e{i}", question=f"question {i}?", answer_index=0)
            for i in range(3)
        )
        fs = FewShotSet(topic="grade school science", examples=examples)
        expected = sorted(format_example_object(e) for e in examples)
        orders = set()
        for seed in range(12):
            messages = build_json_generation_prompt(fs, seed)
            contents = [m.content for m in messages if m.role == "assistant"]
            assert sorted(contents) == expected
            orders.add(tuple(contents))
        # 3 examples have 6 permutations; a dozen seeds must hit more than one.
        assert 1 < len(orders) <= len(list(itertools.permutations(range(3))))

    def test_assistant_serialization_style(self, science_fewshot):
        messages = build_json_generation_prompt(science_fewshot, seed=0)
        contents = [m.content for m in messages if m.role == "assistant"]
        wood = next(c for c in contents if "'answer': 3" in c)
        assert (
            wood
            == "{'question': 'Which of the following materials would best slow the "
            "transfer of heat?', 'choices': ['aluminum', 'copper', 'glass', "
            "'wood'], 'answer': 3}"
        )

    def test_apostrophes_switch_to_double_quotes(self, science_fewshot):
        messages = build_json_generation_prompt(science_fewshot, seed=0)
        contents = [m.content for m in messages if m.role == "assistant"]
        equator = next(c for c in contents if "equator" in c)
        assert equator.startswith('{\'question\': "Near Earth\'s equator')


class TestQuestionPrompt:
    def test_assistant_turns_hold_bare_questions(self, science_fewshot):
        messages = build_question_prompt(science_fewshot, seed=3)
        contents = {m.content for m in messages if m.role == "assistant"}
        assert contents == {e.question for e in science_fewshot.examples}
        assert messages[-1].content == "create a question about grade school science!"

    def test_one_shot_arity(self):
        fs = FewShotSet(topic="t", examples=(make_instance(topic="t"),))
        assert len(build_question_prompt(fs, seed=0)) == 4

    def test_empty_examples_rejected(self):
        with pytest.raises(ValueError):
            FewShotSet(topic="t", examples=())


class TestPositivePrompt:
    def test_trailing_user_is_the_new_question(self, science_fewshot):
        question = "Which energy resource is non-renewable?"
        messages = build_positive_prompt(science_fewshot, question)
        assert messages[-1].content == question
        assert_well_formed(messages)

    def test_assistant_turns_are_gold_answers_only(self, science_fewshot):
        messages = build_positive_prompt(science_fewshot, "anything?")
        assistant = [m.content for m in messages if m.role == "assistant"]
        assert assistant == [e.gold_choice for e in science_fewshot.examples]
        wrong = {
            c
            for e in science_fewshot.examples
            for i, c in enumerate(e.choices)
            if i != e.answer_index
        }
        joined = "\n".join(m.content for m in messages)
        assert not any(w in joined for w in wrong)

    def test_empty_question_rejected(self, science_fewshot):
        with pytest.raises(ValueError):
            build_positive_prompt(science_fewshot, "   ")


class TestNegativePrompt:
    def test_single_forbidden_bullet(self, science_fewshot):
        messages = build_negative_prompt(science_fewshot, "why?", ["wood"])
        assert "- wood" in messages[-1].content
        assert messages[-1].content.endswith("Answer:")

    def test_forbidden_order_and_count(self, science_fewshot):
        forbidden = ["positive", "neg one", "neg two", "neg three"]
        messages = build_negative_prompt(science_fewshot, "why?", forbidden)
        lines = messages[-1].content.splitlines()
        bullets = [line for line in lines if line.startswith("- ")]
        assert bullets == [f"- {f}" for f in forbidden]

    def test_duplicates_removed_keeping_first_order(self, science_fewshot):
        messages = build_negative_prompt(
            science_fewshot, "why?", ["a", "b", "a", "c", "b"]
        )
        bullets = [
            line for line in messages[-1].content.splitlines() if line.startswith("- ")
        ]
        assert bullets == ["- a", "- b", "- c"]

    def test_question_line(self, science_fewshot):
        messages = build_negative_prompt(science_fewshot, "Why is the sky blue?", ["x"])
        assert "Question: Why is the sky blue?" in messages[-1].content

    def test_empty_forbidden_rejected(self, science_fewshot):
        with pytest.raises(ValueError):
            build_negative_prompt(science_fewshot, "why?", [])

    def test_exemplar_forbidden_lists_grow(self, science_fewshot):
        messages = build_negative_prompt(science_fewshot, "why?", ["x"])
        user_turns = [m.content for m in messages if m.role == "user"][:-1]
        bullet_counts = [
            sum(1 for line in turn.splitlines() if line.startswith("- "))
            for turn in user_turns
        ]
        assert bullet_counts == [1, 2, 3, 1, 2]


class TestScoringPrompt:
    def test_no_system_message(self, science_fewshot):
        inst = make_instance()
        messages = build_scoring_prompt(science_fewshot, inst)
        assert messages[0].role == "user"
        assert len(messages) == 2 * len(science_fewshot) + 1

    def test_exemplar_assistant_is_gold_letter(self, science_fewshot):
        inst = make_instance()
        messages = build_scoring_prompt(science_fewshot, inst)
        # The heat-transfer exemplar's gold choice is index 3.
        first_assistant = messages[1]
        assert first_assistant.content == "D"

    def test_assistant_letters_round_trip(self, science_fewshot):
        messages = build_scoring_prompt(science_fewshot, make_instance())
        letters = [m.content for m in messages if m.role == "assistant"]
        assert [identifier_to_index(ch) for ch in letters] == [
            e.answer_index for e in science_fewshot.examples
        ]

    def test_six_choice_identifiers(self, science_fewshot):
        inst = make_instance(
            choices=("one", "two", "three", "four", "five", "six"), answer_index=0
        )
        messages = build_scoring_prompt(science_fewshot, inst)
        lines = messages[-1].content.splitlines()
        assert lines[0] == inst.question
        assert [line.split(".")[0] for line in lines[1:]] == ["A", "B", "C", "D", "E", "F"]

    def test_choice_line_format(self, science_fewshot):
        messages = build_scoring_prompt(science_fewshot, make_instance())
        assert "A. oil" in messages[-1].content.splitlines()


class TestParaphrasePrompt:
    def test_trailing_user_format(self):
        messages = build_paraphrase_prompt("Happy")
        assert messages[-1].content == "paraphrase this : Happy"

    def test_message_count_is_twelve(self):
        assert len(build_paraphrase_prompt("anything at all")) == 12

    def test_fixed_pairs_present(self):
        messages = build_paraphrase_prompt("x")
        contents = [m.content for m in messages]
        assert "paraphrase this : Happy" in contents
        assert "Joyful" in contents
        assert "Sarah is leading the project." in contents

    def test_whitespace_only_rejected(self):
        with pytest.raises(ValueError):
            build_paraphrase_prompt("   \n ")

    def test_system_text(self):
        messages = build_paraphrase_prompt("x")
        assert messages[0].content == "You are a bot that excel at paraphrasing."


def test_all_builders_keep_roles_well_formed(science_fewshot):
    inst = make_instance()
    for messages in (
        build_json_generation_prompt(science_fewshot, 4),
        build_question_prompt(science_fewshot, 4),
        build_positive_prompt(science_fewshot, "why is that?"),
        build_negative_prompt(science_fewshot, "why is that?", ["x"]),
        build_scoring_prompt(science_fewshot, inst),
        build_paraphrase_prompt("rewrite me"),
    ):
        assert_well_formed(messages)


@given(st.integers(min_value=0, max_value=10_000))
def test_builders_are_pure(seed):
    examples = tuple(
        make_instance(f"e{i}", question=f"question {i}?", answer_index=i % 4)
        for i in range(4)
    )
    fs = FewShotSet(topic="grade school science", examples=examples)
    assert build_json_generation_prompt(fs, seed) == build_json_generation_prompt(fs, seed)
    assert build_question_prompt(fs, seed) == build_question_prompt(fs, seed)


QUESTION = "Which energy resource is non-renewable?"

# SHA-256 of each builder's messages below. Mock scripts are keyed by the same
# builders, so no other test notices a changed byte in a prompt text.
PROMPT_DIGESTS = {
    "json": "d1e36c8c3b7e32ac48d1dd3692e94438da190007920fa9dfe418c165351ab502",
    "question": "c64abe512df6e918bbf149e3726751757cce8c7f1b6839585cff7fd05f043a8c",
    "positive": "bed5487fdf388053deb9c4f7e721d4a10391d679fcae6f926ace07d322a5569d",
    "negative": "d9c3a61b0949f81daf2e4363ab455ea83467710c547f392358c140cbbc720d72",
    "scoring": "45cbbea6abb23df91ddadc49483daaa3ac1d15d3ecd92597ee822ce0ba578eae",
    "paraphrase": "d56d3e3923fc243ff70677fe3ba065f45949e0e91222cdbd587dc2383d5ed4d6",
}


def builder_prompts(fs):
    return {
        "json": [build_json_generation_prompt(fs, seed) for seed in range(4)],
        "question": [build_question_prompt(fs, seed) for seed in range(4)],
        "positive": [build_positive_prompt(fs, QUESTION)],
        "negative": [build_negative_prompt(fs, QUESTION, ["oil", "solar", "coal"])],
        "scoring": [build_scoring_prompt(fs, make_instance())],
        "paraphrase": [build_paraphrase_prompt(QUESTION)],
    }


@pytest.mark.parametrize("builder", sorted(PROMPT_DIGESTS))
def test_prompt_texts_are_pinned(science_fewshot, builder):
    prompts = builder_prompts(science_fewshot)[builder]
    canon = json.dumps(
        [[[m.role, m.content] for m in messages] for messages in prompts],
        ensure_ascii=False,
    )
    assert hashlib.sha256(canon.encode("utf-8")).hexdigest() == PROMPT_DIGESTS[builder]
