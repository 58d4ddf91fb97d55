"""Identifier mapping, instance validation and the seeded shuffle."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, strategies as st

from mcqa_distill.core import (
    ANSWER_RANGE,
    DUPLICATE_CHOICE,
    EMPTY_FIELD,
    SCORE_LENGTH,
    SCORE_NONFINITE,
    TOO_FEW_CHOICES,
    TOO_MANY_CHOICES,
    ChatMessage,
    FewShotSet,
    IdentifierRangeError,
    Provenance,
    index_to_identifier,
    identifier_to_index,
    shuffled,
    stable_seed,
    validate_instance,
    write_json,
)
from mcqa_distill.config import write_manifest

from conftest import make_instance


class TestIdentifiers:
    def test_first_position(self):
        assert index_to_identifier(0) == "A"

    def test_fourth_position(self):
        assert index_to_identifier(3) == "D"

    def test_cap_boundary(self):
        assert index_to_identifier(25) == "Z"
        with pytest.raises(IdentifierRangeError):
            index_to_identifier(26)
        with pytest.raises(IdentifierRangeError):
            index_to_identifier(-1)

    @given(st.integers(min_value=0, max_value=25))
    def test_round_trip(self, i):
        assert identifier_to_index(index_to_identifier(i)) == i

    def test_injective(self):
        letters = {index_to_identifier(i) for i in range(26)}
        assert len(letters) == 26

    def test_lowercase_and_padding_accepted(self):
        assert identifier_to_index(" c ") == 2

    def test_garbage_identifier(self):
        with pytest.raises(IdentifierRangeError):
            identifier_to_index("AB")


class TestValidateInstance:
    def test_well_formed(self):
        assert validate_instance(make_instance(answer_index=1)) == []

    def test_answer_out_of_range(self):
        inst = make_instance(answer_index=5)
        assert validate_instance(inst) == [ANSWER_RANGE]

    def test_duplicate_after_trimming(self):
        inst = make_instance(choices=("wood", "wood "), answer_index=0)
        assert DUPLICATE_CHOICE in validate_instance(inst)

    def test_duplicate_after_case_folding(self):
        inst = make_instance(choices=("Wood", "wood", "glass"), answer_index=0)
        assert DUPLICATE_CHOICE in validate_instance(inst)

    def test_empty_question(self):
        inst = make_instance(question="   ")
        assert EMPTY_FIELD in validate_instance(inst)

    def test_empty_choice(self):
        inst = make_instance(choices=("oil", " ", "wind"), answer_index=0)
        assert EMPTY_FIELD in validate_instance(inst)

    def test_too_few_choices(self):
        inst = make_instance(choices=("only",), answer_index=0)
        assert TOO_FEW_CHOICES in validate_instance(inst)

    def test_too_many_choices(self):
        inst = make_instance(
            choices=tuple(f"c{i}" for i in range(27)), answer_index=0
        )
        assert TOO_MANY_CHOICES in validate_instance(inst)

    def test_score_length_mismatch(self):
        inst = make_instance(teacher_scores=(0.1, 0.2))
        assert SCORE_LENGTH in validate_instance(inst)

    def test_score_nonfinite(self):
        inst = make_instance(teacher_scores=(0.1, float("nan"), 0.2, 0.3))
        assert SCORE_NONFINITE in validate_instance(inst)

    def test_multiple_violations_all_reported(self):
        inst = make_instance(
            question="", choices=("a", "a"), answer_index=7, teacher_scores=(1.0,)
        )
        codes = set(validate_instance(inst))
        assert {EMPTY_FIELD, DUPLICATE_CHOICE, ANSWER_RANGE, SCORE_LENGTH} <= codes

    @given(st.data())
    def test_single_field_mutations_are_caught(self, data):
        """Mutate one field of a well-formed instance; validation must flag it."""
        base = make_instance(answer_index=1)
        mutation = data.draw(
            st.sampled_from(["question", "answer_low", "answer_high", "dup", "scores"])
        )
        if mutation == "question":
            broken = dataclasses.replace(base, question=" ")
        elif mutation == "answer_low":
            broken = dataclasses.replace(base, answer_index=-1)
        elif mutation == "answer_high":
            broken = dataclasses.replace(base, answer_index=len(base.choices))
        elif mutation == "dup":
            choices = list(base.choices)
            choices[0] = choices[-1].upper() + "  "
            broken = dataclasses.replace(base, choices=tuple(choices))
        else:
            broken = dataclasses.replace(base, teacher_scores=(1.0, 2.0))
        assert validate_instance(base) == []
        assert validate_instance(broken) != []


class TestOtherTypes:
    def test_chat_message_rejects_empty_user_content(self):
        with pytest.raises(ValueError):
            ChatMessage("user", "  ")

    def test_chat_message_allows_any_system_content(self):
        assert ChatMessage("system", "").content == ""

    def test_fewshot_requires_shared_topic(self):
        a = make_instance("a", topic="physics")
        b = make_instance("b", topic="history")
        with pytest.raises(ValueError):
            FewShotSet(topic="physics", examples=(a, b))

    def test_fewshot_requires_examples(self):
        with pytest.raises(ValueError):
            FewShotSet(topic="physics", examples=())

    def test_stable_seed_is_deterministic_and_split(self):
        assert stable_seed(1, "x", 2) == stable_seed(1, "x", 2)
        assert stable_seed(1, "x", 2) != stable_seed(1, "x", 3)


class TestShuffled:
    def test_deals_as_an_in_place_shuffle_does(self):
        """The order ``cumulative_subsets`` and the prompts always had."""
        for n in range(40):
            items = [f"item {k}" for k in range(n)]
            for seed in range(200):
                in_place = list(items)
                random.Random(seed).shuffle(in_place)
                assert shuffled(items, seed) == in_place

    def test_returns_a_new_permutation_leaving_items_alone(self):
        items = tuple(range(10))
        dealt = shuffled(items, 3)
        assert isinstance(dealt, list) and sorted(dealt) == list(items)
        assert dealt != list(items) and items == tuple(range(10))
        assert shuffled(items, 3) == dealt


class TestProvenance:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"gen_temperature": float("nan")}, "gen_temperature must be finite and >= 0: nan"),
            ({"gen_temperature": float("inf")}, "gen_temperature must be finite and >= 0: inf"),
            ({"gen_temperature": -0.5}, "gen_temperature must be finite and >= 0: -0.5"),
            ({"attempt": -1}, "attempt must be >= 0: -1"),
        ],
        ids=["temperature_nan", "temperature_inf", "temperature_negative", "attempt_negative"],
    )
    def test_out_of_range_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Provenance("json", **kwargs)

    def test_lower_bounds_accepted(self):
        assert Provenance("json", 0.0, 0).attempt == 0
        assert Provenance("json", -0.0, 0).gen_temperature == 0.0


class TestWriteJson:
    def test_bytes_and_parent_directories(self, tmp_path):
        payload = {"b": [1, 2], "a": "caf\u00e9"}
        path = tmp_path / "new" / "dir" / "out.json"
        write_json(payload, path)
        expected = json.dumps(payload, sort_keys=True, indent=1, ensure_ascii=False)
        assert path.read_bytes() == (expected + "\n").encode("utf-8")

    def test_failed_manifest_write_leaves_previous_intact(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        write_manifest(tmp_path / "run", {"training": {"seed": 0}}, 0, {"train": 0.0}, {"n": 1})
        before = path.read_bytes()
        # "config" sorts before "counts", so part of the manifest is written
        # before the unserialisable count is reached.
        with pytest.raises(TypeError):
            write_manifest(tmp_path / "run", {"training": {"seed": 1}}, 1, {}, {"n": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.manifest.json"]
