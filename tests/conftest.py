import numpy as np
import pytest

from mcqa_distill.core import FewShotSet, McqaInstance


def make_instance(
    instance_id="inst-0",
    topic="grade school science",
    question="Which energy resource is non-renewable?",
    choices=("oil", "solar", "water", "wind"),
    answer_index=0,
    teacher_scores=None,
):
    return McqaInstance(
        id=instance_id,
        topic=topic,
        question=question,
        choices=tuple(choices),
        answer_index=answer_index,
        teacher_scores=teacher_scores,
    )


SCIENCE_EXAMPLES = (
    (
        "Which of the following materials would best slow the transfer of heat?",
        ("aluminum", "copper", "glass", "wood"),
        3,
    ),
    (
        "In which environment is white fur color an advantage for survival?",
        ("desert", "grassland", "arctic tundra", "temperate forest"),
        2,
    ),
    (
        "The mathematical model for calculating speed is shown below. Speed = "
        "distance/time. An airplane traveled 700 kilometers in two hours during "
        "a trip. What was the average speed of the plane during the trip?",
        (
            "5.8 kilometers per hour",
            "350 kilometers per hour",
            "1400 kilometers per hour",
            "84,000 kilometers per hour",
        ),
        1,
    ),
    (
        "The aloe plant can absorb a lot of water during a rain shower. The "
        "extra water is stored in its leaves. The ability to store water in its "
        "leaves is most likely an adaptation to which type of environment?",
        (
            "one near the ocean",
            "one with dry conditions",
            "one with a variety of organisms",
            "one that receives a lot of sunlight",
        ),
        1,
    ),
    (
        "Near Earth's equator, water generally exists naturally in the liquid "
        "and gas states. In which other part of Earth is water usually found "
        "naturally in only two states?",
        ("Indian Ocean", "interior of Africa", "South Pole", "Tropic of Cancer"),
        2,
    ),
)


@pytest.fixture
def science_fewshot():
    """Five seed examples sharing one topic."""
    examples = tuple(
        make_instance(f"seed-{i}", "grade school science", q, choices, answer)
        for i, (q, choices, answer) in enumerate(SCIENCE_EXAMPLES)
    )
    return FewShotSet(topic="grade school science", examples=examples)


class FixedLogitStudent:
    """Test double scoring (question, choice) pairs from a lookup table.

    ``params`` holds the table's logits, then ``default``; each pair's
    feature vector is the single unit coordinate of its entry, so every
    logit equals its table value bit for bit.
    """

    def __init__(self, table, default=0.0):
        table = dict(table)
        self.slots = {pair: k for k, pair in enumerate(table)}
        self.params = np.array([*table.values(), default], dtype=np.float64)

    def instance_features(self, items):
        one = np.array([1.0])
        for question, choices in items:
            yield tuple(
                (np.array([self.slots.get((question, c), len(self.slots))]), one)
                for c in choices
            )


@pytest.fixture
def fixed_logit_student():
    return FixedLogitStudent
