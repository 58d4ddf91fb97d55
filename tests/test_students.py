"""Hashed-feature reference student."""

import json
import zlib

import numpy as np
import pytest

from mcqa_distill.students import (
    FEATURIZE_CHUNK,
    PAIR_SEPARATOR,
    ToyStudent,
    instance_logits,
)


def reference_pair_features(pair, n_features, hash_seed):
    """The per-pair hashing the instance featurizer replaced, kept as its oracle."""
    tokens = pair.lower().split()
    terms = list(tokens)
    terms.extend(a + "\x1e" + b for a, b in zip(tokens, tokens[1:]))
    counts = {}
    for term in terms:
        idx = zlib.crc32(term.encode("utf-8"), hash_seed) % n_features
        counts[idx] = counts.get(idx, 0.0) + 1.0
    if not counts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    idx = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    val = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    val /= np.sqrt(np.sum(val * val))
    return idx, val


def reference_logit(student, question, choice):
    """One pair's logit: ``params`` dotted with the oracle's features."""
    idx, val = reference_pair_features(
        question + PAIR_SEPARATOR + choice, student.n_features, student.hash_seed
    )
    return np.dot(student.params[idx], val)


def assert_matches_reference(student, items):
    features = list(student.instance_features(items))
    assert len(features) == len(items)
    for (question, choices), per_choice in zip(items, features):
        assert len(per_choice) == len(choices)
        for choice, (idx, val) in zip(choices, per_choice):
            pair = question + PAIR_SEPARATOR + choice
            ref_idx, ref_val = reference_pair_features(
                pair, student.n_features, student.hash_seed
            )
            assert idx.dtype == np.int64 and val.dtype == np.float64
            assert idx.tobytes() == ref_idx.tobytes(), (question, choice)
            assert val.tobytes() == ref_val.tobytes(), (question, choice)


def word_items(count, seed):
    """``count`` (question, choices) items with 1 to 6 choices over a small vocabulary."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{k}" for k in range(30)] + ["ΟΔΟΣ", "Σ", "x\xa0y"]

    def text(words):
        return " ".join(rng.choice(vocab, size=words))

    return [
        (text(int(rng.integers(0, 9))),
         tuple(text(int(rng.integers(0, 4))) for _ in range(int(rng.integers(1, 7)))))
        for _ in range(count)
    ]


EDGE_ITEMS = {
    "empty_question": [("", ("copper", "iron wire"))],
    "empty_choice": [("which metal?", ("", "iron"))],
    "both_empty": [("", ("",))],
    "unicode_whitespace": [
        ("a\xa0b\u2003c\x1cd\x1de\x1ef\x1fg\x85h", ("x\u2003y", "\x85z\xa0", "\x1c"))
    ],
    "final_sigma_at_boundary": [("ΠΟΥ ΕΙΝΑΙ Ο ΔΡΟΜΟΣ ΟΔΟΣ", ("ΟΔΟΣ ΑΣ", "Σ", "ΑΣ'"))],
    "separator_in_question": [("left \ue000 right\ue000", ("\ue000", "x \ue000"))],
    "repeated_words": [("the the the cat the the", ("the the", "cat cat cat the"))],
    "one_choice": [("only one choice here", ("alone",))],
    "six_choices": [("pick one", tuple(f"choice {k} of six" for k in range(6)))],
}


class TestInstanceFeaturizer:
    @pytest.mark.parametrize("name", sorted(EDGE_ITEMS))
    @pytest.mark.parametrize("n_features", [16, 2**18])
    def test_edge_cases_match_per_pair_hashing_byte_for_byte(self, name, n_features):
        assert_matches_reference(ToyStudent(n_features=n_features), EDGE_ITEMS[name])

    @pytest.mark.parametrize("count", [FEATURIZE_CHUNK - 1, FEATURIZE_CHUNK, FEATURIZE_CHUNK + 1])
    @pytest.mark.parametrize("n_features", [1, 3, 7, 16, 2**12, 2**20])
    def test_corpora_around_the_chunk_size_match(self, count, n_features):
        # Up to 16 features force collisions, so counts above 1 and merged
        # terms occur.
        edge = [item for items in EDGE_ITEMS.values() for item in items]
        items = word_items(count, seed=count) + edge
        assert_matches_reference(ToyStudent(n_features=n_features, hash_seed=3), items)

    def test_instance_logits_equal_params_dot_reference_features(self):
        items = word_items(FEATURIZE_CHUNK + 5, seed=1)
        student = ToyStudent(n_features=2**10)
        student.weights[:] = np.random.default_rng(4).normal(size=student.n_features)
        logits = list(instance_logits(student, iter(items)))
        assert len(logits) == len(items)
        for (question, choices), row in zip(items, logits):
            expected = np.array([reference_logit(student, question, c) for c in choices])
            assert row.dtype == np.float64
            assert row.tobytes() == expected.tobytes()


def pair_features(student, question, choice):
    """The student's features of one (question, choice) pair."""
    ((idx, val),) = next(student.instance_features([(question, (choice,))]))
    return idx, val


class TestFeatures:
    def test_unit_norm_for_nonempty_text(self):
        student = ToyStudent(n_features=2**12)
        _, val = pair_features(student, "which metal?", "copper wire")
        assert np.linalg.norm(val) == pytest.approx(1.0)

    def test_deterministic_across_instances(self):
        a = ToyStudent(n_features=2**12)
        b = ToyStudent(n_features=2**12)
        fa = pair_features(a, "a question", "a choice")
        fb = pair_features(b, "a question", "a choice")
        assert np.array_equal(fa[0], fb[0])
        assert np.array_equal(fa[1], fb[1])

    def test_hash_seed_changes_indices(self):
        a = ToyStudent(n_features=2**12, hash_seed=0)
        b = ToyStudent(n_features=2**12, hash_seed=1)
        ia, _ = pair_features(a, "a question", "a choice")
        ib, _ = pair_features(b, "a question", "a choice")
        assert not np.array_equal(np.sort(ia), np.sort(ib))

    def test_bigrams_make_order_matter(self):
        student = ToyStudent(n_features=2**14)
        one = pair_features(student, "alpha beta", "x")
        two = pair_features(student, "beta alpha", "x")
        assert not np.array_equal(np.sort(one[0]), np.sort(two[0]))

    def test_case_folding(self):
        student = ToyStudent(n_features=2**12)
        lower = pair_features(student, "copper wire", "a")
        upper = pair_features(student, "Copper WIRE", "a")
        assert np.array_equal(np.sort(lower[0]), np.sort(upper[0]))

    def test_empty_pair_keeps_boundary_token(self):
        student = ToyStudent(n_features=2**10)
        idx, val = pair_features(student, "", "")
        assert idx.size == 1  # the boundary token alone
        assert np.linalg.norm(val) == pytest.approx(1.0)

    def test_boundary_distinguishes_question_from_choice(self):
        student = ToyStudent(n_features=2**12)
        left = pair_features(student, "alpha beta", "gamma")
        right = pair_features(student, "alpha", "beta gamma")
        assert not np.array_equal(np.sort(left[0]), np.sort(right[0]))


def logits_of(student, question, choices):
    """The student's logits for one (question, choices) item."""
    return next(instance_logits(student, [(question, choices)]))


class TestLogits:
    def test_zero_weights_score_zero(self):
        student = ToyStudent(n_features=2**12)
        assert logits_of(student, "q", ("c",)).tolist() == [0.0]

    def test_logits_match_reference_dot(self):
        student = ToyStudent(n_features=2**12)
        rng = np.random.default_rng(0)
        student.weights[:] = rng.normal(size=student.n_features)
        (logit,) = logits_of(student, "what is it?", ("a thing",))
        assert logit == reference_logit(student, "what is it?", "a thing")

    def test_choice_scoring_is_independent_per_choice(self):
        """Scoring a choice does not depend on sibling choices."""
        student = ToyStudent(n_features=2**12)
        rng = np.random.default_rng(1)
        student.weights[:] = rng.normal(size=student.n_features)
        (alone,) = logits_of(student, "the question", ("candidate one",))
        among = logits_of(student, "the question", ("candidate two", "candidate one", "x"))
        assert alone == among[1]


def model_header(**fields):
    header = {"format": "mcqa-toy-student", "version": 1, "n_features": 4, "hash_seed": 0}
    header.update(fields)
    return json.dumps({k: v for k, v in header.items() if v is not None}).encode()


FOUR_WEIGHTS = np.zeros(4, dtype="<f8").tobytes()

# (header line, weight bytes) of files ``ToyStudent.load`` must reject.
MALFORMED_MODELS = {
    "header_not_json": (b"{not json", FOUR_WEIGHTS),
    "header_is_a_list": (b'["mcqa-toy-student", 1, 4, 0]', FOUR_WEIGHTS),
    "missing_hash_seed": (model_header(hash_seed=None), FOUR_WEIGHTS),
    "n_features_is_a_string": (model_header(n_features="4"), FOUR_WEIGHTS),
    "n_features_is_a_bool": (model_header(n_features=True), np.zeros(1, "<f8").tobytes()),
    "hash_seed_is_a_float": (model_header(hash_seed=0.0), FOUR_WEIGHTS),
    "n_features_not_positive": (model_header(n_features=0), b""),
    "version_is_a_bool": (model_header(version=True), FOUR_WEIGHTS),
    "too_few_weights": (model_header(), FOUR_WEIGHTS[:-8]),
    "partial_weight": (model_header(), FOUR_WEIGHTS[:-3]),
    "nan_weight": (model_header(), np.array([0.0, np.nan, 1.0, 0.0], "<f8").tobytes()),
    "infinite_weight": (model_header(), np.array([0.0, 0.0, 0.0, -np.inf], "<f8").tobytes()),
}


class TestSerialization:
    def test_round_trip(self, tmp_path):
        student = ToyStudent(n_features=2**12, hash_seed=7)
        rng = np.random.default_rng(3)
        student.weights[:] = rng.normal(size=student.n_features)
        path = tmp_path / "model.bin"
        student.save(path)
        loaded = ToyStudent.load(path)
        assert loaded.n_features == student.n_features
        assert loaded.hash_seed == student.hash_seed
        assert np.array_equal(loaded.weights, student.weights)

    def test_reject_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            ToyStudent.load(path)

    @pytest.mark.parametrize("name", sorted(MALFORMED_MODELS))
    def test_malformed_file_raises_value_error_naming_it(self, tmp_path, name):
        header, blob = MALFORMED_MODELS[name]
        path = tmp_path / "broken.bin"
        path.write_bytes(header + b"\n" + blob)
        with pytest.raises(ValueError, match="broken.bin"):
            ToyStudent.load(path)

    def test_saved_bytes_are_deterministic(self, tmp_path):
        student = ToyStudent(n_features=2**10)
        student.weights[5] = 1.25
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        student.save(a)
        student.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_save_leaves_previous_file_intact(self, tmp_path):
        class FailsMidWrite(np.ndarray):
            # save writes the header first, then converts the weights.
            def astype(self, *args, **kwargs):
                raise OSError("disk full")

        path = tmp_path / "model.bin"
        student = ToyStudent(n_features=2**10)
        student.weights[3] = 0.5
        student.save(path)
        before = path.read_bytes()
        student.weights = np.ones(student.n_features).view(FailsMidWrite)
        with pytest.raises(OSError, match="disk full"):
            student.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
