"""Hashed-feature reference student."""

import zlib

import numpy as np
import pytest

from mcqa_distill.students import (
    FEATURIZE_CHUNK,
    PAIR_SEPARATOR,
    ToyStudent,
    hashed_pair_features,
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
            one_idx, one_val = hashed_pair_features(pair, student.n_features, student.hash_seed)
            for got_idx, got_val in ((idx, val), (one_idx, one_val)):
                assert got_idx.dtype == np.int64 and got_val.dtype == np.float64
                assert got_idx.tobytes() == ref_idx.tobytes(), (question, choice)
                assert got_val.tobytes() == ref_val.tobytes(), (question, choice)


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
    @pytest.mark.parametrize("n_features", [16, 2**12])
    def test_corpora_around_the_chunk_size_match(self, count, n_features):
        # 16 features forces collisions, so counts above 1 and merged terms occur.
        edge = [item for items in EDGE_ITEMS.values() for item in items]
        items = word_items(count, seed=count) + edge
        assert_matches_reference(ToyStudent(n_features=n_features, hash_seed=3), items)

    def test_instance_logits_equal_forward_for_every_student(self):
        items = word_items(FEATURIZE_CHUNK + 5, seed=1)
        student = ToyStudent(n_features=2**10)
        student.weights[:] = np.random.default_rng(4).normal(size=student.n_features)

        class ForwardOnly:
            forward = staticmethod(student.forward)

        for scorer in (student, ForwardOnly()):
            logits = list(instance_logits(scorer, iter(items)))
            assert len(logits) == len(items)
            for (question, choices), row in zip(items, logits):
                expected = np.array([student.forward(question, c) for c in choices])
                assert row.dtype == np.float64
                assert row.tobytes() == expected.tobytes()


class TestFeatures:
    def test_unit_norm_for_nonempty_text(self):
        student = ToyStudent(n_features=2**12)
        _, val = student.features("which metal?", "copper wire")
        assert np.linalg.norm(val) == pytest.approx(1.0)

    def test_deterministic_across_instances(self):
        a = ToyStudent(n_features=2**12)
        b = ToyStudent(n_features=2**12)
        fa = a.features("a question", "a choice")
        fb = b.features("a question", "a choice")
        assert np.array_equal(fa[0], fb[0])
        assert np.array_equal(fa[1], fb[1])

    def test_hash_seed_changes_indices(self):
        a = ToyStudent(n_features=2**12, hash_seed=0)
        b = ToyStudent(n_features=2**12, hash_seed=1)
        ia, _ = a.features("a question", "a choice")
        ib, _ = b.features("a question", "a choice")
        assert not np.array_equal(np.sort(ia), np.sort(ib))

    def test_bigrams_make_order_matter(self):
        student = ToyStudent(n_features=2**14)
        one = student.features("alpha beta", "x")
        two = student.features("beta alpha", "x")
        assert not np.array_equal(np.sort(one[0]), np.sort(two[0]))

    def test_case_folding(self):
        student = ToyStudent(n_features=2**12)
        lower = student.features("copper wire", "a")
        upper = student.features("Copper WIRE", "a")
        assert np.array_equal(np.sort(lower[0]), np.sort(upper[0]))

    def test_empty_text_yields_no_features(self):
        idx, val = hashed_pair_features("", 2**10, 0)
        assert idx.size == 0
        assert val.size == 0

    def test_empty_pair_keeps_boundary_token(self):
        student = ToyStudent(n_features=2**10)
        idx, val = student.features("", "")
        assert idx.size == 1  # the boundary token alone
        assert np.linalg.norm(val) == pytest.approx(1.0)

    def test_boundary_distinguishes_question_from_choice(self):
        student = ToyStudent(n_features=2**12)
        left = student.features("alpha beta", "gamma")
        right = student.features("alpha", "beta gamma")
        assert not np.array_equal(np.sort(left[0]), np.sort(right[0]))


class TestForward:
    def test_zero_weights_score_zero(self):
        student = ToyStudent(n_features=2**12)
        assert student.forward("q", "c") == 0.0

    def test_forward_matches_manual_dot(self):
        student = ToyStudent(n_features=2**12)
        rng = np.random.default_rng(0)
        student.weights[:] = rng.normal(size=student.n_features)
        idx, val = student.features("what is it?", "a thing")
        assert student.forward("what is it?", "a thing") == pytest.approx(
            float(np.dot(student.weights[idx], val))
        )

    def test_choice_scoring_is_independent_per_choice(self):
        """Scoring a choice does not depend on sibling choices."""
        student = ToyStudent(n_features=2**12)
        rng = np.random.default_rng(1)
        student.weights[:] = rng.normal(size=student.n_features)
        alone = student.forward("the question", "candidate one")
        again = student.forward("the question", "candidate one")
        assert alone == again


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
