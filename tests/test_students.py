"""Hashed-feature reference student."""

import numpy as np
import pytest

from mcqa_distill.students import ToyStudent, hashed_pair_features


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

    def test_logit_and_grad_consistent_with_forward(self):
        student = ToyStudent(n_features=2**12)
        rng = np.random.default_rng(2)
        student.weights[:] = rng.normal(size=student.n_features)
        logit, (idx, val) = student.logit_and_grad("q?", "c")
        assert logit == pytest.approx(student.forward("q?", "c"))
        assert idx.size == val.size


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
