"""Synthetic universes used by the training experiments, and the noisy-teacher
experiment's CSVs."""

import numpy as np
import pytest

from mcqa_distill.core import validate_instance
from noisy_teacher_experiment import build_noisy_teacher_universe, write_csvs

from conftest import build_separable_corpus


class TestSeparableCorpus:
    def test_marker_sits_on_gold_choice_only(self):
        corpus = build_separable_corpus(32, seed=0, marker="lodestone")
        for inst in corpus:
            assert "lodestone" in inst.gold_choice
            others = [c for i, c in enumerate(inst.choices) if i != inst.answer_index]
            assert all("lodestone" not in c for c in others)

    def test_instances_valid_and_deterministic(self):
        one = build_separable_corpus(16, seed=5)
        two = build_separable_corpus(16, seed=5)
        assert one.instances == two.instances
        assert all(validate_instance(inst) == [] for inst in one)


class TestNoisyTeacherUniverse:
    def test_teacher_accuracy_calibrated_near_target(self):
        universe = build_noisy_teacher_universe(n_train=256, n_heldout=64, seed=0)
        assert 0.6 <= universe.teacher_argmax_accuracy <= 0.8

    def test_split_shapes_and_scores(self):
        universe = build_noisy_teacher_universe(n_train=64, n_heldout=32, seed=1)
        assert len(universe.train_true) == 64
        assert len(universe.train_sampled) == 64
        assert len(universe.heldout) == 32
        assert all(inst.teacher_scores is not None for inst in universe.train_true)
        assert all(inst.teacher_scores is None for inst in universe.heldout)

    def test_sampled_labels_are_teacher_draws_not_truth(self):
        universe = build_noisy_teacher_universe(n_train=256, n_heldout=16, seed=2)
        flipped = sum(
            1
            for true, sampled in zip(universe.train_true, universe.train_sampled)
            if true.answer_index != sampled.answer_index
        )
        assert flipped > 0
        assert all(
            true.choices == sampled.choices
            for true, sampled in zip(universe.train_true, universe.train_sampled)
        )

    def test_deterministic_given_seed(self):
        one = build_noisy_teacher_universe(n_train=32, n_heldout=16, seed=3)
        two = build_noisy_teacher_universe(n_train=32, n_heldout=16, seed=3)
        assert one.train_true.instances == two.train_true.instances
        assert one.noise_scale == two.noise_scale

    def test_heldout_disjoint_from_train(self):
        universe = build_noisy_teacher_universe(n_train=64, n_heldout=32, seed=4)
        train_questions = {inst.question for inst in universe.train_true}
        assert not train_questions & {inst.question for inst in universe.heldout}


class TestCsvExports:
    def test_metric_csv(self, tmp_path):
        write_csvs({"generate": [0.5, 0.6]}, tmp_path)
        lines = (tmp_path / "generate_per_seed.csv").read_text().strip().splitlines()
        assert lines[0] == "metric,seed,value"
        assert lines[1] == "accuracy/generate,1,0.5"

    def test_summary_csv(self, tmp_path):
        values = [0.61, 0.58, 0.66, 0.59, 0.63]
        write_csvs({"generate": [0.5, 0.7], "distill_r1": values}, tmp_path)
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "metric,mean,std"
        assert lines[1].startswith("accuracy/generate,0.6")
        # Mean and population std of the per-seed values.
        metric, mean, std = lines[2].split(",")
        assert metric == "accuracy/distill_r1"
        assert float(mean) == pytest.approx(np.mean(values), abs=1e-12)
        assert float(std) == pytest.approx(np.std(values), abs=1e-12)

    def test_failed_summary_write_leaves_previous_file_intact(self, tmp_path):
        write_csvs({"generate": [0.25]}, tmp_path)
        before = (tmp_path / "summary.csv").read_bytes()
        # The first summary row is written before the second mode fails.
        with pytest.raises(TypeError):
            write_csvs({"generate": [0.5, 0.7], "distill_r1": [object()]}, tmp_path)
        assert (tmp_path / "summary.csv").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "distill_r1_per_seed.csv", "generate_per_seed.csv", "summary.csv"
        ]
