"""Accuracy, binary heuristic with F1, multi-seed aggregation, similarity."""

import tracemalloc

import numpy as np
import pytest

from mcqa_distill.datasets import Corpus, CorpusMeta
from mcqa_distill.distillation import TrainConfig, train
from mcqa_distill.evaluation import (
    EmptyCorpus,
    EvalResult,
    HashedTfEmbedder,
    SeedPipelineError,
    binary_threshold,
    evaluate_accuracy,
    evaluate_binary_f1,
    explode_binary_pairs,
    multi_seed,
    similarity_stats,
    write_metric_csv,
    write_summary_csv,
)
from mcqa_distill.students import FEATURIZE_CHUNK, ToyStudent
from mcqa_distill.synthetic import build_separable_corpus

from conftest import FixedLogitStudent, make_instance


def corpus_of(*instances):
    return Corpus(tuple(instances), CorpusMeta())


class TestEvaluateAccuracy:
    def test_always_right_student(self):
        instances = [
            make_instance(f"i{k}", question=f"q{k}?", answer_index=k % 4) for k in range(8)
        ]
        table = {
            (inst.question, inst.gold_choice): 5.0 for inst in instances
        }
        assert evaluate_accuracy(FixedLogitStudent(table), corpus_of(*instances)) == 1.0

    def test_zero_weight_student_ties_break_to_first_choice(self):
        instances = [
            make_instance(f"i{k}", question=f"q{k}?", answer_index=k % 4) for k in range(8)
        ]
        accuracy = evaluate_accuracy(ToyStudent(n_features=2**10), corpus_of(*instances))
        gold_at_zero = sum(1 for inst in instances if inst.answer_index == 0)
        assert accuracy == gold_at_zero / len(instances)

    def test_headline_arithmetic(self):
        instances = [
            make_instance(f"i{k}", question=f"q{k}?", answer_index=0) for k in range(1000)
        ]
        table = {}
        for k, inst in enumerate(instances):
            winner = inst.choices[0] if k < 393 else inst.choices[1]
            table[(inst.question, winner)] = 3.0
        accuracy = evaluate_accuracy(FixedLogitStudent(table), corpus_of(*instances))
        assert accuracy == pytest.approx(0.393)

    def test_monotone_logit_transform_is_irrelevant(self):
        instances = [make_instance(f"i{k}", question=f"q{k}?", answer_index=2) for k in range(5)]
        base = {
            (inst.question, choice): float(j)
            for inst in instances
            for j, choice in enumerate(inst.choices)
        }
        doubled = {pair: 2.0 * logit + 3.0 for pair, logit in base.items()}
        corpus = corpus_of(*instances)
        assert evaluate_accuracy(FixedLogitStudent(base), corpus) == evaluate_accuracy(
            FixedLogitStudent(doubled), corpus
        )

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            evaluate_accuracy(ToyStudent(n_features=16), corpus_of())


def distinct_instances(count, seed=0):
    """Instances sharing no question and no choice, 17-word questions."""
    rng = np.random.default_rng(seed)
    words = lambda k: " ".join(f"v{n}" for n in rng.integers(0, 1 << 20, size=k))
    return [
        make_instance(f"d{k}", question=words(17), choices=[words(3) for _ in range(4)],
                      answer_index=k % 4)
        for k in range(count)
    ]


class TestEvaluateStreams:
    def test_trained_student_accuracy_equals_pair_by_pair_argmax(self):
        student, _ = train(
            ToyStudent(n_features=2**12),
            build_separable_corpus(64, seed=1).instances,
            TrainConfig(iterations=3, micro_batch=2, grad_accumulation=1, seed=2),
        )
        corpus = build_separable_corpus(3 * FEATURIZE_CHUNK + 7, num_choices=5, seed=9)
        hits = sum(
            int(np.argmax([student.forward(inst.question, c) for c in inst.choices]))
            == inst.answer_index
            for inst in corpus.instances
        )
        accuracy = evaluate_accuracy(student, corpus)
        assert accuracy == hits / len(corpus)
        assert 0.0 < accuracy < 1.0

    def test_peak_memory_does_not_grow_with_corpus_length(self):
        student = ToyStudent(n_features=2**12)
        instances = distinct_instances(8 * FEATURIZE_CHUNK)

        def peak(corpus):
            tracemalloc.start()
            try:
                evaluate_accuracy(student, corpus)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_chunk = corpus_of(*instances[:FEATURIZE_CHUNK])
        eight_chunks = corpus_of(*instances)
        evaluate_accuracy(student, one_chunk)  # warm lazy imports and caches
        assert peak(eight_chunks) <= 1.5 * peak(one_chunk)


class TestBinaryThreshold:
    def test_hand_computed_mean(self):
        inst = make_instance(choices=("a", "b", "c", "d"), answer_index=0)
        table = {
            (inst.question, "a"): 2.0,
            (inst.question, "b"): 0.0,
            (inst.question, "c"): 1.0,
            (inst.question, "d"): -1.0,
        }
        assert binary_threshold(FixedLogitStudent(table), corpus_of(inst)) == 0.5

    def test_constant_logits(self):
        inst = make_instance()
        assert binary_threshold(FixedLogitStudent({}, default=3.25), corpus_of(inst)) == 3.25

    def test_duplicating_the_corpus_keeps_the_mean(self):
        one = make_instance("one", question="q1?")
        two = make_instance("two", question="q1?")
        student = FixedLogitStudent(
            {("q1?", c): float(j) for j, c in enumerate(one.choices)}
        )
        assert binary_threshold(student, corpus_of(one)) == binary_threshold(
            student, corpus_of(one, two)
        )

    def test_empty_rejected(self):
        with pytest.raises(EmptyCorpus):
            binary_threshold(ToyStudent(n_features=16), corpus_of())


class TestBinaryF1:
    def test_two_tp_one_fp_one_fn(self):
        pairs = [("q", "tp1", 1), ("q", "tp2", 1), ("q", "fp", 0), ("q", "fn", 1)]
        table = {("q", "tp1"): 1.0, ("q", "tp2"): 1.0, ("q", "fp"): 1.0, ("q", "fn"): -1.0}
        f1 = evaluate_binary_f1(FixedLogitStudent(table), pairs, threshold=0.0)
        assert f1 == pytest.approx(2 / 3)

    def test_perfect_separation(self):
        pairs = [("q", f"pos{k}", 1) for k in range(4)] + [
            ("q", f"neg{k}", 0) for k in range(8)
        ]
        table = {("q", f"pos{k}"): 2.0 for k in range(4)}
        table.update({("q", f"neg{k}"): -2.0 for k in range(8)})
        student = FixedLogitStudent(table)
        threshold = float(np.mean(list(table.values())))
        assert evaluate_binary_f1(student, pairs, threshold) == 1.0

    def test_all_negative_predictions_on_positive_labels(self):
        pairs = [("q", f"c{k}", 1) for k in range(3)]
        student = FixedLogitStudent({}, default=-1.0)
        assert evaluate_binary_f1(student, pairs, threshold=0.0) == 0.0

    def test_swapping_equal_pairs_is_symmetric(self):
        pairs = [("q", "a", 1), ("q", "b", 0), ("q", "c", 1)]
        table = {("q", "a"): 1.0, ("q", "b"): 1.0, ("q", "c"): -1.0}
        student = FixedLogitStudent(table)
        forward = evaluate_binary_f1(student, pairs, 0.0)
        swapped = evaluate_binary_f1(student, [pairs[2], pairs[1], pairs[0]], 0.0)
        assert forward == swapped

    def test_explode_binary_pairs_labels(self):
        inst = make_instance(answer_index=2)
        pairs = explode_binary_pairs(corpus_of(inst))
        assert [label for _, _, label in pairs] == [0, 0, 1, 0]
        assert all(question == inst.question for question, _, _ in pairs)


class TestMultiSeed:
    def test_five_seeds(self):
        result = multi_seed(lambda seed: seed / 10.0, [1, 2, 3, 4, 5])
        assert len(result.per_seed) == 5
        assert result.mean == pytest.approx(0.3)

    def test_repeated_seed_has_zero_std(self):
        result = multi_seed(lambda seed: 0.25 + seed * 0.0, [7, 7, 7])
        assert result.std == 0.0

    def test_mean_and_std_match_recomputation(self):
        values = [0.61, 0.58, 0.66, 0.59, 0.63]
        result = multi_seed(lambda seed: values[seed], [0, 1, 2, 3, 4])
        assert result.mean == pytest.approx(np.mean(values), abs=1e-12)
        assert result.std == pytest.approx(np.std(values), abs=1e-12)
        assert abs(result.mean - np.mean(result.per_seed)) <= 1e-12

    def test_failure_is_tagged_with_seed(self):
        def pipeline(seed):
            if seed == 3:
                raise RuntimeError("model diverged")
            return 0.5

        with pytest.raises(SeedPipelineError) as excinfo:
            multi_seed(pipeline, [1, 2, 3])
        assert excinfo.value.seed == 3

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError):
            multi_seed(lambda seed: 0.0, [])


class TestSimilarityStats:
    def test_identical_corpora_hit_one(self):
        instances = [make_instance(f"i{k}", question=f"the question {k}?") for k in range(4)]
        stats = similarity_stats(
            corpus_of(*instances), corpus_of(*instances), HashedTfEmbedder(dim=2**12)
        )
        assert stats["avg_of_max"] == pytest.approx(1.0)
        assert stats["max_of_max"] == pytest.approx(1.0)

    def test_disjoint_vocabulary_scores_zero(self):
        left = corpus_of(make_instance("l", question="alpha beta gamma"))
        right = corpus_of(make_instance("r", question="delta epsilon zeta"))
        stats = similarity_stats(left, right, HashedTfEmbedder(dim=2**12))
        assert stats["avg_of_max"] == pytest.approx(0.0)
        assert stats["max_of_max"] == pytest.approx(0.0)

    def test_avg_bounded_by_max(self):
        generated = corpus_of(
            make_instance("g1", question="solar panels convert light"),
            make_instance("g2", question="unrelated pottery methods"),
        )
        reference = corpus_of(make_instance("r1", question="solar panels convert light"))
        stats = similarity_stats(generated, reference, HashedTfEmbedder(dim=2**12))
        assert stats["avg_of_max"] <= stats["max_of_max"] <= 1.0 + 1e-12

    def test_duplicate_reference_never_decreases(self):
        generated = corpus_of(
            make_instance("g1", question="one two three"),
            make_instance("g2", question="four five six"),
        )
        reference = corpus_of(make_instance("r1", question="one two seven"))
        extended = corpus_of(
            make_instance("r1", question="one two seven"),
            make_instance("r2", question="one two seven extended"),
        )
        embedder = HashedTfEmbedder(dim=2**12)
        before = similarity_stats(generated, reference, embedder)
        after = similarity_stats(generated, extended, embedder)
        assert after["avg_of_max"] >= before["avg_of_max"] - 1e-12
        assert after["max_of_max"] >= before["max_of_max"] - 1e-12

    def test_questions_only_choices_ignored(self):
        left = corpus_of(make_instance("l", question="alpha beta", choices=("same", "copy"), answer_index=0))
        right = corpus_of(make_instance("r", question="gamma delta", choices=("same", "copy"), answer_index=0))
        stats = similarity_stats(left, right, HashedTfEmbedder(dim=2**12))
        assert stats["max_of_max"] == pytest.approx(0.0)

    def test_empty_side_rejected(self):
        with pytest.raises(EmptyCorpus):
            similarity_stats(corpus_of(), corpus_of(make_instance()), HashedTfEmbedder())


class TestEmbedder:
    def test_unit_norm_for_nonempty(self):
        embedder = HashedTfEmbedder(dim=2**12)
        assert np.linalg.norm(embedder.embed("three word text")) == pytest.approx(1.0)

    def test_deterministic(self):
        embedder = HashedTfEmbedder(dim=2**12)
        assert np.array_equal(embedder.embed("same text"), embedder.embed("same text"))

    def test_empty_text_is_zero_vector(self):
        embedder = HashedTfEmbedder(dim=2**12)
        assert np.linalg.norm(embedder.embed("")) == 0.0


class TestCsvExports:
    def test_metric_csv(self, tmp_path):
        result = EvalResult.from_values("accuracy", [0.5, 0.6])
        path = tmp_path / "metrics.csv"
        write_metric_csv(result, [1, 2], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,seed,value"
        assert lines[1] == "accuracy,1,0.5"

    def test_summary_csv(self, tmp_path):
        results = [EvalResult.from_values("accuracy", [0.5, 0.7])]
        path = tmp_path / "summary.csv"
        write_summary_csv(results, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,mean,std"
        assert lines[1].startswith("accuracy,0.6")
