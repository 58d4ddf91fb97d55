"""Accuracy and similarity."""

import tracemalloc
import zlib

import numpy as np
import pytest

from mcqa_distill.datasets import Corpus, CorpusMeta
from mcqa_distill.distillation import TrainConfig, train
from mcqa_distill.evaluation import (
    EMBED_DIM,
    EmptyCorpus,
    HashedTfEmbedder,
    evaluate_accuracy,
    similarity_stats,
)
from mcqa_distill.students import FEATURIZE_CHUNK, ToyStudent

from conftest import FixedLogitStudent, build_separable_corpus, make_instance
from test_students import reference_logit


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

    @pytest.mark.parametrize(
        "golds, widths",
        [([0] * 8, [4] * 8), ([k % 4 for k in range(8)], [4] * 8), ([1, 3], [2, 4])],
        ids=["gold_first", "gold_spread", "mixed_widths"],
    )
    def test_zero_weight_student_scores_one_over_the_choice_count(self, golds, widths):
        """A C-way tie holding the gold counts 1/C, wherever the golds sit."""
        four = ("oil", "solar", "water", "wind")
        instances = [
            make_instance(f"i{k}", question=f"q{k}?", choices=four[:w], answer_index=gold)
            for k, (gold, w) in enumerate(zip(golds, widths))
        ]
        accuracy = evaluate_accuracy(ToyStudent(n_features=2**10), corpus_of(*instances))
        assert accuracy == sum(1 / w for w in widths) / len(widths)

    def test_tie_credit_is_one_over_its_width(self):
        """Gold alone on top: 1. Gold in a two-way top tie: 1/2. Gold below
        a tie: 0."""
        instances = [make_instance(f"i{k}", question=f"q{k}?", answer_index=0) for k in range(3)]
        top = {0: ["oil"], 1: ["oil", "solar"], 2: ["solar", "water"]}  # gold: "oil"
        table = {(f"q{k}?", choice): 2.0 for k, choices in top.items() for choice in choices}
        accuracy = evaluate_accuracy(FixedLogitStudent(table), corpus_of(*instances))
        assert accuracy == (1 + 1 / 2 + 0) / 3

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
            TrainConfig(iterations=3, batch_size=2, seed=2),
        )
        corpus = build_separable_corpus(3 * FEATURIZE_CHUNK + 7, num_choices=5, seed=9)
        hits = sum(
            int(np.argmax([reference_logit(student, inst.question, c) for c in inst.choices]))
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


def dense_embedding(text, dim, hash_seed=0):
    """The dense oracle: L2-normalized hashed term counts, one term at a time."""
    vec = np.zeros(dim, dtype=np.float64)
    for term in text.lower().split():
        vec[zlib.crc32(term.encode("utf-8"), hash_seed) % dim] += 1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def dense_similarity(generated, reference, dim):
    """``similarity_stats`` computed densely: every question a ``dim``-long
    vector, all cosines one matrix product."""
    gen = np.stack([dense_embedding(inst.question, dim) for inst in generated.instances])
    ref = np.stack([dense_embedding(inst.question, dim) for inst in reference.instances])
    best = (gen @ ref.T).max(axis=1)
    return {"avg_of_max": float(best.mean()), "max_of_max": float(best.max())}


def dense(embedder, text):
    """One text's sparse embedding scattered into a ``dim``-long vector."""
    ((idx, val),) = embedder.embed_sparse([text])
    vec = np.zeros(embedder.dim, dtype=np.float64)
    vec[idx] = val
    return vec


def random_questions(rng, count, prefix):
    """Questions over a small shared vocabulary, with repeated terms and
    some empty ones, so rows overlap, collide and repeat."""
    vocab = ["the", "which", "of", "is"] + [f"w{k}" for k in range(60)]
    questions = [" ".join(rng.choice(vocab, size=rng.integers(0, 12))) for _ in range(count)]
    return [make_instance(f"{prefix}{k}", question=q) for k, q in enumerate(questions)]


class TestSimilarityStats:
    @pytest.mark.parametrize("dim", [2**5, 2**12, EMBED_DIM])
    def test_agrees_with_dense_oracle(self, dim):
        rng = np.random.default_rng(dim)
        generated = corpus_of(*random_questions(rng, 60, "g"))
        reference = corpus_of(*random_questions(rng, 9, "r"))
        stats = similarity_stats(generated, reference, HashedTfEmbedder(dim=dim))
        expected = dense_similarity(generated, reference, dim)
        assert stats.keys() == expected.keys()
        for key in expected:
            assert abs(stats[key] - expected[key]) <= 1e-12, key

    def test_peak_memory_does_not_scale_with_dim_times_corpus(self):
        rng = np.random.default_rng(0)
        generated = corpus_of(*random_questions(rng, 512, "g"))
        reference = corpus_of(*random_questions(rng, 5, "r"))
        embedder = HashedTfEmbedder()
        similarity_stats(reference, reference, embedder)  # warm lazy imports
        tracemalloc.start()
        try:
            similarity_stats(generated, reference, embedder)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

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
        assert np.linalg.norm(dense(embedder, "three word text")) == pytest.approx(1.0)

    def test_deterministic(self):
        embedder = HashedTfEmbedder(dim=2**12)
        assert np.array_equal(dense(embedder, "same text"), dense(embedder, "same text"))

    def test_empty_text_is_zero_vector(self):
        embedder = HashedTfEmbedder(dim=2**12)
        assert np.linalg.norm(dense(embedder, "")) == 0.0

    def test_equals_dense_oracle(self):
        embedder = HashedTfEmbedder(dim=2**6, hash_seed=3)
        for text in ["", "one", "Repeat repeat REPEAT once", "a b c d e f g h i j k l m n o p"]:
            expected = dense_embedding(text, embedder.dim, hash_seed=3)
            assert np.array_equal(dense(embedder, text), expected), text

