"""Student evaluation: MCQA accuracy, the binary-classification heuristic
with F1, multi-seed aggregation, and embedding-similarity statistics.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .students import instance_logits

EMBED_DIM = 2**16


class EmptyCorpus(ValueError):
    """An evaluation was asked to run over zero instances."""


class SeedPipelineError(RuntimeError):
    """A per-seed pipeline run failed; carries the seed."""

    def __init__(self, seed: int, message: str):
        super().__init__(f"seed {seed}: {message}")
        self.seed = seed


@dataclass(frozen=True)
class EvalResult:
    metric_name: str
    per_seed: tuple
    mean: float
    std: float

    @classmethod
    def from_values(cls, metric_name: str, values: Sequence[float]) -> "EvalResult":
        arr = np.asarray(list(values), dtype=np.float64)
        return cls(
            metric_name=metric_name,
            per_seed=tuple(float(v) for v in arr),
            mean=float(arr.mean()),
            std=float(arr.std()),
        )


def _instances(corpus) -> tuple:
    return tuple(getattr(corpus, "instances", corpus))


def _logits(student, instances) -> Iterator[np.ndarray]:
    return instance_logits(student, ((inst.question, inst.choices) for inst in instances))


def evaluate_accuracy(student, corpus) -> float:
    """Fraction of instances whose top student logit sits at the gold index.

    Ties break toward the lowest index, so a zero-weight student picks
    choice 0 everywhere. Logits are computed a featurizer chunk at a time.
    """
    instances = _instances(corpus)
    if not instances:
        raise EmptyCorpus("cannot evaluate an empty corpus")
    hits = sum(
        int(np.argmax(logits)) == inst.answer_index
        for inst, logits in zip(instances, _logits(student, instances))
    )
    return hits / len(instances)


def binary_threshold(student, corpus) -> float:
    """Mean student logit over every (question, choice) pair in the corpus.

    The heuristic's decision threshold; compute it on whatever calibration
    corpus the caller designates.
    """
    instances = _instances(corpus)
    if not instances:
        raise EmptyCorpus("cannot compute a threshold over an empty corpus")
    return float(np.mean(np.concatenate(list(_logits(student, instances)))))


def explode_binary_pairs(corpus) -> List[Tuple[str, str, int]]:
    """(question, choice, label) pairs; label 1 iff the choice is the gold one."""
    return [
        (inst.question, choice, int(i == inst.answer_index))
        for inst in _instances(corpus)
        for i, choice in enumerate(inst.choices)
    ]


def evaluate_binary_f1(
    student, labeled_pairs: Sequence[Tuple[str, str, int]], threshold: float
) -> float:
    """Binary F1 with 'correct' predicted iff the pair logit exceeds the threshold.

    Returns 0 when the 2TP + FP + FN denominator is zero.
    """
    if not labeled_pairs:
        raise EmptyCorpus("no labeled pairs to evaluate")
    tp = fp = fn = 0
    pair_logits = instance_logits(student, ((q, (c,)) for q, c, _ in labeled_pairs))
    for (_, _, label), logits in zip(labeled_pairs, pair_logits):
        predicted = int(logits[0] > threshold)
        if predicted and label:
            tp += 1
        elif predicted and not label:
            fp += 1
        elif not predicted and label:
            fn += 1
    denominator = 2 * tp + fp + fn
    return 2 * tp / denominator if denominator else 0.0


def multi_seed(
    pipeline: Callable[[int], float], seeds: Sequence[int], metric_name: str = "accuracy"
) -> EvalResult:
    """Run a train-then-eval pipeline once per seed and aggregate.

    Reports per-seed values with their mean and population std; a failing
    seed aborts the sweep with the seed attached.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    values = []
    for seed in seeds:
        try:
            values.append(float(pipeline(seed)))
        except Exception as exc:
            raise SeedPipelineError(seed, str(exc)) from exc
    return EvalResult.from_values(metric_name, values)


class HashedTfEmbedder:
    """Deterministic dependency-free embedder: L2-normalized hashed term counts.

    Satisfies the embedder contract (fixed dimension, unit norm for non-empty
    text); swap in a sentence-embedding endpoint for production-grade
    similarity numbers.
    """

    def __init__(self, dim: int = EMBED_DIM, hash_seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.hash_seed = hash_seed

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        for term in text.lower().split():
            vec[zlib.crc32(term.encode("utf-8"), self.hash_seed) % self.dim] += 1.0
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec


def similarity_stats(generated, reference, embedder) -> Dict[str, float]:
    """Max cosine similarity of each generated question against the reference set.

    Questions only, choices excluded. Returns the mean of the per-question
    maxima and their overall maximum.
    """
    generated_instances = _instances(generated)
    reference_instances = _instances(reference)
    if not generated_instances or not reference_instances:
        raise EmptyCorpus("similarity needs non-empty corpora on both sides")
    gen = np.stack([embedder.embed(inst.question) for inst in generated_instances])
    ref = np.stack([embedder.embed(inst.question) for inst in reference_instances])
    best = (gen @ ref.T).max(axis=1)
    return {"avg_of_max": float(best.mean()), "max_of_max": float(best.max())}


def write_metric_csv(result: EvalResult, seeds: Sequence[int], path) -> None:
    """Per-seed rows as CSV (metric, seed, value)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric,seed,value\n")
        for seed, value in zip(seeds, result.per_seed):
            fh.write(f"{result.metric_name},{seed},{value!r}\n")


def write_summary_csv(results: Sequence[EvalResult], path) -> None:
    """Summary rows as CSV (metric, mean, std)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric,mean,std\n")
        for result in results:
            fh.write(f"{result.metric_name},{result.mean!r},{result.std!r}\n")
