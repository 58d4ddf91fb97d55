"""Student evaluation: MCQA accuracy (what ``mcqa eval`` reports) and
embedding-similarity statistics (what ``mcqa similarity`` reports).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence

import numpy as np

from .students import SparseVector, _count_and_normalize, _hash_terms, instance_logits

EMBED_DIM = 2**16


class EmptyCorpus(ValueError):
    """An evaluation was asked to run over zero instances."""


def evaluate_accuracy(student, corpus) -> float:
    """Fraction of instances whose top student logit sits at the gold index.

    A k-way tie at the top that includes the gold counts 1/k, the expected
    hit of a random tie-break, so a zero-weight student scores 1/C on
    C-choice instances. Logits are computed a featurizer chunk at a time.
    """
    instances = tuple(corpus)
    if not instances:
        raise EmptyCorpus("cannot evaluate an empty corpus")
    logits = instance_logits(student, ((inst.question, inst.choices) for inst in instances))
    hits = Counter()  # width of the top tie -> instances whose gold is in it
    for inst, row in zip(instances, logits):
        row = row.tolist()
        top = max(row)
        if row[inst.answer_index] == top:
            hits[row.count(top)] += 1
    return math.fsum(count / width for width, count in hits.items()) / len(instances)


class HashedTfEmbedder:
    """Deterministic dependency-free embedder: L2-normalized hashed term counts.

    A text's terms are its lowercased, whitespace-split tokens, each hashed
    to crc32(term, hash_seed) mod ``dim`` (the students' term hash). Satisfies
    the embedder contract (fixed dimension, unit norm for non-empty text,
    zero for empty text, held sparse); swap in a sentence-embedding endpoint
    for production-grade similarity numbers.
    """

    def __init__(self, dim: int = EMBED_DIM, hash_seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.hash_seed = hash_seed

    def embed_sparse(self, texts: Sequence[str]) -> List[SparseVector]:
        """Each text's embedding as a sparse (index, value) vector, in order."""
        tokens = [text.lower().split() for text in texts]
        terms = [term for row in tokens for term in row]
        lengths = np.fromiter(map(len, tokens), np.int64, len(tokens))
        return _count_and_normalize(_hash_terms(terms, self.dim, self.hash_seed), lengths)


def similarity_stats(generated, reference, embedder) -> Dict[str, float]:
    """Max cosine similarity of each generated question against the reference set.

    Questions only, choices excluded. Returns the mean of the per-question
    maxima and their overall maximum.

    Embeddings stay sparse: the reference entries are sorted by index once,
    and each generated row sums its products with the entries sharing its
    indices per reference row, so memory grows with the number of terms,
    not with ``dim`` times the corpus size.
    """
    generated_instances = tuple(generated)
    reference_instances = tuple(reference)
    if not generated_instances or not reference_instances:
        raise EmptyCorpus("similarity needs non-empty corpora on both sides")
    gen = embedder.embed_sparse([inst.question for inst in generated_instances])
    ref = embedder.embed_sparse([inst.question for inst in reference_instances])
    ref_idx = np.concatenate([idx for idx, _ in ref])
    ref_val = np.concatenate([val for _, val in ref])
    ref_row = np.repeat(np.arange(len(ref)), [idx.size for idx, _ in ref])
    order = np.argsort(ref_idx, kind="stable")
    ref_idx, ref_val, ref_row = ref_idx[order], ref_val[order], ref_row[order]
    best = np.empty(len(gen), dtype=np.float64)
    for k, (idx, val) in enumerate(gen):
        lo = np.searchsorted(ref_idx, idx, "left")
        counts = np.searchsorted(ref_idx, idx, "right") - lo
        # Positions of every matching reference entry, term by term.
        pos = np.arange(int(counts.sum())) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        products = np.repeat(val, counts) * ref_val[pos]
        best[k] = np.bincount(ref_row[pos], weights=products, minlength=len(ref)).max()
    return {"avg_of_max": float(best.mean()), "max_of_max": float(best.max())}

