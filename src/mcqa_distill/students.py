"""The student contract and a hashed-feature linear reference.

A student scores each (question, choice) text pair with one scalar logit.
It offers two things: a parameter vector ``params`` and
``instance_features``, which yields, for each (question, choices) item in
order, one sparse (index, value) vector per choice whose dot product with
``params`` is that choice's logit, so the logit is linear in ``params``.
Training reads these features once per distinct visited instance, before its
first step, and writes ``params`` in place only after its last step.
``ToyStudent`` is a desk-scale student built on the hashing trick
(Weinberger et al. 2009). ``feature_logits`` is the one place per-instance
logits come from: ``instance_logits`` reads a student through it, and
training calls it on the features it compiled.
"""

from __future__ import annotations

import json
import zlib
from itertools import islice, repeat
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .config import DEFAULT_FEATURES, DEFAULT_HASH_SEED
from .core import atomic_write

# Boundary token between question and choice; a private-use codepoint keeps
# it out of natural text and it survives whitespace tokenization (unlike the
# ASCII separator controls, which str.split treats as whitespace). The
# spaces around it make it one token of its own, which the instance
# featurizer relies on.
PAIR_SEPARATOR = " \ue000 "
BIGRAM_JOIN = "\x1e"

# Instances hashed per featurizer pass. Larger chunks amortize little more
# and hold more transient memory; eval streams one chunk at a time.
FEATURIZE_CHUNK = 64

MODEL_FORMAT = "mcqa-toy-student"
MODEL_VERSION = 1

SparseVector = Tuple[np.ndarray, np.ndarray]
# A question and its choices: what the featurizer and ``instance_logits`` read.
Item = Tuple[str, Sequence[str]]


def _tokens(text: str) -> list:
    return text.lower().split()


def _bigrams(tokens: Sequence[str]) -> list:
    return [a + BIGRAM_JOIN + b for a, b in zip(tokens, tokens[1:])]


def _hash_terms(terms: Sequence[str], n_features: int, hash_seed: int) -> np.ndarray:
    """Feature index of each term: crc32 with a fixed start value, mod n_features.

    Terms never contain a newline (tokens hold no whitespace), so they are
    encoded in one pass and split back apart.
    """
    blobs = "\n".join(terms).encode("utf-8").split(b"\n") if terms else []
    crcs = np.fromiter(map(zlib.crc32, blobs, repeat(hash_seed)), np.int64, len(blobs))
    return crcs % n_features


def _count_and_normalize(hashes: np.ndarray, lengths: np.ndarray) -> List[SparseVector]:
    """L2-normalized counts of each row's feature indices.

    ``hashes`` holds the rows' indices back to back, ``lengths[k]`` of them
    for row k. A row's indices come out in first-occurrence order. Counts are
    small integers, so their sum of squares is exact in any order.
    """
    rows = np.repeat(np.arange(lengths.size), lengths)
    keys = rows * (int(hashes.max(initial=0)) + 1) + hashes
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    # Each count placed at its first occurrence, read back in position order.
    at_first = np.zeros(hashes.size, dtype=np.float64)
    at_first[first] = counts
    keep = np.flatnonzero(at_first)
    idx, val, kept_rows = hashes[keep], at_first[keep], rows[keep]
    norms = np.sqrt(np.bincount(kept_rows, weights=val * val, minlength=lengths.size))
    val /= norms[kept_rows]
    ends = np.cumsum(np.bincount(kept_rows, minlength=lengths.size)).tolist()
    return [(idx[a:b], val[a:b]) for a, b in zip([0] + ends, ends)]


def _featurize_chunk(
    items: Sequence[Item], n_features: int, hash_seed: int
) -> List[Tuple[SparseVector, ...]]:
    """Per-choice features of every item: the L2-normalized counts of the
    hashed word unigrams and bigrams of the lowercased, whitespace-split
    ``question + PAIR_SEPARATOR + choice``, in first-occurrence order.

    Because the separator is whitespace-padded, a pair's tokens are the
    question's, the separator, then the choice's; its terms are all
    unigrams, then all bigrams. So each question is tokenized and hashed
    once, laid out as [unigrams, bigrams, last token + separator], each
    choice as [unigrams, separator + first token, bigrams], and every pair
    gathers [question unigrams, separator, choice unigrams, question rest,
    choice rest]. All terms of the chunk are hashed in one pass.
    """
    (sep,) = _tokens(PAIR_SEPARATOR)
    terms = [sep]
    q_start, q_len, c_start, c_len, n_choices = [], [], [], [], []
    for question, choices in items:
        tokens = _tokens(question)
        q_start.append(len(terms))
        q_len.append(len(tokens))
        if tokens:
            terms += tokens
            terms += _bigrams(tokens)
            terms.append(tokens[-1] + BIGRAM_JOIN + sep)
        n_choices.append(len(choices))
        for choice in choices:
            tokens = _tokens(choice)
            c_start.append(len(terms))
            c_len.append(len(tokens))
            if tokens:
                terms += tokens
                terms.append(sep + BIGRAM_JOIN + tokens[0])
                terms += _bigrams(tokens)
    hashes = _hash_terms(terms, n_features, hash_seed)

    owner = np.repeat(np.arange(len(n_choices)), n_choices)
    qs, qn = np.array(q_start, np.int64)[owner], np.array(q_len, np.int64)[owner]
    cs, cn = np.array(c_start, np.int64), np.array(c_len, np.int64)
    # Five segments per pair, as (start in ``hashes``, length).
    starts = np.stack([qs, np.zeros_like(cs), cs, qs + qn, cs + cn], axis=1).ravel()
    lengths = np.stack([qn, np.ones_like(cs), cn, qn, cn], axis=1).ravel()
    offsets = np.cumsum(lengths) - lengths
    positions = np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)
    rows = iter(_count_and_normalize(hashes[positions], 1 + 2 * (qn + cn)))
    return [tuple(islice(rows, k)) for k in n_choices]


def feature_logits(params: np.ndarray, features: Sequence[SparseVector]) -> np.ndarray:
    """Per-choice logits as a float64 array: the dot product of ``params``
    with each choice's sparse feature vector."""
    return np.array([np.dot(params[idx], val) for idx, val in features], dtype=np.float64)


def instance_logits(student, items: Iterable[Item]) -> Iterator[np.ndarray]:
    """Each item's per-choice logits, in order, from its ``instance_features``."""
    params = student.params
    for features in student.instance_features(items):
        yield feature_logits(params, features)


class ToyStudent:
    """Linear scorer over hashed unigram/bigram features of question + choice.

    Each choice is scored independently, so permuting an instance's choices
    permutes the logits without changing any value.
    """

    # Feature magnitudes are unit-norm, orders away from an encoder's scale;
    # this is the sensible step size for this parameterization.
    recommended_learning_rate = 0.5

    def __init__(self, n_features: int = DEFAULT_FEATURES, hash_seed: int = DEFAULT_HASH_SEED):
        if n_features < 1:
            raise ValueError("n_features must be positive")
        self.n_features = int(n_features)
        self.hash_seed = int(hash_seed)
        self.weights = np.zeros(self.n_features, dtype=np.float64)

    @property
    def params(self) -> np.ndarray:
        return self.weights

    def instance_features(self, items: Iterable[Item]) -> Iterator[Tuple[SparseVector, ...]]:
        """Per-choice features of each (question, choices) item, hashed
        ``FEATURIZE_CHUNK`` items at a time."""
        items = iter(items)
        while chunk := list(islice(items, FEATURIZE_CHUNK)):
            yield from _featurize_chunk(chunk, self.n_features, self.hash_seed)

    def save(self, path) -> None:
        """Versioned record: one JSON header line, then raw little-endian float64.

        Written to a new file that replaces ``path`` only once complete.
        """
        header = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "n_features": self.n_features,
            "hash_seed": self.hash_seed,
        }
        with atomic_write(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            fh.write(self.weights.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "ToyStudent":
        with open(path, "rb") as fh:
            header_line = fh.readline()
            blob = fh.read()
        header = json.loads(header_line.decode("utf-8"))
        if header.get("format") != MODEL_FORMAT:
            raise ValueError(f"not a {MODEL_FORMAT} file: {path}")
        if header.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model version {header.get('version')}")
        student = cls(n_features=header["n_features"], hash_seed=header["hash_seed"])
        weights = np.frombuffer(blob, dtype="<f8")
        if weights.size != student.n_features:
            raise ValueError(
                f"weight count {weights.size} does not match n_features {student.n_features}"
            )
        student.weights = weights.astype(np.float64).copy()
        return student
