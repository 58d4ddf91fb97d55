"""The student contract and a hashed-feature linear reference.

A student scores each (question, choice) text pair with one scalar logit.
It offers two things: a parameter vector ``params`` and
``instance_features``, which yields, for each (question, choices) item in
order, one sparse (index, value) vector per choice whose dot product with
``params`` is that choice's logit, so the logit is linear in ``params``.
Training reads these features once per distinct visited instance, before its
first step, and writes ``params`` in place only after its last step.
``ToyStudent`` is a desk-scale student built on the hashing trick
(Weinberger et al. 2009). ``feature_logits`` is the one place logits come
from: ``instance_logits`` reads a student through it, and training calls
it on the features of each step's choices, compiled once.
"""

from __future__ import annotations

import json
import zlib
from itertools import chain, islice, repeat
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
    unigrams, then all bigrams. So the chunk is laid out as one flat token
    list, each item as its question's tokens followed, per choice, by the
    separator and the choice's tokens. Every token is hashed, and so is
    the bigram it starts: since crc32(a + b, s) == crc32(b, crc32(a, s)),
    that is the crc of ``BIGRAM_JOIN`` + next token started from the
    token's own crc, and no bigram string is built. A question's last
    bigram is then its last token + separator, and a separator's is
    separator + the choice's first token, so every pair gathers [question
    unigrams, separator and choice unigrams, question bigrams, separator
    and choice bigrams]. The bigram a choice's last token starts with the
    next separator is hashed but never gathered.
    """
    (sep,) = _tokens(PAIR_SEPARATOR)
    tokens = []
    q_start, q_len, sep_start, c_len, n_choices = [], [], [], [], []
    for question, choices in items:
        q_start.append(len(tokens))
        tokens += _tokens(question)
        q_len.append(len(tokens) - q_start[-1])
        n_choices.append(len(choices))
        for choice in choices:
            sep_start.append(len(tokens))
            tokens.append(sep)
            tokens += _tokens(choice)
            c_len.append(len(tokens) - sep_start[-1] - 1)
    if not tokens:  # no item has a choice
        return [() for _ in items]
    # Tokens hold no whitespace, so neither "\n" nor BIGRAM_JOIN, and UTF-8
    # encodes every non-ASCII character in bytes >= 0x80: one encoding
    # splits back into each token and into BIGRAM_JOIN + each token.
    link = "\n" + BIGRAM_JOIN
    data = (BIGRAM_JOIN + link.join(tokens)).encode("utf-8")
    unigrams = list(map(zlib.crc32, data[1:].split(link.encode()), repeat(hash_seed)))
    bigrams = map(zlib.crc32, data.split(b"\n")[1:], unigrams)
    hashes = np.fromiter(chain(unigrams, bigrams), np.int64, 2 * len(tokens) - 1) % n_features

    owner = np.repeat(np.arange(len(n_choices)), n_choices)
    qs, qn = np.array(q_start, np.int64)[owner], np.array(q_len, np.int64)[owner]
    ss, cn = np.array(sep_start, np.int64), np.array(c_len, np.int64)
    # Four segments per pair, as (start in ``hashes``, length); the bigram
    # a token at position k starts sits at len(tokens) + k.
    bigram = len(tokens)
    starts = np.stack([qs, ss, bigram + qs, bigram + ss], axis=1).ravel()
    lengths = np.stack([qn, 1 + cn, qn, cn], axis=1).ravel()
    offsets = np.cumsum(lengths) - lengths
    positions = np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)
    rows = iter(_count_and_normalize(hashes[positions], 1 + 2 * (qn + cn)))
    return [tuple(islice(rows, k)) for k in n_choices]


def feature_logits(params: np.ndarray, features: Sequence[SparseVector]) -> np.ndarray:
    """Per-choice logits as a float64 array: the dot product of ``params``
    with each choice's sparse feature vector, one ``ndarray.dot`` (the
    method form of ``np.dot``) per choice."""
    return np.array([params[idx].dot(val) for idx, val in features], dtype=np.float64)


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
        """Read a record written by ``save``.

        A file of any other shape, or one holding a non-finite weight,
        raises ValueError naming ``path``.
        """
        with open(path, "rb") as fh:
            header_line = fh.readline()
            blob = fh.read()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (ValueError, RecursionError):
            raise ValueError(f"{path}: not a {MODEL_FORMAT} file: bad header") from None
        if not isinstance(header, dict) or header.get("format") != MODEL_FORMAT:
            raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
        version = header.get("version")
        if type(version) is not int or version != MODEL_VERSION:
            raise ValueError(f"{path}: unsupported model version {version!r}")
        for key in ("n_features", "hash_seed"):
            if type(header.get(key)) is not int:
                raise ValueError(f"{path}: header field {key!r} must be an int")
        n_features = header["n_features"]
        if n_features < 1:
            raise ValueError(f"{path}: n_features must be positive")
        if len(blob) != 8 * n_features:
            raise ValueError(
                f"{path}: {len(blob)} weight bytes do not hold {n_features} float64 weights"
            )
        weights = np.frombuffer(blob, dtype="<f8").astype(np.float64)
        if not np.isfinite(weights).all():
            non_finite = np.count_nonzero(~np.isfinite(weights))
            raise ValueError(f"{path}: {non_finite} of {n_features} weights are not finite")
        student = cls(n_features=n_features, hash_seed=header["hash_seed"])
        student.weights = weights
        return student
