"""The trainable student contract and a hashed-feature linear reference.

The student maps a (question, choice) text pair to one scalar logit. The
training code only needs ``forward`` plus ``logit_and_grad`` (the logit's
gradient with respect to the parameter vector, in sparse index/value form),
so any scorer whose logit is linear in its parameters fits; ``ToyStudent`` is
a desk-scale stand-in built on the hashing trick.
"""

from __future__ import annotations

import json
import zlib
from functools import lru_cache
from typing import Protocol, Tuple

import numpy as np

from .core import atomic_write

DEFAULT_FEATURES = 2**18
DEFAULT_HASH_SEED = 0

# Boundary token between question and choice; a private-use codepoint keeps
# it out of natural text and it survives whitespace tokenization (unlike the
# ASCII separator controls, which str.split treats as whitespace).
PAIR_SEPARATOR = "  "
BIGRAM_JOIN = "\x1e"

MODEL_FORMAT = "mcqa-toy-student"
MODEL_VERSION = 1

SparseVector = Tuple[np.ndarray, np.ndarray]


class StudentScorer(Protocol):
    """What training and evaluation require of a student.

    Evaluation calls ``forward``. Training calls ``logit_and_grad`` once per
    (question, choice) pair of each distinct instance it visits, before the
    first step, and keeps only the sparse gradient. It treats the logit as linear in
    ``params``: at every step it computes the logit as the dot product of
    that gradient's values with the parameters at its indices, and it
    updates ``params`` in place only after the last step. ``ToyStudent`` is
    the only student and satisfies this exactly.
    """

    @property
    def params(self) -> np.ndarray: ...

    def forward(self, question: str, choice: str) -> float: ...

    def logit_and_grad(self, question: str, choice: str) -> Tuple[float, SparseVector]: ...


def _tokens(text: str) -> list:
    return text.lower().split()


@lru_cache(maxsize=262144)
def hashed_pair_features(pair: str, n_features: int, hash_seed: int) -> SparseVector:
    """L2-normalized counts of hashed word unigrams and bigrams.

    ``pair`` is the already-joined question/choice string. Hashing uses crc32
    with a fixed start value, so feature indices are stable across processes.
    Cached because training revisits the same pairs every epoch.
    """
    tokens = _tokens(pair)
    terms = list(tokens)
    terms.extend(a + BIGRAM_JOIN + b for a, b in zip(tokens, tokens[1:]))
    counts: dict = {}
    for term in terms:
        idx = zlib.crc32(term.encode("utf-8"), hash_seed) % n_features
        counts[idx] = counts.get(idx, 0.0) + 1.0
    if not counts:
        empty = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        return empty
    idx = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    val = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    val /= np.sqrt(np.sum(val * val))
    idx.flags.writeable = False
    val.flags.writeable = False
    return idx, val


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

    def features(self, question: str, choice: str) -> SparseVector:
        pair = question + PAIR_SEPARATOR + choice
        return hashed_pair_features(pair, self.n_features, self.hash_seed)

    def forward(self, question: str, choice: str) -> float:
        idx, val = self.features(question, choice)
        return float(np.dot(self.weights[idx], val))

    def logit_and_grad(self, question: str, choice: str) -> Tuple[float, SparseVector]:
        idx, val = self.features(question, choice)
        return float(np.dot(self.weights[idx], val)), (idx, val)

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
