"""Domain types shared by every pipeline stage.

An ``McqaInstance`` is one multiple-choice question with its choices, the
0-based gold index, and (once scored) one raw teacher score per choice.
Everything here is immutable and validation is non-throwing: callers that
tolerate bad data inspect the violation codes, callers that do not simply
treat a non-empty code list as an error.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import secrets
from dataclasses import dataclass, field
from typing import Optional, Sequence

# Choice identifiers are single uppercase letters, which caps the choice count.
MAX_CHOICES = 26
MIN_CHOICES = 2

STRATEGIES = ("json", "decompose", "paraphrase", "real")
ROLES = ("system", "user", "assistant")

# Validation codes returned by validate_instance.
EMPTY_FIELD = "EMPTY_FIELD"
ANSWER_RANGE = "ANSWER_RANGE"
DUPLICATE_CHOICE = "DUPLICATE_CHOICE"
TOO_FEW_CHOICES = "TOO_FEW_CHOICES"
TOO_MANY_CHOICES = "TOO_MANY_CHOICES"
SCORE_LENGTH = "SCORE_LENGTH"
SCORE_NONFINITE = "SCORE_NONFINITE"


class IdentifierRangeError(ValueError):
    """Raised for choice indices outside the single-letter range A..Z."""


def index_to_identifier(i: int) -> str:
    """Map a 0-based choice index to its uppercase letter (0 -> 'A')."""
    if not 0 <= i < MAX_CHOICES:
        raise IdentifierRangeError(f"choice index {i} outside 0..{MAX_CHOICES - 1}")
    return chr(ord("A") + i)


def identifier_to_index(identifier: str) -> int:
    """Inverse of index_to_identifier; accepts a single letter, any case."""
    ch = identifier.strip()
    if len(ch) != 1 or not ch.isalpha():
        raise IdentifierRangeError(f"not a single-letter identifier: {identifier!r}")
    return ord(ch.upper()) - ord("A")


def canonical_choice(text: str) -> str:
    """Normal form used for duplicate detection: trimmed and case-folded."""
    return text.strip().casefold()


def stable_seed(*parts) -> int:
    """Derive a reproducible 63-bit integer seed from arbitrary parts.

    Used to split one run seed into independent per-request seeds so that
    shuffles stay deterministic regardless of evaluation order.
    """
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def shuffled(items: Sequence, seed: int) -> list:
    """A new list of ``items`` in the order ``random.Random(seed)`` deals them."""
    order = list(range(len(items)))
    random.Random(seed).shuffle(order)
    return [items[i] for i in order]


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a new file beside ``path``; on a clean exit, move it over ``path``.

    The new file gets the usual umask-derived permissions and is flushed to
    disk before the move. A write that raises removes the new file and
    leaves ``path`` as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(6)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_json(payload, path) -> None:
    """Write ``payload`` as sorted, indented UTF-8 JSON through atomic_write,
    creating missing parent directories."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with atomic_write(path, encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, ensure_ascii=False)
        fh.write("\n")


@dataclass(frozen=True)
class Provenance:
    """Where an instance came from: strategy, sampling temperature, attempt index."""

    strategy: str = "real"
    gen_temperature: float = 0.0
    attempt: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0 <= self.gen_temperature < math.inf:  # also false for NaN
            raise ValueError(f"gen_temperature must be finite and >= 0: {self.gen_temperature}")
        if self.attempt < 0:
            raise ValueError(f"attempt must be >= 0: {self.attempt}")


@dataclass(frozen=True)
class McqaInstance:
    """One question with its choices, gold index, and optional teacher scores."""

    id: str
    topic: str
    question: str
    choices: tuple
    answer_index: int
    teacher_scores: Optional[tuple] = None
    provenance: Provenance = field(default_factory=Provenance)

    def __post_init__(self):
        object.__setattr__(self, "choices", tuple(self.choices))
        if self.teacher_scores is not None:
            object.__setattr__(self, "teacher_scores", tuple(map(float, self.teacher_scores)))

    @property
    def num_choices(self) -> int:
        return len(self.choices)

    @property
    def gold_choice(self) -> str:
        return self.choices[self.answer_index]


@dataclass(frozen=True)
class FewShotSet:
    """The K seed examples sharing one topic; drives all prompt construction."""

    topic: str
    examples: tuple

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))
        if not self.examples:
            raise ValueError("few-shot set needs at least one example")
        topics = {e.topic for e in self.examples}
        if len(topics) > 1:
            raise ValueError(f"few-shot examples span multiple topics: {sorted(topics)}")

    def __len__(self) -> int:
        return len(self.examples)


@dataclass(frozen=True)
class ChatMessage:
    """One turn of a chat prompt."""

    role: str
    content: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.role in ("user", "assistant") and not self.content.strip():
            raise ValueError(f"{self.role} message must not be empty")


def validate_parts(
    question: str,
    choices: Sequence[str],
    answer_index: int,
    teacher_scores: Optional[Sequence[float]] = None,
) -> list:
    """Check the McqaInstance invariants over raw parts; return violation codes."""
    texts = [str(c).strip() for c in choices]
    codes = []
    if not str(question).strip() or not all(texts):
        codes.append(EMPTY_FIELD)
    if len(choices) < MIN_CHOICES:
        codes.append(TOO_FEW_CHOICES)
    if len(choices) > MAX_CHOICES:
        codes.append(TOO_MANY_CHOICES)
    if len(set(map(canonical_choice, texts))) != len(texts):
        codes.append(DUPLICATE_CHOICE)
    if not 0 <= answer_index < len(choices):
        codes.append(ANSWER_RANGE)
    if teacher_scores is not None:
        if len(teacher_scores) != len(choices):
            codes.append(SCORE_LENGTH)
        if not all(map(math.isfinite, teacher_scores)):
            codes.append(SCORE_NONFINITE)
    return codes


def validate_instance(inst: McqaInstance) -> list:
    """Return every violated invariant code for an instance (empty = valid)."""
    return validate_parts(
        inst.question, inst.choices, inst.answer_index, inst.teacher_scores
    )
