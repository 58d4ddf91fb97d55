"""Corpus persistence, importers, token-length filtering, cumulative
subsetting, and corpus statistics.

Corpora are JSON Lines: append-friendly during long generation runs, with
line-level fault isolation. An optional leading meta record carries source,
creation time and config digest as strings; files without it load with empty
meta. Each line is decoded strictly: every field must already have its exact
JSON type (see ``_decode_instance``) and nothing is coerced, so an
instance-per-line file from another tool imports unchanged only if its fields
are typed that way; any other line is a ``MalformedLine`` naming its number.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .core import (
    McqaInstance,
    Provenance,
    identifier_to_index,
    shuffled,
    validate_parts,
)

IMPORT_FORMATS = ("arc_csv", "mmlu_csv", "generic_json")

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_CHOICE_LABEL_RE = re.compile(r"^\(?([A-Z0-9])[.):]\s*|^\(([A-Z0-9])\)\s*")


class MalformedLine(ValueError):
    """A corpus line that cannot be decoded into a valid instance."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SchemaError(ValueError):
    """An import row that does not match the declared layout."""

    def __init__(self, row_number: int, message: str):
        super().__init__(f"row {row_number}: {message}")
        self.row_number = row_number


def simple_token_count(text: str) -> int:
    """Whitespace-plus-punctuation token count."""
    return len(_TOKEN_RE.findall(text))


@dataclass(frozen=True)
class CorpusMeta:
    source: str = ""
    created_at: str = ""
    config_digest: str = ""


@dataclass(frozen=True)
class Corpus:
    instances: tuple
    meta: CorpusMeta = field(default_factory=CorpusMeta)

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        counts = Counter(inst.id for inst in self.instances)
        if len(counts) != len(self.instances):
            dupes = sorted(i for i, n in counts.items() if n > 1)
            raise ValueError(f"duplicate instance ids in corpus: {dupes[:5]}")

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)


@dataclass
class CorpusStats:
    count: int
    token_len_mean: float
    token_len_std: float
    # Item i counts the instances whose gold is choice i, for every index
    # up to the widest instance's last, so a skewed corpus shows itself.
    answer_positions: List[int]
    parse_success_rate: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


def instance_to_record(inst: McqaInstance) -> dict:
    record = {
        "id": inst.id,
        "topic": inst.topic,
        "question": inst.question,
        "choices": list(inst.choices),
        "answer": inst.answer_index,
    }
    if inst.teacher_scores is not None:
        record["teacher_scores"] = list(inst.teacher_scores)
    record["provenance"] = dict(vars(inst.provenance))  # fields in declaration order
    return record


# Exact JSON types per field (json.loads makes no subclasses, and a bool is
# not an int here), with the words an error names them by.
_STRINGS = frozenset({str})
_NUMBERS = frozenset({int, float})
_INSTANCE_FIELDS = (
    ("id", _STRINGS, "a string"),
    ("topic", _STRINGS, "a string"),
    ("question", _STRINGS, "a string"),
    ("choices", frozenset({list}), "a list"),
    ("answer", frozenset({int}), "an integer"),
)
_PROVENANCE_FIELDS = (
    ("strategy", _STRINGS, "a string"),
    ("gen_temperature", _NUMBERS, "a number"),
    ("attempt", frozenset({int}), "an integer"),
)
_MISSING = object()


def _field_error(number: int, key: str, value, kind: str) -> MalformedLine:
    if value is _MISSING:
        return MalformedLine(number, f"missing field {key!r}")
    return MalformedLine(number, f"{key} must be {kind}, got {type(value).__name__}")


def _item_error(number: int, key: str, values: list, types: frozenset, kind: str) -> MalformedLine:
    i = next(i for i, value in enumerate(values) if type(value) not in types)
    return _field_error(number, f"{key}[{i}]", values[i], kind)


def _decode_meta(meta) -> CorpusMeta:
    """The leading meta record: an object whose present fields are strings."""
    if type(meta) is not dict:
        raise _field_error(1, "meta", meta, "an object")
    names = [f.name for f in fields(CorpusMeta) if f.name in meta]
    for name in names:
        if type(meta[name]) is not str:
            raise _field_error(1, f"meta.{name}", meta[name], "a string")
    return CorpusMeta(**{name: meta[name] for name in names})


def _decode_instance(number: int, record) -> McqaInstance:
    """Decode one corpus record: check each field's exact JSON type (the
    tables above; ``teacher_scores`` is absent, null or a list of numbers),
    then the instance invariants once. Nothing is coerced: a value of any
    other type is a MalformedLine naming the field."""
    if type(record) is not dict:
        raise _field_error(number, "record", record, "a JSON object")
    for key, types, kind in _INSTANCE_FIELDS:
        value = record.get(key, _MISSING)
        if type(value) not in types:
            raise _field_error(number, key, value, kind)
    choices = record["choices"]
    if not _STRINGS.issuperset(map(type, choices)):
        raise _item_error(number, "choices", choices, _STRINGS, "a string")
    scores = record.get("teacher_scores")
    if scores is not None:
        if type(scores) is not list:
            raise _field_error(number, "teacher_scores", scores, "a list or null")
        if not _NUMBERS.issuperset(map(type, scores)):
            raise _item_error(number, "teacher_scores", scores, _NUMBERS, "a number")
    prov = record.get("provenance", {})
    if type(prov) is not dict:
        raise _field_error(number, "provenance", prov, "an object")
    for key, types, kind in _PROVENANCE_FIELDS:
        if key in prov and type(prov[key]) not in types:
            raise _field_error(number, f"provenance.{key}", prov[key], kind)
    try:
        provenance = Provenance(
            prov.get("strategy", "real"),
            float(prov.get("gen_temperature", 0.0)),
            prov.get("attempt", 0),
        )
    except ValueError as exc:
        raise MalformedLine(number, str(exc)) from None
    return _checked_instance(
        MalformedLine, number, record["id"], record["topic"], record["question"],
        choices, record["answer"], scores, provenance,
    )


def write_jsonl(corpus: Corpus, path) -> None:
    """A leading meta record, then one instance per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": vars(corpus.meta)}, ensure_ascii=False) + "\n")
        for inst in corpus.instances:
            fh.write(json.dumps(instance_to_record(inst), ensure_ascii=False) + "\n")


def read_jsonl(path) -> Corpus:
    """Inverse of write_jsonl; read(write(c)) == c. Raises MalformedLine.

    Each line is decoded as it is read (``_decode_instance``); no raw record
    is kept. A repeated id is a MalformedLine naming the line it first
    appeared on.
    """
    path = Path(path)
    meta = CorpusMeta()
    instances: List[McqaInstance] = []
    first_line: Dict[str, int] = {}
    with path.open("r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:  # syntax, digit limit, nesting
                raise MalformedLine(number, f"invalid JSON: {exc}") from exc
            if number == 1 and type(record) is dict and record.keys() == {"meta"}:
                meta = _decode_meta(record["meta"])
            else:
                try:
                    inst = _decode_instance(number, record)
                except OverflowError as exc:  # an integer number beyond float range
                    raise MalformedLine(number, str(exc)) from None
                seen = first_line.setdefault(inst.id, number)
                if seen != number:
                    raise MalformedLine(number, f"duplicate id {inst.id!r}, first on line {seen}")
                instances.append(inst)
    return Corpus(tuple(instances), meta)


def filter_by_tokens(corpus: Corpus, max_tokens: int) -> Corpus:
    """Drop an instance iff any single question+choice pair exceeds max_tokens."""
    if max_tokens <= 0:
        raise ValueError("max_tokens must be positive")
    kept = tuple(
        inst
        for inst in corpus.instances
        if all(simple_token_count(inst.question + " " + c) <= max_tokens for c in inst.choices)
    )
    return Corpus(kept, corpus.meta)


def cumulative_subsets(corpus: Corpus, sizes: Sequence[int], seed: int) -> Dict[int, Corpus]:
    """Nested subsets: one seeded permutation, subset(k) = its first k elements.

    Smaller subsets are therefore prefixes of larger ones, isolating the
    effect of data volume.
    """
    sizes = list(sizes)
    if not sizes:
        raise ValueError("sizes must not be empty")
    if any(s <= 0 for s in sizes):
        raise ValueError("sizes must be positive")
    if sorted(sizes) != sizes:
        raise ValueError(f"sizes must be ascending: {sizes}")
    if sizes[-1] > len(corpus):
        raise ValueError(
            f"size {sizes[-1]} exceeds corpus of {len(corpus)} instances"
        )
    order = shuffled(corpus.instances, seed)
    return {size: Corpus(tuple(order[:size]), corpus.meta) for size in sizes}


def compute_stats(corpus: Corpus, parse_success_rate: Optional[float] = None) -> CorpusStats:
    """Token-length mean and population std over question + all choices, the
    gold-position histogram, and ``parse_success_rate`` passed through."""
    # Imported here: ``statistics`` pulls in ``fractions`` and ``decimal``,
    # about 3 ms at start-up of every command that imports this module.
    import statistics

    positions = [0] * max((inst.num_choices for inst in corpus.instances), default=0)
    for inst in corpus.instances:
        positions[inst.answer_index] += 1

    lengths = [
        simple_token_count(inst.question + " " + " ".join(inst.choices))
        for inst in corpus.instances
    ]
    if lengths:
        mean = statistics.fmean(lengths)
        std = statistics.pstdev(lengths)
    else:
        mean = std = 0.0
    return CorpusStats(
        count=len(lengths),
        token_len_mean=mean,
        token_len_std=std,
        answer_positions=positions,
        parse_success_rate=parse_success_rate,
    )


def _strip_choice_label(text: str) -> str:
    return _CHOICE_LABEL_RE.sub("", text.strip(), count=1)


def _answer_key_to_index(key: str, num_choices: int, row_number: int) -> int:
    key = key.strip()
    if key.isdigit():
        index = int(key) - 1
    else:
        try:
            index = identifier_to_index(key)
        except ValueError as exc:
            raise SchemaError(row_number, f"bad answer key {key!r}") from exc
    if not 0 <= index < num_choices:
        raise SchemaError(
            row_number, f"answer key {key!r} out of range for {num_choices} choices"
        )
    return index


def _checked_instance(error: type, number: int, *parts) -> McqaInstance:
    """``McqaInstance(*parts)`` from parts of the right types; raises
    ``error(number, ...)`` if they break an instance invariant."""
    codes = validate_parts(*parts[2:6])  # question, choices, answer, scores
    if codes:
        raise error(number, f"invalid instance: {', '.join(codes)}")
    return McqaInstance(*parts)


def _import_arc_csv(path: Path, topic: str) -> List[McqaInstance]:
    instances = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"question", "choices", "answerKey"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise SchemaError(0, f"header must contain {sorted(required)}")
        for number, row in enumerate(reader, start=1):
            choices = [
                _strip_choice_label(part)
                for part in row["choices"].split("|")
                if part.strip()
            ]
            if len(choices) < 2:
                raise SchemaError(number, "fewer than 2 choices")
            answer = _answer_key_to_index(row["answerKey"], len(choices), number)
            instance_id = (row.get("id") or f"arc-{number:05d}").strip()
            instances.append(
                _checked_instance(
                    SchemaError, number, instance_id, topic, row["question"].strip(), choices,
                    answer,
                )
            )
    return instances


def _import_mmlu_csv(path: Path, topic: str) -> List[McqaInstance]:
    instances = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        for number, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) < 4:
                raise SchemaError(number, "expected question, choices, answer key")
            question, *choices, key = row
            if len(choices) < 2:
                raise SchemaError(number, "fewer than 2 choices")
            answer = _answer_key_to_index(key, len(choices), number)
            instances.append(
                _checked_instance(
                    SchemaError,
                    number,
                    f"mmlu-{number:05d}",
                    topic,
                    question.strip(),
                    [c.strip() for c in choices],
                    answer,
                )
            )
    return instances


def import_benchmark(path, format: str, topic: Optional[str] = None) -> Corpus:
    """Normalize a benchmark file into a Corpus.

    ``arc_csv``: header question,choices,answerKey (optional id); the choices
    cell holds label-prefixed entries joined by '|'; answer keys may be
    letters or 1-based digits. ``mmlu_csv``: headerless rows of question,
    choice columns, answer letter. ``generic_json``: this package's JSONL.
    Rows violating instance invariants (duplicate choices included) are
    flagged as SchemaError rather than silently dropped.
    """
    path = Path(path)
    if format not in IMPORT_FORMATS:
        raise ValueError(f"unknown import format {format!r}")
    topic = topic if topic is not None else path.stem
    if format == "generic_json":
        return read_jsonl(path)
    if format == "arc_csv":
        instances = _import_arc_csv(path, topic)
    else:
        instances = _import_mmlu_csv(path, topic)
    return Corpus(tuple(instances), CorpusMeta(source=str(path)))
