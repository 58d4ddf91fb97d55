"""The benchmark's workloads: the inputs each builds and the commands it runs.

Every input is a function of the workload seed. The program sees only the
files written here (few-shot seed, config, mock script or corpus) and, for
the HTTP workload, the fake teacher's replies.

* ``mock-json-ref``: json strategy on the scripted mock at the reference
  configuration (1024 instances, 500 steps at batch 4x2, 2^18 features),
  distill loss at r=1. CPU-only and train-bound.
* ``http-decompose-latency``: decompose strategy (N=5) through
  ``HttpBackend`` against ``FakeTeacher`` with a seeded per-request delay,
  logprob scoring over HTTP, generate loss. Teacher-bound.
* ``wide-corpus-train``: binary_bce training and eval on a written corpus
  of 16,384 distinct instances over a large vocabulary, sized so that
  training activates about 47% of the 2^18 features. Same layers as
  ``mock-json-ref`` with a large, cold working set.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from fake_teacher import FakeTeacher, word
from mcqa_distill.core import FewShotSet, McqaInstance, Provenance
from mcqa_distill.datasets import Corpus, CorpusMeta, write_jsonl
from mcqa_distill.gateway import save_script
from mcqa_distill.generation import GenerationConfig
from mcqa_distill.mock_script import fabricate_json_run
from mcqa_distill.scoring import ScoringConfig

TOPIC = "grade school science"
SEED_EXAMPLES = (
    ("Which of the following materials would best slow the transfer of heat?",
     ("aluminum", "copper", "glass", "wood"), 3),
    ("In which environment is white fur color an advantage for survival?",
     ("desert", "grassland", "arctic tundra", "temperate forest"), 2),
    ("An airplane traveled 700 kilometers in two hours during a trip. What was "
     "the average speed of the plane during the trip?",
     ("5.8 kilometers per hour", "350 kilometers per hour",
      "1400 kilometers per hour", "84,000 kilometers per hour"), 1),
    ("The aloe plant stores extra water in its leaves. This is most likely an "
     "adaptation to which type of environment?",
     ("one near the ocean", "one with dry conditions",
      "one with a variety of organisms", "one that receives a lot of sunlight"), 1),
    ("In which part of Earth is water usually found naturally in only two states?",
     ("Indian Ocean", "interior of Africa", "South Pole", "Tropic of Cancer"), 2),
)

FEWSHOT = "fewshot.jsonl"
CONFIG = "run.ini"
SCRIPT = "script.json"
CORPUS = "corpus.jsonl"
SCORED = "scored.jsonl"
MODEL = "model.bin"
EVAL = "eval.json"

# wide-corpus-train: question and choice words come from a vocabulary of
# WIDE_VOCABULARY words; every gold choice starts with one of the first
# WIDE_GOLD_WORDS of them, so the student has a signal it can generalise.
# Question length and vocabulary are sized so that the 4,000 instances the
# reference training visits activate about 47% of the 2^18 features
# (about 124k), the working set this workload stands for.
WIDE_VOCABULARY = 131072
WIDE_GOLD_WORDS = 512
WIDE_QUESTION_WORDS = 17
WIDE_CHOICES = 4

# http-decompose-latency: the median teacher delay. 50 ms is the per-request
# latency ROADMAP.md proposes for an offline latency teacher; at it, teacher
# wait, not client CPU, is most of the generate and score stages.
HTTP_MEDIAN_DELAY_S = 0.05


@dataclass(frozen=True)
class Size:
    instances: int
    iterations: int
    median_delay_s: float = 0.0


@dataclass
class Inputs:
    """What one set-up left behind for the pipeline and its checks.

    ``program_s`` is the time set-up spent in the program's own calls
    (fabricating and saving the script, writing seed and corpus files); the
    benchmark's own work, such as making the wide corpus or starting the fake
    teacher, is not in it.
    """

    expected: Optional[List[McqaInstance]] = None
    teacher: Optional[FakeTeacher] = None
    fabricate_s: float = 0.0
    program_s: float = 0.0

    def timed(self, fn, *args, **kwargs):
        """Call one of the program's functions, adding its time to program_s."""
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.program_s += time.perf_counter() - started

    def close(self) -> None:
        if self.teacher is not None:
            self.teacher.close()
            self.teacher = None


@dataclass(frozen=True)
class Workload:
    """``rerun`` names the stages an untraced run repeats after its first
    full pipeline, on that pipeline's outputs. A teacher-bound workload
    repeats only its CPU stages, so their medians rest on several samples
    while the run stays within its time."""

    name: str
    setup: Callable[[Path, int, Size], Inputs]
    stages: Dict[str, List[str]]
    rerun: Tuple[str, ...]
    reference: Size
    smoke: Size

    @property
    def generates(self) -> bool:
        return "generate" in self.stages

    def size(self, smoke: bool) -> Size:
        return self.smoke if smoke else self.reference


def fewshot_set() -> FewShotSet:
    return FewShotSet(
        TOPIC,
        tuple(
            McqaInstance(f"seed-{i}", TOPIC, q, choices, answer)
            for i, (q, choices, answer) in enumerate(SEED_EXAMPLES)
        ),
    )


def _write_ini(path: Path, sections: Dict[str, dict]) -> None:
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_fewshot(inputs: Inputs, run_dir: Path) -> FewShotSet:
    fs = fewshot_set()
    corpus = Corpus(fs.examples, CorpusMeta(source="perfbench-seed"))
    inputs.timed(write_jsonl, corpus, run_dir / FEWSHOT)
    return fs


def setup_mock(run_dir: Path, seed: int, size: Size) -> Inputs:
    inputs = Inputs()
    fs = _write_fewshot(inputs, run_dir)
    before = inputs.program_s
    script, inputs.expected = inputs.timed(
        fabricate_json_run,
        fs,
        GenerationConfig(strategy="json", target_count=size.instances, seed=seed),
        ScoringConfig(),
    )
    inputs.fabricate_s = inputs.program_s - before
    inputs.timed(save_script, script, run_dir / SCRIPT)
    _write_ini(
        run_dir / CONFIG,
        {
            "backend": {"kind": "mock", "script": SCRIPT},
            "generation": {"strategy": "json", "target_count": size.instances, "seed": seed},
            "training": {"iterations": size.iterations, "seed": seed},
        },
    )
    return inputs


def setup_http(run_dir: Path, seed: int, size: Size) -> Inputs:
    inputs = Inputs()
    _write_fewshot(inputs, run_dir)
    teacher = inputs.teacher = FakeTeacher(seed, size.median_delay_s).start()
    _write_ini(
        run_dir / CONFIG,
        {
            "backend": {
                "kind": "http",
                "base_url": teacher.base_url,
                "model_name": "fake-teacher",
                "request_timeout": 30.0,
            },
            "generation": {
                "strategy": "decompose",
                "negatives_n": 5,
                "target_count": size.instances,
                "seed": seed,
            },
            "training": {"iterations": size.iterations, "seed": seed},
        },
    )
    return inputs


@functools.lru_cache(maxsize=1)
def _wide_instances(seed: int, count: int) -> Tuple[McqaInstance, ...]:
    """The wide corpus; cached, so repeated set-ups only time the write."""
    rng = random.Random(seed)
    questions, choices_seen = set(), set()

    def fresh(seen, make):
        while True:
            text = make()
            if text not in seen:
                seen.add(text)
                return text

    def words(n, low=WIDE_GOLD_WORDS):
        return " ".join(word(rng.randrange(low, WIDE_VOCABULARY)) for _ in range(n))

    instances = []
    for i in range(count):
        question = fresh(questions, lambda: f"Which {words(WIDE_QUESTION_WORDS)}?")
        answer = rng.randrange(WIDE_CHOICES)
        choices = []
        for j in range(WIDE_CHOICES):
            if j == answer:
                make = lambda: f"{word(rng.randrange(WIDE_GOLD_WORDS))} {words(1)}"
            else:
                make = lambda: words(2)
            choices.append(fresh(choices_seen, make))
        scores = [rng.gauss(0.0, 1.0) + (1.5 if j == answer else 0.0) for j in range(WIDE_CHOICES)]
        instances.append(
            McqaInstance(
                id=f"wide-{seed}-{i:05d}",
                topic=TOPIC,
                question=question,
                choices=tuple(choices),
                answer_index=answer,
                teacher_scores=tuple(scores),
                provenance=Provenance("real", 0.0, i),
            )
        )
    return tuple(instances)


def setup_wide(run_dir: Path, seed: int, size: Size) -> Inputs:
    inputs = Inputs()
    corpus = Corpus(_wide_instances(seed, size.instances), CorpusMeta(source="perfbench-wide"))
    inputs.timed(write_jsonl, corpus, run_dir / SCORED)
    _write_ini(run_dir / CONFIG, {"training": {"iterations": size.iterations, "seed": seed}})
    return inputs


GENERATE = ["generate", "--config", CONFIG, "--fewshot", FEWSHOT, "--out", CORPUS]
SCORE = ["score", "--config", CONFIG, "--fewshot", FEWSHOT, "--in", CORPUS, "--out", SCORED,
         "--fallback", "one_hot"]
EVALUATE = ["eval", "--config", CONFIG, "--in", SCORED, "--model", MODEL, "--out", EVAL]


def _train(loss: str, *extra: str) -> List[str]:
    return ["train", "--config", CONFIG, "--in", SCORED, "--out", MODEL, "--loss", loss, *extra]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mock-json-ref",
            setup_mock,
            {"generate": GENERATE, "score": SCORE,
             "train": _train("distill", "--distill-r", "1"), "eval": EVALUATE},
            rerun=("generate", "score", "train", "eval"),
            reference=Size(1024, 500),
            smoke=Size(32, 20),
        ),
        Workload(
            "http-decompose-latency",
            setup_http,
            {"generate": GENERATE, "score": SCORE, "train": _train("generate"), "eval": EVALUATE},
            rerun=("train", "eval"),
            reference=Size(32, 500, median_delay_s=HTTP_MEDIAN_DELAY_S),
            smoke=Size(4, 20, median_delay_s=0.001),
        ),
        Workload(
            "wide-corpus-train",
            setup_wide,
            {"train": _train("binary_bce"), "eval": EVALUATE},
            rerun=("train", "eval"),
            reference=Size(16384, 500),
            smoke=Size(256, 20),
        ),
    )
}
