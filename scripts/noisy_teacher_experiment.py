"""Labeling-scheme comparison on the noisy-teacher synthetic universe.

Trains the reference student under three labeling schemes derived from the
same imperfect teacher (argmax accuracy calibrated to ~0.7) and reports mean
held-out accuracy over five seeds:

* generate     - one-hot labels sampled from the teacher's softmax
* distill r=1  - soft targets from the teacher's score distribution
* distill r=0  - hard one-hot labels at the teacher's argmax

Expected ordering: distill r=1 > distill r=0 > generate. Writes per-seed and
summary CSVs next to the printed table.

Usage: python scripts/noisy_teacher_experiment.py [outdir]
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

# One BLAS thread, as the mcqa CLI sets it: numpy's idle OpenBLAS pool only
# adds start-up cost to the student's small dot products.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from mcqa_distill.core import McqaInstance, atomic_write, stable_seed  # noqa: E402
from mcqa_distill.datasets import Corpus, CorpusMeta  # noqa: E402
from mcqa_distill.distillation import TrainConfig, train  # noqa: E402
from mcqa_distill.evaluation import evaluate_accuracy  # noqa: E402
from mcqa_distill.students import ToyStudent  # noqa: E402

NUM_CHOICES = 4
VOCAB_SIZE = 40
TOKENS_PER_CHOICE = 3
TAGS_PER_CHOICE = 2
CONFIDENT_FRACTION = 0.65
CONFIDENT_GAIN = 3.0
UNCERTAIN_GAIN = 0.25
TEACHER_ACCURACY = 0.7
NOISE_CALIBRATION_STEPS = 30

SEEDS = (1, 2, 3, 4, 5)
ITERATIONS = 500
# One step size for every mode (sized for this corpus's unit-norm features),
# so the comparison isolates the labeling scheme.
LEARNING_RATE = 1.0
# Modest feature space: every training run allocates a parameter vector and
# a first-touch rank table of this length; collisions are negligible at this
# vocabulary size.
EXPERIMENT_FEATURES = 2**14

EXPERIMENT_MODES = ("generate", "distill_r1", "distill_r0")


@dataclass
class NoisyTeacherUniverse:
    """Train/held-out corpora plus teacher views of the train split.

    ``train_true`` carries true labels and raw teacher scores (for the
    distillation modes); ``train_sampled`` relabels each instance with one
    draw from the teacher's softmax (the generated-label view);
    ``heldout`` carries true labels only.
    """

    train_true: Corpus
    train_sampled: Corpus
    heldout: Corpus
    noise_scale: float
    teacher_argmax_accuracy: float


def _calibrate_noise_scale(
    signal: np.ndarray, noise: np.ndarray, answers: np.ndarray, target: float
) -> float:
    """Bisect the noise scale until teacher argmax accuracy lands near target."""
    lo, hi = 0.0, 16.0
    for _ in range(NOISE_CALIBRATION_STEPS):
        mid = (lo + hi) / 2.0
        accuracy = float(
            np.mean(np.argmax(signal + mid * noise, axis=1) == answers)
        )
        if accuracy > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def build_noisy_teacher_universe(
    n_train: int = 512, n_heldout: int = 256, seed: int = 0
) -> NoisyTeacherUniverse:
    """Universe where a linear truth scorer ranks choices and the teacher is noisy.

    Choice quality is the summed weight of its content tokens under a hidden
    weight vector. The teacher observes an attenuated copy of that quality
    plus Gaussian noise: on most instances the truth is amplified
    (``CONFIDENT_GAIN``), on the rest it is nearly drowned out
    (``UNCERTAIN_GAIN``), the way a real teacher is sharp on familiar
    material and near-uniform elsewhere. The shared noise scale is bisected
    so the teacher's argmax accuracy comes out near ``TEACHER_ACCURACY``.
    Hard argmax labels therefore manufacture confident coin flips on the
    uncertain slice, while the softened scores honestly flag it.

    Each choice also ends with idiosyncratic tag tokens carrying no
    transferable signal, the way generated text carries one-off surface
    strings: they give the student capacity to memorize noisy hard labels,
    which is precisely what soft targets protect against. Everything is a
    pure function of ``seed``.
    """
    rng = np.random.default_rng(stable_seed(seed, "noisy-teacher"))
    vocab = [f"tok{k:02d}" for k in range(VOCAB_SIZE)]
    token_weight = {tok: w for tok, w in zip(vocab, rng.uniform(-1.0, 1.0, VOCAB_SIZE))}

    def sample_split(count: int, tag: str) -> Tuple[List[McqaInstance], np.ndarray]:
        instances = []
        truth_rows = []
        draw = 0
        while len(instances) < count:
            draw += 1
            choices = []
            truths = []
            for j in range(NUM_CHOICES):
                tokens = list(rng.choice(vocab, size=TOKENS_PER_CHOICE, replace=False))
                tags = [f"{tag}{draw}x{j}n{t}" for t in range(TAGS_PER_CHOICE)]
                choices.append(" ".join(tokens + tags))
                truths.append(sum(token_weight[t] for t in tokens))
            truths = np.array(truths)
            order = np.argsort(-truths, kind="stable")
            # Reject near-ties at the top so the true label is unambiguous.
            if truths[order[0]] - truths[order[1]] < 1e-6:
                continue
            answer = int(order[0])
            i = len(instances)
            instances.append(
                McqaInstance(
                    f"{tag}-{seed}-{i:05d}",
                    "synthetic",
                    f"which {tag} group ranks highest in trial {i}?",
                    choices,
                    answer,
                )
            )
            truth_rows.append(truths)
        return instances, np.stack(truth_rows)

    train_instances, train_truth = sample_split(n_train, "train")
    heldout_instances, _ = sample_split(n_heldout, "heldout")

    answers = np.array([inst.answer_index for inst in train_instances])
    confident = rng.random(n_train) < CONFIDENT_FRACTION
    gain = np.where(confident, CONFIDENT_GAIN, UNCERTAIN_GAIN)[:, None]
    observed = gain * train_truth
    noise = rng.standard_normal(train_truth.shape)
    scale = _calibrate_noise_scale(observed, noise, answers, TEACHER_ACCURACY)
    teacher_scores = observed + scale * noise
    teacher_accuracy_achieved = float(
        np.mean(np.argmax(teacher_scores, axis=1) == answers)
    )

    scored = tuple(
        replace(inst, teacher_scores=tuple(row))
        for inst, row in zip(train_instances, teacher_scores)
    )
    # One sampled draw per instance from the teacher softmax: the label a
    # generation run would have produced.
    sampled = []
    for inst, row in zip(scored, teacher_scores):
        shifted = np.exp(row - row.max())
        draw = int(rng.choice(NUM_CHOICES, p=shifted / shifted.sum()))
        sampled.append(replace(inst, id=f"sampled-{inst.id}", answer_index=draw))

    return NoisyTeacherUniverse(
        train_true=Corpus(scored, CorpusMeta(source="noisy-teacher-train")),
        train_sampled=Corpus(tuple(sampled), CorpusMeta(source="noisy-teacher-sampled")),
        heldout=Corpus(tuple(heldout_instances), CorpusMeta(source="noisy-teacher-heldout")),
        noise_scale=scale,
        teacher_argmax_accuracy=teacher_accuracy_achieved,
    )


def run_noisy_teacher_experiment(universe: NoisyTeacherUniverse) -> Dict[str, List[float]]:
    """Train one student per (mode, seed); each mode's held-out accuracy per seed.

    Modes: generated hard labels, soft distillation at temperature 1, and
    hard teacher-argmax labels (temperature 0).
    """
    mode_setup = {
        "generate": (universe.train_sampled, "generate", 1.0),
        "distill_r1": (universe.train_true, "distill", 1.0),
        "distill_r0": (universe.train_true, "distill", 0.0),
    }
    results = {}
    for mode in EXPERIMENT_MODES:
        corpus, loss_mode, r = mode_setup[mode]
        results[mode] = []
        for seed in SEEDS:
            student = ToyStudent(n_features=EXPERIMENT_FEATURES)
            cfg = TrainConfig(
                iterations=ITERATIONS,
                learning_rate=LEARNING_RATE,
                loss_mode=loss_mode,
                distill_temperature_r=r,
                seed=seed,
            )
            train(student, corpus.instances, cfg)
            results[mode].append(evaluate_accuracy(student, universe.heldout))
    return results


def mean_std(values: List[float]) -> Tuple[float, float]:
    """Mean and population standard deviation of one mode's per-seed values."""
    return float(np.mean(values)), float(np.std(values))


def write_csvs(results: Dict[str, List[float]], outdir: Path) -> None:
    """Write ``{mode}_per_seed.csv`` (metric, seed, value) for each mode, then
    ``summary.csv`` (metric, mean, std); each file is moved into place once
    fully written."""
    for mode, values in results.items():
        with atomic_write(outdir / f"{mode}_per_seed.csv", "w", encoding="utf-8") as fh:
            fh.write("metric,seed,value\n")
            for seed, value in zip(SEEDS, values):
                fh.write(f"accuracy/{mode},{seed},{value!r}\n")
    with atomic_write(outdir / "summary.csv", "w", encoding="utf-8") as fh:
        fh.write("metric,mean,std\n")
        for mode, values in results.items():
            mean, std = mean_std(values)
            fh.write(f"accuracy/{mode},{mean!r},{std!r}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", nargs="?", type=Path, default=REPO / "runs" / "noisy_teacher",
                        help="output directory (default: runs/noisy_teacher in the repository)")
    outdir = parser.parse_args().outdir
    outdir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    universe = build_noisy_teacher_universe()
    print(
        f"universe: {len(universe.train_true)} train / {len(universe.heldout)} held-out, "
        f"teacher argmax accuracy {universe.teacher_argmax_accuracy:.3f} "
        f"(noise scale {universe.noise_scale:.3f})"
    )
    results = run_noisy_teacher_experiment(universe)
    elapsed = time.perf_counter() - started

    print(f"\n{'mode':<12} {'mean':>7} {'std':>7}  per-seed")
    means = {}
    for mode in EXPERIMENT_MODES:
        means[mode], std = mean_std(results[mode])
        per_seed = " ".join(f"{v:.3f}" for v in results[mode])
        print(f"{mode:<12} {means[mode]:>7.4f} {std:>7.4f}  {per_seed}")
    write_csvs(results, outdir)

    print(f"\nsoft targets vs sampled labels: {means['distill_r1'] - means['generate']:+.4f}")
    print(f"soft targets vs teacher argmax: {means['distill_r1'] - means['distill_r0']:+.4f}")
    print(f"done in {elapsed:.1f}s; CSVs in {outdir}")


if __name__ == "__main__":
    main()
