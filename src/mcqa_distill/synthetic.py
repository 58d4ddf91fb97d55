"""Synthetic corpora with a known linear ground truth.

These fixtures drive desk-scale training experiments: a separable corpus
where the gold choice carries a marker token, and a noisy-teacher universe
where choice quality is a linear function of a shared token vocabulary and
the teacher observes that quality with varying confidence through seeded
Gaussian noise. The latter reproduces the qualitative ordering that
soft-label distillation beats both hard teacher-argmax labels and sampled
generated labels once the teacher is imperfect.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .core import McqaInstance, stable_seed
from .datasets import Corpus, CorpusMeta
from .distillation import TrainConfig, train
from .evaluation import EvalResult, evaluate_accuracy, multi_seed
from .students import ToyStudent

# Modest feature space keeps Adam's dense state small; collisions are
# negligible at this vocabulary size.
EXPERIMENT_FEATURES = 2**14

NOISE_CALIBRATION_STEPS = 30


def build_separable_corpus(
    count: int, num_choices: int = 4, seed: int = 0, marker: str = "lodestone"
) -> Corpus:
    """Instances whose gold choice contains a marker token; linearly separable."""
    rng = np.random.default_rng(stable_seed(seed, "separable"))
    vocab = [f"word{k:02d}" for k in range(30)]
    instances = []
    for i in range(count):
        answer = int(rng.integers(num_choices))
        choices = []
        seen = set()
        for j in range(num_choices):
            while True:
                tokens = list(rng.choice(vocab, size=3, replace=False))
                if j == answer:
                    tokens.append(marker)
                text = " ".join(tokens)
                if text not in seen:
                    break
            seen.add(text)
            choices.append(text)
        instances.append(
            McqaInstance(
                f"sep-{seed}-{i:05d}",
                "synthetic",
                f"which entry is marked in batch {i}?",
                choices,
                answer,
            )
        )
    return Corpus(tuple(instances), CorpusMeta(source="separable-synthetic"))


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


def _choice_tokens(rng, vocab: List[str], per_choice: int) -> List[str]:
    return list(rng.choice(vocab, size=per_choice, replace=False))


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
    n_train: int = 512,
    n_heldout: int = 256,
    num_choices: int = 4,
    vocab_size: int = 40,
    tokens_per_choice: int = 3,
    tags_per_choice: int = 2,
    confident_fraction: float = 0.65,
    confident_gain: float = 3.0,
    uncertain_gain: float = 0.25,
    seed: int = 0,
    teacher_accuracy: float = 0.7,
) -> NoisyTeacherUniverse:
    """Universe where a linear truth scorer ranks choices and the teacher is noisy.

    Choice quality is the summed weight of its content tokens under a hidden
    weight vector. The teacher observes an attenuated copy of that quality
    plus Gaussian noise: on most instances the truth is amplified
    (``confident_gain``), on the rest it is nearly drowned out
    (``uncertain_gain``), the way a real teacher is sharp on familiar
    material and near-uniform elsewhere. The shared noise scale is bisected
    so the teacher's argmax accuracy comes out near ``teacher_accuracy``.
    Hard argmax labels therefore manufacture confident coin flips on the
    uncertain slice, while the softened scores honestly flag it.

    Each choice also ends with idiosyncratic tag tokens carrying no
    transferable signal, the way generated text carries one-off surface
    strings: they give the student capacity to memorize noisy hard labels,
    which is precisely what soft targets protect against. Everything is a
    pure function of ``seed``.
    """
    rng = np.random.default_rng(stable_seed(seed, "noisy-teacher"))
    vocab = [f"tok{k:02d}" for k in range(vocab_size)]
    token_weight = {tok: w for tok, w in zip(vocab, rng.uniform(-1.0, 1.0, vocab_size))}

    def sample_split(count: int, tag: str) -> Tuple[List[McqaInstance], np.ndarray]:
        instances = []
        truth_rows = []
        draw = 0
        while len(instances) < count:
            draw += 1
            choices = []
            truths = []
            for j in range(num_choices):
                tokens = _choice_tokens(rng, vocab, tokens_per_choice)
                tags = [f"{tag}{draw}x{j}n{t}" for t in range(tags_per_choice)]
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
    confident = rng.random(n_train) < confident_fraction
    gain = np.where(confident, confident_gain, uncertain_gain)[:, None]
    observed = gain * train_truth
    noise = rng.standard_normal(train_truth.shape)
    scale = _calibrate_noise_scale(observed, noise, answers, teacher_accuracy)
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
        draw = int(rng.choice(num_choices, p=shifted / shifted.sum()))
        sampled.append(replace(inst, id=f"sampled-{inst.id}", answer_index=draw))

    return NoisyTeacherUniverse(
        train_true=Corpus(scored, CorpusMeta(source="noisy-teacher-train")),
        train_sampled=Corpus(tuple(sampled), CorpusMeta(source="noisy-teacher-sampled")),
        heldout=Corpus(tuple(heldout_instances), CorpusMeta(source="noisy-teacher-heldout")),
        noise_scale=scale,
        teacher_argmax_accuracy=teacher_accuracy_achieved,
    )


EXPERIMENT_MODES = ("generate", "distill_r1", "distill_r0")


def run_noisy_teacher_experiment(
    universe: NoisyTeacherUniverse,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    iterations: int = 500,
    learning_rate: float = 1.0,
    n_features: int = EXPERIMENT_FEATURES,
) -> Dict[str, EvalResult]:
    """Train one student per (mode, seed) and report held-out accuracy.

    Modes: generated hard labels, soft distillation at temperature 1, and
    hard teacher-argmax labels (temperature 0). All modes share the same
    step size (sized for this corpus's unit-norm features) so the comparison
    isolates the labeling scheme.
    """
    mode_setup = {
        "generate": (universe.train_sampled, "generate", 1.0),
        "distill_r1": (universe.train_true, "distill", 1.0),
        "distill_r0": (universe.train_true, "distill", 0.0),
    }
    results = {}
    for mode in EXPERIMENT_MODES:
        corpus, loss_mode, r = mode_setup[mode]

        def run_one(seed: int, corpus=corpus, loss_mode=loss_mode, r=r) -> float:
            student = ToyStudent(n_features=n_features)
            cfg = TrainConfig(
                iterations=iterations,
                learning_rate=learning_rate,
                loss_mode=loss_mode,
                distill_temperature_r=r,
                seed=seed,
            )
            train(student, corpus.instances, cfg)
            return evaluate_accuracy(student, universe.heldout)

        results[mode] = multi_seed(run_one, seeds, metric_name=f"accuracy/{mode}")
    return results

