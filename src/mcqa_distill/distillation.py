"""Losses and the training loop for the student scorer.

Three loss modes:

* ``generate``: cross-entropy against the one-hot generated label.
* ``distill``: cross-entropy against teacher scores softened at temperature
  r, with the student's softmax at the same temperature; r = 0 degenerates to
  hard teacher-argmax labels with the student at temperature 1 (a labeling
  change, not a student change, so the loss stays differentiable).
* ``binary_bce``: per-pair sigmoid cross-entropy where a pair is labeled 1
  iff the choice is the gold one.

Every mode reduces to one kernel, ``loss_kernel``: an instance's per-choice
logits and its target vector in, its loss and the loss gradient with respect
to those logits out. The scalar losses, the batch gradient and ``train`` all
call it.

The cross-entropy carries a 1/C factor (C = number of choices). That factor
rescales gradients but not the argmin; pass ``average_over_choices=False`` to
``ce_loss`` to drop it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import McqaInstance, SoftLabel, atomic_write
from .scoring import soften
from .students import SparseVector, instance_logits

PROB_FLOOR = 1e-12
LOGIT_CLAMP = 30.0
ENCODER_PARITY_LR = 1e-5

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

LOSS_MODES = ("generate", "distill", "binary_bce")


class MissingTeacherScores(ValueError):
    """Distillation needs teacher_scores on every instance."""


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 500
    micro_batch: int = 4
    grad_accumulation: int = 2
    # None resolves to the student's recommended rate, falling back to the
    # encoder-parity value 1e-5.
    learning_rate: Optional[float] = None
    optimizer: str = "adam"
    loss_mode: str = "generate"
    distill_temperature_r: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1 or self.micro_batch < 1 or self.grad_accumulation < 1:
            raise ValueError("iterations, micro_batch and grad_accumulation must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"unknown loss mode {self.loss_mode!r}")
        if self.distill_temperature_r < 0:
            raise ValueError("distillation temperature must be >= 0")

    def resolve_learning_rate(self, student) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return getattr(student, "recommended_learning_rate", ENCODER_PARITY_LR)


@dataclass
class TrainResult:
    """Per-step mean losses plus the exact number of instance visits.

    ``visited_instances`` counts the distinct instances the schedule visited;
    ``active_features`` counts the parameter coordinates their pairs touch,
    the only ones the optimizer updates.
    """

    losses: List[float] = field(default_factory=list)
    instance_visits: int = 0
    visited_instances: int = 0
    active_features: int = 0


def one_hot(index: int, length: int) -> SoftLabel:
    probs = [0.0] * length
    probs[index] = 1.0
    return SoftLabel(tuple(probs))


def _probs(label) -> np.ndarray:
    if isinstance(label, SoftLabel):
        return np.asarray(label.probs, dtype=np.float64)
    return np.asarray(label, dtype=np.float64)


def ce_loss(target, pred, average_over_choices: bool = True) -> float:
    """Cross-entropy -(1/C) * sum(p * log(p_hat)), with 0 * log(0) = 0.

    Predicted probabilities are floored at 1e-12 before the log so the loss
    stays finite for degenerate predictions.
    """
    p = _probs(target)
    q = _probs(pred)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: target {p.shape} vs pred {q.shape}")
    logq = np.log(np.maximum(q, PROB_FLOOR))
    total = -float(np.sum(np.where(p > 0, p * logq, 0.0)))
    return total / p.size if average_over_choices else total


def predict_probs(student, inst: McqaInstance, r: float) -> SoftLabel:
    """Student probabilities: softmax of the per-choice logits at temperature r."""
    if r <= 0:
        raise ValueError("student temperature must be > 0")
    return soften(_logits(student, inst.question, inst.choices), r)


def teacher_soft_label(inst: McqaInstance, r: float) -> SoftLabel:
    if inst.teacher_scores is None:
        raise MissingTeacherScores(f"instance {inst.id} has no teacher scores")
    return soften(inst.teacher_scores, r)


def instance_target(
    inst: McqaInstance, mode: str, r: float = 1.0
) -> Tuple[np.ndarray, Optional[float]]:
    """(target vector, student temperature) of an instance under a loss mode.

    The temperature is None for ``binary_bce``, whose target holds the 0/1
    pair labels. Distillation at r = 0 targets the teacher argmax (one-hot)
    with the student at temperature 1.
    """
    if mode == "generate":
        return _probs(one_hot(inst.answer_index, inst.num_choices)), 1.0
    if mode == "distill":
        return _probs(teacher_soft_label(inst, r)), (r if r > 0 else 1.0)
    if mode == "binary_bce":
        return _probs(one_hot(inst.answer_index, inst.num_choices)), None
    raise ValueError(f"unknown loss mode {mode!r}")


def loss_kernel(
    logits: np.ndarray, target: np.ndarray, temperature: Optional[float]
) -> Tuple[float, np.ndarray]:
    """One instance's loss and its gradient with respect to the C logits.

    With a temperature t > 0 the loss is -(1/C) sum(target * log softmax(z/t)),
    whose gradient is (softmax(z/t) - target) / (C*t) (Hinton et al. 2015).
    With temperature None it is the mean over the C pairs of the sigmoid
    cross-entropy against the 0/1 labels in ``target``; logits are clamped
    to +-30, and a clamped logit gets zero gradient.
    """
    n = logits.size
    if temperature is None:
        clamped = np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP)
        sig = 1.0 / (1.0 + np.exp(-clamped))
        active = (np.abs(logits) < LOGIT_CLAMP).astype(np.float64)
        # -[y*log(sigmoid) + (1-y)*log(1-sigmoid)] via logaddexp for stability.
        per_pair = target * np.logaddexp(0.0, -clamped) + (1 - target) * np.logaddexp(
            0.0, clamped
        )
        return float(np.mean(per_pair)), (sig - target) * active / n
    probs = _probs(soften(logits, temperature))
    return ce_loss(target, probs), (probs - target) / (n * temperature)


def _logits(student, question: str, choices: Sequence[str]) -> np.ndarray:
    return next(instance_logits(student, [(question, choices)]))


def instance_loss(student, inst: McqaInstance, mode: str, r: float = 1.0) -> float:
    """Loss of one instance under a mode (binary mode averages its C pairs)."""
    logits = _logits(student, inst.question, inst.choices)
    return loss_kernel(logits, *instance_target(inst, mode, r))[0]


def l_generate(student, inst: McqaInstance) -> float:
    """Cross-entropy against the generated (one-hot) label."""
    return instance_loss(student, inst, "generate")


def l_distill(student, inst: McqaInstance, r: float) -> float:
    """Cross-entropy against the teacher's softened scores.

    Temperature r divides both the teacher scores and the student logits.
    r = 0 uses the teacher argmax as a hard label (student at temperature 1),
    which equals l_generate on the relabeled instance exactly.
    """
    return instance_loss(student, inst, "distill", r)


def binary_bce_loss(student, question: str, choice: str, label: int) -> float:
    """Sigmoid cross-entropy on one (question, choice) pair, logit clamped to +-30."""
    logits = _logits(student, question, (choice,))
    return loss_kernel(logits, np.array([float(label)]), None)[0]


@dataclass(frozen=True)
class _CompiledInstance:
    """An instance reduced to what one loss evaluation reads.

    ``features`` holds one (index, value) pair per choice, the gradient of
    that choice's logit with respect to the parameter vector the caller
    trains (the student's own, or a compacted copy of it).
    """

    features: Tuple[SparseVector, ...]
    target: np.ndarray
    temperature: Optional[float]


def _compile(
    student, instances: Sequence[McqaInstance], mode: str, r: float
) -> List[_CompiledInstance]:
    """Compiled instances in order; targets first, so a bad instance fails
    as it would visit by visit, then features, read once through the
    student's ``instance_features``."""
    targets = [instance_target(inst, mode, r) for inst in instances]
    features = student.instance_features((inst.question, inst.choices) for inst in instances)
    return [_CompiledInstance(f, *target) for f, target in zip(features, targets)]


def _loss_and_gradient(
    params: np.ndarray, batch: Sequence[_CompiledInstance], grad: np.ndarray
) -> float:
    """Mean loss over a batch of compiled instances; ``grad`` is overwritten
    with the mean gradient.

    Each logit is the dot product of its feature values with the parameters
    they index, so the student is read through ``features`` alone.
    """
    grad.fill(0.0)
    scale = 1.0 / len(batch)
    losses = []
    for item in batch:
        logits = np.array(
            [np.dot(params[idx], val) for idx, val in item.features], dtype=np.float64
        )
        loss, dlogits = loss_kernel(logits, item.target, item.temperature)
        for coeff, (idx, val) in zip(dlogits, item.features):
            if coeff != 0.0 and idx.size:
                np.add.at(grad, idx, scale * coeff * val)
        losses.append(loss)
    return float(np.mean(losses))


def batch_loss(student, batch: Sequence[McqaInstance], mode: str, r: float = 1.0) -> float:
    if not batch:
        raise ValueError("batch must not be empty")
    return float(np.mean([instance_loss(student, inst, mode, r) for inst in batch]))


def batch_loss_and_gradient(
    student, batch: Sequence[McqaInstance], mode: str, r: float = 1.0
) -> Tuple[float, np.ndarray]:
    """Mean loss and mean parameter gradient over a batch."""
    if not batch:
        raise ValueError("batch must not be empty")
    grad = np.zeros_like(student.params)
    loss = _loss_and_gradient(student.params, _compile(student, batch, mode, r), grad)
    return loss, grad


def gradient(student, batch: Sequence[McqaInstance], mode: str, r: float = 1.0) -> np.ndarray:
    """Mean per-instance loss gradient with respect to the student parameters."""
    return batch_loss_and_gradient(student, batch, mode, r)[1]


def _visit_schedule(n_instances: int, visits: int, seed: int) -> np.ndarray:
    """Instance indices in visit order: seeded shuffles, reshuffled each epoch."""
    rng = np.random.default_rng(seed)
    epochs = -(-visits // n_instances)
    return np.concatenate([rng.permutation(n_instances) for _ in range(epochs)])[:visits]


def train(student, dataset: Sequence[McqaInstance], cfg: TrainConfig):
    """Run cfg.iterations optimizer steps over the dataset.

    Each step accumulates gradients over ``grad_accumulation`` micro-batches
    of ``micro_batch`` instances before one parameter update (micro_batch 4
    with accumulation 2 behaves like batch size 8). Instances are drawn by
    cycling a seeded shuffle, reshuffled each epoch, so identical seeds give
    identical final parameters. Returns (student, TrainResult).

    The whole visit order is drawn first. Only the instances it visits are
    compiled: their pair features are read once through
    ``instance_features`` and their targets computed once. The optimizer
    then runs on the sorted union of the coordinates those features touch,
    and the trained values are written back into ``student.params`` at the
    end. That is exact: a coordinate no visited pair touches has zero
    gradient at every step, so Adam's m and v stay 0 and its update
    lr * 0 / (0 + eps) is 0; SGD's is lr * 0. Every remaining float
    operation happens in the same order as a dense update over all of
    ``student.params``, written into buffers allocated once per call.
    """
    instances = list(dataset)
    if not instances:
        raise ValueError("training dataset is empty")
    lr = cfg.resolve_learning_rate(student)
    schedule = _visit_schedule(
        len(instances), cfg.iterations * cfg.grad_accumulation * cfg.micro_batch, cfg.seed
    )

    visited = list(dict.fromkeys(schedule.tolist()))
    compiled = dict(zip(visited, _compile(
        student, [instances[i] for i in visited], cfg.loss_mode, cfg.distill_temperature_r
    )))
    active = np.unique(
        np.concatenate([idx for item in compiled.values() for idx, _ in item.features])
    )
    for i, item in compiled.items():
        features = tuple((np.searchsorted(active, idx), val) for idx, val in item.features)
        compiled[i] = replace(item, features=features)

    params = student.params
    w = params[active]
    m, v = np.zeros_like(w), np.zeros_like(w)
    grad_sum, micro_grad, grad, scratch, denom = (np.empty_like(w) for _ in range(5))
    result = TrainResult(
        instance_visits=int(schedule.size),
        visited_instances=len(compiled),
        active_features=int(active.size),
    )
    steps = schedule.reshape(cfg.iterations, cfg.grad_accumulation, cfg.micro_batch)
    for step, micro_batches in enumerate(steps, start=1):
        grad_sum.fill(0.0)
        loss_sum = 0.0
        for visits in micro_batches:
            loss_sum += _loss_and_gradient(w, [compiled[i] for i in visits.tolist()], micro_grad)
            grad_sum += micro_grad
        np.divide(grad_sum, cfg.grad_accumulation, out=grad)
        result.losses.append(loss_sum / cfg.grad_accumulation)
        if cfg.optimizer == "sgd":
            w -= np.multiply(lr, grad, out=scratch)
            continue
        # In place, operand for operand as m = b1*m + (1-b1)*g,
        # v = b2*v + ((1-b2)*g)*g, w -= (lr*m_hat) / (sqrt(v_hat) + eps).
        np.multiply(ADAM_BETA1, m, out=m)
        m += np.multiply(1.0 - ADAM_BETA1, grad, out=scratch)
        np.multiply(ADAM_BETA2, v, out=v)
        np.multiply(1.0 - ADAM_BETA2, grad, out=scratch)
        v += np.multiply(scratch, grad, out=scratch)
        np.divide(v, 1.0 - ADAM_BETA2**step, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, 1.0 - ADAM_BETA1**step, out=scratch)
        np.multiply(lr, scratch, out=scratch)
        w -= np.divide(scratch, denom, out=scratch)
    params[active] = w
    return student, result


def write_loss_trace(result: TrainResult, path) -> None:
    """Loss trace as CSV (step, loss), moved into place once fully written."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(result.losses, start=1):
            fh.write(f"{step},{loss!r}\n")
