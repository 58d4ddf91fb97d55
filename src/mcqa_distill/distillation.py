"""Losses and the training loop for the student scorer.

Three loss modes:

* ``generate``: cross-entropy against the one-hot generated label.
* ``distill``: cross-entropy against teacher scores softened at temperature
  r (``soften``, which turns the raw scores ``scoring`` stored into a
  probability vector), with the student's softmax at the same temperature;
  r = 0 degenerates to hard teacher-argmax labels with the student at
  temperature 1 (a labeling change, not a student change, so the loss stays
  differentiable).
* ``binary_bce``: per-pair sigmoid cross-entropy where a pair is labeled 1
  iff the choice is the gold one.

Every mode reduces to one kernel, ``loss_kernel``: an instance's per-choice
logits and its target vector in, its loss and the loss gradient with respect
to those logits out. ``train`` calls it through ``_loss_and_terms``; there is
no other loss path. A target, like every label distribution here, is a
float64 array.

The cross-entropy carries a 1/C factor (C = number of choices). That factor
rescales gradients but not the argmin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import TrainConfig
from .core import McqaInstance, atomic_write
from .students import FEATURIZE_CHUNK, SparseVector, feature_logits

PROB_FLOOR = 1e-12
LOGIT_CLAMP = 30.0

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class MissingTeacherScores(ValueError):
    """Distillation needs teacher_scores on every instance."""


class TieAtZeroTemperature(ValueError):
    """Temperature 0 needs a unique argmax to pick a hard label."""


@dataclass
class TrainResult:
    """Per-step mean losses plus the exact number of instance visits.

    ``visited_instances`` counts the distinct instances the schedule visited;
    ``active_features`` counts the parameter coordinates their pairs touch,
    the only ones Adam updates.
    """

    losses: List[float] = field(default_factory=list)
    instance_visits: int = 0
    visited_instances: int = 0
    active_features: int = 0


def one_hot(index: int, length: int) -> np.ndarray:
    probs = np.zeros(length, dtype=np.float64)
    probs[index] = 1.0
    return probs


def soften(scores: Sequence[float], r: float) -> np.ndarray:
    """Softmax of scores at temperature r; r = 0 returns a hard one-hot label.

    Computed with max-subtraction so that large raw scores (generation runs
    at temperature 2, missing-identifier floors sit ~10 below the rest) never
    overflow.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("scores must be a non-empty vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores must be finite")
    if not 0 <= r < np.inf:  # also false for NaN
        raise ValueError(f"temperature must be finite and >= 0: {r}")
    if r == 0:
        top = arr.max()
        if int((arr == top).sum()) != 1:
            raise TieAtZeroTemperature(f"argmax tie at temperature 0: {list(arr)}")
        return one_hot(int(arr.argmax()), arr.size)
    shifted = (arr - arr.max()) / r
    weights = np.exp(shifted)
    return weights / weights.sum()


def ce_loss(target, pred) -> float:
    """Cross-entropy -(1/C) * sum(p * log(p_hat)), with 0 * log(0) = 0.

    Predicted probabilities are floored at 1e-12 before the log so the loss
    stays finite for degenerate predictions.
    """
    p = np.asarray(target, dtype=np.float64)
    q = np.asarray(pred, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: target {p.shape} vs pred {q.shape}")
    logq = np.log(np.maximum(q, PROB_FLOOR))
    total = -float(np.sum(np.where(p > 0, p * logq, 0.0)))
    return total / p.size


def instance_target(
    inst: McqaInstance, mode: str, r: float = 1.0
) -> Tuple[np.ndarray, Optional[float]]:
    """(target vector, student temperature) of an instance under a loss mode.

    The temperature is None for ``binary_bce``, whose target holds the 0/1
    pair labels. Distillation at r = 0 targets the teacher argmax (one-hot)
    with the student at temperature 1.
    """
    if mode == "generate":
        return one_hot(inst.answer_index, inst.num_choices), 1.0
    if mode == "distill":
        if inst.teacher_scores is None:
            raise MissingTeacherScores(f"instance {inst.id} has no teacher scores")
        return soften(inst.teacher_scores, r), (r if r > 0 else 1.0)
    if mode == "binary_bce":
        return one_hot(inst.answer_index, inst.num_choices), None
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
    probs = soften(logits, temperature)
    return ce_loss(target, probs), (probs - target) / (n * temperature)


@dataclass(frozen=True)
class _CompiledInstance:
    """An instance reduced to what one loss evaluation reads.

    ``features`` holds one (index, value) pair per choice, the gradient of
    that choice's logit with respect to the parameter vector the caller
    trains (the student's own, or a renumbered copy of its active part).
    """

    features: Tuple[SparseVector, ...]
    target: np.ndarray
    temperature: Optional[float]


_NO_INDEX = np.zeros(0, dtype=np.int64)
_NO_TERMS = np.zeros(0, dtype=np.float64)


def _compile(
    student, instances: Sequence[McqaInstance], mode: str, r: float
) -> List[_CompiledInstance]:
    """Compiled instances in order; targets first, so a bad instance fails
    as it would visit by visit, then features, read once through the
    student's ``instance_features``."""
    targets = [instance_target(inst, mode, r) for inst in instances]
    features = student.instance_features((inst.question, inst.choices) for inst in instances)
    return [_CompiledInstance(f, *target) for f, target in zip(features, targets)]


def _loss_and_terms(
    params: np.ndarray, batch: Sequence[_CompiledInstance]
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Mean loss over a batch of compiled instances, and its mean gradient
    as ``(index, terms)``: the gradient is what ``np.add.at`` leaves when it
    adds ``terms`` at ``index`` into zeros. It adds repeated indices in
    order: item by item, choice by choice.

    Each logit is the dot product of its feature values with the parameters
    they index, so the student is read through ``features`` alone. A choice
    whose logit gradient is 0 contributes no term.
    """
    scale = 1.0 / len(batch)
    losses, index, terms = [], [_NO_INDEX], [_NO_TERMS]
    for item in batch:
        logits = feature_logits(params, item.features)
        loss, dlogits = loss_kernel(logits, item.target, item.temperature)
        for coeff, (idx, val) in zip(dlogits, item.features):
            if coeff != 0.0:
                index.append(idx)
                terms.append(scale * coeff * val)
        losses.append(loss)
    return float(np.mean(losses)), np.concatenate(index), np.concatenate(terms)


def _visit_schedule(n_instances: int, visits: int, seed: int) -> np.ndarray:
    """Instance indices in visit order: seeded shuffles, reshuffled each epoch."""
    rng = np.random.default_rng(seed)
    epochs = -(-visits // n_instances)
    return np.concatenate([rng.permutation(n_instances) for _ in range(epochs)])[:visits]


def _number_by_first_touch(compiled: dict, size: int) -> Tuple[np.ndarray, List[int]]:
    """Renumber the coordinates of a ``size``-long parameter vector that the
    ``compiled`` instances touch as 0, 1, 2, ... in order of first touch,
    in place and in the dict's order; an instance's fresh coordinates are
    numbered in sorted order.

    Returns ``active`` (``active[k]`` is the coordinate numbered k) and, per
    instance, how many coordinates it and the instances before it touch.

    Instances are taken ``FEATURIZE_CHUNK`` at a time. A group's indices
    are laid end to end, instance by instance, so the first occurrence of a
    coordinate no earlier group numbered is in its earliest instance; a
    stable sort by that instance orders the group's fresh coordinates. The
    group's features are then remapped with one gather.
    """
    rank = np.full(size, -1, dtype=np.int64)
    keys = list(compiled)
    fresh, reach = [_NO_INDEX], []
    touched = 0
    for start in range(0, len(keys), FEATURIZE_CHUNK):
        group = keys[start : start + FEATURIZE_CHUNK]
        features = [compiled[i].features for i in group]
        index = [idx for pairs in features for idx, _ in pairs]
        lengths = [idx.size for idx in index]
        owner = np.repeat(np.repeat(np.arange(len(group)), [len(f) for f in features]), lengths)
        index = np.concatenate([_NO_INDEX, *index])
        untouched = rank[index] < 0
        coords, first = np.unique(index[untouched], return_index=True)
        earliest = owner[untouched][first]
        coords = coords[np.argsort(earliest, kind="stable")]
        rank[coords] = np.arange(touched, touched + coords.size)
        reach += (touched + np.cumsum(np.bincount(earliest, minlength=len(group)))).tolist()
        touched += coords.size
        fresh.append(coords)
        remapped, ends = rank[index], np.cumsum(lengths).tolist()
        pieces = iter(zip([0] + ends, ends))
        for i, pairs in zip(group, features):
            item = compiled[i]
            remapped_pairs = tuple((remapped[a:b], val) for (_, val), (a, b) in zip(pairs, pieces))
            compiled[i] = _CompiledInstance(remapped_pairs, item.target, item.temperature)
    return np.concatenate(fresh), reach


def train(student, dataset: Sequence[McqaInstance], cfg: TrainConfig):
    """Run cfg.iterations Adam steps over the dataset.

    Each step accumulates gradients over ``grad_accumulation`` micro-batches
    of ``micro_batch`` instances before one parameter update (micro_batch 4
    with accumulation 2 behaves like batch size 8). Instances are drawn by
    cycling a seeded shuffle, reshuffled each epoch, so identical seeds give
    identical final parameters. Returns (student, TrainResult).

    The whole visit order is drawn first. Only the instances it visits are
    compiled: their pair features are read once through
    ``instance_features`` and their targets computed once. The coordinates
    their features touch are then numbered in order of first touch along
    the visit order, so the coordinates steps 1..t touch are the first
    ``reach[t]``. Steps work in buffers allocated once per call, and the
    trained values are written back into ``student.params`` at the end.

    Each step does the work of a dense update over all of
    ``student.params``, bit for bit, on fewer coordinates:

    * Its gradient accumulation (zeroing, the micro-batch scatters, their
      sum and the division by ``grad_accumulation``) and Adam's five
      gradient-term passes ((1-b1)*g, m +=, (1-b2)*g, *g, v +=) run only on
      the coordinates its micro-batches scatter to. There every float
      operation runs as in the dense update, in the same order. Everywhere
      else the dense update would only add +0.0, which is the identity for
      every value these buffers hold: a sum is -0.0 only if both addends
      are, so a gradient that starts at +0.0 never holds -0.0 and is exactly
      +0.0 off the scattered coordinates; m and v start at +0.0, and with
      b1, b2 > 1/2 a non-zero value times b never rounds to zero, so they
      never hold -0.0 either. A repeated coordinate needs no deduplication:
      ``a[t] += b`` writes the same value for each copy.
    * Adam's nine passes that decay m and v and update w change every
      coordinate touched so far, so they run on the ``reach[t]`` prefix.
      Past it no step has touched a coordinate: m and v are still 0, and
      Adam's update lr * 0 / (sqrt(0) + eps) is 0, which leaves w bit for
      bit. A coordinate no visited pair touches is never in the prefix.
    """
    instances = list(dataset)
    if not instances:
        raise ValueError("training dataset is empty")
    if cfg.loss_mode == "distill":
        missing = sum(inst.teacher_scores is None for inst in instances)
        if missing:
            raise MissingTeacherScores(
                f"distill loss needs teacher scores on every instance; {missing} missing"
            )
    schedule = _visit_schedule(
        len(instances), cfg.iterations * cfg.grad_accumulation * cfg.micro_batch, cfg.seed
    )

    visited = list(dict.fromkeys(schedule.tolist()))
    compiled = dict(zip(visited, _compile(
        student, [instances[i] for i in visited], cfg.loss_mode, cfg.distill_temperature_r
    )))
    params = student.params
    active, reach_after = _number_by_first_touch(compiled, params.size)
    # reach[t-1]: coordinates touched by steps 1..t, the running maximum of
    # each visit's first-touch count, read at the end of each step.
    after = np.zeros(len(instances), dtype=np.int64)
    after[visited] = reach_after
    per_step = cfg.grad_accumulation * cfg.micro_batch
    reach = np.maximum.accumulate(after[schedule])[per_step - 1 :: per_step].tolist()

    # w, m, v, scratch, denom, read as prefixes; grad_sum and micro_grad,
    # read at scattered coordinates only.
    buffers = (params[active], *(np.zeros(active.size) for _ in range(4)))
    grad_sum, micro_grad = np.zeros(active.size), np.zeros(active.size)
    result = TrainResult(
        instance_visits=int(schedule.size),
        visited_instances=len(compiled),
        active_features=int(active.size),
    )
    steps = schedule.reshape(cfg.iterations, cfg.grad_accumulation, cfg.micro_batch)
    for step, (micro_batches, n) in enumerate(zip(steps, reach), start=1):
        w, m, v, scratch, denom = (b[:n] for b in buffers)
        parts = [_loss_and_terms(w, [compiled[i] for i in visits.tolist()])
                 for visits in micro_batches]
        touched = np.concatenate([index for _, index, _ in parts])
        grad_sum[touched] = 0.0
        loss_sum = 0.0
        for loss, index, terms in parts:
            loss_sum += loss
            micro_grad[index] = 0.0
            np.add.at(micro_grad, index, terms)
            grad_sum[index] += micro_grad[index]
        grad = grad_sum[touched] / cfg.grad_accumulation
        result.losses.append(loss_sum / cfg.grad_accumulation)
        # Operand for operand as m = b1*m + (1-b1)*g,
        # v = b2*v + ((1-b2)*g)*g, w -= (lr*m_hat) / (sqrt(v_hat) + eps).
        np.multiply(ADAM_BETA1, m, out=m)
        m[touched] += (1.0 - ADAM_BETA1) * grad
        np.multiply(ADAM_BETA2, v, out=v)
        v[touched] += ((1.0 - ADAM_BETA2) * grad) * grad
        np.divide(v, 1.0 - ADAM_BETA2**step, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, 1.0 - ADAM_BETA1**step, out=scratch)
        np.multiply(cfg.learning_rate, scratch, out=scratch)
        w -= np.divide(scratch, denom, out=scratch)
    params[active] = buffers[0]
    return student, result


def write_loss_trace(result: TrainResult, path) -> None:
    """Loss trace as CSV (step, loss), moved into place once fully written."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(result.losses, start=1):
            fh.write(f"{step},{loss!r}\n")
