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

Every mode reduces to one kernel, ``loss_kernel``: a block of instances
with C choices each, one row per instance, as per-choice logits and target
rows in; each row's loss and the loss gradient with respect to its logits
out. ``train`` calls it once per choice count in each optimizer step; there
is no other loss path. A target, like every label distribution here, is a
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
from .students import FEATURIZE_CHUNK, feature_logits

PROB_FLOOR = 1e-12
LOGIT_CLAMP = 30.0

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class MissingTeacherScores(ValueError):
    """Distillation needs teacher_scores on every instance."""


class TieAtZeroTemperature(ValueError):
    """Temperature 0 needs a unique argmax to pick a hard label."""


class TrainingDiverged(ValueError):
    """Training reached a non-finite student logit or weight."""


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
            raise TieAtZeroTemperature(f"argmax tie at temperature 0: {arr.tolist()}")
        return one_hot(int(arr.argmax()), arr.size)
    return _softmax(arr, r)


def _softmax(z: np.ndarray, t: float) -> np.ndarray:
    """Softmax of z / t along the last axis, row by row, max-subtracted."""
    weights = np.exp((z - np.maximum.reduce(z, axis=-1, keepdims=True)) / t)
    return weights / np.add.reduce(weights, axis=-1, keepdims=True)


def instance_target(
    inst: McqaInstance, mode: str, r: float = 1.0
) -> Tuple[np.ndarray, Optional[float]]:
    """(target vector, student temperature) of an instance under a loss mode.

    The temperature is None for ``binary_bce``, whose target holds the 0/1
    pair labels. Distillation at r = 0 targets the teacher argmax (one-hot)
    with the student at temperature 1; a tied argmax raises
    ``TieAtZeroTemperature`` naming the instance.
    """
    if mode == "generate":
        return one_hot(inst.answer_index, inst.num_choices), 1.0
    if mode == "distill":
        if inst.teacher_scores is None:
            raise MissingTeacherScores(f"instance {inst.id} has no teacher scores")
        try:
            return soften(inst.teacher_scores, r), (r if r > 0 else 1.0)
        except TieAtZeroTemperature as exc:
            raise TieAtZeroTemperature(f"instance {inst.id}: {exc}") from None
    if mode == "binary_bce":
        return one_hot(inst.answer_index, inst.num_choices), None
    raise ValueError(f"unknown loss mode {mode!r}")


def loss_kernel(
    logits: np.ndarray, target: np.ndarray, temperature: Optional[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Losses and logit gradients of a (B, C) block: B instances with C
    choices each, one row per instance, logits and targets alike.

    Returns the B losses and the (B, C) gradient of each row's loss with
    respect to its logits. Every operation runs along the last axis, row by
    row, so a row's results do not depend on the rows beside it; a single
    instance is a one-row block (its bare (C,) logits give a scalar loss).

    With a temperature t > 0 a row's loss is -(1/C) sum(target * log
    softmax(z/t)), predicted probabilities floored at 1e-12 and 0 * log(0)
    taken as 0; its gradient is (softmax(z/t) - target) / (C*t) (Hinton et
    al. 2015). With temperature None it is the mean over the C pairs of the
    sigmoid cross-entropy against the 0/1 labels in ``target``; logits are
    clamped to +-30, and a clamped logit gets zero gradient.
    """
    # np.add.reduce is what .sum() and .mean() (which then divides by the
    # count) run, without their Python wrappers.
    n = logits.shape[-1]
    if temperature is None:
        clamped = np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP)
        sig = 1.0 / (1.0 + np.exp(-clamped))
        active = (np.abs(logits) < LOGIT_CLAMP).astype(np.float64)
        # -[y*log(sigmoid) + (1-y)*log(1-sigmoid)] via logaddexp for stability.
        per_pair = target * np.logaddexp(0.0, -clamped) + (1 - target) * np.logaddexp(
            0.0, clamped
        )
        return np.add.reduce(per_pair, axis=-1) / n, (sig - target) * active / n
    probs = _softmax(logits, temperature)
    logq = np.log(np.maximum(probs, PROB_FLOOR))
    loss = -np.add.reduce(np.where(target > 0, target * logq, 0.0), axis=-1) / n
    return loss, (probs - target) / (n * temperature)


_NO_INDEX = np.zeros(0, dtype=np.int64)


def _row_groups(sizes: Sequence[int]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """How rows with ``sizes`` choices, their values laid end to end, split
    into blocks: per choice count c, (the rows with c choices, the (rows, c)
    positions of their values)."""
    sizes = np.asarray(sizes)
    starts = np.cumsum(sizes) - sizes
    groups = []
    for c in sorted(set(sizes.tolist())):
        rows = np.flatnonzero(sizes == c)
        groups.append((rows, starts[rows, None] + np.arange(c)))
    return groups


def _visit_schedule(n_instances: int, visits: int, seed: int) -> np.ndarray:
    """Instance indices in visit order: seeded shuffles, reshuffled each epoch."""
    rng = np.random.default_rng(seed)
    epochs = -(-visits // n_instances)
    return np.concatenate([rng.permutation(n_instances) for _ in range(epochs)])[:visits]


def _number_by_first_touch(features: dict, size: int) -> Tuple[np.ndarray, List[int]]:
    """Renumber the coordinates of a ``size``-long parameter vector that the
    instances' per-choice ``features`` touch as 0, 1, 2, ... in order of
    first touch, in place and in the dict's order; an instance's fresh
    coordinates are numbered in sorted order.

    Returns ``active`` (``active[k]`` is the coordinate numbered k) and, per
    instance, how many coordinates it and the instances before it touch.

    Instances are taken ``FEATURIZE_CHUNK`` at a time. A group's indices
    are laid end to end, instance by instance, so the first occurrence of a
    coordinate no earlier group numbered is in its earliest instance; a
    stable sort by that instance orders the group's fresh coordinates. The
    group's features are then remapped with one gather.
    """
    rank = np.full(size, -1, dtype=np.int64)
    keys = list(features)
    fresh, reach = [_NO_INDEX], []
    touched = 0
    for start in range(0, len(keys), FEATURIZE_CHUNK):
        group = keys[start : start + FEATURIZE_CHUNK]
        index = [idx for i in group for idx, _ in features[i]]
        lengths = [idx.size for idx in index]
        owner = np.repeat(np.repeat(np.arange(len(group)), [len(features[i]) for i in group]),
                          lengths)
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
        for i in group:
            features[i] = tuple((remapped[a:b], val) for (_, val), (a, b) in zip(features[i], pieces))
    return np.concatenate(fresh), reach


def train(student, dataset: Sequence[McqaInstance], cfg: TrainConfig):
    """Run cfg.iterations Adam steps over the dataset.

    Each step averages the loss and gradient over ``batch_size`` instances
    before one parameter update. (The paper's micro-batch 4 with
    accumulation 2 is batch 8 here: the linear student holds any batch in
    memory.) Instances are drawn by cycling a seeded shuffle, reshuffled
    each epoch, so identical seeds give identical final parameters. Returns
    (student, TrainResult).

    The whole visit order is drawn first. Only the instances it visits are
    compiled: their pair features are read once through
    ``instance_features``, and their target vectors are computed once, in
    order of first visit, so a bad instance fails as it would visit by
    visit. The coordinates their features touch are then numbered in order
    of first touch along the visit order, so the coordinates steps 1..t
    touch are the first ``reach[t]``. Steps work in buffers allocated once
    per call, and the trained values are written back into
    ``student.params`` at the end.

    The optimizer step, not the visit, is the unit of work. A step reads
    the logits of all its visits' choices (one dot product each, through
    ``feature_logits``) and checks them once. Its visits' targets are laid
    end to end the same way, so its rows go through ``loss_kernel`` as one
    (B, C) block of logits and targets per choice count C. Its scatter
    terms come from one product over its visits' features laid end to end,
    visit by visit and choice by choice.

    Each step does the work of a dense update over all of
    ``student.params``, bit for bit, on fewer coordinates:

    * Its gradient (zeroing and one scatter of its terms) and Adam's five
      gradient-term passes ((1-b1)*g, m +=, (1-b2)*g, *g, v +=) run only on
      the coordinates it scatters to. There every float operation runs as
      in the dense update, in the same order. Everywhere else the dense
      update would only add +0.0, which is the identity for every value
      these buffers hold: a sum is -0.0 only if both addends are, so a
      gradient that starts at +0.0 never holds -0.0 and is exactly +0.0 off
      the scattered coordinates; m and v start at +0.0, and with b1, b2 >
      1/2 a non-zero value times b never rounds to zero, so they never hold
      -0.0 either. The same makes the +-0.0 term of a choice whose logit
      gradient is 0 an identity. A repeated coordinate needs no
      deduplication: ``a[t] += b`` writes the same value for each copy.
    * Adam's nine passes that decay m and v and update w change every
      coordinate touched so far, so they run on the ``reach[t]`` prefix.
      Past it no step has touched a coordinate: m and v are still 0, and
      Adam's update lr * 0 / (sqrt(0) + eps) is 0, which leaves w bit for
      bit. A coordinate no visited pair touches is never in the prefix.

    A step whose logits are not all finite, or trained weights that are
    not, raise ``TrainingDiverged`` naming the step, and ``student.params``
    is left as it was.
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
    batch = cfg.batch_size
    schedule = _visit_schedule(len(instances), cfg.iterations * batch, cfg.seed)

    visited = list(dict.fromkeys(schedule.tolist()))
    targets = {}
    for i in visited:
        targets[i], temperature = instance_target(
            instances[i], cfg.loss_mode, cfg.distill_temperature_r
        )
    features = dict(zip(visited, student.instance_features(
        (instances[i].question, instances[i].choices) for i in visited
    )))
    params = student.params
    active, reach_after = _number_by_first_touch(features, params.size)
    # reach[t-1]: coordinates touched by steps 1..t, the running maximum of
    # each visit's first-touch count, read at the end of each step.
    after = np.zeros(len(instances), dtype=np.int64)
    after[visited] = reach_after
    reach = np.maximum.accumulate(after[schedule])[batch - 1 :: batch].tolist()
    # Per step: its visits and the split of its rows into blocks by choice
    # count, computed once per distinct list of choice counts.
    visits = schedule.reshape(cfg.iterations, batch).tolist()
    layouts = [tuple(targets[i].size for i in step_visits) for step_visits in visits]
    groups = {layout: _row_groups(layout) for layout in set(layouts)}

    # w, m, v, scratch, denom, read as prefixes; grad, read at scattered
    # coordinates only.
    buffers = (params[active], *(np.zeros(active.size) for _ in range(4)))
    grad = np.zeros(active.size)
    result = TrainResult(
        instance_visits=int(schedule.size),
        visited_instances=len(features),
        active_features=int(active.size),
    )
    scale = 1.0 / batch
    for step, (step_visits, layout, n) in enumerate(zip(visits, layouts, reach), start=1):
        w, m, v, scratch, denom = (b[:n] for b in buffers)
        pairs = [pair for i in step_visits for pair in features[i]]
        logits = feature_logits(w, pairs)
        if not np.isfinite(logits).all():
            raise TrainingDiverged(f"training diverged at step {step}: non-finite student logits")
        target = np.concatenate([targets[i] for i in step_visits])
        losses, dlogits = np.empty(batch), np.empty(logits.size)
        for group, at in groups[layout]:
            losses[group], dlogits[at] = loss_kernel(logits[at], target[at], temperature)
        touched = np.concatenate([idx for idx, _ in pairs])
        terms = np.repeat(scale * dlogits, [idx.size for idx, _ in pairs]) * np.concatenate(
            [val for _, val in pairs]
        )
        grad[touched] = 0.0
        np.add.at(grad, touched, terms)
        g = grad[touched]
        result.losses.append(float(losses.mean()))
        # Operand for operand as m = b1*m + (1-b1)*g,
        # v = b2*v + ((1-b2)*g)*g, w -= (lr*m_hat) / (sqrt(v_hat) + eps).
        np.multiply(ADAM_BETA1, m, out=m)
        m[touched] += (1.0 - ADAM_BETA1) * g
        np.multiply(ADAM_BETA2, v, out=v)
        v[touched] += ((1.0 - ADAM_BETA2) * g) * g
        np.divide(v, 1.0 - ADAM_BETA2**step, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, 1.0 - ADAM_BETA1**step, out=scratch)
        np.multiply(cfg.learning_rate, scratch, out=scratch)
        w -= np.divide(scratch, denom, out=scratch)
    diverged = np.count_nonzero(~np.isfinite(buffers[0]))
    if diverged:
        raise TrainingDiverged(
            f"training diverged by step {cfg.iterations}: {diverged} non-finite trained weights"
        )
    params[active] = buffers[0]
    return student, result


def write_loss_trace(result: TrainResult, path) -> None:
    """Loss trace as CSV (step, loss), moved into place once fully written."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(result.losses, start=1):
            fh.write(f"{step},{loss!r}\n")
