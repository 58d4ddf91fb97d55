"""Loss functions, analytic gradients, and the training loop."""

import math

import numpy as np
import pytest

from mcqa_distill.distillation import (
    LOGIT_CLAMP,
    MissingTeacherScores,
    TrainConfig,
    TrainingDiverged,
    _number_by_first_touch,
    instance_target,
    loss_kernel,
    one_hot,
    soften,
    train,
    write_loss_trace,
)
from mcqa_distill.evaluation import evaluate_accuracy
from mcqa_distill.students import (
    FEATURIZE_CHUNK,
    PAIR_SEPARATOR,
    ToyStudent,
    feature_logits,
    instance_logits,
)
from mcqa_distill.synthetic import build_separable_corpus

from conftest import FixedLogitStudent, make_instance
from test_students import reference_pair_features


def random_student(n_features=2**12, scale=0.05, seed=0):
    student = ToyStudent(n_features=n_features)
    rng = np.random.default_rng(seed)
    student.weights[:] = rng.normal(0.0, scale, student.n_features)
    return student


def random_instance(rng, num_choices=4, with_scores=True):
    vocab = [f"w{k}" for k in range(40)]
    question = " ".join(rng.choice(vocab, size=6))
    choices = []
    while len(choices) < num_choices:
        text = " ".join(rng.choice(vocab, size=3)) + f" u{len(choices)}"
        choices.append(text)
    scores = tuple(rng.normal(size=num_choices)) if with_scores else None
    return make_instance(
        f"rand-{rng.integers(1 << 30)}",
        question=question,
        choices=choices,
        answer_index=int(rng.integers(num_choices)),
        teacher_scores=scores,
    )


def cross_entropy(target, logits):
    """The kernel's loss of ``target`` against softmax(``logits``) at temperature 1."""
    block = np.asarray(logits, dtype=np.float64)[None]
    return float(loss_kernel(block, np.asarray(target, dtype=np.float64)[None], 1.0)[0][0])


class TestCeLoss:
    def test_one_hot_vs_uniform_is_quarter_log_four(self):
        value = cross_entropy(one_hot(0, 4), np.zeros(4))
        assert value == pytest.approx(math.log(4) / 4, abs=1e-12)

    def test_identical_one_hot_is_zero(self):
        # exp(-1000) is 0.0, so the prediction is the one-hot target exactly.
        assert cross_entropy(one_hot(2, 4), [-1000.0, -1000.0, 0.0, -1000.0]) == 0.0

    def test_soft_target_against_uniform_is_quarter_log_four(self):
        # Any target summing to 1 gives ln(4)/4 against the uniform prediction.
        target = np.array((0.351, 0.214, 0.213, 0.222))
        value = cross_entropy(target, np.zeros(4))
        assert value == pytest.approx(math.log(4) / 4, abs=1e-12)

    def test_minimized_at_matching_prediction(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            base = cross_entropy(p, np.log(p))
            for _ in range(10):
                q = rng.dirichlet(np.ones(4))
                assert cross_entropy(p, np.log(q)) >= base - 1e-12

    def test_floor_keeps_loss_finite(self):
        value = cross_entropy(one_hot(0, 2), [-1000.0, 0.0])
        assert value == pytest.approx(-math.log(1e-12) / 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loss_kernel(np.zeros((1, 4)), one_hot(0, 3)[None], 1.0)


def student_probs(student, inst, r):
    """Softmax of the student's logits for ``inst`` at temperature r."""
    return soften(next(instance_logits(student, [(inst.question, inst.choices)])), r)


class TestStudentProbs:
    def test_zero_weight_student_is_uniform(self):
        probs = tuple(student_probs(ToyStudent(n_features=2**10), make_instance(), 1.0))
        assert probs == (0.25, 0.25, 0.25, 0.25)

    def test_shift_invariance_of_logits(self):
        inst = make_instance()
        base = FixedLogitStudent({(inst.question, c): float(i) for i, c in enumerate(inst.choices)})
        shifted = FixedLogitStudent(
            {(inst.question, c): float(i) + 11.5 for i, c in enumerate(inst.choices)}
        )
        left = tuple(student_probs(base, inst, 1.0))
        right = tuple(student_probs(shifted, inst, 1.0))
        assert left == pytest.approx(right, abs=1e-12)

    def test_hand_set_logits(self):
        inst = make_instance(choices=("yes", "no"), answer_index=0)
        student = FixedLogitStudent(
            {(inst.question, "yes"): math.log(2), (inst.question, "no"): 0.0}
        )
        assert tuple(student_probs(student, inst, 1.0)) == pytest.approx((2 / 3, 1 / 3))


def kernel_loss(logits, inst, mode, r=1.0):
    """The kernel's loss of ``inst`` under ``mode`` at the given logits."""
    return loss_kernel(np.asarray(logits, dtype=np.float64), *instance_target(inst, mode, r))[0]


class TestGenerateLoss:
    def test_zero_logits_give_quarter_log_four(self):
        value = kernel_loss(np.zeros(4), make_instance(), "generate")
        assert value == pytest.approx(math.log(4) / 4, abs=1e-12)

    def test_large_margin_drives_loss_below_1e6(self):
        inst = make_instance(answer_index=1)
        assert kernel_loss([0.0, 20.0, 0.0, 0.0], inst, "generate") < 1e-6

    def test_loss_decreases_as_gold_logit_grows(self):
        inst = make_instance(answer_index=0)
        losses = [kernel_loss([gold, 0.0, 0.0, 0.0], inst, "generate") for gold in (0.0, 1.0, 2.0)]
        assert losses[0] > losses[1] > losses[2]


class TestDistillLoss:
    def test_r_zero_equals_generate_on_teacher_argmax_relabel(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            inst = random_instance(rng)
            relabeled = make_instance(
                inst.id, question=inst.question, choices=inst.choices,
                answer_index=int(np.argmax(inst.teacher_scores)),
            )
            logits = rng.normal(0.0, 1.0, inst.num_choices)
            assert kernel_loss(logits, inst, "distill", 0.0) == kernel_loss(
                logits, relabeled, "generate"
            )

    def test_uniform_teacher_uniform_student(self):
        inst = make_instance(teacher_scores=(1.0, 1.0, 1.0, 1.0))
        value = kernel_loss(np.zeros(4), inst, "distill", 1.0)
        assert value == pytest.approx(math.log(4) / 4, abs=1e-12)

    def test_missing_scores_rejected(self):
        with pytest.raises(MissingTeacherScores):
            instance_target(make_instance(), "distill", 1.0)

    def test_temperature_divides_both_sides(self):
        inst = make_instance(teacher_scores=(2.0, 0.0, -1.0, 0.5))
        logits = [0.0, 1.0, 2.0, 3.0]
        r = 2.0
        expected = cross_entropy(soften(inst.teacher_scores, r), np.array(logits) / r)
        assert kernel_loss(logits, inst, "distill", r) == pytest.approx(expected, abs=1e-12)


def pair_bce(student, question, choice, label):
    """The kernel's sigmoid cross-entropy on one (question, choice) pair."""
    logits = next(instance_logits(student, [(question, (choice,))]))
    return loss_kernel(logits, np.array([float(label)]), None)[0]


class TestBinaryBce:
    def test_zero_logit_label_one_is_log_two(self):
        student = FixedLogitStudent({})
        assert pair_bce(student, "q", "c", 1) == pytest.approx(math.log(2))

    def test_saturated_correct_is_negligible(self):
        student = FixedLogitStudent({("q", "c"): 30.0})
        assert pair_bce(student, "q", "c", 1) < 1e-12

    def test_saturated_wrong_is_clamped_near_thirty(self):
        student = FixedLogitStudent({("q", "c"): -3000.0})
        value = pair_bce(student, "q", "c", 1)
        oracle = float(np.logaddexp(0.0, 30.0))  # clamp holds the logit at -30
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value == pytest.approx(30.0, abs=1e-9)


def probe_coordinates(grad, rng, count=8):
    """Random probe coordinates with non-negligible analytic gradient."""
    scale = np.abs(grad).max()
    candidates = np.flatnonzero(np.abs(grad) >= 1e-3 * scale)
    return rng.choice(candidates, size=min(count, candidates.size), replace=False)


def loss_and_gradient(student, inst, mode, r=1.0):
    """One instance's loss and its gradient over ``student.params``: the
    kernel's logit gradient scattered through the instance's features, the
    composition ``dense_reference_train`` uses."""
    features = next(student.instance_features([(inst.question, inst.choices)]))
    loss, dlogits = loss_kernel(
        feature_logits(student.params, features), *instance_target(inst, mode, r)
    )
    grad = np.zeros_like(student.params)
    for coeff, (idx, val) in zip(dlogits, features):
        np.add.at(grad, idx, coeff * val)
    return loss, grad


def central_difference(student, inst, mode, r, coordinate, step=1e-5):
    original = student.weights[coordinate]
    student.weights[coordinate] = original + step
    upper = loss_and_gradient(student, inst, mode, r)[0]
    student.weights[coordinate] = original - step
    lower = loss_and_gradient(student, inst, mode, r)[0]
    student.weights[coordinate] = original
    return (upper - lower) / (2 * step)


class TestGradient:
    @pytest.mark.parametrize(
        "mode,r",
        [("generate", 1.0), ("distill", 0.5), ("distill", 1.0), ("distill", 2.0),
         ("distill", 0.0), ("binary_bce", 1.0)],
    )
    def test_matches_central_differences(self, mode, r):
        rng = np.random.default_rng(99)
        student = random_student(seed=5)
        inst = random_instance(rng)
        grad = loss_and_gradient(student, inst, mode, r)[1]
        for coordinate in probe_coordinates(grad, rng):
            numeric = central_difference(student, inst, mode, r, coordinate)
            analytic = grad[coordinate]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-10)
            assert rel < 1e-4

    def test_identical_choice_features_give_zero_gradient(self):
        """All choices share one feature vector: softmax stays uniform, grad 0."""
        student = ToyStudent(n_features=2**10)
        inst = make_instance(choices=("same", "Same", "SAME ", "sAmE"), answer_index=0)
        # Case-folding collapses all four to identical features; the duplicate
        # validation is irrelevant to the gradient computation itself.
        grad = loss_and_gradient(student, inst, "generate")[1]
        assert np.all(grad == 0.0)

    def test_micro_batch_order_invariance(self):
        rng = np.random.default_rng(4)
        student = random_student(seed=13)
        batch = [random_instance(rng) for _ in range(4)]
        results = []
        for items in (batch, batch[::-1]):
            loss, grad = 0.0, np.zeros_like(student.params)
            for inst in items:
                inst_loss, inst_grad = loss_and_gradient(student, inst, "distill")
                loss, grad = loss + inst_loss / len(items), grad + inst_grad / len(items)
            results.append((loss, grad))
        (loss_a, grad_a), (loss_b, grad_b) = results
        assert loss_a == pytest.approx(loss_b, abs=1e-12)
        assert np.allclose(grad_a, grad_b, atol=1e-12)


class TestTrain:
    def test_visit_accounting_exact(self):
        corpus = build_separable_corpus(32, seed=1)
        student = ToyStudent(n_features=2**12)
        cfg = TrainConfig(iterations=500, micro_batch=4, grad_accumulation=2, seed=0)
        _, result = train(student, corpus.instances, cfg)
        assert result.instance_visits == 4000
        assert len(result.losses) == 500

    def test_same_seed_same_parameters_and_trace(self):
        corpus = build_separable_corpus(24, seed=2)
        cfg = TrainConfig(iterations=40, seed=9)
        student_a, result_a = train(ToyStudent(n_features=2**12), corpus.instances, cfg)
        student_b, result_b = train(ToyStudent(n_features=2**12), corpus.instances, cfg)
        assert np.array_equal(student_a.weights, student_b.weights)
        assert result_a.losses == result_b.losses

    def test_different_seeds_differ(self):
        corpus = build_separable_corpus(24, seed=2)
        student_a, _ = train(
            ToyStudent(n_features=2**12), corpus.instances, TrainConfig(iterations=40, seed=1)
        )
        student_b, _ = train(
            ToyStudent(n_features=2**12), corpus.instances, TrainConfig(iterations=40, seed=2)
        )
        assert not np.array_equal(student_a.weights, student_b.weights)

    def test_separable_corpus_reaches_high_heldout_accuracy(self):
        train_corpus = build_separable_corpus(64, seed=3)
        heldout = build_separable_corpus(64, seed=4)
        student = ToyStudent(n_features=2**14)
        cfg = TrainConfig(iterations=200, loss_mode="generate", seed=0)
        train(student, train_corpus.instances, cfg)
        assert evaluate_accuracy(student, heldout) > 0.9

    def test_loss_trace_decreases_on_separable_data(self):
        corpus = build_separable_corpus(32, seed=5)
        student = ToyStudent(n_features=2**12)
        _, result = train(student, corpus.instances, TrainConfig(iterations=120, seed=0))
        assert np.mean(result.losses[-10:]) < np.mean(result.losses[:10])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(ToyStudent(n_features=16), [], TrainConfig())

    def test_distill_mode_requires_scores(self):
        corpus = build_separable_corpus(8, seed=6)
        cfg = TrainConfig(iterations=2, loss_mode="distill")
        with pytest.raises(MissingTeacherScores):
            train(ToyStudent(n_features=2**10), corpus.instances, cfg)

    def test_distill_rejects_an_unscored_instance_the_schedule_never_visits(self):
        rng = np.random.default_rng(25)
        corpus = [random_instance(rng) for _ in range(48)]
        cfg = TrainConfig(iterations=1, micro_batch=2, grad_accumulation=1, seed=0,
                          loss_mode="distill")
        # Two visits: the last instance of the first shuffle is never drawn.
        unvisited = int(np.random.default_rng(cfg.seed).permutation(len(corpus))[-1])
        corpus[unvisited] = random_instance(rng, with_scores=False)
        with pytest.raises(
            MissingTeacherScores,
            match="distill loss needs teacher scores on every instance; 1 missing",
        ):
            train(ToyStudent(n_features=2**10), corpus, cfg)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -0.5, 0.0])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)

    def test_trace_csv(self, tmp_path):
        corpus = build_separable_corpus(8, seed=8)
        _, result = train(
            ToyStudent(n_features=2**10), corpus.instances, TrainConfig(iterations=3, seed=0)
        )
        path = tmp_path / "trace.csv"
        write_loss_trace(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 4
        assert lines[1].startswith("1,")


def pair_features(student, question, choice):
    """The oracle's features of one (question, choice) pair of ``student``."""
    return reference_pair_features(
        question + PAIR_SEPARATOR + choice, student.n_features, student.hash_seed
    )


def dense_reference_train(student, instances, cfg):
    """The dense trainer ``train`` replaced, kept as its oracle.

    Visit by visit it draws the next instance, reads every pair's features
    from the per-pair oracle ``reference_pair_features`` and its logit as
    their dot product with ``params``, adds the kernel's gradient into a
    full-size vector and updates every parameter. Returns the per-step
    losses.
    """
    rng = np.random.default_rng(cfg.seed)
    order, losses = [], []
    params = student.params
    m, v = np.zeros_like(params), np.zeros_like(params)
    for step in range(1, cfg.iterations + 1):
        grad_sum, loss_sum = np.zeros_like(params), 0.0
        for _ in range(cfg.grad_accumulation):
            grad, batch_losses = np.zeros_like(params), []
            for _ in range(cfg.micro_batch):
                if not order:
                    order = list(rng.permutation(len(instances)))[::-1]
                inst = instances[order.pop()]
                pairs = [pair_features(student, inst.question, c) for c in inst.choices]
                logits = np.array([np.dot(params[idx], val) for idx, val in pairs])
                target = instance_target(inst, cfg.loss_mode, cfg.distill_temperature_r)
                loss, dlogits = loss_kernel(logits, *target)
                for coeff, (idx, val) in zip(dlogits, pairs):
                    if coeff != 0.0 and idx.size:
                        np.add.at(grad, idx, (1.0 / cfg.micro_batch) * coeff * val)
                batch_losses.append(loss)
            grad_sum += grad
            loss_sum += float(np.mean(batch_losses))
        grad = grad_sum / cfg.grad_accumulation
        losses.append(loss_sum / cfg.grad_accumulation)
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad * grad
        m_hat = m / (1.0 - 0.9**step)
        v_hat = v / (1.0 - 0.999**step)
        params -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
    return losses


EXACTNESS_CONFIGS = {
    "generate": dict(loss_mode="generate"),
    "distill_r1": dict(loss_mode="distill", distill_temperature_r=1.0),
    "distill_r0": dict(loss_mode="distill", distill_temperature_r=0.0),
    "binary_bce": dict(loss_mode="binary_bce"),
    "distill_r05_lr03": dict(loss_mode="distill", distill_temperature_r=0.5,
                             learning_rate=0.3),
}


class TestTrainMatchesDenseReference:
    # 36 visits: fewer than 48 instances (some never visited), or 3.6
    # epochs over 10 instances.
    @pytest.mark.parametrize("n_instances", [48, 10])
    @pytest.mark.parametrize("name", sorted(EXACTNESS_CONFIGS))
    def test_bit_identical_weights_and_losses(self, name, n_instances):
        rng = np.random.default_rng(21)
        corpus = [random_instance(rng) for _ in range(n_instances)]
        cfg = TrainConfig(iterations=6, micro_batch=3, grad_accumulation=2, seed=5,
                          **EXACTNESS_CONFIGS[name])
        reference = ToyStudent(n_features=2**12)
        expected_losses = dense_reference_train(reference, corpus, cfg)
        student, result = train(ToyStudent(n_features=2**12), corpus, cfg)
        assert np.array_equal(student.weights, reference.weights)
        assert result.losses == expected_losses
        assert result.visited_instances == min(n_instances, 36)
        assert result.active_features >= np.count_nonzero(student.weights) > 0

    @pytest.mark.parametrize("name", sorted(EXACTNESS_CONFIGS))
    def test_bit_identical_with_two_to_six_choices(self, name):
        cfg = TrainConfig(iterations=6, micro_batch=3, grad_accumulation=2, seed=5,
                          **EXACTNESS_CONFIGS[name])
        rng = np.random.default_rng(26)
        counts = rng.integers(2, 7, size=30)
        # Step 1 visits the first six of the shuffle: every count, 2 to 6.
        order = np.random.default_rng(cfg.seed).permutation(counts.size)
        counts[order[:5]] = [2, 3, 4, 5, 6]
        corpus = [random_instance(rng, num_choices=int(c)) for c in counts]
        assert {corpus[i].num_choices for i in order[:6]} == {2, 3, 4, 5, 6}
        reference = ToyStudent(n_features=2**12)
        expected_losses = dense_reference_train(reference, corpus, cfg)
        student, result = train(ToyStudent(n_features=2**12), corpus, cfg)
        assert student.weights.tobytes() == reference.weights.tobytes()
        assert result.losses == expected_losses

    def test_preset_weights_off_the_visited_pairs_come_back_bit_for_bit(self):
        rng = np.random.default_rng(22)
        corpus = [random_instance(rng) for _ in range(48)]
        cfg = TrainConfig(iterations=4, micro_batch=2, grad_accumulation=2, seed=3,
                          learning_rate=0.2)
        visited = np.random.default_rng(cfg.seed).permutation(len(corpus))[:16]
        student = random_student(seed=8)
        student.weights[::7] = -0.0
        touched = np.zeros(student.n_features, dtype=bool)
        for i in visited:
            for choice in corpus[i].choices:
                touched[pair_features(student, corpus[i].question, choice)[0]] = True
        before = student.weights.copy()
        train(student, corpus, cfg)
        assert 0 < touched.sum() < student.n_features
        assert student.weights[~touched].tobytes() == before[~touched].tobytes()
        assert not np.array_equal(student.weights[touched], before[touched])


class TestKernelModes:
    def test_binary_mode_averages_pairs(self):
        inst = make_instance(answer_index=0)
        expected = math.log(2)  # every pair sits at logit 0
        assert kernel_loss(np.zeros(4), inst, "binary_bce") == pytest.approx(expected)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            instance_target(make_instance(), "nope")


def per_instance_kernel(logits, target, temperature):
    """The one-instance kernel the block ``loss_kernel`` replaced, kept as
    its oracle: a float loss and the (C,) logit gradient of one instance."""
    n = logits.size
    if temperature is None:
        clamped = np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP)
        sig = 1.0 / (1.0 + np.exp(-clamped))
        active = (np.abs(logits) < LOGIT_CLAMP).astype(np.float64)
        per_pair = target * np.logaddexp(0.0, -clamped) + (1 - target) * np.logaddexp(
            0.0, clamped
        )
        return float(np.mean(per_pair)), (sig - target) * active / n
    weights = np.exp((logits - logits.max()) / temperature)
    probs = weights / weights.sum()
    logq = np.log(np.maximum(probs, 1e-12))
    loss = -float(np.sum(np.where(target > 0, target * logq, 0.0))) / n
    return loss, (probs - target) / (n * temperature)


KERNEL_MODES = [("generate", 1.0), ("distill", 1.0), ("distill", 0.0), ("distill", 0.5),
                ("binary_bce", 1.0)]


class TestBlockKernel:
    @pytest.mark.parametrize("mode,r", KERNEL_MODES)
    @pytest.mark.parametrize("choices", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 26])
    def test_block_equals_one_row_calls_bit_for_bit(self, mode, r, choices):
        rng = np.random.default_rng(choices)
        rows = [instance_target(random_instance(rng, num_choices=choices), mode, r)
                for _ in range(7)]
        target = np.array([t for t, _ in rows])
        temperature = rows[0][1]
        logits = rng.normal(0.0, 3.0, target.shape)
        # Logits at and past the BCE clamp, and far apart for the softmax.
        logits[0, 0], logits[1, -1], logits[2, 0] = 30.0, -30.0, 45.5
        logits[3, 0], logits[4] = -1e3, 40.0
        losses, dlogits = loss_kernel(logits, target, temperature)
        assert losses.shape == (7,) and dlogits.shape == (7, choices)
        for k in range(7):
            row_loss, row_grad = loss_kernel(logits[k : k + 1], target[k : k + 1], temperature)
            assert row_loss.tobytes() == losses[k : k + 1].tobytes()
            assert row_grad.tobytes() == dlogits[k : k + 1].tobytes()
            oracle_loss, oracle_grad = per_instance_kernel(logits[k], target[k], temperature)
            assert losses[k] == oracle_loss
            assert dlogits[k].tobytes() == oracle_grad.tobytes()

    def test_clamped_bce_logits_get_zero_gradient(self):
        logits = np.array([[30.0, -30.0, 29.5, -45.0]])
        _, dlogits = loss_kernel(logits, one_hot(0, 4)[None], None)
        assert list(dlogits[0] == 0.0) == [True, True, False, True]


class WideValueStudent:
    """Test double: choice k of every instance reads coordinate k with
    feature value 1000, so all logits start at 0 and the gradient is large."""

    def __init__(self, slots):
        self.params = np.zeros(slots)

    def instance_features(self, items):
        value = np.array([1000.0])
        for _, choices in items:
            yield tuple((np.array([k]), value) for k in range(len(choices)))


class TestDivergence:
    @pytest.mark.parametrize("mode", ["generate", "binary_bce"])
    def test_a_nan_weight_stops_the_first_step_that_reads_it(self, mode):
        corpus = build_separable_corpus(8, seed=9).instances
        student = FixedLogitStudent({}, default=float("nan"))
        cfg = TrainConfig(iterations=3, loss_mode=mode, seed=0)
        with pytest.raises(
            TrainingDiverged, match="training diverged at step 1: non-finite student logits"
        ):
            train(student, corpus, cfg)

    @pytest.mark.parametrize("mode", ["generate", "binary_bce"])
    def test_an_overflowing_last_update_is_caught_at_the_end(self, mode):
        corpus = [make_instance(f"i{k}", question=f"q{k}") for k in range(4)]
        student = WideValueStudent(4)
        cfg = TrainConfig(iterations=1, micro_batch=4, grad_accumulation=1, seed=0,
                          loss_mode=mode, learning_rate=1e308)
        # lr * m_hat overflows: m_hat is the gradient, hundreds in size.
        with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
            with pytest.raises(
                TrainingDiverged,
                match=r"training diverged by step 1: \d non-finite trained weights",
            ):
                train(student, corpus, cfg)
        assert not student.params.any()

    @pytest.mark.parametrize("mode", ["generate", "binary_bce"])
    def test_huge_learning_rate_diverges_loudly(self, mode):
        corpus = build_separable_corpus(32, seed=10).instances
        student = ToyStudent(n_features=2**12)
        cfg = TrainConfig(iterations=50, loss_mode=mode, learning_rate=1e308, seed=0)
        with pytest.warns(RuntimeWarning, match="overflow encountered in"):
            with pytest.raises(TrainingDiverged, match=r"training diverged (at|by) step \d+"):
                train(student, corpus, cfg)
        assert not student.weights.any()


def preset_student(seed):
    """A student with non-zero weights and a -0.0 at every seventh coordinate."""
    student = random_student(seed=seed)
    student.weights[::7] = -0.0
    return student


def pair_coordinates(student, instances):
    """The coordinates the (question, choice) pairs of ``instances`` touch."""
    return {
        int(k)
        for inst in instances
        for choice in inst.choices
        for k in pair_features(student, inst.question, choice)[0]
    }


class TestPrefixTrainMatchesDenseReference:
    """``train`` runs each step on the coordinates touched so far; the dense
    oracle runs every step on all of them."""

    def test_preset_weights_with_first_touches_at_every_step(self):
        rng = np.random.default_rng(23)
        corpus = [random_instance(rng) for _ in range(40)]
        cfg = TrainConfig(iterations=8, micro_batch=2, grad_accumulation=2, seed=4,
                          loss_mode="distill", learning_rate=0.2)
        # 32 visits over 40 instances: every visit is a first visit, and
        # every step touches coordinates no earlier step touched.
        order = np.random.default_rng(cfg.seed).permutation(len(corpus))[:32]
        reach = [
            len(pair_coordinates(ToyStudent(n_features=2**12), [corpus[i] for i in order[:end]]))
            for end in range(4, 33, 4)
        ]
        assert all(a < b for a, b in zip(reach, reach[1:]))
        reference, student = preset_student(9), preset_student(9)
        expected_losses = dense_reference_train(reference, corpus, cfg)
        _, result = train(student, corpus, cfg)
        assert student.weights.tobytes() == reference.weights.tobytes()
        assert result.losses == expected_losses
        assert result.active_features == reach[-1]

    def test_last_step_is_the_first_to_touch_some_coordinates(self):
        rng = np.random.default_rng(24)
        corpus = [random_instance(rng) for _ in range(12)]
        cfg = TrainConfig(iterations=3, micro_batch=2, grad_accumulation=2, seed=6,
                          loss_mode="generate", learning_rate=0.2)
        # 12 visits are one shuffle of the 12 instances; its last instance
        # is visited by the last step only.
        last = int(np.random.default_rng(cfg.seed).permutation(len(corpus))[-1])
        corpus[last] = make_instance(
            "last", question="zeta eta theta iota kappa",
            choices=("lambda mu", "nu xi", "omicron pi", "rho sigma"), answer_index=2,
        )
        probe = ToyStudent(n_features=2**12)
        others = corpus[:last] + corpus[last + 1:]
        fresh = sorted(pair_coordinates(probe, [corpus[last]]) - pair_coordinates(probe, others))
        assert fresh
        reference, student = preset_student(10), preset_student(10)
        expected_losses = dense_reference_train(reference, corpus, cfg)
        _, result = train(student, corpus, cfg)
        assert student.weights.tobytes() == reference.weights.tobytes()
        assert result.losses == expected_losses
        assert np.any(student.weights[fresh] != preset_student(10).weights[fresh])

    def test_first_step_coordinates_idle_for_over_100_steps(self):
        rng = np.random.default_rng(25)
        corpus = [random_instance(rng) for _ in range(480)]
        cfg = TrainConfig(iterations=110, micro_batch=2, grad_accumulation=2, seed=7,
                          loss_mode="distill", learning_rate=0.2)
        # 440 visits over 480 instances, each visited once: the two
        # instances step 1 visits in its two micro-batches share words no
        # other instance has, so their coordinates are touched by step 1
        # and idle for the 109 steps after it.
        order = np.random.default_rng(cfg.seed).permutation(len(corpus))
        for i, words in ((order[0], "zeta eta theta"), (order[2], "zeta iota kappa")):
            corpus[i] = make_instance(
                f"first-{i}", question=f"which {words}?",
                choices=("lambda mu", "nu", "xi omicron pi", "rho sigma tau upsilon"),
                answer_index=1, teacher_scores=(0.1, 1.2, -0.3, 0.4),
            )
        probe = ToyStudent(n_features=2**12)
        first = pair_coordinates(probe, [corpus[i] for i in order[:4]])
        idle = np.array(sorted(first - pair_coordinates(probe, [corpus[i] for i in order[4:440]])))
        assert idle.size >= 8
        reference, student = preset_student(11), preset_student(11)
        for each in (reference, student):
            each.weights[idle[::2]] = -0.0
        preset = preset_student(11).weights
        expected_losses = dense_reference_train(reference, corpus, cfg)
        _, result = train(student, corpus, cfg)
        assert student.weights.tobytes() == reference.weights.tobytes()
        assert result.losses == expected_losses
        assert np.all(student.weights[idle] != preset[idle])


def per_instance_first_touch(compiled, size):
    """The per-instance numbering the chunked ``_number_by_first_touch``
    replaced, kept as its oracle: one ``np.unique`` per instance."""
    rank = np.full(size, -1, dtype=np.int64)
    fresh, reach = [], []
    touched = 0
    for i, pairs in compiled.items():
        index = np.concatenate([idx for idx, _ in pairs])
        new = np.unique(index[rank[index] < 0])
        rank[new] = np.arange(touched, touched + new.size)
        touched += new.size
        fresh.append(new)
        compiled[i] = tuple((rank[idx], val) for idx, val in pairs)
        reach.append(touched)
    return np.concatenate(fresh), reach


def random_compiled(rng, count, size, empty_from=None):
    """``count`` instances' per-choice features keyed by shuffled visit ids; each choice
    touches 0 to 12 of ``size`` coordinates, and from instance
    ``empty_from`` on every choice touches none."""
    compiled = {}
    for n, key in enumerate(rng.permutation(4 * count)[:count].tolist()):
        features = []
        for _ in range(int(rng.integers(1, 6))):
            width = 0 if empty_from is not None and n >= empty_from else int(rng.integers(0, 13))
            features.append((rng.integers(0, size, width), rng.normal(size=width)))
        compiled[key] = tuple(features)
    return compiled


class TestFirstTouchNumbering:
    @pytest.mark.parametrize("count, size, empty_from", [
        (1, 64, None),                             # one group of one instance
        (2 * FEATURIZE_CHUNK + 1, 512, None),      # the last group holds one instance
        (3 * FEATURIZE_CHUNK, 2**16, None),        # few collisions
        (3 * FEATURIZE_CHUNK, 40, None),           # most coordinates touched in group one
        (3 * FEATURIZE_CHUNK + 5, 300, 2 * FEATURIZE_CHUNK),  # a group of empty choices
        (FEATURIZE_CHUNK, 300, 0),                 # nothing touched at all
    ])
    def test_chunked_equals_per_instance_oracle(self, count, size, empty_from):
        rng = np.random.default_rng(count + size)
        compiled = random_compiled(rng, count, size, empty_from)
        expected = dict(compiled)
        active, reach = _number_by_first_touch(compiled, size)
        expected_active, expected_reach = per_instance_first_touch(expected, size)
        assert active.dtype == np.int64
        assert active.tobytes() == expected_active.tobytes()
        assert reach == expected_reach
        assert list(compiled) == list(expected)
        for key, pairs in compiled.items():
            assert len(pairs) == len(expected[key])
            for (idx, val), (ref_idx, ref_val) in zip(pairs, expected[key]):
                assert idx.tobytes() == ref_idx.tobytes()
                assert val is ref_val
