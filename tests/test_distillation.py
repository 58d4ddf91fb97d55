"""Loss functions, analytic gradients, and the training loop."""

import math

import numpy as np
import pytest

from mcqa_distill.core import SoftLabel
from mcqa_distill.distillation import (
    MissingTeacherScores,
    TrainConfig,
    batch_loss,
    batch_loss_and_gradient,
    binary_bce_loss,
    ce_loss,
    gradient,
    instance_loss,
    instance_target,
    l_distill,
    l_generate,
    loss_kernel,
    one_hot,
    predict_probs,
    train,
    write_loss_trace,
)
from mcqa_distill.evaluation import evaluate_accuracy
from mcqa_distill.students import ToyStudent
from mcqa_distill.synthetic import build_separable_corpus

from conftest import FixedLogitStudent, make_instance


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


class TestCeLoss:
    def test_one_hot_vs_uniform_is_quarter_log_four(self):
        value = ce_loss(one_hot(0, 4), SoftLabel((0.25,) * 4))
        assert value == pytest.approx(math.log(4) / 4, abs=1e-12)

    def test_identical_one_hot_is_zero(self):
        assert ce_loss(one_hot(2, 4), one_hot(2, 4)) == 0.0

    def test_soft_target_against_uniform_is_quarter_log_four(self):
        # Any target summing to 1 gives ln(4)/4 against the uniform prediction.
        target = SoftLabel((0.351, 0.214, 0.213, 0.222))
        value = ce_loss(target, SoftLabel((0.25,) * 4))
        assert value == pytest.approx(math.log(4) / 4, abs=1e-12)

    def test_minimized_at_matching_prediction(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            base = ce_loss(p, p)
            for _ in range(10):
                q = rng.dirichlet(np.ones(4))
                assert ce_loss(p, q) >= base - 1e-12

    def test_floor_keeps_loss_finite(self):
        value = ce_loss(one_hot(0, 2), (0.0, 1.0))
        assert value == pytest.approx(-math.log(1e-12) / 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ce_loss(one_hot(0, 3), one_hot(0, 4))

    def test_factor_can_be_dropped(self):
        scaled = ce_loss(one_hot(0, 4), SoftLabel((0.25,) * 4))
        raw = ce_loss(one_hot(0, 4), SoftLabel((0.25,) * 4), average_over_choices=False)
        assert raw == pytest.approx(4 * scaled)


class TestPredictProbs:
    def test_zero_weight_student_is_uniform(self):
        probs = predict_probs(ToyStudent(n_features=2**10), make_instance(), 1.0).probs
        assert probs == (0.25, 0.25, 0.25, 0.25)

    def test_shift_invariance_of_logits(self):
        inst = make_instance()
        base = FixedLogitStudent({(inst.question, c): float(i) for i, c in enumerate(inst.choices)})
        shifted = FixedLogitStudent(
            {(inst.question, c): float(i) + 11.5 for i, c in enumerate(inst.choices)}
        )
        left = predict_probs(base, inst, 1.0).probs
        right = predict_probs(shifted, inst, 1.0).probs
        assert left == pytest.approx(right, abs=1e-12)

    def test_hand_set_logits(self):
        inst = make_instance(choices=("yes", "no"), answer_index=0)
        student = FixedLogitStudent(
            {(inst.question, "yes"): math.log(2), (inst.question, "no"): 0.0}
        )
        assert predict_probs(student, inst, 1.0).probs == pytest.approx((2 / 3, 1 / 3))

    def test_zero_temperature_rejected(self):
        with pytest.raises(ValueError):
            predict_probs(ToyStudent(n_features=16), make_instance(), 0.0)


class TestLGenerate:
    def test_zero_weight_student_gives_quarter_log_four(self):
        value = l_generate(ToyStudent(n_features=2**10), make_instance())
        assert value == pytest.approx(math.log(4) / 4, abs=1e-12)

    def test_large_margin_drives_loss_below_1e6(self):
        inst = make_instance(answer_index=1)
        table = {(inst.question, c): 0.0 for c in inst.choices}
        table[(inst.question, inst.choices[1])] = 20.0
        assert l_generate(FixedLogitStudent(table), inst) < 1e-6

    def test_loss_decreases_as_gold_logit_grows(self):
        inst = make_instance(answer_index=0)
        losses = []
        for gold_logit in (0.0, 1.0, 2.0):
            table = {(inst.question, c): 0.0 for c in inst.choices}
            table[(inst.question, inst.choices[0])] = gold_logit
            losses.append(l_generate(FixedLogitStudent(table), inst))
        assert losses[0] > losses[1] > losses[2]


class TestLDistill:
    def test_r_zero_equals_generate_on_teacher_argmax_relabel(self):
        rng = np.random.default_rng(42)
        student = random_student(seed=7)
        for _ in range(25):
            inst = random_instance(rng)
            relabeled = make_instance(
                inst.id, question=inst.question, choices=inst.choices,
                answer_index=int(np.argmax(inst.teacher_scores)),
            )
            assert l_distill(student, inst, 0.0) == l_generate(student, relabeled)

    def test_uniform_teacher_uniform_student(self):
        inst = make_instance(teacher_scores=(1.0, 1.0, 1.0, 1.0))
        value = l_distill(ToyStudent(n_features=2**10), inst, 1.0)
        assert value == pytest.approx(math.log(4) / 4, abs=1e-12)

    def test_missing_scores_rejected(self):
        with pytest.raises(MissingTeacherScores):
            l_distill(ToyStudent(n_features=16), make_instance(), 1.0)

    def test_temperature_divides_both_sides(self):
        inst = make_instance(teacher_scores=(2.0, 0.0, -1.0, 0.5))
        student = FixedLogitStudent(
            {(inst.question, c): float(i) for i, c in enumerate(inst.choices)}
        )
        r = 2.0
        from mcqa_distill.scoring import soften

        expected = ce_loss(
            soften(inst.teacher_scores, r),
            soften([0.0, 1.0, 2.0, 3.0], r),
        )
        assert l_distill(student, inst, r) == pytest.approx(expected, abs=1e-12)


class TestBinaryBce:
    def test_zero_logit_label_one_is_log_two(self):
        student = FixedLogitStudent({})
        assert binary_bce_loss(student, "q", "c", 1) == pytest.approx(math.log(2))

    def test_saturated_correct_is_negligible(self):
        student = FixedLogitStudent({("q", "c"): 30.0})
        assert binary_bce_loss(student, "q", "c", 1) < 1e-12

    def test_saturated_wrong_is_clamped_near_thirty(self):
        student = FixedLogitStudent({("q", "c"): -3000.0})
        value = binary_bce_loss(student, "q", "c", 1)
        oracle = float(np.logaddexp(0.0, 30.0))  # clamp holds the logit at -30
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value == pytest.approx(30.0, abs=1e-9)


def probe_coordinates(grad, rng, count=8):
    """Random probe coordinates with non-negligible analytic gradient."""
    scale = np.abs(grad).max()
    candidates = np.flatnonzero(np.abs(grad) >= 1e-3 * scale)
    return rng.choice(candidates, size=min(count, candidates.size), replace=False)


def central_difference(student, batch, mode, r, coordinate, step=1e-5):
    original = student.weights[coordinate]
    student.weights[coordinate] = original + step
    upper = batch_loss(student, batch, mode, r)
    student.weights[coordinate] = original - step
    lower = batch_loss(student, batch, mode, r)
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
        batch = [random_instance(rng)]
        grad = gradient(student, batch, mode, r)
        for coordinate in probe_coordinates(grad, rng):
            numeric = central_difference(student, batch, mode, r, coordinate)
            analytic = grad[coordinate]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-10)
            assert rel < 1e-4

    def test_identical_choice_features_give_zero_gradient(self):
        """All choices share one feature vector: softmax stays uniform, grad 0."""
        student = ToyStudent(n_features=2**10)
        inst = make_instance(choices=("same", "Same", "SAME ", "sAmE"), answer_index=0)
        # Case-folding collapses all four to identical features; the duplicate
        # validation is irrelevant to the gradient computation itself.
        grad = gradient(student, [inst], "generate")
        assert np.all(grad == 0.0)

    def test_batch_gradient_is_mean_of_instance_gradients(self):
        rng = np.random.default_rng(3)
        student = random_student(seed=11)
        first, second = random_instance(rng), random_instance(rng)
        combined = gradient(student, [first, second], "distill", 1.0)
        averaged = 0.5 * (
            gradient(student, [first], "distill", 1.0)
            + gradient(student, [second], "distill", 1.0)
        )
        assert np.allclose(combined, averaged, atol=1e-15)

    def test_micro_batch_order_invariance(self):
        rng = np.random.default_rng(4)
        student = random_student(seed=13)
        batch = [random_instance(rng) for _ in range(4)]
        loss_a, grad_a = batch_loss_and_gradient(student, batch, "distill", 1.0)
        loss_b, grad_b = batch_loss_and_gradient(student, batch[::-1], "distill", 1.0)
        assert loss_a == pytest.approx(loss_b, abs=1e-12)
        assert np.allclose(grad_a, grad_b, atol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            gradient(ToyStudent(n_features=16), [], "generate")


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

    def test_sgd_option_runs(self):
        corpus = build_separable_corpus(8, seed=7)
        cfg = TrainConfig(iterations=5, optimizer="sgd", learning_rate=0.1, seed=0)
        _, result = train(ToyStudent(n_features=2**10), corpus.instances, cfg)
        assert len(result.losses) == 5

    def test_learning_rate_resolution(self):
        assert TrainConfig().resolve_learning_rate(ToyStudent(n_features=16)) == 0.5
        assert TrainConfig(learning_rate=1e-3).resolve_learning_rate(
            ToyStudent(n_features=16)
        ) == 1e-3
        assert TrainConfig().resolve_learning_rate(object()) == 1e-5

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


def dense_reference_train(student, instances, cfg):
    """The dense trainer ``train`` replaced, kept as its oracle.

    Visit by visit it draws the next instance, reads every pair through
    ``forward`` and ``features``, adds the kernel's gradient into a
    full-size vector and updates every parameter. Returns the per-step
    losses.
    """
    lr = cfg.resolve_learning_rate(student)
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
                pairs = [
                    (student.forward(inst.question, c), student.features(inst.question, c))
                    for c in inst.choices
                ]
                target = instance_target(inst, cfg.loss_mode, cfg.distill_temperature_r)
                loss, dlogits = loss_kernel(np.array([z for z, _ in pairs]), *target)
                for coeff, (_, (idx, val)) in zip(dlogits, pairs):
                    if coeff != 0.0 and idx.size:
                        np.add.at(grad, idx, (1.0 / cfg.micro_batch) * coeff * val)
                batch_losses.append(loss)
            grad_sum += grad
            loss_sum += float(np.mean(batch_losses))
        grad = grad_sum / cfg.grad_accumulation
        losses.append(loss_sum / cfg.grad_accumulation)
        if cfg.optimizer == "sgd":
            params -= lr * grad
        else:
            m = 0.9 * m + (1.0 - 0.9) * grad
            v = 0.999 * v + (1.0 - 0.999) * grad * grad
            m_hat = m / (1.0 - 0.9**step)
            v_hat = v / (1.0 - 0.999**step)
            params -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return losses


EXACTNESS_CONFIGS = {
    "generate": dict(loss_mode="generate"),
    "distill_r1": dict(loss_mode="distill", distill_temperature_r=1.0),
    "distill_r0": dict(loss_mode="distill", distill_temperature_r=0.0),
    "binary_bce": dict(loss_mode="binary_bce"),
    "sgd": dict(loss_mode="distill", distill_temperature_r=0.5, optimizer="sgd",
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

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_preset_weights_off_the_visited_pairs_come_back_bit_for_bit(self, optimizer):
        rng = np.random.default_rng(22)
        corpus = [random_instance(rng) for _ in range(48)]
        cfg = TrainConfig(iterations=4, micro_batch=2, grad_accumulation=2, seed=3,
                          optimizer=optimizer, learning_rate=0.2)
        visited = np.random.default_rng(cfg.seed).permutation(len(corpus))[:16]
        student = random_student(seed=8)
        student.weights[::7] = -0.0
        touched = np.zeros(student.n_features, dtype=bool)
        for i in visited:
            for choice in corpus[i].choices:
                touched[student.features(corpus[i].question, choice)[0]] = True
        before = student.weights.copy()
        train(student, corpus, cfg)
        assert 0 < touched.sum() < student.n_features
        assert student.weights[~touched].tobytes() == before[~touched].tobytes()
        assert not np.array_equal(student.weights[touched], before[touched])


class TestInstanceLoss:
    def test_binary_mode_averages_pairs(self):
        inst = make_instance(answer_index=0)
        student = FixedLogitStudent({})
        expected = math.log(2)  # every pair sits at logit 0
        assert instance_loss(student, inst, "binary_bce") == pytest.approx(expected)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            instance_loss(FixedLogitStudent({}), make_instance(), "nope")
