import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_instance
from msdn.errors import ArgumentError, ShapeError
from msdn.losses import LossConfig, acec_loss, distill_loss, total_loss, total_loss_raw
from msdn.model import PARAM_NAMES
from msdn.ndmath import Rng, grad_check_detail
from msdn.training import TrainConfig, train


def finite_diff_scores(fn, scores, step=1e-6):
    """Central-difference gradient of a scalar score function."""
    grad = np.zeros_like(scores)
    flat = scores.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = fn(scores)
        flat[i] = orig - step
        down = fn(scores)
        flat[i] = orig
        out[i] = (up - down) / (2 * step)
    return grad


class TestAcecLoss:
    def test_uniform_scores_give_log_c(self):
        cfg = LossConfig(lambda_cal=0.0)
        scores = np.zeros((3, 6))
        labels = np.array([0, 1, 3])
        loss, _ = acec_loss(scores, labels, np.arange(4), np.arange(4, 6), cfg)
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_saturated_softmax_vanishes(self):
        cfg = LossConfig(lambda_cal=0.0)
        scores = np.zeros((1, 5))
        scores[0, 2] = 20.0
        loss, _ = acec_loss(scores, np.array([2]), np.arange(3), np.arange(3, 5), cfg)
        assert loss < 1e-8

    @pytest.mark.parametrize("sign", ["prose", "literal"])
    def test_matches_scalar_oracle(self, sign):
        rng = Rng(21)
        scores = rng.uniform(-2.0, 2.0, 4, 5)
        labels = np.array([0, 2, 1, 0])
        seen, unseen = np.arange(3), np.arange(3, 5)
        cfg = LossConfig(lambda_cal=0.1, calibration_sign=sign)
        loss, _ = acec_loss(scores, labels, seen, unseen, cfg)
        expected = oracles.acec_loss(scores, labels, seen, unseen, 0.1, sign)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_zero_lambda_equals_plain_cross_entropy(self):
        rng = Rng(22)
        scores = rng.uniform(-3.0, 3.0, 5, 7)
        labels = np.array([1, 0, 3, 2, 1])
        seen, unseen = np.arange(4), np.arange(4, 7)
        loss, _ = acec_loss(scores, labels, seen, unseen, LossConfig(lambda_cal=0.0))
        expected = oracles.acec_loss(scores, labels, seen, unseen, 0.0, "prose")
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_constant_shift_leaves_seen_term_unchanged(self):
        rng = Rng(23)
        scores = rng.uniform(-2.0, 2.0, 3, 5)
        labels = np.array([0, 1, 2])
        seen, unseen = np.arange(3), np.arange(3, 5)
        cfg = LossConfig(lambda_cal=0.0)
        base, _ = acec_loss(scores, labels, seen, unseen, cfg)
        shifted, _ = acec_loss(scores + 7.5, labels, seen, unseen, cfg)
        assert shifted == pytest.approx(base, abs=1e-10)

    def test_label_outside_seen_rejected(self):
        cfg = LossConfig()
        with pytest.raises(ArgumentError, match="outside the seen"):
            acec_loss(np.zeros((1, 4)), np.array([3]), np.arange(3),
                      np.array([3]), cfg)

    @pytest.mark.parametrize("sign", ["prose", "literal"])
    def test_gradient_matches_finite_differences(self, sign):
        rng = Rng(24)
        scores = rng.uniform(-1.0, 1.0, 3, 6)
        labels = np.array([2, 0, 1])
        seen, unseen = np.arange(4), np.arange(4, 6)
        cfg = LossConfig(lambda_cal=0.2, calibration_sign=sign)
        _, grad = acec_loss(scores, labels, seen, unseen, cfg)
        numeric = finite_diff_scores(
            lambda s: acec_loss(s, labels, seen, unseen, cfg)[0], scores
        )
        np.testing.assert_allclose(grad, numeric, atol=1e-8)


class TestDistillLoss:
    def test_identical_scores_zero_loss_zero_grads(self):
        rng = Rng(31)
        scores = rng.uniform(-2.0, 2.0, 4, 5)
        loss, g1, g2 = distill_loss(scores, scores.copy(), LossConfig())
        assert loss == 0.0
        assert np.array_equal(g1, np.zeros_like(scores))
        assert np.array_equal(g2, np.zeros_like(scores))

    def test_analytic_two_class_case(self):
        # probabilities [0.5, 0.5] vs [0.25, 0.75] via logits [0,0] / [0, ln 3]
        scores1 = np.array([[0.0, 0.0]])
        scores2 = np.array([[0.0, math.log(3.0)]])
        loss, _, _ = distill_loss(scores1, scores2, LossConfig())
        jsd = 0.5 * (0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
                     + 0.25 * math.log(0.5) + 0.75 * math.log(1.5))
        l2 = 2 * 0.25 ** 2
        assert loss == pytest.approx(jsd + l2, abs=1e-12)
        assert l2 == pytest.approx(0.125)

    def test_matches_scalar_oracle(self):
        rng = Rng(32)
        cfg = LossConfig()
        for _ in range(10):
            a = rng.uniform(-3.0, 3.0, 3, 4)
            b = rng.uniform(-3.0, 3.0, 3, 4)
            loss, _, _ = distill_loss(a, b, cfg)
            expected = oracles.distill_loss(a, b, cfg.epsilon_kl)
            assert loss == pytest.approx(expected, abs=1e-12)

    def test_symmetry_bit_exact(self):
        rng = Rng(33)
        cfg = LossConfig()
        for _ in range(20):
            a = rng.uniform(-4.0, 4.0, 2, 6)
            b = rng.uniform(-4.0, 4.0, 2, 6)
            assert distill_loss(a, b, cfg)[0] == distill_loss(b, a, cfg)[0]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_non_negative(self, seed):
        rng = Rng(seed)
        a = rng.uniform(-5.0, 5.0, 2, 4)
        b = rng.uniform(-5.0, 5.0, 2, 4)
        assert distill_loss(a, b, LossConfig())[0] >= 0.0

    @pytest.mark.parametrize("jsd,l2", [(True, True), (True, False), (False, True)])
    def test_gradients_match_finite_differences(self, jsd, l2):
        rng = Rng(34)
        a = rng.uniform(-1.0, 1.0, 2, 5)
        b = rng.uniform(-1.0, 1.0, 2, 5)
        cfg = LossConfig(distill_jsd=jsd, distill_l2=l2)
        _, g1, g2 = distill_loss(a, b, cfg)
        n1 = finite_diff_scores(lambda s: distill_loss(s, b, cfg)[0], a)
        n2 = finite_diff_scores(lambda s: distill_loss(a, s, cfg)[0], b)
        np.testing.assert_allclose(g1, n1, atol=1e-8)
        np.testing.assert_allclose(g2, n2, atol=1e-8)

    def test_clamp_handles_saturated_rows(self):
        # one probability underflows the clamp; loss must stay finite
        a = np.array([[60.0, -60.0]])
        b = np.array([[-60.0, 60.0]])
        loss, _, _ = distill_loss(a, b, LossConfig())
        assert math.isfinite(loss) and loss > 0

    def test_jsd_only_and_l2_only_sum_to_both(self):
        rng = Rng(35)
        a = rng.uniform(-2.0, 2.0, 3, 4)
        b = rng.uniform(-2.0, 2.0, 3, 4)
        both, _, _ = distill_loss(a, b, LossConfig())
        jsd, _, _ = distill_loss(a, b, LossConfig(distill_l2=False))
        l2, _, _ = distill_loss(a, b, LossConfig(distill_jsd=False))
        assert both == pytest.approx(jsd + l2, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            distill_loss(np.zeros((2, 3)), np.zeros((2, 4)), LossConfig())


class TestTotalLoss:
    def test_zero_distill_weight_total_is_sum(self):
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(41)
        cfg = LossConfig(lambda_distill=0.0)
        breakdown, _ = total_loss_raw(
            params, regions, labels, attrs, semantics, seen, unseen, cfg)
        assert breakdown.total == breakdown.acec_a2v + breakdown.acec_v2a
        assert breakdown.distill == 0.0

    def test_breakdown_identity(self):
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(42)
        cfg = LossConfig(lambda_distill=0.7)
        breakdown, _ = total_loss_raw(
            params, regions, labels, attrs, semantics, seen, unseen, cfg)
        assert breakdown.total == pytest.approx(
            breakdown.acec_a2v + breakdown.acec_v2a
            + cfg.lambda_distill * breakdown.distill,
            abs=1e-12,
        )
        assert breakdown.distill > 0.0

    def test_zero_embeddings_give_zero_distill(self):
        # W2 = W_att = 0 forces psi == Psi == 0, the zero-distance case
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(43)
        params = params.with_updates({
            "W2": np.zeros_like(params.W2),
            "W_att": np.zeros_like(params.W_att),
        })
        breakdown, _ = total_loss_raw(
            params, regions, labels, attrs, semantics, seen, unseen, LossConfig())
        assert breakdown.distill == 0.0

    def test_full_parameter_gradients_pass_grad_check(self):
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(
            44, k=5, r=4, d_v=8, d_a=6, c_seen=3, c_unseen=2, batch=2)
        cfg = LossConfig()
        _, grads = total_loss_raw(
            params, regions, labels, attrs, semantics, seen, unseen, cfg)
        for name in PARAM_NAMES:
            def f(flat, _n=name):
                candidate = params.with_updates(
                    {_n: flat.reshape(getattr(params, _n).shape)})
                out, _ = total_loss_raw(
                    candidate, regions, labels, attrs, semantics, seen, unseen, cfg)
                return out.total
            err = grad_check_detail(f, getattr(params, name).reshape(-1),
                                    grads[name].reshape(-1)).max_rel_error
            assert err <= 1e-5, f"{name}: {err}"

    def test_batched_gradients_pass_grad_check_with_distinct_labels(self):
        params, regions, attrs, semantics, _, seen, unseen = random_instance(
            46, k=5, r=4, d_v=8, d_a=6, c_seen=3, c_unseen=2, batch=4)
        labels = np.array([2, 0, 1, 2])
        assert not np.array_equal(regions[0], regions[1])
        cfg = LossConfig(lambda_distill=0.5)
        _, grads = total_loss_raw(
            params, regions, labels, attrs, semantics, seen, unseen, cfg)
        for name in PARAM_NAMES:
            def f(flat, _n=name):
                candidate = params.with_updates(
                    {_n: flat.reshape(getattr(params, _n).shape)})
                out, _ = total_loss_raw(
                    candidate, regions, labels, attrs, semantics, seen, unseen, cfg)
                return out.total
            err = grad_check_detail(f, getattr(params, name).reshape(-1),
                                    grads[name].reshape(-1)).max_rel_error
            assert err <= 1e-5, f"{name}: {err}"

    def test_inactive_branch_gets_zero_gradient(self):
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(45)
        cfg = LossConfig(use_v2a=False)
        breakdown, grads = total_loss_raw(
            params, regions, labels, attrs, semantics, seen, unseen, cfg)
        assert breakdown.acec_v2a == 0.0 and breakdown.distill == 0.0
        for name in ("W3", "W4", "W_att"):
            assert np.array_equal(grads[name], np.zeros_like(grads[name]))
        assert np.abs(grads["W1"]).max() > 0

    def test_dataset_wrapper_matches_raw(self, tiny_dataset):
        cfg = TrainConfig(epochs=0, seed=5)
        params = train(tiny_dataset, cfg).params
        idx = tiny_dataset.train_idx[:4]
        via_ds, _ = total_loss(params, tiny_dataset, idx, LossConfig())
        via_raw, _ = total_loss_raw(
            params,
            tiny_dataset.features[idx],
            tiny_dataset.labels[idx],
            tiny_dataset.attributes,
            tiny_dataset.class_semantics,
            tiny_dataset.seen_classes,
            tiny_dataset.unseen_classes,
            LossConfig(),
        )
        assert via_ds == via_raw


class TestLossConfig:
    def test_rejects_negative_weights(self):
        with pytest.raises(ArgumentError):
            LossConfig(lambda_cal=-0.1)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ArgumentError):
            LossConfig(epsilon_kl=0.0)
        with pytest.raises(ArgumentError):
            LossConfig(epsilon_kl=0.01)

    def test_rejects_unknown_sign(self):
        with pytest.raises(ArgumentError):
            LossConfig(calibration_sign="inverted")

    def test_rejects_no_active_subnet(self):
        with pytest.raises(ArgumentError):
            LossConfig(use_a2v=False, use_v2a=False)
