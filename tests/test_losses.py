import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import acec, distill, random_instance, stacked
from msdn import losses
from msdn.ablation import MODELS
from msdn.data_io import ClassSplit
from msdn.errors import ArgumentError, ShapeError
from msdn.losses import LossConfig, LossTerms, acec_loss, distill_loss, total_loss_raw
from msdn.model import PARAM_NAMES, ModelDims, init_params_from_rng
from msdn.ndmath import Rng, grad_check_detail, softmax_stable

# The ablation grid's four models: no distillation, full, JSD only, L2 only.
LOCKSTEP = (LossConfig(lambda_distill=0.0), LossConfig(), LossConfig(distill_l2=False),
            LossConfig(distill_jsd=False))
LOCKSTEP_TERMS = LossTerms.of(LOCKSTEP, (len(LOCKSTEP),))


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
        scores = np.zeros((3, 6))
        labels = np.array([0, 1, 3])
        loss, _ = acec(scores, labels, np.arange(4), np.arange(4, 6), 0.0)
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_saturated_softmax_vanishes(self):
        scores = np.zeros((1, 5))
        scores[0, 2] = 20.0
        loss, _ = acec(scores, np.array([2]), np.arange(3), np.arange(3, 5), 0.0)
        assert loss < 1e-8

    def test_matches_scalar_oracle(self):
        rng = Rng(21)
        scores = rng.uniform(-2.0, 2.0, 4, 5)
        labels = np.array([0, 2, 1, 0])
        seen, unseen = np.arange(3), np.arange(3, 5)
        loss, _ = acec(scores, labels, seen, unseen, 0.1)
        expected = oracles.acec_loss(scores, labels, seen, unseen, 0.1)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_zero_lambda_equals_plain_cross_entropy(self):
        rng = Rng(22)
        scores = rng.uniform(-3.0, 3.0, 5, 7)
        labels = np.array([1, 0, 3, 2, 1])
        seen, unseen = np.arange(4), np.arange(4, 7)
        loss, _ = acec(scores, labels, seen, unseen, 0.0)
        expected = oracles.acec_loss(scores, labels, seen, unseen, 0.0)
        assert loss == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("lambda_cal, c_unseen", [(0.0, 2), (0.1, 0)],
                             ids=["zero_lambda", "no_unseen_class"])
    def test_calibration_off_adds_exact_zeros(self, lambda_cal, c_unseen):
        rng = Rng(26)
        scores = rng.uniform(-2.0, 2.0, 3, 4 + c_unseen)
        labels = np.array([2, 0, 3])
        seen, unseen = np.arange(4), np.arange(4, 4 + c_unseen)
        loss, grad = acec(scores, labels, seen, unseen, lambda_cal)
        assert not grad[:, unseen].any()

        def oracle(flat):
            return oracles.acec_loss(flat.reshape(scores.shape), labels, seen, unseen, lambda_cal)

        assert loss == pytest.approx(oracle(scores), abs=1e-12)
        detail = grad_check_detail(oracle, scores.reshape(-1), grad.reshape(-1))
        assert detail.max_rel_error <= 1e-5

    def test_constant_shift_leaves_seen_term_unchanged(self):
        rng = Rng(23)
        scores = rng.uniform(-2.0, 2.0, 3, 5)
        labels = np.array([0, 1, 2])
        seen, unseen = np.arange(3), np.arange(3, 5)
        base, _ = acec(scores, labels, seen, unseen, 0.0)
        shifted, _ = acec(scores + 7.5, labels, seen, unseen, 0.0)
        assert shifted == pytest.approx(base, abs=1e-10)

    def test_label_outside_seen_rejected(self):
        with pytest.raises(ArgumentError, match="outside the seen"):
            acec(np.zeros((1, 4)), np.array([3]), np.arange(3), np.array([3]), 0.1)

    def test_gradient_matches_finite_differences(self):
        rng = Rng(24)
        scores = rng.uniform(-1.0, 1.0, 3, 6)
        labels = np.array([2, 0, 1])
        seen, unseen = np.arange(4), np.arange(4, 6)
        _, grad = acec(scores, labels, seen, unseen, 0.2)
        numeric = finite_diff_scores(
            lambda s: acec(s, labels, seen, unseen, 0.2)[0], scores
        )
        np.testing.assert_allclose(grad, numeric, atol=1e-8)

    def test_stacked_blocks_score_as_alone(self):
        rng = Rng(25)
        labels = np.array([3, 0, 2])
        seen, unseen = np.arange(4), np.arange(4, 6)
        split = ClassSplit.of(seen, unseen)
        blocks = [rng.uniform(-2.0, 2.0, 6, 3) for _ in range(2)]   # class-major (C, batch)
        stacked = np.concatenate(blocks, axis=1)
        losses, grad, p_seen = acec_loss(stacked, labels, split, 0.2)
        alone = [acec_loss(block, labels, split, 0.2) for block in blocks]
        assert losses == [loss for (loss,), _, _ in alone]
        assert np.array_equal(grad, np.concatenate([g for _, g, _ in alone], axis=1))
        assert np.array_equal(p_seen, np.concatenate([p for _, _, p in alone], axis=1))
        assert grad.shape == stacked.shape and p_seen.shape == (seen.size, stacked.shape[1])
        assert np.allclose(p_seen, softmax_stable(stacked[seen], axis=0), rtol=0, atol=1e-12)

    def test_rows_must_tile_labels_and_classes(self):
        split = ClassSplit.of(np.arange(3), np.arange(3, 5))
        with pytest.raises(ShapeError, match="tile"):
            acec_loss(np.zeros((5, 5)), np.array([0, 1]), split, 0.1)
        with pytest.raises(ShapeError, match=r"\(5, rows\)"):
            acec_loss(np.zeros((4, 2)), np.array([0, 1]), split, 0.1)


class TestDistillLoss:
    def test_identical_scores_zero_loss_zero_grads(self):
        rng = Rng(31)
        scores = rng.uniform(-2.0, 2.0, 4, 5)
        loss, g1, g2 = distill(scores, scores.copy(), LossConfig())
        assert loss == 0.0
        assert np.array_equal(g1, np.zeros_like(scores))
        assert np.array_equal(g2, np.zeros_like(scores))

    def test_analytic_two_class_case(self):
        # probabilities [0.5, 0.5] vs [0.25, 0.75] via logits [0,0] / [0, ln 3]
        scores1 = np.array([[0.0, 0.0]])
        scores2 = np.array([[0.0, math.log(3.0)]])
        loss, _, _ = distill(scores1, scores2, LossConfig())
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
            loss, _, _ = distill(a, b, cfg)
            expected = oracles.distill_loss(a, b, cfg.epsilon_kl)
            assert loss == pytest.approx(expected, abs=1e-12)

    def test_symmetry_bit_exact(self):
        rng = Rng(33)
        cfg = LossConfig()
        for _ in range(20):
            a = rng.uniform(-4.0, 4.0, 2, 6)
            b = rng.uniform(-4.0, 4.0, 2, 6)
            assert distill(a, b, cfg)[0] == distill(b, a, cfg)[0]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_non_negative(self, seed):
        rng = Rng(seed)
        a = rng.uniform(-5.0, 5.0, 2, 4)
        b = rng.uniform(-5.0, 5.0, 2, 4)
        assert distill(a, b, LossConfig())[0] >= 0.0

    @pytest.mark.parametrize("jsd,l2", [(True, True), (True, False), (False, True)])
    def test_gradients_match_finite_differences(self, jsd, l2):
        rng = Rng(34)
        a = rng.uniform(-1.0, 1.0, 2, 5)
        b = rng.uniform(-1.0, 1.0, 2, 5)
        cfg = LossConfig(distill_jsd=jsd, distill_l2=l2)
        _, g1, g2 = distill(a, b, cfg)
        n1 = finite_diff_scores(lambda s: distill(s, b, cfg)[0], a)
        n2 = finite_diff_scores(lambda s: distill(a, s, cfg)[0], b)
        np.testing.assert_allclose(g1, n1, atol=1e-8)
        np.testing.assert_allclose(g2, n2, atol=1e-8)

    def test_clamp_handles_saturated_rows(self):
        # one probability underflows the clamp; loss must stay finite
        a = np.array([[60.0, -60.0]])
        b = np.array([[-60.0, 60.0]])
        loss, _, _ = distill(a, b, LossConfig())
        assert math.isfinite(loss) and loss > 0

    def test_jsd_only_and_l2_only_sum_to_both(self):
        rng = Rng(35)
        a = rng.uniform(-2.0, 2.0, 3, 4)
        b = rng.uniform(-2.0, 2.0, 3, 4)
        both, _, _ = distill(a, b, LossConfig())
        jsd, _, _ = distill(a, b, LossConfig(distill_l2=False))
        l2, _, _ = distill(a, b, LossConfig(distill_jsd=False))
        assert both == pytest.approx(jsd + l2, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            distill(np.zeros((2, 3)), np.zeros((2, 4)), LossConfig())

    @pytest.mark.parametrize("shape", [(4, 3, 5), (4, 1, 5), (4, 5), (4,)])
    def test_pair_axis_must_hold_two(self, shape):
        with pytest.raises(ShapeError, match="2, batch"):
            distill_loss(np.full(shape, 0.25), LossTerms.of((LossConfig(),)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), lockstep=st.booleans(),
           classes=st.integers(1, 6), batch=st.integers(1, 5),
           scale=st.sampled_from([0.5, 3.0, 40.0]), pinned=st.booleans())
    def test_one_pass_matches_two_calls_bit_for_bit(self, seed, lockstep, classes, batch,
                                                    scale, pinned):
        # The stacked pass must give the bits of one clamp and jacobian chain
        # per posterior.  Large logits saturate columns past the clamp;
        # pinned entries sit exactly on its bounds, epsilon_kl and 1.
        rng = np.random.default_rng(seed)
        cfg = LossConfig()
        models = (len(MODELS),) if lockstep else ()
        terms = (LossTerms.of(tuple(dataclasses.replace(cfg, **o) for o in MODELS), models)
                 if lockstep else LossTerms.of((cfg,)))
        logits = scale * rng.standard_normal((classes, *models, 2, batch))
        pair = softmax_stable(logits, axis=0)
        if pinned:
            pair[rng.random(pair.shape) < 0.3] = cfg.epsilon_kl
            pair[..., rng.integers(batch)] = 0.0
            pair[rng.integers(classes), ..., rng.integers(batch)] = 1.0
        loss, grad = distill_loss(pair, terms)
        want_loss, want_g1, want_g2 = oracles.distill_loss_two_call(
            pair[..., 0, :], pair[..., 1, :], terms)
        assert loss.shape == models and grad.shape == pair.shape
        assert np.array_equal(loss, want_loss)
        assert np.array_equal(grad[..., 0, :], want_g1)
        assert np.array_equal(grad[..., 1, :], want_g2)


class TestTotalLoss:
    def test_zero_distill_weight_total_is_sum(self):
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(41)
        terms = LossTerms.of((LossConfig(lambda_distill=0.0),))
        breakdown, _ = total_loss_raw(
            params, regions, labels, attrs, semantics, ClassSplit.of(seen, unseen), terms)
        assert breakdown.total == breakdown.acec_a2v + breakdown.acec_v2a
        assert breakdown.distill == 0.0

    def test_breakdown_identity(self):
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(42)
        cfg = LossConfig(lambda_distill=0.7)
        breakdown, _ = total_loss_raw(params, regions, labels, attrs, semantics,
                                      ClassSplit.of(seen, unseen), LossTerms.of((cfg,)))
        assert breakdown.total == pytest.approx(
            breakdown.acec_a2v + breakdown.acec_v2a
            + cfg.lambda_distill * breakdown.distill,
            abs=1e-12,
        )
        assert breakdown.distill > 0.0

    def test_zero_embeddings_give_zero_distill(self):
        # W2 = W_att = 0 forces psi == Psi == 0, the zero-distance case
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(43)
        params = dataclasses.replace(
            params, W2=np.zeros_like(params.W2), W_att=np.zeros_like(params.W_att))
        breakdown, _ = total_loss_raw(
            params, regions, labels, attrs, semantics, ClassSplit.of(seen, unseen),
            LossTerms.of((LossConfig(),)))
        assert breakdown.distill == 0.0

    def test_full_parameter_gradients_pass_grad_check(self):
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(
            44, k=5, r=4, d_v=8, d_a=6, c_seen=3, c_unseen=2, batch=2)
        terms = LossTerms.of((LossConfig(),))
        split = ClassSplit.of(seen, unseen)
        _, grads = total_loss_raw(params, regions, labels, attrs, semantics, split, terms)
        for name in PARAM_NAMES:
            def f(flat, _n=name):
                candidate = dataclasses.replace(
                    params, **{_n: flat.reshape(getattr(params, _n).shape)})
                out, _ = total_loss_raw(candidate, regions, labels, attrs, semantics, split,
                                        terms)
                return out.total
            err = grad_check_detail(f, getattr(params, name).reshape(-1),
                                    grads[name].reshape(-1)).max_rel_error
            assert err <= 1e-5, f"{name}: {err}"

    def test_batched_gradients_pass_grad_check_with_distinct_labels(self):
        params, regions, attrs, semantics, _, seen, unseen = random_instance(
            46, k=5, r=4, d_v=8, d_a=6, c_seen=3, c_unseen=2, batch=4)
        labels = np.array([2, 0, 1, 2])
        assert not np.array_equal(regions[:, 0], regions[:, 1])
        terms = LossTerms.of((LossConfig(lambda_distill=0.5),))
        split = ClassSplit.of(seen, unseen)
        _, grads = total_loss_raw(params, regions, labels, attrs, semantics, split, terms)
        for name in PARAM_NAMES:
            def f(flat, _n=name):
                candidate = dataclasses.replace(
                    params, **{_n: flat.reshape(getattr(params, _n).shape)})
                out, _ = total_loss_raw(candidate, regions, labels, attrs, semantics, split,
                                        terms)
                return out.total
            err = grad_check_detail(f, getattr(params, name).reshape(-1),
                                    grads[name].reshape(-1)).max_rel_error
            assert err <= 1e-5, f"{name}: {err}"

    @pytest.mark.parametrize("overrides,rows", [({}, 4)])
    def test_one_acec_pass_over_the_active_subnets(self, monkeypatch, overrides, rows):
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(47)
        scored_rows = []
        exact = losses.acec_loss

        def recorded(scores, *args):
            assert scores.shape[0] == semantics.shape[0] and scores.flags.c_contiguous
            scored_rows.append(scores.shape[1])
            return exact(scores, *args)

        monkeypatch.setattr(losses, "acec_loss", recorded)
        total_loss_raw(params, regions, labels, attrs, semantics, ClassSplit.of(seen, unseen),
                       LossTerms.of((LossConfig(**overrides),)))
        assert scored_rows == [rows]

    def test_lockstep_models_equal_their_separate_passes(self):
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(50, batch=3)
        split = ClassSplit.of(seen, unseen)
        models = [init_params_from_rng(params.dims, Rng(60 + p)) for p in range(len(LOCKSTEP))]
        breakdown, grads = total_loss_raw(stacked(models), regions, labels, attrs, semantics,
                                          split, LOCKSTEP_TERMS)
        assert all(len(field) == len(LOCKSTEP) for field in breakdown)
        for p, (alone_params, cfg) in enumerate(zip(models, LOCKSTEP)):
            alone, alone_grads = total_loss_raw(alone_params, regions, labels, attrs, semantics,
                                                split, LossTerms.of((cfg,)))
            assert [field[p] for field in breakdown] == list(alone), p
            for name in PARAM_NAMES:
                assert np.array_equal(grads[name][p], alone_grads[name]), (p, name)

    def test_lockstep_scores_every_model_in_one_acec_pass(self, monkeypatch):
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(47)
        scored_rows = []
        exact = losses.acec_loss

        def recorded(scores, *args):
            assert scores.shape[0] == semantics.shape[0] and scores.flags.c_contiguous
            scored_rows.append(scores.shape[1])
            return exact(scores, *args)

        monkeypatch.setattr(losses, "acec_loss", recorded)
        total_loss_raw(stacked([params] * len(LOCKSTEP)), regions, labels, attrs, semantics,
                       ClassSplit.of(seen, unseen), LOCKSTEP_TERMS)
        assert scored_rows == [len(LOCKSTEP) * 2 * labels.size]

    def test_without_distillation_each_sub_net_ignores_the_other(self):
        # One no-distill model stands in for both single-branch runs of the grid.
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(49)
        other = random_instance(52)[0]
        split = ClassSplit.of(seen, unseen)
        terms = LossTerms.of((LossConfig(lambda_distill=0.0),))
        joint, grads = total_loss_raw(params, regions, labels, attrs, semantics, split, terms)
        assert joint.distill == 0.0
        for mine, swapped, field in ((("W1", "W2"), ("W3", "W4", "W_att"), "acec_a2v"),
                                     (("W3", "W4", "W_att"), ("W1", "W2"), "acec_v2a")):
            mixed = dataclasses.replace(params, **{n: getattr(other, n) for n in swapped})
            alone, alone_grads = total_loss_raw(mixed, regions, labels, attrs, semantics,
                                                split, terms)
            assert getattr(alone, field) == getattr(joint, field), field
            for name in mine:
                assert np.array_equal(alone_grads[name], grads[name]), name
                assert np.abs(grads[name]).max() > 0, name

    def test_lockstep_configs_must_fit_the_models(self):
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(51)
        args = (regions, labels, attrs, semantics, ClassSplit.of(seen, unseen))
        with pytest.raises(ValueError):
            LossTerms.of(LOCKSTEP, (2,))
        with pytest.raises(ShapeError, match="loss terms for models"):
            total_loss_raw(stacked([params] * 2), *args, LOCKSTEP_TERMS)
        with pytest.raises(ArgumentError, match="lambda_cal"):
            LossTerms.of((LossConfig(), LossConfig(lambda_cal=0.2)), (2,))

    def test_one_loss_softmax_serves_acec_and_distillation(self):
        # acec_loss takes the seen-class softmax from its own log-sum-exp
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(48)
        assert not hasattr(losses, "softmax_stable")
        breakdown, _ = total_loss_raw(params, regions, labels, attrs, semantics,
                                      ClassSplit.of(seen, unseen), LossTerms.of((LossConfig(),)))
        assert breakdown.distill > 0.0

    def test_paper_shape_reruns_give_the_same_bytes(self):
        # CUB shape: BLAS splits these products by thread count, and one
        # process keeps its count, so a rerun must match to the bit.
        params, regions, attrs, semantics, labels, seen, unseen = random_instance(
            53, k=312, r=196, d_v=2048, d_a=300, c_seen=150, c_unseen=50, batch=8)
        split, terms = ClassSplit.of(seen, unseen), LossTerms.of((LossConfig(),))
        (loss_a, grads_a), (loss_b, grads_b) = (
            total_loss_raw(params, regions, labels, attrs, semantics, split, terms)
            for _ in range(2))
        assert np.isfinite(loss_a).all() and loss_a.distill > 0.0
        assert np.array(loss_a).tobytes() == np.array(loss_b).tobytes()
        assert grads_a.keys() == grads_b.keys() == set(PARAM_NAMES)
        for name in PARAM_NAMES:
            assert grads_a[name].tobytes() == grads_b[name].tobytes(), name


class TestMemoryLayout:
    """Reductions run on region-major batches; the layout never changes a result."""

    CONFIGS = pytest.mark.parametrize(
        "terms", [LossTerms.of((LossConfig(),)), LossTerms.of((LossConfig(lambda_distill=0.0),)),
                  LOCKSTEP_TERMS],
        ids=["full", "no_distill", "lockstep"])

    @staticmethod
    def batch(ds, terms):
        idx = ds.train_idx[::2]
        params = init_params_from_rng(ModelDims.for_dataset(ds), Rng(7))
        if terms.lam.shape:
            params = stacked([params] * terms.lam.size)
        return params, idx

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_regions_are_region_major(self, tiny_dataset, dtype):
        ds = tiny_dataset
        idx = np.array([4, 0, 7])
        stack = ds.regions(idx, dtype)
        assert stack.shape == (ds.num_regions, 3, ds.visual_dim)
        assert stack.dtype == dtype
        assert stack.flags.c_contiguous
        assert np.array_equal(stack, ds.features[idx].swapaxes(0, 1))

    @CONFIGS
    def test_gradients_are_c_contiguous(self, tiny_dataset, terms):
        ds = tiny_dataset
        params, idx = self.batch(ds, terms)
        _, grads = total_loss_raw(params, ds.regions(idx, np.float64), ds.labels[idx],
                                  ds.attributes, ds.class_semantics, ds.split, terms)
        for name, grad in grads.items():
            assert grad.shape == getattr(params, name).shape
            assert grad.flags.c_contiguous, name

    @CONFIGS
    def test_c_order_stack_gives_the_same_loss_and_gradients(self, tiny_dataset, terms):
        ds = tiny_dataset
        params, idx = self.batch(ds, terms)
        c_order = ds.regions(idx, np.float64)
        strided = np.ascontiguousarray(c_order.swapaxes(0, 1)).swapaxes(0, 1)
        assert c_order.flags.c_contiguous and not strided.flags.c_contiguous
        args = (ds.labels[idx], ds.attributes, ds.class_semantics, ds.split, terms)
        loss_s, grads_s = total_loss_raw(params, strided, *args)
        loss_c, grads_c = total_loss_raw(params, c_order, *args)
        np.testing.assert_allclose(loss_s, loss_c, rtol=1e-12, atol=0)
        for name, grad in grads_c.items():
            assert np.abs(grads_s[name] - grad).max() <= 1e-12 * np.abs(grad).max(), name


class TestLossConfig:
    def test_rejects_negative_weights(self):
        with pytest.raises(ArgumentError):
            LossConfig(lambda_cal=-0.1)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ArgumentError):
            LossConfig(epsilon_kl=0.0)
        with pytest.raises(ArgumentError):
            LossConfig(epsilon_kl=0.01)

