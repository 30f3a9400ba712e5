from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_instance
from msdn.data_io import ClassSplit
from msdn.errors import ContainerFormatError, ShapeError
from msdn.model import (
    PARAM_NAMES,
    ModelDims,
    ModelParams,
    _folded,
    a2v_forward,
    backward,
    forward,
    init_params_from_rng,
    load_checkpoint,
    save_checkpoint,
    v2a_forward,
)
from msdn.ndmath import Rng, grad_check_detail
from msdn.zsl_eval import calibrated_scores

DIMS = ModelDims(visual_dim=4, attr_dim=3, num_attributes=3, num_regions=2)


def tiny_inputs(seed=1, dims=DIMS):
    rng = Rng(seed)
    regions = rng.uniform(-1.0, 1.0, dims.num_regions, dims.visual_dim)
    attrs = rng.uniform(-1.0, 1.0, dims.num_attributes, dims.attr_dim)
    return regions, attrs


class TestInit:
    def test_same_seed_identical(self):
        a, b = init_params_from_rng(DIMS, Rng(4)), init_params_from_rng(DIMS, Rng(4))
        for name in ("W1", "W2", "W3", "W4", "W_att"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self):
        a, b = init_params_from_rng(DIMS, Rng(4)), init_params_from_rng(DIMS, Rng(5))
        assert not np.array_equal(a.W1, b.W1)

    def test_entries_bounded_by_glorot_limit(self):
        params = init_params_from_rng(DIMS, Rng(9))
        limit = np.sqrt(6.0 / (DIMS.visual_dim + DIMS.attr_dim))
        for name in ("W1", "W2", "W3", "W4", "W_att"):
            arr = getattr(params, name)
            assert np.abs(arr).max() <= limit

    def test_shapes(self):
        params = init_params_from_rng(DIMS, Rng(0))
        assert params.W1.shape == (3, 4)
        assert params.W2.shape == (3, 4)
        assert params.W3.shape == (4, 3)
        assert params.W4.shape == (4, 3)
        assert params.W_att.shape == (4, 3)

    def test_draws_glorot_matrices_in_param_order(self):
        params = init_params_from_rng(DIMS, Rng(6))
        rng = Rng(6)
        d_v, d_a = DIMS.visual_dim, DIMS.attr_dim
        limit = np.sqrt(6.0 / (d_v + d_a))
        for name, shape in (("W1", (d_a, d_v)), ("W2", (d_a, d_v)), ("W3", (d_v, d_a)),
                            ("W4", (d_v, d_a)), ("W_att", (d_v, d_a))):
            assert np.array_equal(getattr(params, name), rng.uniform(-limit, limit, *shape))


class TestA2VForward:
    def test_zero_w1_gives_uniform_attention(self):
        regions, attrs = tiny_inputs()
        params = replace(init_params_from_rng(DIMS, Rng(2)), W1=np.zeros((3, 4)))
        beta, _, _ = a2v_forward(regions[:, None], attrs, params)
        np.testing.assert_allclose(beta[..., 0], 1.0 / DIMS.num_attributes, atol=1e-15)
        expected = np.tile(regions.mean(axis=0) * DIMS.num_regions / DIMS.num_attributes,
                           (DIMS.num_attributes, 1))
        np.testing.assert_allclose(beta[..., 0] @ regions, expected, atol=1e-12)

    def test_single_attribute_sums_regions(self):
        dims = ModelDims(visual_dim=4, attr_dim=3, num_attributes=1, num_regions=3)
        rng = Rng(8)
        regions = rng.uniform(-1, 1, 3, 4)
        attrs = rng.uniform(-1, 1, 1, 3)
        beta, _, _ = a2v_forward(regions[:, None], attrs, init_params_from_rng(dims, Rng(0)))
        np.testing.assert_allclose(beta, 1.0)
        np.testing.assert_allclose((beta[..., 0] @ regions)[0], regions.sum(axis=0), atol=1e-12)

    def test_matches_scalar_oracle(self):
        dims = ModelDims(visual_dim=4, attr_dim=3, num_attributes=3, num_regions=2)
        for seed in range(5):
            params = init_params_from_rng(dims, Rng(seed))
            regions, attrs = tiny_inputs(seed + 100, dims)
            beta, _, psi = a2v_forward(regions[:, None], attrs, params)
            ob, of, op = oracles.a2v_forward(regions, attrs, params.W1, params.W2)
            np.testing.assert_allclose(beta[..., 0], ob, atol=1e-12)
            # the pooled features F = beta @ V are never formed by the model
            np.testing.assert_allclose(beta[..., 0] @ regions, of, atol=1e-12)
            np.testing.assert_allclose(psi[:, 0], op, atol=1e-12)

    def test_shape_mismatch(self):
        regions, attrs = tiny_inputs()
        with pytest.raises(ShapeError):
            a2v_forward(regions[:, None, :2], attrs, init_params_from_rng(DIMS, Rng(0)))
        with pytest.raises(ShapeError):
            a2v_forward(regions, attrs, init_params_from_rng(DIMS, Rng(0)))


class TestV2AForward:
    def test_zero_w3_gives_uniform_attention(self):
        regions, attrs = tiny_inputs()
        params = replace(init_params_from_rng(DIMS, Rng(2)), W3=np.zeros((4, 3)))
        tau, sem, *_ = v2a_forward(regions[:, None], attrs, params)
        np.testing.assert_allclose(tau, 1.0 / DIMS.num_regions, atol=1e-15)
        expected = np.tile(attrs.sum(axis=0) / DIMS.num_regions,
                           (DIMS.num_regions, 1))
        np.testing.assert_allclose(sem.T, expected, atol=1e-12)

    def test_single_region_sums_attributes(self):
        dims = ModelDims(visual_dim=4, attr_dim=3, num_attributes=3, num_regions=1)
        rng = Rng(8)
        regions = rng.uniform(-1, 1, 1, 4)
        attrs = rng.uniform(-1, 1, 3, 3)
        tau, sem, *_ = v2a_forward(regions[:, None], attrs, init_params_from_rng(dims, Rng(0)))
        np.testing.assert_allclose(tau, 1.0)
        np.testing.assert_allclose(sem[:, 0], attrs.sum(axis=0), atol=1e-12)

    def test_matches_scalar_oracle(self):
        for seed in range(5):
            params = init_params_from_rng(DIMS, Rng(seed))
            regions, attrs = tiny_inputs(seed + 200)
            tau, sem, psi_bar, big_psi, _, _ = v2a_forward(regions[:, None], attrs, params)
            ot, os_, ob, op = oracles.v2a_forward(
                regions, attrs, params.W3, params.W4, params.W_att
            )
            np.testing.assert_allclose(tau[:, 0], ot, atol=1e-12)
            np.testing.assert_allclose(sem.T, os_, atol=1e-12)
            np.testing.assert_allclose(psi_bar[:, 0], ob, atol=1e-12)
            np.testing.assert_allclose(big_psi[:, 0], op, atol=1e-12)


def class_scores(embedding, semantics):
    """Raw class scores: ``calibrated_scores`` minus its offset."""
    num_classes = semantics.shape[0]
    split = ClassSplit.of(np.arange(num_classes - 1), [num_classes - 1])
    scores = calibrated_scores(np.asarray(embedding, dtype=float)[:, None], semantics, split)[:, 0]
    return scores - np.where(np.arange(num_classes) == num_classes - 1, 1.0, -1.0)


class TestClassScores:
    """Class scoring now lives in ``zsl_eval.calibrated_scores``."""

    def test_orthogonal_rows_recover_argmax(self):
        semantics = np.eye(4) * 2.0
        scores = class_scores(semantics[2], semantics)
        assert int(np.argmax(scores)) == 2

    def test_zero_embedding(self):
        scores = class_scores(np.zeros(3), Rng(1).uniform(0, 1, 5, 3))
        np.testing.assert_array_equal(scores, 0.0)

    def test_matches_dot_oracle(self):
        rng = Rng(6)
        semantics = rng.uniform(-1, 1, 4, 6)
        embedding = rng.uniform(-1, 1, 1, 6)[0]
        np.testing.assert_allclose(
            class_scores(embedding, semantics),
            oracles.class_scores(embedding, semantics),
            atol=1e-12,
        )

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            class_scores(np.zeros(3), np.zeros((2, 4)))


class TestAttentionInvariants:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 6),
           st.integers(1, 5), st.integers(1, 5))
    def test_normalization(self, seed, k, r, d_v, d_a):
        dims = ModelDims(visual_dim=d_v, attr_dim=d_a, num_attributes=k, num_regions=r)
        rng = Rng(seed)
        params = init_params_from_rng(dims, Rng(seed + 1))
        regions = rng.uniform(-3, 3, r, d_v)
        attrs = rng.uniform(-3, 3, k, d_a)
        trace = forward(regions[:, None], attrs, params)
        np.testing.assert_allclose(trace.beta.sum(axis=-3), 1.0, atol=1e-10)
        np.testing.assert_allclose(trace.tau.sum(axis=-3), 1.0, atol=1e-10)

    def test_forward_deterministic(self):
        regions, attrs = tiny_inputs(3)
        params = init_params_from_rng(DIMS, Rng(3))
        a = forward(regions[:, None], attrs, params)
        b = forward(regions[:, None], attrs, params)
        assert np.array_equal(a.psi, b.psi) and np.array_equal(a.Psi, b.Psi)

    def test_region_scaling_changes_beta(self):
        regions, attrs = tiny_inputs(5)
        params = init_params_from_rng(DIMS, Rng(5))
        beta1, _, _ = a2v_forward(regions[:, None], attrs, params)
        beta2, _, _ = a2v_forward(2.0 * regions[:, None], attrs, params)
        assert not np.allclose(beta1, beta2)


class TestBackward:
    def test_gradients_of_random_functional(self):
        # random linear functional of (psi, Psi) over a stack of images:
        # gradients for all five matrices must agree with central differences
        params, regions, attrs, _, _, _, _ = random_instance(31, batch=3)
        rng = Rng(99)
        w_psi = rng.uniform(-1, 1, params.dims.num_attributes, 3)
        w_big = rng.uniform(-1, 1, params.dims.num_attributes, 3)

        def value(p: ModelParams) -> float:
            trace = forward(regions, attrs, p)
            return float((w_psi * trace.psi).sum() + (w_big * trace.Psi).sum())

        trace = forward(regions, attrs, params)
        grads = backward(params, trace, w_psi, w_big)
        for name, grad in grads.items():
            def f(flat, _n=name):
                return value(replace(params, **{_n: flat.reshape(grad.shape)}))
            err = grad_check_detail(f, getattr(params, name).reshape(-1),
                                    grad.reshape(-1)).max_rel_error
            assert err <= 1e-6, f"{name}: {err}"


class TestBatchedForward:
    def test_each_row_matches_scalar_oracle(self):
        # three distinct images in one stack; every row of the batch trace
        # must equal the scalar-loop oracle run on that image alone
        dims = ModelDims(visual_dim=5, attr_dim=4, num_attributes=3, num_regions=4)
        params = init_params_from_rng(dims, Rng(17))
        rng = Rng(170)
        regions = np.stack([rng.uniform(-1.0, 1.0, 4, 5) for _ in range(3)], axis=1)
        attrs = rng.uniform(-1.0, 1.0, 3, 4)
        assert not np.array_equal(regions[:, 0], regions[:, 1])
        trace = forward(regions, attrs, params)
        assert trace.psi.shape == (3, 3) and trace.beta.shape == (3, 4, 3)
        for b in range(3):
            ob, of, op = oracles.a2v_forward(regions[:, b], attrs, params.W1, params.W2)
            ot, os_, obar, obig = oracles.v2a_forward(
                regions[:, b], attrs, params.W3, params.W4, params.W_att)
            for got, want in ((trace.beta[..., b], ob), (trace.beta[..., b] @ regions[:, b], of),
                              (trace.psi[:, b], op), (trace.tau[:, b], ot),
                              (trace.S[:, b::3].T, os_), (trace.psi_bar[:, b], obar),
                              (trace.Psi[:, b], obig)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_float32_weights_compute_in_float32(self):
        # float64 attribute vectors are cast to the weights' float32, so no
        # product widens; float64 weights keep the float64 trace.
        params = init_params_from_rng(DIMS, Rng(5))
        regions, attrs = tiny_inputs(5)
        stack = regions[:, None]
        for dtype in (np.float32, np.float64):
            trace = forward(stack.astype(dtype), attrs, params.astype(dtype))
            assert {f.dtype for f in vars(trace).values()} == {np.dtype(dtype)}

    def test_stack_folds_to_region_major_rows_without_a_copy(self):
        regions, attrs = tiny_inputs(4)
        params = init_params_from_rng(DIMS, Rng(4))
        stack = np.stack([regions, 2.0 * regions], axis=1)          # (R, B, d_v)
        rows = _folded(stack, attrs, params)
        assert rows.shape == (DIMS.num_regions * 2, DIMS.visual_dim)
        assert np.shares_memory(rows, stack)
        # row r*B + b is region r of image b
        assert np.array_equal(rows[1], 2.0 * regions[0])

    def test_single_image_must_be_a_stack(self):
        # One image is an (R, 1, d_v) stack; a bare (R, d_v) image is refused.
        regions, attrs = tiny_inputs(4)
        params = init_params_from_rng(DIMS, Rng(4))
        with pytest.raises(ShapeError, match="3-D region stack"):
            forward(regions, attrs, params)


class TestTraceLayout:
    @pytest.mark.parametrize("models", [1, 4])
    def test_fields_keep_the_computed_layout(self, models):
        # Distinct sizes, so a swapped axis changes the shape.
        k, r, b, d_v, d_a = 3, 5, 2, 7, 4
        dims = ModelDims(visual_dim=d_v, attr_dim=d_a, num_attributes=k, num_regions=r)
        stack = [init_params_from_rng(dims, Rng(40 + m)) for m in range(models)]
        params = stack[0] if models == 1 else ModelParams(dims, **{
            name: np.stack([getattr(p, name) for p in stack]) for name in PARAM_NAMES})
        rng = Rng(41)
        regions = np.stack([rng.uniform(-2.0, 2.0, r, d_v) for _ in range(b)], axis=1)
        trace = forward(regions, rng.uniform(-2.0, 2.0, k, d_a), params)
        lead = () if models == 1 else (models,)
        expected = {"beta": (k, r, b), "match": (k, r, b), "psi": (k, b), "Psi": (k, b),
                    "tau": (r, b, k), "S": (d_a, r * b), "readout": (d_a, r * b),
                    "psi_bar": (r, b), "pooled": (b, d_v)}
        assert {name: f.shape for name, f in vars(trace).items()} == {
            "regions": (r, b, d_v), "attrs": (k, d_a),
            **{name: lead + shape for name, shape in expected.items()}}
        np.testing.assert_allclose(trace.beta.sum(axis=-3), 1.0, rtol=0, atol=1e-10)
        np.testing.assert_allclose(trace.tau.sum(axis=-3), 1.0, rtol=0, atol=1e-10)


class TestCheckpoint:
    def test_round_trip_values(self, tmp_path):
        params = init_params_from_rng(DIMS, Rng(12))
        path = tmp_path / "ckpt.zsld"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.dims == params.dims
        for name in ("W1", "W2", "W3", "W4", "W_att"):
            # The stored float32 weights, unwidened: eval computes in them.
            expected = getattr(params, name).astype(np.float32)
            assert getattr(loaded, name).dtype == np.float32
            assert getattr(loaded, name).tobytes() == expected.tobytes()

    def test_resave_byte_exact(self, tmp_path):
        params = init_params_from_rng(DIMS, Rng(12))
        a, b = tmp_path / "a.zsld", tmp_path / "b.zsld"
        save_checkpoint(params, a)
        save_checkpoint(load_checkpoint(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_tensor_rejected(self, tmp_path):
        from msdn.data_io import write_container

        path = tmp_path / "broken.zsld"
        write_container(path, [("W1", np.zeros((3, 4), dtype=np.float32))])
        with pytest.raises(ContainerFormatError, match="missing"):
            load_checkpoint(path)

    def test_transposed_weight_rejected(self, tmp_path):
        params = init_params_from_rng(DIMS, Rng(12))
        path = tmp_path / "transposed.ckpt"
        save_checkpoint(replace(params, W3=params.W3.T), path)
        with pytest.raises(ContainerFormatError,
                           match=r"W3 has shape \(3, 4\), expected \(4, 3\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, tmp_path, bad):
        params = init_params_from_rng(DIMS, Rng(12))
        w2 = params.W2.copy()
        w2[1, 2] = bad
        path = tmp_path / "nan.ckpt"
        save_checkpoint(replace(params, W2=w2), path)
        with pytest.raises(ContainerFormatError, match="W2.*non-finite"):
            load_checkpoint(path)
