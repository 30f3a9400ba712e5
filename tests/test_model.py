from dataclasses import fields, replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_instance, stacked
from msdn import model
from msdn.data_io import ClassSplit
from msdn.errors import ContainerFormatError, ShapeError
from msdn.model import (
    PARAM_NAMES,
    ModelParams,
    a2v_forward,
    backward,
    forward,
    init_params_from_rng,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
    v2a_forward,
)
from msdn.ndmath import Rng, grad_check_matrices
from msdn.zsl_eval import calibrated_scores


class Dims(NamedTuple):
    """A problem's shape: the weights' two widths first, then the inputs' K and R."""

    visual_dim: int
    attr_dim: int
    num_attributes: int
    num_regions: int


DIMS = Dims(visual_dim=4, attr_dim=3, num_attributes=3, num_regions=2)
CUB_DIMS = Dims(visual_dim=2048, attr_dim=300, num_attributes=312, num_regions=196)


def tiny_inputs(seed=1):
    rng = Rng(seed)
    regions = rng.uniform(-1.0, 1.0, DIMS.num_regions, DIMS.visual_dim)
    attrs = rng.uniform(-1.0, 1.0, DIMS.num_attributes, DIMS.attr_dim)
    return regions, attrs


class TestInit:
    def test_same_seed_identical(self):
        a, b = init_params_from_rng(*DIMS[:2], Rng(4)), init_params_from_rng(*DIMS[:2], Rng(4))
        for name in ("W1", "W2", "W3", "W4", "W_att"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self):
        a, b = init_params_from_rng(*DIMS[:2], Rng(4)), init_params_from_rng(*DIMS[:2], Rng(5))
        assert not np.array_equal(a.W1, b.W1)

    def test_entries_bounded_by_glorot_limit(self):
        params = init_params_from_rng(*DIMS[:2], Rng(9))
        limit = np.sqrt(6.0 / (DIMS.visual_dim + DIMS.attr_dim))
        for name in ("W1", "W2", "W3", "W4", "W_att"):
            arr = getattr(params, name)
            assert np.abs(arr).max() <= limit

    def test_shapes(self):
        params = init_params_from_rng(*DIMS[:2], Rng(0))
        assert [f.name for f in fields(ModelParams)] == list(PARAM_NAMES)
        assert params.W1.shape == (3, 4)
        assert params.W2.shape == (3, 4)
        assert params.W3.shape == (4, 3)
        assert params.W4.shape == (4, 3)
        assert params.W_att.shape == (4, 3)

    def test_draws_glorot_matrices_in_param_order(self):
        params = init_params_from_rng(*DIMS[:2], Rng(6))
        rng = Rng(6)
        d_v, d_a = DIMS.visual_dim, DIMS.attr_dim
        limit = np.sqrt(6.0 / (d_v + d_a))
        for name, shape in (("W1", (d_a, d_v)), ("W2", (d_a, d_v)), ("W3", (d_v, d_a)),
                            ("W4", (d_v, d_a)), ("W_att", (d_v, d_a))):
            assert np.array_equal(getattr(params, name), rng.uniform(-limit, limit, *shape))


class TestA2VForward:
    def test_zero_w1_gives_uniform_attention(self):
        regions, attrs = tiny_inputs()
        params = replace(init_params_from_rng(*DIMS[:2], Rng(2)), W1=np.zeros((3, 4)))
        beta, _, _ = a2v_forward(regions[:, None], attrs, params)
        np.testing.assert_allclose(beta[..., 0], 1.0 / DIMS.num_attributes, atol=1e-15)
        expected = np.tile(regions.mean(axis=0) * DIMS.num_regions / DIMS.num_attributes,
                           (DIMS.num_attributes, 1))
        np.testing.assert_allclose(beta[..., 0] @ regions, expected, atol=1e-12)

    def test_single_attribute_sums_regions(self):
        rng = Rng(8)
        regions = rng.uniform(-1, 1, 3, 4)
        attrs = rng.uniform(-1, 1, 1, 3)
        beta, _, _ = a2v_forward(regions[:, None], attrs, init_params_from_rng(4, 3, Rng(0)))
        np.testing.assert_allclose(beta, 1.0)
        np.testing.assert_allclose((beta[..., 0] @ regions)[0], regions.sum(axis=0), atol=1e-12)

    def test_matches_scalar_oracle(self):
        for seed in range(5):
            params = init_params_from_rng(*DIMS[:2], Rng(seed))
            regions, attrs = tiny_inputs(seed + 100)
            beta, _, psi = a2v_forward(regions[:, None], attrs, params)
            ob, of, op = oracles.a2v_forward(regions, attrs, params.W1, params.W2)
            np.testing.assert_allclose(beta[..., 0], ob, atol=1e-12)
            # the pooled features F = beta @ V are never formed by the model
            np.testing.assert_allclose(beta[..., 0] @ regions, of, atol=1e-12)
            np.testing.assert_allclose(psi[:, 0], op, atol=1e-12)

    def test_shape_mismatch(self):
        # forward checks the operands for both sub-nets
        regions, attrs = tiny_inputs()
        with pytest.raises(ShapeError):
            forward(regions[:, None, :2], attrs, init_params_from_rng(*DIMS[:2], Rng(0)))
        with pytest.raises(ShapeError):
            forward(regions, attrs, init_params_from_rng(*DIMS[:2], Rng(0)))

    def test_shape_mismatch_names_both_shapes(self):
        # the model checks its operands before any product is formed
        params = init_params_from_rng(2, 3, Rng(0))
        with pytest.raises(ShapeError, match=r"width 3, model expects 2"):
            forward(np.zeros((1, 1, 3)), np.zeros((4, 3)), params)
        with pytest.raises(ShapeError, match=r"width 2, model expects 3"):
            forward(np.zeros((1, 1, 2)), np.zeros((4, 2)), params)


class TestV2AForward:
    def test_zero_w3_gives_uniform_attention(self):
        regions, attrs = tiny_inputs()
        params = replace(init_params_from_rng(*DIMS[:2], Rng(2)), W3=np.zeros((4, 3)))
        tau, _, psi_bar, *_ = v2a_forward(regions[:, None], attrs, params)
        np.testing.assert_allclose(tau, 1.0 / DIMS.num_regions, atol=1e-15)
        expected = np.tile(attrs.sum(axis=0) / DIMS.num_regions, (DIMS.num_regions, 1))
        np.testing.assert_allclose(tau[:, 0] @ attrs, expected, atol=1e-12)
        # psi_bar_r = v_r^T W4 sum_k a_k / R
        np.testing.assert_allclose(psi_bar[:, 0], regions @ params.W4 @ expected[0], atol=1e-12)

    def test_single_region_sums_attributes(self):
        rng = Rng(8)
        regions = rng.uniform(-1, 1, 1, 4)
        attrs = rng.uniform(-1, 1, 3, 3)
        params = init_params_from_rng(4, 3, Rng(0))
        tau, _, psi_bar, *_ = v2a_forward(regions[:, None], attrs, params)
        np.testing.assert_allclose(tau, 1.0)
        # psi_bar = v^T W4 sum_k a_k
        np.testing.assert_allclose(psi_bar[0, 0], regions[0] @ params.W4 @ attrs.sum(axis=0),
                                   atol=1e-12)

    def test_matches_scalar_oracle(self):
        for seed in range(5):
            params = init_params_from_rng(*DIMS[:2], Rng(seed))
            regions, attrs = tiny_inputs(seed + 200)
            tau, M, psi_bar, big_psi, _ = v2a_forward(regions[:, None], attrs, params)
            ot, os_, om, ob, op = oracles.v2a_forward(
                regions, attrs, params.W3, params.W4, params.W_att
            )
            np.testing.assert_allclose(tau[:, 0], ot, atol=1e-12)
            # the pooled attributes S = tau^T A are never formed by the model
            np.testing.assert_allclose(tau[:, 0] @ attrs, os_, atol=1e-12)
            np.testing.assert_allclose(M[:, 0], om, atol=1e-12)
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
        rng = Rng(seed)
        params = init_params_from_rng(d_v, d_a, Rng(seed + 1))
        regions = rng.uniform(-3, 3, r, d_v)
        attrs = rng.uniform(-3, 3, k, d_a)
        trace = forward(regions[:, None], attrs, params)
        np.testing.assert_allclose(trace.beta.sum(axis=-3), 1.0, atol=1e-10)
        np.testing.assert_allclose(trace.tau.sum(axis=-3), 1.0, atol=1e-10)

    def test_forward_deterministic(self):
        regions, attrs = tiny_inputs(3)
        params = init_params_from_rng(*DIMS[:2], Rng(3))
        a = forward(regions[:, None], attrs, params)
        b = forward(regions[:, None], attrs, params)
        assert np.array_equal(a.psi, b.psi) and np.array_equal(a.Psi, b.Psi)

    def test_region_scaling_changes_beta(self):
        regions, attrs = tiny_inputs(5)
        params = init_params_from_rng(*DIMS[:2], Rng(5))
        beta1, _, _ = a2v_forward(regions[:, None], attrs, params)
        beta2, _, _ = a2v_forward(2.0 * regions[:, None], attrs, params)
        assert not np.allclose(beta1, beta2)


class TestBackward:
    def test_gradients_of_random_functional(self):
        # random linear functional of (psi, Psi) over a stack of images:
        # gradients for all five matrices must agree with central differences
        params, regions, attrs, _, _, _, _ = random_instance(31, batch=3)
        rng = Rng(99)
        w_psi = rng.uniform(-1, 1, attrs.shape[0], 3)
        w_big = rng.uniform(-1, 1, attrs.shape[0], 3)

        def value(p: ModelParams) -> float:
            trace = forward(regions, attrs, p)
            return float((w_psi * trace.psi).sum() + (w_big * trace.Psi).sum())

        trace = forward(regions, attrs, params)
        results = grad_check_matrices(value, params, backward(params, trace, w_psi, w_big))
        for name, detail in results.items():
            assert detail.max_rel_error <= 1e-6, f"{name}: {detail}"


class TestBatchedForward:
    def test_each_row_matches_scalar_oracle(self):
        # three distinct images in one stack; every row of the batch trace
        # must equal the scalar-loop oracle run on that image alone
        params = init_params_from_rng(5, 4, Rng(17))
        rng = Rng(170)
        regions = np.stack([rng.uniform(-1.0, 1.0, 4, 5) for _ in range(3)], axis=1)
        attrs = rng.uniform(-1.0, 1.0, 3, 4)
        assert not np.array_equal(regions[:, 0], regions[:, 1])
        trace = forward(regions, attrs, params)
        assert trace.psi.shape == (3, 3) and trace.beta.shape == (3, 4, 3)
        for b in range(3):
            ob, of, op = oracles.a2v_forward(regions[:, b], attrs, params.W1, params.W2)
            ot, os_, om, obar, obig = oracles.v2a_forward(
                regions[:, b], attrs, params.W3, params.W4, params.W_att)
            for got, want in ((trace.beta[..., b], ob), (trace.beta[..., b] @ regions[:, b], of),
                              (trace.psi[:, b], op), (trace.tau[:, b], ot),
                              (trace.tau[:, b] @ attrs, os_), (trace.M[:, b], om),
                              (trace.psi_bar[:, b], obar), (trace.Psi[:, b], obig)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_float32_weights_compute_in_float32(self):
        # forward casts a stack of the other dtype and the float64 attribute
        # vectors to the weights' dtype, so no product widens or narrows.
        params = init_params_from_rng(*DIMS[:2], Rng(5))
        regions, attrs = tiny_inputs(5)
        stack = regions[:, None]
        for dtype, other in ((np.float32, np.float64), (np.float64, np.float32)):
            trace = forward(stack.astype(other), attrs, params.astype(dtype))
            assert {f.dtype for f in vars(trace).values()} == {np.dtype(dtype)}

    def test_stack_folds_to_region_major_rows_without_a_copy(self):
        regions, attrs = tiny_inputs(4)
        params = init_params_from_rng(*DIMS[:2], Rng(4))
        stack = np.stack([regions, 2.0 * regions], axis=1)          # (R, B, d_v)
        trace = forward(stack, attrs, params)
        # the trace holds the stack itself, and a C-order stack folds to a view
        assert trace.regions is stack and stack.flags.c_contiguous
        rows = stack.reshape(-1, DIMS.visual_dim)
        assert np.shares_memory(rows, stack)
        # row r*B + b is region r of image b, as both sub-nets read it
        assert np.array_equal(rows[1], 2.0 * regions[0])
        match_rows = (attrs @ params.W2) @ rows.T                   # (K, R*B)
        np.testing.assert_array_equal(trace.match.reshape(DIMS.num_attributes, -1), match_rows)
        np.testing.assert_allclose(trace.M[0, 1], rows[1] @ params.W4 @ attrs.T, atol=1e-12)

    def test_single_image_must_be_a_stack(self):
        # One image is an (R, 1, d_v) stack; a bare (R, d_v) image is refused.
        regions, attrs = tiny_inputs(4)
        params = init_params_from_rng(*DIMS[:2], Rng(4))
        with pytest.raises(ShapeError, match="3-D region stack"):
            forward(regions, attrs, params)

    @pytest.mark.parametrize("models", [1, 4])
    def test_operands_checked_once_per_forward(self, monkeypatch, models):
        # forward checks for both sub-nets, which do not check again
        calls = []
        exact = model._check_operands

        def counted(regions, attrs, params):
            calls.append(params.W1.shape)
            exact(regions, attrs, params)

        monkeypatch.setattr(model, "_check_operands", counted)
        params = [init_params_from_rng(*DIMS[:2], Rng(60 + m)) for m in range(models)]
        params = params[0] if models == 1 else stacked(params)
        regions, attrs = tiny_inputs(6)
        forward(np.stack([regions, -regions], axis=1), attrs, params)
        assert calls == [params.W1.shape]


class TestTraceLayout:
    @pytest.mark.parametrize("models", [1, 4])
    def test_fields_keep_the_computed_layout(self, models):
        # Distinct sizes, so a swapped axis changes the shape.
        k, r, b, d_v, d_a = 3, 5, 2, 7, 4
        stack = [init_params_from_rng(d_v, d_a, Rng(40 + m)) for m in range(models)]
        params = stack[0] if models == 1 else ModelParams(**{
            name: np.stack([getattr(p, name) for p in stack]) for name in PARAM_NAMES})
        rng = Rng(41)
        regions = np.stack([rng.uniform(-2.0, 2.0, r, d_v) for _ in range(b)], axis=1)
        trace = forward(regions, rng.uniform(-2.0, 2.0, k, d_a), params)
        lead = () if models == 1 else (models,)
        expected = {"beta": (k, r, b), "match": (k, r, b), "psi": (k, b), "Psi": (k, b),
                    "tau": (r, b, k), "M": (r, b, k), "psi_bar": (r, b), "pooled": (b, d_v)}
        assert {name: f.shape for name, f in vars(trace).items()} == {
            "regions": (r, b, d_v), "attrs": (k, d_a),
            **{name: lead + shape for name, shape in expected.items()}}
        np.testing.assert_allclose(trace.beta.sum(axis=-3), 1.0, rtol=0, atol=1e-10)
        np.testing.assert_allclose(trace.tau.sum(axis=-3), 1.0, rtol=0, atol=1e-10)


class TestCheckpoint:
    def test_round_trip_values(self, tmp_path):
        params = init_params_from_rng(*DIMS[:2], Rng(12))
        path = tmp_path / "ckpt.zsld"
        save_checkpoint(params, path, DIMS.num_attributes, DIMS.num_regions)
        loaded, header = load_checkpoint(path)
        assert header == DIMS
        for name in ("W1", "W2", "W3", "W4", "W_att"):
            # The stored float32 weights, unwidened: eval computes in them.
            expected = getattr(params, name).astype(np.float32)
            assert getattr(loaded, name).dtype == np.float32
            assert getattr(loaded, name).tobytes() == expected.tobytes()

    def test_resave_byte_exact(self, tmp_path):
        params = init_params_from_rng(*DIMS[:2], Rng(12))
        a, b = tmp_path / "a.zsld", tmp_path / "b.zsld"
        save_checkpoint(params, a, DIMS.num_attributes, DIMS.num_regions)
        loaded, (_, _, k, r) = load_checkpoint(a)
        save_checkpoint(loaded, b, k, r)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_tensor_rejected(self, tmp_path):
        from msdn.data_io import write_container

        path = tmp_path / "broken.zsld"
        write_container(path, [("W1", np.zeros((3, 4), dtype=np.float32))])
        with pytest.raises(ContainerFormatError, match="missing"):
            load_checkpoint(path)

    def test_transposed_weight_rejected(self, tmp_path):
        params = init_params_from_rng(*DIMS[:2], Rng(12))
        path = tmp_path / "transposed.ckpt"
        save_checkpoint(replace(params, W3=params.W3.T), path, DIMS.num_attributes,
                        DIMS.num_regions)
        with pytest.raises(ContainerFormatError,
                           match=r"W3 has shape \(3, 4\), expected \(4, 3\)"):
            load_checkpoint(path)

    # The error names the first bad index in C order, with a later bad value
    # in the same weight.  In a CUB (300, 2048) W2, flat 2^18 - 1 is
    # (127, 2047) and flat 2^18 is (128, 0): the two sides of the first block
    # boundary of the finiteness scan.
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("dims, name, index", [
        (DIMS, "W2", (1, 2)), (DIMS, "W_att", (0, 0)), (DIMS, "W_att", (3, 2)),
        (CUB_DIMS, "W2", (127, 2047)), (CUB_DIMS, "W2", (128, 0)),
    ], ids=["W2[1,2]", "W_att_first", "W_att_last", "cub_block_end", "cub_next_block"])
    def test_non_finite_weight_rejected(self, tmp_path, bad, dims, name, index):
        params = ModelParams(**{n: np.ones(shape, np.float32)
                                for n, shape in param_shapes(*dims[:2]).items()})
        weight = getattr(params, name)
        weight[index] = weight[-1, -1] = bad
        path = tmp_path / "nan.ckpt"
        save_checkpoint(params, path, *dims[2:])
        with pytest.raises(ContainerFormatError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"checkpoint tensor {name} has a non-finite value at index {index}"
