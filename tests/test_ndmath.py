import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from msdn import cli
from msdn.data_io import _box_muller, _weighted_picks
from msdn.errors import ArgumentError, NumericError
from msdn.model import PARAM_NAMES, init_params_from_rng
from msdn.ndmath import (
    Rng,
    grad_check_detail,
    grad_check_matrices,
    log_sum_exp,
    softmax_stable,
)
from msdn.training import make_batches


def matmul(a, b):
    """The float64 ``@`` products the model folds its batches into."""
    return np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)


class TestMatmul:
    def test_identity(self):
        m = Rng(1).uniform(-2, 2, 3, 3)
        assert np.array_equal(matmul(np.eye(3), m), m)

    def test_scalar_case(self):
        assert matmul(np.array([[2.0]]), np.array([[3.0]]))[0, 0] == 6.0

    def test_matches_triple_loop(self):
        rng = Rng(42)
        a = rng.uniform(-1, 1, 5, 4)
        b = rng.uniform(-1, 1, 4, 3)
        np.testing.assert_allclose(matmul(a, b), oracles.matmul(a, b), atol=1e-12)

    def test_associativity(self):
        rng = Rng(7)
        for _ in range(20):
            a = rng.uniform(-1, 1, 3, 4)
            b = rng.uniform(-1, 1, 4, 2)
            c = rng.uniform(-1, 1, 2, 5)
            np.testing.assert_allclose(
                matmul(matmul(a, b), c), matmul(a, matmul(b, c)), atol=1e-9
            )

    def test_rerun_bit_identical(self):
        rng = Rng(3)
        a = rng.uniform(-1, 1, 6, 6)
        b = rng.uniform(-1, 1, 6, 6)
        assert np.array_equal(matmul(a, b), matmul(a, b))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_stable(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_analytic_ratio(self):
        out = softmax_stable(np.array([math.log(1.0), math.log(3.0)]))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_large_logits_no_overflow(self):
        out = softmax_stable(np.array([1000.0, 1000.0]))
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_slices_sum_to_one_both_axes(self):
        x = Rng(5).uniform(-30, 30, 7, 9)
        for axis in (0, 1):
            sums = softmax_stable(x, axis=axis).sum(axis=axis)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(-100, 100))
    def test_shift_invariance(self, values, shift):
        x = np.asarray(values)
        np.testing.assert_allclose(
            softmax_stable(x), softmax_stable(x + shift), atol=1e-12
        )


class TestLogSumExp:
    def test_matches_naive(self):
        x = Rng(11).uniform(-5, 5, 4, 6)
        naive = np.log(np.exp(x).sum(axis=1))
        np.testing.assert_allclose(log_sum_exp(x, axis=1)[0], naive, atol=1e-12)

    def test_stable_for_large_values(self):
        lse, p = log_sum_exp(np.array([1000.0, 1000.0]))
        assert lse == pytest.approx(1000.0 + math.log(2.0))
        assert p.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("axis", [0, 1])
    def test_softmax_is_softmax_stable(self, axis):
        x = Rng(12).uniform(-5, 5, 4, 6) * np.array([[1.0], [300.0], [-300.0], [1.0]])
        _, p = log_sum_exp(x, axis=axis)
        assert p.tobytes() == softmax_stable(x, axis=axis).tobytes()


@pytest.mark.parametrize("kernel", [softmax_stable, log_sum_exp])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kernels_compute_in_their_inputs_dtype(kernel, dtype):
    x = np.array([[1, 2, 3], [4, 0, -2]], dtype=dtype)
    got, want = (kernel(a, axis=1) for a in (x, x.astype(np.float64)))
    if kernel is softmax_stable:
        got, want = (got,), (want,)
    for out, wide in zip(got, want):   # log_sum_exp returns the log-sum-exp and the softmax
        assert out.dtype == dtype
        np.testing.assert_allclose(out, wide, rtol=1e-6)


class TestGradCheck:
    def test_quadratic_exact(self):
        err = grad_check_detail(
            lambda x: float(x[0] ** 2), np.array([3.0]), np.array([6.0])
        ).max_rel_error
        assert err <= 1e-9

    def test_detects_ten_percent_bug(self):
        err = grad_check_detail(
            lambda x: float(x[0] ** 2), np.array([3.0]), np.array([6.0 * 1.1])
        ).max_rel_error
        assert err >= 0.05

    def test_non_finite_function_raises(self):
        with pytest.raises(NumericError):
            grad_check_detail(lambda x: float("nan"), np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_analytic_entry_is_infinite_error(self, bad):
        analytic = np.array([2.0, bad, 2.0])
        detail = grad_check_detail(
            lambda x: float(np.sum(x ** 2)), np.ones(3), analytic)
        assert detail.max_rel_error == math.inf and detail.worst_index == 1
        assert type(detail.max_rel_error) is float
        assert all(type(v) is float for v in (detail.analytic_at_worst,
                                               detail.numeric_at_worst))

    def test_detail_reports_worst_coordinate(self):
        analytic = np.array([2.0, 100.0])  # second coordinate is wrong
        detail = grad_check_detail(
            lambda x: float(x[0] ** 2 + x[1] ** 2),
            np.array([1.0, 1.0]),
            analytic,
        )
        assert detail.worst_index == 1
        assert detail.analytic_at_worst == 100.0

    def test_matrices_in_param_order_each_with_the_others_fixed(self):
        params = init_params_from_rng(3, 2, Rng(7))
        scale = dict(zip(PARAM_NAMES, (1.0, 2.0, 3.0, 4.0, 5.0)))
        probed = []

        def loss(p):
            moved = [n for n in PARAM_NAMES
                     if not np.array_equal(getattr(p, n), getattr(params, n))]
            assert len(moved) == 1
            probed.append(moved[0])
            return sum(c * float(np.sum(getattr(p, n) ** 2)) for n, c in scale.items())

        grads = {n: 2.0 * c * getattr(params, n) for n, c in scale.items()}
        grads["W3"] = grads["W3"] + np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        results = grad_check_matrices(loss, params, grads)
        assert list(results) == list(dict.fromkeys(probed)) == list(PARAM_NAMES)
        assert results["W3"].worst_index == 2 and results["W3"].max_rel_error > 0.05
        assert all(results[n].max_rel_error < 1e-8 for n in PARAM_NAMES if n != "W3")


class TestRng:
    def test_same_seed_same_matrix(self):
        assert np.array_equal(Rng(7).uniform(0, 1, 4, 5), Rng(7).uniform(0, 1, 4, 5))

    def test_stream_pinned(self):
        # Regression pin for the documented xorshift64* stream.
        words = [0x7BBCB40D550682D0, 0xDE7FE413D00CC9FD, 0xB3C638353C668C91]
        scalar = oracles.ScalarRng(0)
        assert [scalar.next_u64() for _ in range(3)] == words
        rng = Rng(0)
        assert rng.uniform(0.0, 1.0, 1, 3)[0].tolist() == [(w >> 11) * 2.0 ** -53 for w in words]
        assert rng.state == scalar.state

    # 7046029254386353131 is the one seed splitmix64 scrambles to 0.
    @pytest.mark.parametrize("seed", [0, 1, 42, 7046029254386353131, 2 ** 63, 2 ** 64 - 1])
    def test_scalar_oracle_seeds_as_rng_does(self, seed):
        assert oracles.ScalarRng(seed).state == Rng(seed).state

    def test_seed_scrambled_to_zero_gets_a_live_state(self, tmp_path):
        # splitmix64 is a bijection that sends this seed alone,
        # 2^64 - 0x9E3779B97F4A7C15, to 0, the fixed point of xorshift.
        seed = 7046029254386353131
        assert Rng(seed).state == 0x9E3779B97F4A7C15
        rng = oracles.ScalarRng(seed)
        words = [rng.next_u64() for _ in range(4)]
        assert len(set(words)) == 4 and 0 not in words
        assert len(np.unique(Rng(seed).uniform(0.0, 1.0, 8, 8))) == 64
        assert cli.main(["gen-data", "--seed", str(seed), "--out", str(tmp_path / "d.zsld")]) == 0

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 2), (3, 7), (17, 1), (10, 16),
                                            (613, 1009)])
    def test_uniform_matches_scalar_oracle(self, rows, cols):
        # Bulk draws must reproduce the scalar stream, one word per element,
        # bit for bit and leave the generator where the scalar loop leaves it.
        bulk, scalar = Rng(rows * cols), oracles.ScalarRng(rows * cols)
        lo, hi = -np.sqrt(6.0 / (rows + cols)), np.sqrt(6.0 / (rows + cols))
        got = bulk.uniform(lo, hi, rows, cols)
        want = oracles.uniform(scalar, lo, hi, rows, cols)
        assert got.shape == (rows, cols)
        assert got.tobytes() == want.tobytes()
        assert bulk.state == scalar.state
        (batch,), = make_batches(20, 20, 1, bulk)
        order = list(range(20))
        oracles.shuffle(scalar, order)
        assert batch.tolist() == order
        assert bulk.state == scalar.state

    def test_uniform_mean_law_of_large_numbers(self):
        values = Rng(123).uniform(0.0, 1.0, 100, 100)
        assert 0.47 <= values.mean() <= 0.53

    def test_uniform_range(self):
        values = Rng(9).uniform(-2.0, 3.0, 50, 20)
        assert values.min() >= -2.0 and values.max() < 3.0

    def test_uniform_rejects_empty_interval(self):
        with pytest.raises(ArgumentError):
            Rng(1).uniform(5.0, 5.0, 2, 2)

    def test_normal_moments(self):
        values = _box_muller(Rng(77).uniform(0.0, 1.0, 1, 20000), 20000)
        assert abs(values.mean()) < 0.03
        assert abs(values.std() - 1.0) < 0.03

    def test_normal_deterministic_and_odd_count_consistent(self):
        a = _box_muller(Rng(5).uniform(0.0, 1.0, 1, 8), 7)
        b = _box_muller(Rng(5).uniform(0.0, 1.0, 1, 8), 7)
        assert np.array_equal(a, b)
        assert a.tobytes() == oracles.normal(oracles.ScalarRng(5), 7).tobytes()

    def test_choice_weighted_frequencies(self):
        weights = np.array([1.0, 3.0])
        draws = _weighted_picks(weights, Rng(19).uniform(0.0, 1.0, 8000, 1)[:, 0])
        share = sum(draws) / len(draws)
        assert 0.72 <= share <= 0.78
        rng = oracles.ScalarRng(19)
        assert draws.tolist() == [oracles.choice_weighted(rng, weights) for _ in range(8000)]

    def test_choice_weighted_rejects_zero_weights(self):
        with pytest.raises(ArgumentError):
            _weighted_picks(np.zeros(3), np.array([0.5]))


@settings(max_examples=30)
@given(st.integers(0, 2**63), st.integers(1, 6), st.integers(1, 6))
def test_uniform_rerun_bit_identical(seed, rows, cols):
    a = Rng(seed).uniform(-1, 1, rows, cols)
    b = Rng(seed).uniform(-1, 1, rows, cols)
    assert np.array_equal(a, b)
