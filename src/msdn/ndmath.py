"""Dense float math kernels, a portable PRNG, and gradient checking.

The package computes in float numpy arrays laid out so that the
axis a softmax or sum reduces is outermost in memory.  numpy reduces in
memory order: over a leading axis it adds whole contiguous rows at a
time, over an inner axis of 9-50 elements it loops row by row, 5-16x
slower at the stock shape.  So a batch's region features are an
(R, B, d_v) array, the attention maps and class scores put their
normalized axis first, and embeddings and scores put their image axis
last.  The kernels
here take any strided view and return results in its layout.  A
dataset holds its region features as ``float32``; a batch is gathered in
its weights' dtype, and the softmax and log-sum-exp keep ``float32`` and
widen any other dtype to ``float64``.  Everything here is deterministic:
re-running an operation on identical inputs yields bit-identical output,
and the :class:`Rng` stream depends only on its seed, never on the
platform.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, NumericError, ShapeError

_U64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_TWO_POW_NEG53 = 2.0 ** -53

DEFAULT_GRAD_STEP = 1e-5


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


_BASIS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _apply_linear(images: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Apply the GF(2)-linear map sending bit i to ``images[i]`` to each word."""
    octets = words.astype("<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(octets, axis=1, bitorder="little").astype(bool)
    return np.bitwise_xor.reduce(np.where(bits, images, np.uint64(0)), axis=1)


def _xorshift_steps(x: np.ndarray, steps: int) -> np.ndarray:
    """Advance every uint64 state in ``x`` by ``steps`` xorshift steps."""
    for _ in range(steps):
        x = x ^ (x >> 12)
        x ^= x << 25
        x ^= x >> 27
    return x


class Rng:
    """xorshift64* generator with a splitmix64-scrambled seed.

    The update is ``x ^= x >> 12; x ^= x << 25; x ^= x >> 27`` on a 64-bit
    word, and each output is ``x * 0x2545F4914F6CDD1D`` truncated to 64
    bits.  Doubles take the top 53 bits of an output word, so the stream
    is identical on every platform for a given seed.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = _splitmix64(int(seed) & _U64)
        if self.state == 0:
            # xorshift has a fixed point at zero.
            self.state = 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _U64
        x ^= x >> 27
        self.state = x
        return (x * _XORSHIFT_MULT) & _U64

    def next_f64(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _TWO_POW_NEG53

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ArgumentError(f"next_below requires n >= 1, got {n}")
        return int(self.next_f64() * n)

    def uniform(self, lo: float, hi: float, rows: int, cols: int) -> np.ndarray:
        """rows x cols matrix of i.i.d. uniforms in [lo, hi), row-major draw order.

        Element i is ``lo + (hi - lo) * next_f64()`` of the i-th draw, bit
        for bit, and the generator ends in the state those rows * cols
        ``next_f64`` calls would leave; the words are drawn in bulk by
        jump-ahead lanes (see :meth:`_next_u64_array`).
        """
        if not lo < hi:
            raise ArgumentError(f"uniform requires lo < hi, got lo={lo}, hi={hi}")
        if rows < 1 or cols < 1:
            raise ArgumentError(f"uniform requires positive shape, got {rows}x{cols}")
        span = hi - lo
        words = self._next_u64_array(rows * cols)
        words >>= 11
        u = words.astype(np.float64)
        u *= _TWO_POW_NEG53
        u *= span
        u += lo
        return u.reshape(rows, cols)

    def _next_u64_array(self, n: int) -> np.ndarray:
        """The next n ``next_u64`` outputs as a uint64 array, in stream order.

        The xorshift step T is linear over GF(2), so T^m is fixed by the
        images of the 64 one-bit words.  L = 4 isqrt(n) lanes start at the
        states x_0, x_m, x_2m, ... (found by doubling: with lanes x_0 ..
        x_{(k-1)m} and the map T^{km}, apply it to get the next k lanes,
        then square it) and step together m = ceil(n / L) times.  An
        n-word draw thus costs O(sqrt(n)) numpy calls instead of n Python
        calls; the factor 4 trades per-step call overhead against the
        64-wide doubling work.  The words and the state left behind are
        those of n ``next_u64`` calls.
        """
        lanes = 4 * math.isqrt(n)
        steps = -(-n // lanes)
        jump = _xorshift_steps(_BASIS, steps)
        seeds = np.array([self.state], dtype=np.uint64)
        while seeds.size < lanes:
            seeds = np.concatenate([seeds, _apply_linear(jump, seeds)])
            jump = _apply_linear(jump, jump)
        x = seeds[:lanes]
        states = np.empty((steps, lanes), dtype=np.uint64)
        for t in range(steps):
            states[t] = x = _xorshift_steps(x, 1)
        self.state = int(states[(n - 1) % steps, (n - 1) // steps])
        states *= np.uint64(_XORSHIFT_MULT)
        return states.T.reshape(-1)[:n]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, fastest on a list.

        Swaps ``items[i]`` with ``items[next_below(i + 1)]`` for i from the
        end down to 1, with the xorshift step written out in the loop.
        """
        x = self.state
        for i in range(len(items) - 1, 0, -1):
            x ^= x >> 12
            x ^= (x << 25) & _U64
            x ^= x >> 27
            j = int((((x * _XORSHIFT_MULT) & _U64) >> 11) * _TWO_POW_NEG53 * (i + 1))
            items[i], items[j] = items[j], items[i]
        self.state = x


class FlatArrays(dict):
    """Named arrays that are consecutive C-order blocks of one flat float64 array.

    ``flat`` is that array, so one ufunc over it acts on every named
    array, and each named array is a view that reads and writes it.
    ``alloc`` makes the flat array from its length (``np.empty`` or
    ``np.zeros``).
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], alloc=np.empty):
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.flat = alloc(sum(sizes))
        start = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            self[name] = self.flat[start:start + size].reshape(shape)
            start += size

    @classmethod
    def of(cls, arrays: dict[str, np.ndarray]) -> "FlatArrays":
        """A flat copy of ``arrays``."""
        out = cls({name: arr.shape for name, arr in arrays.items()})
        for name, arr in arrays.items():
            out[name][...] = arr
        return out

    def zeros_like(self) -> "FlatArrays":
        return FlatArrays({name: arr.shape for name, arr in self.items()}, np.zeros)


def _float_array(x) -> np.ndarray:
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def softmax_stable(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax along ``axis``; each slice sums to one.

    With a 2-D input, ``axis=0`` normalizes every column and ``axis=1``
    every row.  The result has the memory layout of ``logits``, and the
    reductions are fastest when ``axis`` has the largest stride.
    Non-finite logits are rejected.
    """
    x = _float_array(logits)
    if not np.isfinite(x).all():
        raise NumericError("softmax_stable requires finite logits")
    e = x - x.max(axis=axis, keepdims=True)   # the one temporary: exp and divide in place
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def log_sum_exp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log(sum(exp(x))) along ``axis``."""
    x = _float_array(x)
    m = x.max(axis=axis, keepdims=True)
    out = m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))
    return out.squeeze(axis=axis)


class GradCheckResult(NamedTuple):
    max_rel_error: float
    worst_index: int
    analytic_at_worst: float
    numeric_at_worst: float


def grad_check_detail(
    f: Callable[[np.ndarray], float],
    point: np.ndarray,
    analytic: np.ndarray,
    step: float = DEFAULT_GRAD_STEP,
) -> GradCheckResult:
    """Compare an analytic gradient against central differences.

    For every coordinate i the relative error is
    ``|analytic_i - numeric_i| / max(1, |analytic_i|, |numeric_i|)`` with
    ``numeric_i = (f(x + step e_i) - f(x - step e_i)) / (2 step)``; a
    non-finite ``analytic_i`` counts as an infinite relative error.
    Returns the worst coordinate; raises :class:`NumericError` if ``f``
    evaluates non-finite at any probe point.
    """
    if step <= 0:
        raise ArgumentError(f"grad_check requires step > 0, got {step}")
    x = np.array(point, dtype=np.float64).reshape(-1)
    g = np.asarray(analytic, dtype=np.float64).reshape(-1)
    if g.shape != x.shape:
        raise ShapeError(
            f"analytic gradient has {g.size} coordinates, point has {x.size}"
        )
    worst = GradCheckResult(0.0, -1, 0.0, 0.0)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + step
        f_plus = float(f(x))
        x[i] = orig - step
        f_minus = float(f(x))
        x[i] = orig
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise NumericError(
                f"grad_check: f is non-finite near coordinate {i}"
            )
        numeric = (f_plus - f_minus) / (2.0 * step)
        analytic_i = float(g[i])
        if math.isfinite(analytic_i):
            rel = abs(analytic_i - numeric) / max(1.0, abs(analytic_i), abs(numeric))
        else:
            rel = math.inf
        if rel > worst.max_rel_error:
            worst = GradCheckResult(rel, i, analytic_i, numeric)
    return worst

