"""Dense float math kernels, a portable PRNG, and gradient checking.

The package computes in float numpy arrays laid out so that the
axis a softmax or sum reduces is outermost in memory.  numpy reduces in
memory order: over a leading axis it adds whole contiguous rows at a
time, over an inner axis of 9-50 elements it loops row by row, 5-16x
slower at the stock shape.  So a batch's region features are an
(R, B, d_v) array, the attention maps and class scores put their
normalized axis first, and embeddings and scores put their image axis
last.  The kernels here take any strided view and return results in its
layout.  A dataset holds its float tensors as ``float32``, the model
computes in its weights' dtype, and the one softmax kernel,
:func:`log_sum_exp`, computes in its input's float dtype; one scan,
:func:`first_non_finite`, checks datasets, checkpoints and training
weights for finiteness, and one per-matrix check serves ``grad-check`` and
the gradient tests.  Identical inputs give bit-identical output, and the
:class:`Rng` stream depends only on its seed, never on the platform.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, NumericError, ShapeError

_U64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_TWO_POW_NEG53 = 2.0 ** -53

DEFAULT_GRAD_STEP = 1e-5
_FINITE_BLOCK = 1 << 18  # elements per block of first_non_finite


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
    bits.  A double takes the top 53 bits of an output word, so the stream
    is identical on every platform for a given seed.  :meth:`uniform` is
    the one draw; an integer below n is ``int(u * n)`` of a uniform u.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = _splitmix64(int(seed) & _U64)
        if self.state == 0:
            # xorshift has a fixed point at zero.
            self.state = 0x9E3779B97F4A7C15

    def uniform(self, lo: float, hi: float, rows: int, cols: int) -> np.ndarray:
        """rows x cols matrix of i.i.d. uniforms in [lo, hi), row-major draw order.

        Element i is ``lo + (hi - lo) * u_i`` with ``u_i = (w_i >> 11) * 2**-53``
        for the i-th output word w_i of the stream, and the generator ends
        in the state after the last; the words are drawn in bulk by
        jump-ahead lanes (see :meth:`_words`).
        """
        if not lo < hi:
            raise ArgumentError(f"uniform requires lo < hi, got lo={lo}, hi={hi}")
        if rows < 1 or cols < 1:
            raise ArgumentError(f"uniform requires positive shape, got {rows}x{cols}")
        span = hi - lo
        words = self._words(rows * cols)
        words >>= 11
        u = words.astype(np.float64)
        u *= _TWO_POW_NEG53
        u *= span
        u += lo
        return u.reshape(rows, cols)

    def _words(self, n: int) -> np.ndarray:
        """The next n output words as a uint64 array, in stream order.

        The xorshift step T is linear over GF(2), so T^m is fixed by the
        images of the 64 one-bit words.  L = 4 isqrt(n) lanes start at the
        states x_0, x_m, x_2m, ... (found by doubling: with lanes x_0 ..
        x_{(k-1)m} and the map T^{km}, apply it to get the next k lanes,
        then square it) and step together m = ceil(n / L) times.  An
        n-word draw thus costs O(sqrt(n)) numpy calls instead of n Python
        calls; the factor 4 trades per-step call overhead against the
        64-wide doubling work.  The state left behind is that of the n-th
        word.
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


class FlatArrays(dict):
    """Named arrays that are consecutive C-order blocks of one flat float array.

    ``flat`` is that array, so one ufunc over it acts on every named
    array, and each named array is a view that reads and writes it.
    ``alloc`` makes the flat array from its length and ``dtype``
    (``np.empty`` or ``np.zeros``); a copy ``of`` arrays takes their dtype.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], alloc=np.empty, dtype=np.float64):
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.flat = alloc(sum(sizes), dtype)
        start = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            self[name] = self.flat[start:start + size].reshape(shape)
            start += size

    @classmethod
    def of(cls, arrays: dict[str, np.ndarray]) -> "FlatArrays":
        """A flat copy of ``arrays``."""
        out = cls({name: arr.shape for name, arr in arrays.items()},
                  dtype=np.result_type(*arrays.values()))
        for name, arr in arrays.items():
            out[name][...] = arr
        return out

    def zeros_like(self) -> "FlatArrays":
        return FlatArrays({name: arr.shape for name, arr in self.items()}, np.zeros,
                          self.flat.dtype)


def first_non_finite(arr: np.ndarray) -> tuple[int, ...] | None:
    """The C-order index of the first non-finite element, or None.  Block by
    block, with no ``arr``-sized mask: a block is finite if its min and max are
    (NaN propagates), which is faster than masking it; a failing one is masked."""
    flat = arr.reshape(-1)
    for start in range(0, flat.size, _FINITE_BLOCK):
        block = flat[start:start + _FINITE_BLOCK]
        if not (np.isfinite(block.min()) and np.isfinite(block.max())):
            bad = start + int(np.isfinite(block).argmin())
            return tuple(int(i) for i in np.unravel_index(bad, arr.shape))
    return None


def log_sum_exp(x: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Stable log(sum(exp(x))) along ``axis`` and the softmax it normalizes, from one ``exp``.

    With a 2-D input, ``axis=0`` normalizes every column and ``axis=1``
    every row.  The softmax has the memory layout of ``x``, and the
    reductions are fastest when ``axis`` has the largest stride.  ``x`` is a
    float array, and the results take its dtype.  Non-finite values pass
    through, for the checks on losses and class scores to report.
    """
    m = x.max(axis=axis, keepdims=True)
    e = x - m   # the one temporary: exp and divide in place
    np.exp(e, out=e)
    total = e.sum(axis=axis, keepdims=True)
    return (m + np.log(total)).squeeze(axis=axis), np.divide(e, total, out=e)


def softmax_stable(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax along ``axis``; each slice sums to one."""
    return log_sum_exp(logits, axis)[1]


class GradCheckResult(NamedTuple):
    max_rel_error: float
    worst_index: int
    analytic_at_worst: float
    numeric_at_worst: float


def grad_check_detail(
    f: Callable[[np.ndarray], float],
    point: np.ndarray,
    analytic: np.ndarray,
) -> GradCheckResult:
    """Compare an analytic gradient against central differences.

    For every coordinate i the relative error is
    ``|analytic_i - numeric_i| / max(1, |analytic_i|, |numeric_i|)`` with
    ``numeric_i = (f(x + h e_i) - f(x - h e_i)) / (2 h)`` and
    ``h = DEFAULT_GRAD_STEP``; a non-finite ``analytic_i`` counts as an
    infinite relative error.
    Returns the worst coordinate; raises :class:`NumericError` if ``f``
    evaluates non-finite at any probe point.
    """
    x = np.array(point, dtype=np.float64).reshape(-1)
    g = np.asarray(analytic, dtype=np.float64).reshape(-1)
    if g.shape != x.shape:
        raise ShapeError(
            f"analytic gradient has {g.size} coordinates, point has {x.size}"
        )
    worst = GradCheckResult(0.0, -1, 0.0, 0.0)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + DEFAULT_GRAD_STEP
        f_plus = float(f(x))
        x[i] = orig - DEFAULT_GRAD_STEP
        f_minus = float(f(x))
        x[i] = orig
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise NumericError(
                f"grad_check: f is non-finite near coordinate {i}"
            )
        numeric = (f_plus - f_minus) / (2.0 * DEFAULT_GRAD_STEP)
        analytic_i = float(g[i])
        if math.isfinite(analytic_i):
            rel = abs(analytic_i - numeric) / max(1.0, abs(analytic_i), abs(numeric))
        else:
            rel = math.inf
        if rel > worst.max_rel_error:
            worst = GradCheckResult(rel, i, analytic_i, numeric)
    return worst


def grad_check_matrices(loss: Callable, params, grads) -> dict[str, GradCheckResult]:
    """:func:`grad_check_detail` on each matrix of ``params.as_dict()`` in turn, the
    others held fixed; ``loss`` maps a parameter dataclass to a scalar."""
    return {name: grad_check_detail(
        lambda flat, n=name, s=w.shape: loss(dataclasses.replace(params, **{n: flat.reshape(s)})),
        w, grads[name]) for name, w in params.as_dict().items()}
