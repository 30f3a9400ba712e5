"""The two mutual attention sub-nets.

The attribute->visual sub-net scores every (attribute, region) pair with
a bilinear form through W1, normalizes over attributes within each
region, and sums each attribute's W2 bilinear matches with the regions
under that attention into a per-attribute confidence vector psi.

The visual->attribute sub-net mirrors it: bilinear scores through W3
normalized over regions within each attribute, and each region's W4
bilinear matches with the attributes summed under that attention into
a per-region score psi_bar.  A final bilinear projection through W_att
turns the R-dimensional psi_bar into the K-dimensional embedding Psi,
so both sub-nets score classes in the same attribute space.

Forward and backward run on an (R, B, d_v) stack of images folded into
(R*B, d_v) rows ordered region-major, (r, b), so each product is one
GEMM per batch and the image-independent products (A W1, A W2, W3 A^T,
W4 A^T, A W_att^T) are formed once per batch.  Psi = sum_r psi_bar_r
A W_att^T v_r = (A W_att^T)(psi_bar^T V)^T is rank-one per image, so it
is computed from the psi_bar-pooled (B, d_v) features and forms no
region-attribute map of W_att matches.

The attention maps are laid out so that the axis their softmax
normalizes is outermost in memory: the a2v maps are (K, R, B), the v2a
maps (R, B, K).  numpy reduces in memory order, and over the outermost
axis it adds whole contiguous rows at once instead of looping over rows
of 9-50 elements: 5-16x faster at the stock shape.  psi sums the a2v
maps over R; psi_bar contracts the v2a maps over K, their innermost
axis, in one einsum, which forms no map-sized product.  A C-order stack
(``Dataset.regions``) folds with no copy.  The trace keeps these arrays
as computed, together with the stack and attributes the backward reads,
and the gradients are C-contiguous blocks of one flat array, each in
its parameter's shape.  Weights stacked on a leading model axis run
every model in one pass, each product a stack of one model's products.
``forward`` checks the stack and the attributes once, for both sub-nets;
a forward and its backward compute in their weights' dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data_io
from .errors import ContainerFormatError, ShapeError
from .ndmath import FlatArrays, Rng, first_non_finite, softmax_stable

PARAM_NAMES = ("W1", "W2", "W3", "W4", "W_att")


def param_shapes(visual_dim: int, attr_dim: int) -> dict[str, tuple[int, int]]:
    """Shape of each weight matrix, in ``PARAM_NAMES`` order."""
    return dict(zip(PARAM_NAMES, [(attr_dim, visual_dim)] * 2 + [(visual_dim, attr_dim)] * 3))


@dataclass(frozen=True)
class ModelParams:
    """The five learnable matrices: bilinear forms between d_a-wide attribute
    vectors and d_v-wide regions, which fit any K and R.  W1's shape gives d_a, d_v."""

    W1: np.ndarray      # (d_a, d_v) attribute->visual attention bilinear form
    W2: np.ndarray      # (d_a, d_v) embedding for psi
    W3: np.ndarray      # (d_v, d_a) visual->attribute attention bilinear form
    W4: np.ndarray      # (d_v, d_a) embedding for psi_bar
    W_att: np.ndarray   # (d_v, d_a) projection of psi_bar into attribute space

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(**{n: w.astype(dtype) for n, w in self.as_dict().items()})


@dataclass(frozen=True)
class ForwardTrace:
    """Everything a forward pass over an (R, B, d_v) stack reads and produces.

    The stack and the attributes it met come first; the maps follow in
    the order and layout the two sub-nets compute them, and stacked
    weights put their model axis in front.
    """

    regions: np.ndarray  # (R, B, d_v) the stack, in the weights' dtype
    attrs: np.ndarray    # (K, d_a) attribute vectors, in the weights' dtype
    beta: np.ndarray     # (K, R, B) attention over attributes, per region
    match: np.ndarray    # (K, R, B) a_k^T W2 v_r; psi = sum_r beta * match (backward only)
    psi: np.ndarray      # (K, B) attribute confidences, first sub-net
    tau: np.ndarray      # (R, B, K) attention over regions, per attribute
    M: np.ndarray        # (R, B, K) v_r^T W4 a_k; psi_bar = sum_k tau * M (backward only)
    psi_bar: np.ndarray  # (R, B) per-region scores, second sub-net
    Psi: np.ndarray      # (K, B) attribute confidences, second sub-net
    pooled: np.ndarray   # (B, d_v) psi_bar @ V; Psi = (A W_att^T) pooled^T (backward only)


def _glorot(rng: Rng, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, rows, cols)


def init_params_from_rng(visual_dim: int, attr_dim: int, rng: Rng) -> ModelParams:
    """Glorot-uniform weights of widths d_v, d_a, drawing W1, W2, W3, W4, W_att in order."""
    return ModelParams(**{name: _glorot(rng, *shape)
                          for name, shape in param_shapes(visual_dim, attr_dim).items()})


def _check_operands(regions: np.ndarray, attrs: np.ndarray, params: ModelParams) -> None:
    """Raise :class:`ShapeError` unless the stack and attributes fit the model's widths."""
    if regions.ndim != 3 or attrs.ndim != 2:
        raise ShapeError(
            f"expected a 3-D region stack and a 2-D attribute matrix, "
            f"got {regions.shape} and {attrs.shape}"
        )
    d_a, d_v = params.W1.shape[-2:]
    if regions.shape[2] != d_v:
        raise ShapeError(f"region features have width {regions.shape[2]}, model expects {d_v}")
    if attrs.shape[1] != d_a:
        raise ShapeError(f"attribute vectors have width {attrs.shape[1]}, model expects {d_a}")


def a2v_forward(
    regions: np.ndarray, attrs: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attribute->visual pass over a stack :func:`forward` checked: (beta, match, psi).

    beta[k, r, b] softmax-normalizes the bilinear scores over attributes
    k within region r of image b; match is (K, R, B) too.  psi[k, b] is
    the match of attribute k through W2 with the beta-pooled regions,
    summed over regions so the (B, K, d_v) pooled features never form.
    """
    V = regions.reshape(-1, regions.shape[-1])
    maps = params.W1.shape[:-2] + (-1, *regions.shape[:2])                 # (…, K, R, B)
    beta = softmax_stable(((attrs @ params.W1) @ V.T).reshape(maps), axis=-3)
    match = ((attrs @ params.W2) @ V.T).reshape(maps)
    return beta, match, (beta * match).sum(axis=-2)                        # psi (…, K, B)


def v2a_forward(
    regions: np.ndarray, attrs: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, ...]:
    """Visual->attribute pass over a stack :func:`forward` checked: (tau, M, psi_bar, Psi, pooled).

    tau[r, b, k] softmax-normalizes the bilinear scores over regions r
    within each attribute k; M is (R, B, K) too.  psi_bar[r, b] is the
    match of region r of image b through W4 with the tau-pooled
    attributes, summed over attributes so the (R, B, d_a) pooled
    features never form.  Psi (K, B) projects psi_bar into attribute
    space through W_att, as the bilinear match of the psi_bar-pooled
    (B, d_v) regions with every attribute vector.
    """
    V = regions.reshape(-1, regions.shape[-1])
    maps = params.W3.shape[:-2] + regions.shape[:2] + (-1,)                # (…, R, B, K)
    tau = softmax_stable((V @ (params.W3 @ attrs.T)).reshape(maps), axis=-3)
    M = (V @ (params.W4 @ attrs.T)).reshape(maps)
    psi_bar = np.einsum("...k,...k->...", tau, M)                          # (…, R, B)
    pooled = (psi_bar.swapaxes(-1, -2)[..., None, :] @ regions.swapaxes(0, 1))[..., 0, :]
    Psi = (attrs @ params.W_att.swapaxes(-1, -2)) @ pooled.swapaxes(-1, -2)  # (…, K, B)
    return tau, M, psi_bar, Psi, pooled


def forward(regions: np.ndarray, attrs: np.ndarray, params: ModelParams) -> ForwardTrace:
    """Run both sub-nets on an (R, B, d_v) stack of images.

    Stacked weights run every model in one pass; one image is a stack of
    one.  Here, and only here, the stack and ``attrs`` are checked, once
    per call, and cast to the weights' dtype: the sub-nets rely on both.
    """
    _check_operands(regions, attrs, params)
    regions, attrs = (x.astype(params.W1.dtype, copy=False) for x in (regions, attrs))
    return ForwardTrace(regions, attrs, *a2v_forward(regions, attrs, params),
                        *v2a_forward(regions, attrs, params))


def backward(
    params: ModelParams, trace: ForwardTrace, d_psi: np.ndarray, d_Psi: np.ndarray
) -> FlatArrays:
    """Gradients of a scalar loss w.r.t. the five parameter matrices.

    ``trace`` is the forward of ``params`` and carries the (R, B, d_v)
    stack and the attributes it ran on; ``d_psi`` and ``d_Psi`` are the
    (K, B) loss gradients w.r.t. the two embeddings in the weights'
    dtype, model axis first when stacked.  Gradients are summed over the
    batch and written straight into one flat array, in ``PARAM_NAMES``
    order, each a C-contiguous view in its parameter's shape.  Consumes
    ``trace``: its maps serve as scratch space, with the float operations
    of the plain expressions, so the pass makes one map-sized temporary.
    """
    regions, attrs = trace.regions, trace.attrs
    V = regions.reshape(-1, regions.shape[-1])
    models, rows = params.W1.shape[:-2], V.shape[0]
    grads = FlatArrays({name: getattr(params, name).shape for name in PARAM_NAMES},
                       dtype=params.W1.dtype)

    # first sub-net, K-major: psi[k, b] = sum_r beta[k, r, b] * match[k, r, b]
    beta, d_psi_k = trace.beta, d_psi[..., None, :]                        # d_psi_k (…, K, 1, B)
    scratch = d_psi_k * beta                                               # d_match
    np.matmul(attrs.T, scratch.reshape(models + (-1, rows)) @ V, out=grads["W2"])
    d_beta = trace.match                                                   # in match's buffer
    d_beta *= d_psi_k
    d_beta -= np.multiply(beta, d_beta, out=scratch).sum(axis=-3, keepdims=True)
    d_beta *= beta                                                         # d_logits1
    np.matmul(attrs.T, d_beta.reshape(models + (-1, rows)) @ V, out=grads["W1"])

    # second sub-net: Psi = (A W_att^T) pooled^T, pooled[b] = psi_bar[:, b] @ V[:, b]
    d_Psi_A = d_Psi.swapaxes(-1, -2) @ attrs                               # (…, B, d_a)
    np.matmul(trace.pooled.swapaxes(-1, -2), d_Psi_A, out=grads["W_att"])
    d_pooled = d_Psi_A @ params.W_att.swapaxes(-1, -2)                     # (…, B, d_v)
    d_psi_bar = (regions.swapaxes(0, 1) @ d_pooled[..., None]).swapaxes(-3, -2)  # (…, R, B, 1)

    # R-major: psi_bar[r, b] = sum_k tau[r, b, k] * M[r, b, k]
    tau, scratch = trace.tau, scratch.reshape(trace.tau.shape)
    d_M = np.multiply(tau, d_psi_bar, out=scratch).reshape(models + (rows, -1))
    np.matmul(V.T @ d_M, attrs, out=grads["W4"])
    d_tau = trace.M                                                        # in M's buffer
    d_tau *= d_psi_bar
    d_tau -= np.multiply(tau, d_tau, out=scratch).sum(axis=-3, keepdims=True)
    d_tau *= tau                                                           # d_logits2
    del scratch, d_M, d_pooled   # freed before the last product, where the pass peaks
    np.matmul(V.T @ d_tau.reshape(models + (rows, -1)), attrs, out=grads["W3"])
    return grads


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

def save_checkpoint(params: ModelParams, path, num_attributes: int, num_regions: int) -> None:
    """Write the five matrices plus a dims vector (d_v, d_a, K, R): the weights'
    own widths, then the K and R of the dataset they were trained on."""
    d_a, d_v = params.W1.shape[-2:]
    dims = np.asarray((d_v, d_a, num_attributes, num_regions), dtype=np.int32)
    data_io.write_container(path, [*params.as_dict().items(), ("dims", dims)])


def load_checkpoint(path) -> tuple[ModelParams, tuple[int, int, int, int]]:
    """The stored weights, as aligned float32 copies (no view keeps the file mapped)
    of the widths its dims vector gives, and that vector (d_v, d_a, K, R).
    A non-finite weight is a data error naming its first bad index in C order."""
    tensors = dict(data_io.read_container(path))
    missing = [n for n in (*PARAM_NAMES, "dims") if n not in tensors]
    if missing:
        raise ContainerFormatError(f"checkpoint missing tensors: {', '.join(missing)}")
    dims_vec = tensors["dims"]
    if dims_vec.shape != (4,) or dims_vec.dtype.kind not in "iu":
        raise ContainerFormatError(
            f"checkpoint dims must be 4 integers, got {dims_vec.dtype} {dims_vec.shape}")
    dims = tuple(int(v) for v in dims_vec)
    for name, shape in param_shapes(*dims[:2]).items():
        if tensors[name].shape != shape:
            raise ContainerFormatError(
                f"checkpoint tensor {name} has shape {tensors[name].shape}, expected {shape}"
            )
        if tensors[name].dtype.kind != "f":
            raise ContainerFormatError(
                f"checkpoint tensor {name} must have a float dtype, got {tensors[name].dtype}")
        if (index := first_non_finite(tensors[name])) is not None:
            raise ContainerFormatError(
                f"checkpoint tensor {name} has a non-finite value at index {index}")
    return ModelParams(**{name: tensors[name].copy() for name in PARAM_NAMES}), dims
