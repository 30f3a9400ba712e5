"""The two mutual attention sub-nets.

The attribute->visual sub-net scores every (attribute, region) pair with
a bilinear form through W1, normalizes over attributes within each
region, and sums each attribute's W2 bilinear matches with the regions
under that attention into a per-attribute confidence vector psi.

The visual->attribute sub-net mirrors it: bilinear scores through W3
normalized over regions within each attribute, attribute pooling into
per-region semantic features S, a W4 mapping to per-region scores
psi_bar, and a final bilinear projection through W_att that turns the
R-dimensional psi_bar into the K-dimensional embedding Psi so both
sub-nets score classes in the same attribute space.

Forward and backward run on an (R, B, d_v) stack of images folded into
(R*B, d_v) rows ordered region-major, (r, b), so each product is one
GEMM per batch and the image-independent products (A W1, A W2, W3 A^T)
are formed once per batch.  Psi = sum_r psi_bar_r v_r^T W_att A^T =
(psi_bar^T V) W_att A^T is rank-one per image, so it is computed from
the psi_bar-pooled (B, d_v) features and no (B, R, K) region-attribute
map is formed.

Every intermediate is laid out so that the axis a softmax or sum
reduces is outermost in memory: the a2v maps are (K, R, B), the v2a
attention (R, B, K), S and the W4 readout (d_a, R*B).  numpy reduces in
memory order, and over the outermost axis it adds whole contiguous rows
at once instead of looping over rows of 9-50 elements: 5-16x faster at
the stock shape.  A C-order stack (``Dataset.regions``) folds with no
copy.  The trace keeps these arrays as computed, batch axis innermost,
together with the stack and attributes the backward reads, and the
gradients are C-contiguous blocks of one flat array, each in its
parameter's shape.  Weights stacked on a leading model axis run every
model in one pass, each product a stack of one model's products.  A
forward computes in its weights' dtype.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from . import data_io
from .errors import ContainerFormatError, ShapeError
from .ndmath import FlatArrays, Rng, softmax_stable

PARAM_NAMES = ("W1", "W2", "W3", "W4", "W_att")


@dataclass(frozen=True)
class ModelDims:
    visual_dim: int     # d_v, per-region feature width
    attr_dim: int       # d_a, attribute word-vector width
    num_attributes: int  # K
    num_regions: int    # R

    @staticmethod
    def for_dataset(ds: data_io.Dataset) -> "ModelDims":
        return ModelDims(
            visual_dim=ds.visual_dim,
            attr_dim=ds.attr_dim,
            num_attributes=ds.num_attributes,
            num_regions=ds.num_regions,
        )

    def param_shapes(self) -> dict[str, tuple[int, int]]:
        """Shape of each weight matrix, in ``PARAM_NAMES`` order."""
        d_v, d_a = self.visual_dim, self.attr_dim
        return dict(zip(PARAM_NAMES, [(d_a, d_v)] * 2 + [(d_v, d_a)] * 3))


@dataclass(frozen=True)
class ModelParams:
    """The five learnable matrices plus the dims they were built for."""

    dims: ModelDims
    W1: np.ndarray      # (d_a, d_v) attribute->visual attention bilinear form
    W2: np.ndarray      # (d_a, d_v) embedding for psi
    W3: np.ndarray      # (d_v, d_a) visual->attribute attention bilinear form
    W4: np.ndarray      # (d_v, d_a) embedding for psi_bar
    W_att: np.ndarray   # (d_v, d_a) projection of psi_bar into attribute space

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(self.dims, **{n: w.astype(dtype) for n, w in self.as_dict().items()})


@dataclass(frozen=True)
class ForwardTrace:
    """Everything a forward pass over an (R, B, d_v) stack reads and produces.

    The stack and the attributes it met come first; the maps follow in
    the order and layout the two sub-nets compute them.  ``R*B`` columns
    are ordered (r, b), and stacked weights put their model axis in front.
    """

    regions: np.ndarray  # (R, B, d_v) the stack, in the weights' dtype
    attrs: np.ndarray    # (K, d_a) attribute vectors, in the weights' dtype
    beta: np.ndarray     # (K, R, B) attention over attributes, per region
    match: np.ndarray    # (K, R, B) a_k^T W2 v_r; psi = sum_r beta * match (backward only)
    psi: np.ndarray      # (K, B) attribute confidences, first sub-net
    tau: np.ndarray      # (R, B, K) attention over regions, per attribute
    S: np.ndarray        # (d_a, R*B) visual-based attribute features
    psi_bar: np.ndarray  # (R, B) per-region scores, second sub-net
    Psi: np.ndarray      # (K, B) attribute confidences, second sub-net
    pooled: np.ndarray   # (B, d_v) psi_bar @ V; Psi = A (pooled W_att)^T (backward only)
    readout: np.ndarray  # (d_a, R*B) W4^T V^T; psi_bar = colsum(readout * S) (backward only)


def _glorot(rng: Rng, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, rows, cols)


def init_params_from_rng(dims: ModelDims, rng: Rng) -> ModelParams:
    """Glorot-uniform initialization, drawing W1, W2, W3, W4, W_att in order."""
    return ModelParams(dims=dims, **{name: _glorot(rng, *shape)
                                     for name, shape in dims.param_shapes().items()})


def _folded(regions: np.ndarray, attrs: np.ndarray, params: ModelParams) -> np.ndarray:
    """Check an (R, B, d_v) stack against the model; return its (R*B, d_v) rows in (r, b) order."""
    if regions.ndim != 3 or attrs.ndim != 2:
        raise ShapeError(
            f"expected a 3-D region stack and a 2-D attribute matrix, "
            f"got {regions.shape} and {attrs.shape}"
        )
    d_v, d_a = params.dims.visual_dim, params.dims.attr_dim
    if regions.shape[2] != d_v:
        raise ShapeError(f"region features have width {regions.shape[2]}, model expects {d_v}")
    if attrs.shape[1] != d_a:
        raise ShapeError(f"attribute vectors have width {attrs.shape[1]}, model expects {d_a}")
    return regions.reshape(-1, d_v)


def a2v_forward(
    regions: np.ndarray, attrs: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attribute->visual pass over an (R, B, d_v) stack: (beta, match, psi).

    beta[k, r, b] softmax-normalizes the bilinear scores over attributes
    k within region r of image b; match is (K, R, B) too.  psi[k, b] is
    the match of attribute k through W2 with the beta-pooled regions,
    summed over regions so the (B, K, d_v) pooled features never form.
    """
    V = _folded(regions, attrs, params)
    maps = params.W1.shape[:-2] + (-1, *regions.shape[:2])                 # (…, K, R, B)
    beta = softmax_stable(((attrs @ params.W1) @ V.T).reshape(maps), axis=-3)
    match = ((attrs @ params.W2) @ V.T).reshape(maps)
    return beta, match, (beta * match).sum(axis=-2)                        # psi (…, K, B)


def v2a_forward(
    regions: np.ndarray, attrs: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, ...]:
    """Visual->attribute pass over an (R, B, d_v) stack.

    Returns (tau, S, psi_bar, Psi, pooled, readout): (R, B, K),
    (d_a, R*B), (R, B), (K, B), (B, d_v) and (d_a, R*B).  tau[r, b, k]
    softmax-normalizes the bilinear scores over regions r within each
    attribute k; column (r, b) of S pools attribute vectors under tau;
    psi_bar[r, b] matches region r against it through W4; Psi projects
    psi_bar into attribute space through W_att, as the bilinear match
    of the psi_bar-pooled regions with every attribute vector.
    """
    V = _folded(regions, attrs, params)
    models, rows = params.W3.shape[:-2], V.shape[0]
    per_region = models + regions.shape[:2]                                # (…, R, B)
    # No name holds the logits, so they are freed before S and the readout exist.
    tau = softmax_stable((V @ (params.W3 @ attrs.T)).reshape(per_region + (-1,)),
                         axis=-3)                                          # (…, R, B, K)
    S = attrs.T @ tau.reshape(models + (rows, -1)).swapaxes(-1, -2)        # (…, d_a, R*B)
    readout = params.W4.swapaxes(-1, -2) @ V.T                             # (…, d_a, R*B)
    psi_bar = (readout * S).sum(axis=-2).reshape(per_region)               # (…, R, B)
    pooled = (psi_bar.swapaxes(-1, -2)[..., None, :] @ regions.swapaxes(0, 1))[..., 0, :]
    Psi = attrs @ (pooled @ params.W_att).swapaxes(-1, -2)                 # (…, K, B)
    return tau, S, psi_bar, Psi, pooled, readout


def forward(regions: np.ndarray, attrs: np.ndarray, params: ModelParams) -> ForwardTrace:
    """Run both sub-nets on an (R, B, d_v) stack of images.

    Stacked weights run every model in the same pass.  One image is a
    stack of one.  ``attrs`` is cast to the weights' dtype, and the trace
    keeps it and ``regions`` for the backward.
    """
    attrs = attrs.astype(params.W1.dtype, copy=False)
    return ForwardTrace(regions, attrs, *a2v_forward(regions, attrs, params),
                        *v2a_forward(regions, attrs, params))


def backward(
    params: ModelParams, trace: ForwardTrace, d_psi: np.ndarray, d_Psi: np.ndarray
) -> FlatArrays:
    """Gradients of a scalar loss w.r.t. the five parameter matrices.

    ``trace`` is the forward of ``params`` and carries the (R, B, d_v)
    stack and the attributes it ran on; ``d_psi`` and ``d_Psi`` are the
    (K, B) loss gradients w.r.t. the two embeddings (model axis first
    for stacked weights).  Gradients are summed over the batch and
    written straight into one flat array, in ``PARAM_NAMES`` order, each
    a C-contiguous view in its parameter's shape.  Consumes ``trace``:
    its maps serve as scratch space, with the float operations of the
    plain expressions, so the pass makes one map-sized temporary.
    """
    regions, attrs = trace.regions, trace.attrs
    V = regions.reshape(-1, regions.shape[-1])
    models, rows = params.W1.shape[:-2], V.shape[0]
    grads = FlatArrays({name: getattr(params, name).shape for name in PARAM_NAMES})

    # first sub-net, K-major: psi[k, b] = sum_r beta[k, r, b] * match[k, r, b]
    beta, d_psi_k = trace.beta, d_psi[..., None, :]                        # d_psi_k (…, K, 1, B)
    scratch = d_psi_k * beta                                               # d_match
    np.matmul(attrs.T, scratch.reshape(models + (-1, rows)) @ V, out=grads["W2"])
    d_beta = trace.match                                                   # in match's buffer
    d_beta *= d_psi_k
    d_beta -= np.multiply(beta, d_beta, out=scratch).sum(axis=-3, keepdims=True)
    d_beta *= beta                                                         # d_logits1
    np.matmul(attrs.T, d_beta.reshape(models + (-1, rows)) @ V, out=grads["W1"])

    # second sub-net: Psi[b] = (psi_bar[b] @ V[b]) @ W_att @ A^T
    d_Psi_A = d_Psi.swapaxes(-1, -2) @ attrs                               # (…, B, d_a)
    np.matmul(trace.pooled.swapaxes(-1, -2), d_Psi_A, out=grads["W_att"])
    d_pooled = d_Psi_A @ params.W_att.swapaxes(-1, -2)                     # (…, B, d_v)
    d_psi_bar = (regions.swapaxes(0, 1) @ d_pooled[..., None])[..., 0]     # (…, B, R)
    d_psi_bar = d_psi_bar.swapaxes(-1, -2).reshape(models + (1, rows))

    # d_a-major: psi_bar = colsum(readout * S), readout = W4^T V^T, S = A^T tau^T
    S, readout, tau = trace.S, trace.readout, trace.tau
    S *= d_psi_bar
    np.matmul(V.T, S.swapaxes(-1, -2), out=grads["W4"])
    readout *= d_psi_bar
    d_tau = np.matmul(readout.swapaxes(-1, -2), attrs.T,                   # in d_beta's buffer
                      out=d_beta.reshape(models + (rows, -1))).reshape(tau.shape)
    d_tau -= np.multiply(tau, d_tau, out=scratch.reshape(tau.shape)).sum(axis=-3, keepdims=True)
    d_tau *= tau                                                           # d_logits2
    del scratch, d_pooled   # freed before the last product, where the pass peaks
    np.matmul(V.T @ d_tau.reshape(models + (rows, -1)), attrs, out=grads["W3"])
    return grads


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

def save_checkpoint(params: ModelParams, path) -> None:
    """Write the five matrices plus a dims vector (d_v, d_a, K, R)."""
    dims = np.asarray(astuple(params.dims), dtype=np.int32)   # the order load_checkpoint reads
    data_io.write_container(path, [*params.as_dict().items(), ("dims", dims)])


def load_checkpoint(path) -> ModelParams:
    """The stored weights, as read-only float32 views of the file's bytes."""
    tensors = dict(data_io.read_container(path))
    missing = [n for n in (*PARAM_NAMES, "dims") if n not in tensors]
    if missing:
        raise ContainerFormatError(f"checkpoint missing tensors: {', '.join(missing)}")
    dims_vec = tensors["dims"]
    if dims_vec.shape != (4,) or dims_vec.dtype.kind not in "iu":
        raise ContainerFormatError(
            f"checkpoint dims must be 4 integers, got {dims_vec.dtype} {dims_vec.shape}")
    dims = ModelDims(*(int(v) for v in dims_vec))
    for name, shape in dims.param_shapes().items():
        if tensors[name].shape != shape:
            raise ContainerFormatError(
                f"checkpoint tensor {name} has shape {tensors[name].shape}, expected {shape}"
            )
        if tensors[name].dtype.kind != "f":
            raise ContainerFormatError(
                f"checkpoint tensor {name} must have a float dtype, got {tensors[name].dtype}")
        if not np.isfinite(tensors[name]).all():
            raise ContainerFormatError(f"checkpoint tensor {name} has non-finite entries")
    return ModelParams(dims=dims, **{name: tensors[name] for name in PARAM_NAMES})
