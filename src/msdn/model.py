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

Forward and backward run on a (B, R, d_v) stack of images folded into
(B*R, d_v) matrices, so each product is one GEMM per batch and the
image-independent products (A W1, A W2, W3 A^T) are formed once per
batch.  Psi = sum_r psi_bar_r v_r^T W_att A^T = (psi_bar^T V) W_att A^T
is rank-one per image, so it is computed from the psi_bar-pooled
(B, d_v) features and no (B, R, K) region-attribute map is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import data_io
from .errors import ContainerFormatError, ShapeError
from .ndmath import Rng, softmax_stable

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


@dataclass(frozen=True)
class ForwardTrace:
    """Everything a forward pass produces.

    Shapes are per image.  The trace of a (B, R, d_v) stack carries a
    leading batch axis on every field; ``image(i)`` drops it.
    """

    beta: np.ndarray     # (K, R) attention over attributes, per region
    psi: np.ndarray      # (K,) attribute confidences, first sub-net
    tau: np.ndarray      # (R, K) attention over regions, per attribute
    S: np.ndarray        # (R, d_a) visual-based attribute features
    psi_bar: np.ndarray  # (R,) per-region scores, second sub-net
    Psi: np.ndarray      # (K,) attribute confidences, second sub-net
    # Kept for the backward pass.
    match: np.ndarray    # (R, K) v_r^T W2^T a_k; psi_k = sum_r beta[k, r] match[r, k]
    pooled: np.ndarray   # (d_v,) psi_bar @ V; Psi = pooled @ W_att @ A^T
    readout: np.ndarray  # (R, d_a) V @ W4; psi_bar = rowsum(readout * S)

    def image(self, i: int) -> "ForwardTrace":
        return ForwardTrace(**{f.name: getattr(self, f.name)[i] for f in fields(self)})


def _glorot(rng: Rng, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, rows, cols)


def init_params_from_rng(dims: ModelDims, rng: Rng) -> ModelParams:
    """Glorot-uniform initialization, drawing W1, W2, W3, W4, W_att in order."""
    if min(dims.visual_dim, dims.attr_dim, dims.num_attributes, dims.num_regions) < 1:
        raise ShapeError(f"model dims must be positive, got {dims}")
    return ModelParams(dims=dims, **{name: _glorot(rng, *shape)
                                     for name, shape in dims.param_shapes().items()})


def _folded(regions: np.ndarray, attrs: np.ndarray, params: ModelParams) -> np.ndarray:
    """Check a (B, R, d_v) stack against the model; return it as (B*R, d_v)."""
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
    """Attribute->visual pass over a (B, R, d_v) stack: (beta, match, psi).

    beta[b, k, r] softmax-normalizes the bilinear scores over attributes
    k within each region r.  psi_k is the bilinear match of attribute k
    through W2 with the beta-pooled regions, summed here over regions
    so the pooled (B, K, d_v) features are never formed.
    """
    V = _folded(regions, attrs, params)
    batch, num_regions = regions.shape[:2]
    logits = V @ (attrs @ params.W1).T                               # (B*R, K)
    beta = softmax_stable(logits.reshape(batch, num_regions, -1), axis=2)
    match = (V @ (attrs @ params.W2).T).reshape(batch, num_regions, -1)
    psi = (beta * match).sum(axis=1)                                 # (B, K)
    return beta.transpose(0, 2, 1), match, psi


def v2a_forward(
    regions: np.ndarray, attrs: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, ...]:
    """Visual->attribute pass over a (B, R, d_v) stack.

    Returns (tau, S, psi_bar, Psi, pooled, readout).  tau[b, r, k]
    softmax-normalizes the bilinear scores over regions r within each
    attribute k; S_r pools attribute vectors under tau; psi_bar_r
    matches region r against S_r through W4; Psi projects psi_bar into
    attribute space through W_att, as the bilinear match of the
    psi_bar-pooled regions with every attribute vector.
    """
    V = _folded(regions, attrs, params)
    batch, num_regions = regions.shape[:2]
    logits = V @ (params.W3 @ attrs.T)                               # (B*R, K)
    tau = softmax_stable(logits.reshape(batch, num_regions, -1), axis=1)
    S = tau.reshape(V.shape[0], -1) @ attrs                          # (B*R, d_a)
    readout = V @ params.W4                                          # (B*R, d_a)
    psi_bar = (readout * S).sum(axis=1).reshape(batch, num_regions)
    pooled = (psi_bar[:, None, :] @ regions)[:, 0]                   # (B, d_v)
    Psi = (pooled @ params.W_att) @ attrs.T                          # (B, K)
    return (tau, S.reshape(batch, num_regions, -1), psi_bar, Psi, pooled,
            readout.reshape(batch, num_regions, -1))


def forward(regions: np.ndarray, attrs: np.ndarray, params: ModelParams) -> ForwardTrace:
    """Run both sub-nets on a (B, R, d_v) stack of images.

    A single (R, d_v) image runs as a batch of one, and its trace comes
    back without the batch axis.
    """
    stack = regions[None] if regions.ndim == 2 else regions
    beta, match, psi = a2v_forward(stack, attrs, params)
    tau, S, psi_bar, Psi, pooled, readout = v2a_forward(stack, attrs, params)
    trace = ForwardTrace(beta=beta, psi=psi, tau=tau, S=S, psi_bar=psi_bar, Psi=Psi,
                         match=match, pooled=pooled, readout=readout)
    return trace.image(0) if regions.ndim == 2 else trace


def backward(
    regions: np.ndarray,
    attrs: np.ndarray,
    params: ModelParams,
    trace: ForwardTrace,
    d_psi: np.ndarray,
    d_Psi: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. the five parameter matrices.

    ``regions`` is the (B, R, d_v) stack that produced ``trace``;
    ``d_psi`` and ``d_Psi`` are the (B, K) loss gradients w.r.t. the two
    embeddings.  Gradients are summed over the batch.
    """
    V = _folded(regions, attrs, params)
    rows = V.shape[0]

    # first sub-net: psi[b, k] = sum_r beta[b, r, k] * match[b, r, k]
    beta = trace.beta.transpose(0, 2, 1)                 # (B, R, K)
    d_match = (d_psi[:, None, :] * beta).reshape(rows, -1)
    d_beta = d_psi[:, None, :] * trace.match
    d_logits1 = beta * (d_beta - (beta * d_beta).sum(axis=2, keepdims=True))
    g_W2 = attrs.T @ (d_match.T @ V)
    g_W1 = attrs.T @ (d_logits1.reshape(rows, -1).T @ V)

    # second sub-net: Psi[b] = (psi_bar[b] @ V[b]) @ W_att @ A^T
    d_Psi_A = d_Psi @ attrs                                          # (B, d_a)
    g_W_att = trace.pooled.T @ d_Psi_A
    d_pooled = d_Psi_A @ params.W_att.T                              # (B, d_v)
    d_psi_bar = (regions @ d_pooled[:, :, None]).reshape(rows, 1)

    # psi_bar = rowsum(readout * S), readout = V @ W4, S = tau @ A
    g_W4 = V.T @ (d_psi_bar * trace.S.reshape(rows, -1))
    d_tau = ((d_psi_bar * trace.readout.reshape(rows, -1)) @ attrs.T).reshape(trace.tau.shape)
    d_logits2 = trace.tau * (d_tau - (trace.tau * d_tau).sum(axis=1, keepdims=True))
    g_W3 = (V.T @ d_logits2.reshape(rows, -1)) @ attrs

    return {"W1": g_W1, "W2": g_W2, "W3": g_W3, "W4": g_W4, "W_att": g_W_att}


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

def save_checkpoint(params: ModelParams, path) -> None:
    """Write the five matrices plus a dims vector (d_v, d_a, K, R)."""
    dims = np.asarray(
        [
            params.dims.visual_dim,
            params.dims.attr_dim,
            params.dims.num_attributes,
            params.dims.num_regions,
        ],
        dtype=np.int32,
    )
    items = [(name, getattr(params, name)) for name in PARAM_NAMES]
    items.append(("dims", dims))
    data_io.write_container(path, items)


def load_checkpoint(path) -> ModelParams:
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
    return ModelParams(dims=dims, **{name: tensors[name].astype(np.float64)
                                     for name in PARAM_NAMES})
