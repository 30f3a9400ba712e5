"""Training objective: calibrated cross-entropy plus peer distillation.

Each sub-net's class scores, held class-major as (classes, rows), feed
an attribute-based cross-entropy over the seen classes, optionally
extended by a self-calibration term that steers probability mass toward
unseen classes; both terms read the sorted classes and offsets of a
``data_io.ClassSplit``, and the pass returns its gradient and
seen-class posteriors class-major too.  The distillation term aligns
the two sub-nets' seen-class posteriors through a symmetric KL
divergence and a squared L2 distance.  It reads the two posteriors as
one class-major (classes, *models, 2, batch) pair, a reshape of what the
cross-entropy pass returns, so one pass serves both sub-nets.
Every loss returns analytic gradients; the total objective chains them
through the attention forwards into all five parameter matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import model as model_mod
from .configfile import require_finite
from .data_io import ClassSplit
from .errors import ArgumentError, NumericError, ShapeError
from .ndmath import FlatArrays, log_sum_exp


@dataclass(frozen=True)
class LossConfig:
    """Loss weights and switches.

    ``lambda_cal`` weighs the self-calibration term, which always moves
    probability mass toward the unseen classes.  The distill term
    switches exist for the ablation grid.
    """

    lambda_cal: float = 0.1
    lambda_distill: float = 0.001
    epsilon_kl: float = 1e-8
    distill_jsd: bool = True
    distill_l2: bool = True

    def __post_init__(self) -> None:
        require_finite(self)
        if self.lambda_cal < 0 or self.lambda_distill < 0:
            raise ArgumentError("loss weights must be non-negative")
        if not 0.0 < self.epsilon_kl <= 1e-3:
            raise ArgumentError(
                f"epsilon_kl must lie in (0, 1e-3], got {self.epsilon_kl}"
            )


class LossBreakdown(NamedTuple):
    acec_a2v: float
    acec_v2a: float
    distill: float
    total: float


@dataclass(frozen=True)
class LossTerms:
    """The per-model loss constants of one LossConfig per model.

    Built once per training run, so no batch rebuilds them.  The models
    share the ``lambda_cal`` and ``epsilon_kl`` of ``cfg``, the first
    config.  A distillation term's switch scales its constant by 1 or
    0: a term that is on keeps its bits, and one that is off adds exact
    zeros.  No term is on at zero distillation weight.
    """

    cfg: LossConfig
    lam: np.ndarray       # (*models,): distillation weight of each model
    l2: np.ndarray        # (*models, 1, 1): 1.0 where the squared-L2 term is on
    half_jsd: np.ndarray  # (*models, 1, 1): 0.5 where the symmetric-KL term is on
    two_l2: np.ndarray    # (*models, 1, 1): 2.0 where the squared-L2 term is on
    distills: bool        # some model has a distillation term on

    @classmethod
    def of(cls, cfgs: tuple[LossConfig, ...], models: tuple[int, ...] = ()) -> "LossTerms":
        """The terms of ``cfgs``, one LossConfig per model of the ``models`` shape."""
        if len({(c.lambda_cal, c.epsilon_kl) for c in cfgs}) != 1:
            raise ArgumentError("lockstep models must share lambda_cal and epsilon_kl")
        lam = np.reshape([c.lambda_distill for c in cfgs], models)   # one per model, or raises
        on = np.reshape([(c.distill_jsd, c.distill_l2) if c.lambda_distill > 0
                         else (False, False) for c in cfgs], models + (2,))
        jsd, l2 = (on[..., t, None, None].astype(np.float64) for t in (0, 1))
        return cls(cfgs[0], lam, l2, 0.5 * jsd, 2.0 * l2, bool(on.any()))


def acec_loss(
    scores: np.ndarray,
    labels: np.ndarray,
    split: ClassSplit,
    lambda_cal: float,
) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Attribute-based cross-entropy with self-calibration.

    ``scores`` is class-major, (C, rows): its columns stack one or more
    batches over all classes, one per sub-net and model, each scored
    against the same ``labels``.  The supervised term is the mean
    negative log softmax over seen-class scores at the true label.  The
    calibration term offsets every logit by ``split.indicator``,
    softmaxes over all classes, and penalizes low unseen-class
    log-probabilities, weighted by ``lambda_cal``.  Every step is
    column-wise, so a block scores as it would alone, and every softmax
    and sum over classes reduces the outermost axis.  Returns each
    block's loss, the (C, rows) gradient w.r.t. ``scores`` and the
    (C_s, rows) seen-class softmax of every column (what distillation
    compares), both class-major like ``scores``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 2 or scores.shape[0] != split.indicator.size:
        raise ShapeError(f"scores must be ({split.indicator.size}, rows), got {scores.shape}")
    if labels.ndim != 1 or labels.size == 0 or scores.shape[1] % labels.size:
        raise ShapeError(f"labels of shape {labels.shape} do not tile {scores.shape[1]} rows")
    batch = labels.size
    blocks = scores.shape[1] // batch

    seen, unseen = split.seen, split.unseen
    try:
        label_pos = split.seen_pos[labels]              # position among seen classes
        known = (seen[label_pos] == labels).all()       # an unseen class maps to -1
    except IndexError:                                  # a label beyond the classes
        known = False
    if not known:
        bad_labels = sorted({int(v) for v in labels[~np.isin(labels, seen)]})
        raise ArgumentError(f"labels outside the seen classes: {bad_labels}")
    label_rows, cols = np.concatenate((label_pos,) * blocks), np.arange(scores.shape[1])

    # supervised term over seen-class scores only; a mean is its sum / n
    seen_scores = scores[seen]                          # (C_s, rows)
    lse = log_sum_exp(seen_scores, axis=0)
    losses = (lse - seen_scores[label_rows, cols]).reshape(blocks, batch).sum(axis=1) / batch
    p_seen = np.exp(seen_scores - lse)
    g_seen = p_seen.copy()
    g_seen[label_rows, cols] -= 1.0
    g_seen /= batch

    # At lambda_cal = 0, or with no unseen class, the calibration term adds exact zeros.
    shifted = scores + split.indicator[:, None]
    log_q = shifted - log_sum_exp(shifted, axis=0)
    # per-sample cross-entropy mass on the unseen classes
    cal_rows = (-log_q[unseen].sum(axis=0)).reshape(blocks, batch)
    losses += lambda_cal * (cal_rows.sum(axis=1) / batch)
    grad = lambda_cal * ((unseen.size * np.exp(log_q) - split.unseen_mask[:, None]) / batch)
    grad[seen] += g_seen

    return losses.tolist(), grad, p_seen


def distill_loss(pair: np.ndarray, terms: LossTerms) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric-KL plus squared-L2 distance between two posterior batches.

    ``pair`` stacks the seen-class softmaxes of the two sub-nets,
    class-major, as (classes, *models, 2, batch): ``pair[..., 0, :]``
    is p, ``pair[..., 1, :]`` is q, and ``pair[..., ::-1, :]`` is the
    pair with its halves swapped.  Each column is clamped to
    [epsilon_kl, 1] and renormalized before comparison; both halves
    are clamped, logged and differentiated in one pass.  ``terms``
    switches the two terms, one switch per model.  Returns each model's
    mean per-sample loss and the gradient w.r.t. both sets of scores
    those softmaxes came from, shaped like ``pair``.
    """
    if pair.ndim < 3 or pair.shape[-2] != 2:
        raise ShapeError(
            f"distill_loss expects a (classes, ..., 2, batch) pair, got {pair.shape}"
        )
    batch = pair.shape[-1]
    clamped = np.minimum(np.maximum(pair, terms.cfg.epsilon_kl), 1.0)
    total = clamped.sum(axis=0, keepdims=True)
    probs = clamped / total
    swapped = probs[..., ::-1, :]

    # log(p) - log(q) rather than log(p/q): subtraction negates exactly,
    # so q's half is the exact negation of p's and the loss is bit-exactly
    # symmetric under argument swap.
    logs = np.log(probs)
    log_ratio = logs - logs[..., ::-1, :]
    diff = probs - swapped
    kl = (probs * log_ratio).sum(axis=0)
    sq = (diff[..., :1, :] * diff[..., :1, :]).sum(axis=0)
    per_row = terms.half_jsd * (kl[..., :1, :] + kl[..., 1:, :]) + terms.l2 * sq
    d_probs = terms.half_jsd * (log_ratio + 1.0 - swapped / probs) + terms.two_l2 * diff

    # renormalization, the clamp (which passes exactly the entries it leaves equal),
    # then the softmax jacobian
    d_clamped = (d_probs - (d_probs * probs).sum(axis=0, keepdims=True)) / total
    d_raw = d_clamped * (clamped == pair)
    grad = pair * (d_raw - (d_raw * pair).sum(axis=0, keepdims=True)) / batch
    return per_row.sum(axis=-1)[..., 0] / batch, grad


def total_loss_raw(
    params: model_mod.ModelParams,
    region_stacks: np.ndarray,
    labels: np.ndarray,
    attrs: np.ndarray,
    class_semantics: np.ndarray,
    split: ClassSplit,
    terms: LossTerms,
) -> tuple[LossBreakdown, FlatArrays]:
    """Total objective and parameter gradients for one batch of images.

    ``region_stacks`` is (R, batch, d_v), as ``Dataset.regions`` gives
    it.  ``terms`` holds the loss constants of one config per model,
    built once per run; for weights stacked on a leading model axis each
    breakdown field lists one value per model.
    Cross-entropy scores both sub-nets of every model in one pass over
    their stacked rows, with a separate mean per sub-net and model.
    Distillation compares the two seen-class posteriors that pass
    computed.  The reported total is exactly
    ``acec_a2v + acec_v2a + lambda_distill * distill``.
    """
    models = params.W1.shape[:-2]
    if terms.lam.shape != models:
        raise ShapeError(f"loss terms for models {terms.lam.shape}, weights for {models}")
    trace = model_mod.forward(region_stacks, attrs, params)   # checks the stack's shape
    batch = region_stacks.shape[1]
    if labels.shape[0] != batch:
        raise ShapeError(f"{batch} images but {labels.shape[0]} labels")
    # Class-major (C, rows) scores, rows ordered (model, sub-net, image).
    scores = class_semantics @ np.concatenate([trace.psi, trace.Psi], axis=-1)
    scores = scores.swapaxes(0, -2).reshape(scores.shape[-2], -1)
    acec, g_scores, p_seen = acec_loss(scores, labels, split, terms.cfg.lambda_cal)
    acec = np.array(acec).reshape(models + (2,))           # (..., sub-net)
    g_scores = g_scores.reshape((-1, *models, 2, batch))

    distill = np.zeros(models)
    if terms.distills:
        distill, g = distill_loss(p_seen.reshape((-1, *models, 2, batch)), terms)
        g_scores[split.seen] += terms.lam[..., None, None] * g

    a2v, v2a = acec[..., 0], acec[..., 1]
    values = np.array([a2v, v2a, distill, a2v + v2a + terms.lam * distill])
    breakdown = LossBreakdown(*values.tolist())
    if not np.isfinite(values).all():
        raise NumericError(f"non-finite loss: {breakdown}")

    d_psi, d_Psi = (class_semantics.T @ g_scores[..., s, :].swapaxes(0, -2) for s in (0, 1))
    return breakdown, model_mod.backward(params, trace, d_psi, d_Psi)
