"""Training objective: calibrated cross-entropy plus peer distillation.

Each sub-net's class scores feed an attribute-based cross-entropy over
the seen classes, optionally extended by a self-calibration term that
steers probability mass toward unseen classes.  The distillation term
aligns the two sub-nets' seen-class posteriors through a symmetric KL
divergence and a squared L2 distance.  Every loss returns analytic
gradients; the total objective chains them through the attention
forwards into all five parameter matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .configfile import require_finite
from .data_io import Dataset
from .errors import ArgumentError, NumericError, ShapeError
from .ndmath import log_sum_exp, softmax_stable

CALIBRATION_SIGNS = ("prose", "literal")


@dataclass(frozen=True)
class LossConfig:
    """Loss weights and switches.

    ``calibration_sign`` picks the direction of the self-calibration
    term: "prose" penalizes low unseen-class probability (the intended
    behavior); "literal" flips it, kept selectable for fidelity
    experiments.  ``use_a2v``/``use_v2a`` and the distill term switches
    exist for the ablation grid; distillation is active only when both
    sub-nets are.
    """

    lambda_cal: float = 0.1
    lambda_distill: float = 0.001
    calibration_sign: str = "prose"
    epsilon_kl: float = 1e-8
    distill_jsd: bool = True
    distill_l2: bool = True
    use_a2v: bool = True
    use_v2a: bool = True

    def __post_init__(self) -> None:
        require_finite(self)
        if self.lambda_cal < 0 or self.lambda_distill < 0:
            raise ArgumentError("loss weights must be non-negative")
        if not 0.0 < self.epsilon_kl <= 1e-3:
            raise ArgumentError(
                f"epsilon_kl must lie in (0, 1e-3], got {self.epsilon_kl}"
            )
        if self.calibration_sign not in CALIBRATION_SIGNS:
            raise ArgumentError(
                f"calibration_sign must be one of {CALIBRATION_SIGNS}, "
                f"got {self.calibration_sign!r}"
            )
        if not (self.use_a2v or self.use_v2a):
            raise ArgumentError("at least one sub-net must be active")

    @property
    def distill_active(self) -> bool:
        return (
            self.use_a2v
            and self.use_v2a
            and self.lambda_distill > 0
            and (self.distill_jsd or self.distill_l2)
        )


@dataclass(frozen=True)
class LossBreakdown:
    acec_a2v: float
    acec_v2a: float
    distill: float
    total: float

    def is_finite(self) -> bool:
        return bool(np.isfinite([self.acec_a2v, self.acec_v2a, self.distill, self.total]).all())


def acec_loss(
    scores: np.ndarray,
    labels: np.ndarray,
    seen_classes: np.ndarray,
    unseen_classes: np.ndarray,
    cfg: LossConfig,
) -> tuple[float, np.ndarray]:
    """Attribute-based cross-entropy with self-calibration.

    ``scores`` is (batch, C) over all classes.  The supervised term is
    the mean negative log softmax over seen-class scores at the true
    label.  The calibration term offsets every logit by +1 (unseen) or
    -1 (seen), softmaxes over all classes, and sums the unseen-class
    log-probabilities; its sign follows ``cfg.calibration_sign``.
    Returns the loss and its gradient w.r.t. ``scores``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ShapeError(f"scores must be (batch, classes), got {scores.shape}")
    batch, num_classes = scores.shape
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ShapeError(f"labels must have shape ({batch},), got {labels.shape}")

    seen = np.sort(np.asarray(seen_classes, dtype=np.int64))
    unseen = np.sort(np.asarray(unseen_classes, dtype=np.int64))
    label_pos = np.searchsorted(seen, labels)           # position among seen classes
    known = label_pos < seen.size
    known[known] = seen[label_pos[known]] == labels[known]
    if not known.all():
        bad_labels = sorted({int(v) for v in labels[~known]})
        raise ArgumentError(f"labels outside the seen classes: {bad_labels}")

    grad = np.zeros_like(scores)

    # supervised term over seen-class scores only
    seen_scores = scores[:, seen]                       # (batch, C_s)
    log_norm = log_sum_exp(seen_scores, axis=1)
    loss = float(np.mean(log_norm - seen_scores[np.arange(batch), label_pos]))
    p_seen = softmax_stable(seen_scores, axis=1)
    g_seen = p_seen.copy()
    g_seen[np.arange(batch), label_pos] -= 1.0
    grad[:, seen] += g_seen / batch

    if cfg.lambda_cal > 0 and unseen.size > 0:
        indicator = np.full(num_classes, -1.0)
        indicator[unseen] = 1.0
        shifted = scores + indicator                    # (batch, C)
        log_q = shifted - log_sum_exp(shifted, axis=1)[:, None]
        # per-sample cross-entropy mass on the unseen classes
        cal = float(np.mean(-log_q[:, unseen].sum(axis=1)))
        q = np.exp(log_q)
        unseen_mask = np.zeros(num_classes)
        unseen_mask[unseen] = 1.0
        g_cal = (unseen.size * q - unseen_mask) / batch
        if cfg.calibration_sign == "prose":
            loss += cfg.lambda_cal * cal
            grad += cfg.lambda_cal * g_cal
        else:
            loss -= cfg.lambda_cal * cal
            grad -= cfg.lambda_cal * g_cal

    return loss, grad


def _clamped_rows(scores: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    raw = softmax_stable(scores, axis=1)
    clamped = np.clip(raw, eps, 1.0)
    total = clamped.sum(axis=1, keepdims=True)
    return raw, clamped / total, total


def distill_loss(
    scores1: np.ndarray,
    scores2: np.ndarray,
    cfg: LossConfig,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Symmetric-KL plus squared-L2 distance between two score batches.

    Rows are raw seen-class scores; each is softmaxed, clamped to
    [epsilon_kl, 1], and renormalized before comparison.  Returns the
    mean per-sample loss and gradients w.r.t. both score sets.
    """
    scores1 = np.asarray(scores1, dtype=np.float64)
    scores2 = np.asarray(scores2, dtype=np.float64)
    if scores1.shape != scores2.shape or scores1.ndim != 2:
        raise ShapeError(
            f"distill_loss expects equal (batch, classes) shapes, "
            f"got {scores1.shape} and {scores2.shape}"
        )
    batch = scores1.shape[0]
    eps = cfg.epsilon_kl

    raw1, p, total1 = _clamped_rows(scores1, eps)
    raw2, q, total2 = _clamped_rows(scores2, eps)

    # log(p) - log(q) rather than log(p/q): subtraction negates exactly,
    # which keeps the loss bit-exactly symmetric under argument swap.
    log_ratio = np.log(p) - np.log(q)
    per_row = np.zeros(batch)
    d_p = np.zeros_like(p)
    d_q = np.zeros_like(q)
    if cfg.distill_jsd:
        kl_pq = (p * log_ratio).sum(axis=1)
        kl_qp = (q * -log_ratio).sum(axis=1)
        per_row += 0.5 * (kl_pq + kl_qp)
        d_p += 0.5 * (log_ratio + 1.0 - q / p)
        d_q += 0.5 * (-log_ratio + 1.0 - p / q)
    if cfg.distill_l2:
        diff = p - q
        per_row += (diff * diff).sum(axis=1)
        d_p += 2.0 * diff
        d_q -= 2.0 * diff
    loss = float(np.mean(per_row))

    def _to_scores(d_prob, prob, raw, total):
        # renormalization, clamp mask, then the softmax jacobian
        d_clamped = (d_prob - (d_prob * prob).sum(axis=1, keepdims=True)) / total
        d_raw = d_clamped * ((raw >= eps) & (raw <= 1.0))
        return raw * (d_raw - (d_raw * raw).sum(axis=1, keepdims=True)) / batch

    return loss, _to_scores(d_p, p, raw1, total1), _to_scores(d_q, q, raw2, total2)


def total_loss_raw(
    params: model_mod.ModelParams,
    region_stacks: np.ndarray,
    labels: np.ndarray,
    attrs: np.ndarray,
    class_semantics: np.ndarray,
    seen_classes: np.ndarray,
    unseen_classes: np.ndarray,
    cfg: LossConfig,
) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """Total objective and parameter gradients for one batch of images.

    ``region_stacks`` is (batch, R, d_v).  Cross-entropy is applied
    independently to each active sub-net's class scores; distillation
    compares the two seen-class score blocks.  The reported total is
    exactly ``acec_a2v + acec_v2a + lambda_distill * distill``.
    """
    if region_stacks.ndim != 3:
        raise ShapeError(f"region_stacks must be (batch, R, d_v), got {region_stacks.shape}")
    batch = region_stacks.shape[0]
    if labels.shape[0] != batch:
        raise ShapeError(f"{batch} images but {labels.shape[0]} labels")

    trace = model_mod.forward(region_stacks, attrs, params)
    scores1 = trace.psi @ class_semantics.T             # (batch, C)
    scores2 = trace.Psi @ class_semantics.T

    g_scores1 = np.zeros_like(scores1)
    g_scores2 = np.zeros_like(scores2)
    acec_a2v = acec_v2a = distill = 0.0

    if cfg.use_a2v:
        acec_a2v, g = acec_loss(scores1, labels, seen_classes, unseen_classes, cfg)
        g_scores1 += g
    if cfg.use_v2a:
        acec_v2a, g = acec_loss(scores2, labels, seen_classes, unseen_classes, cfg)
        g_scores2 += g
    if cfg.distill_active:
        seen = np.sort(np.asarray(seen_classes, dtype=np.int64))
        distill, g1, g2 = distill_loss(scores1[:, seen], scores2[:, seen], cfg)
        g_scores1[:, seen] += cfg.lambda_distill * g1
        g_scores2[:, seen] += cfg.lambda_distill * g2

    total = acec_a2v + acec_v2a + cfg.lambda_distill * distill
    breakdown = LossBreakdown(acec_a2v=acec_a2v, acec_v2a=acec_v2a,
                              distill=distill, total=total)
    if not breakdown.is_finite():
        raise NumericError(f"non-finite loss: {breakdown}")

    grads = model_mod.backward(region_stacks, attrs, params, trace,
                               g_scores1 @ class_semantics, g_scores2 @ class_semantics)
    return breakdown, grads


def total_loss(
    params: model_mod.ModelParams,
    ds: Dataset,
    batch_idx: np.ndarray,
    cfg: LossConfig,
) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """Total objective over the dataset samples selected by ``batch_idx``."""
    batch_idx = np.asarray(batch_idx)
    return total_loss_raw(
        params,
        ds.features[batch_idx],
        ds.labels[batch_idx],
        ds.attributes,
        ds.class_semantics,
        ds.seen_classes,
        ds.unseen_classes,
        cfg,
    )
