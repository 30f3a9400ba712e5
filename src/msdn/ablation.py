"""Component ablation grid: eight variants trained and scored alike.

Rows, in order: a mean-pooled linear baseline, each attention sub-net
alone, each sub-net trained jointly with distillation but scored alone,
distillation restricted to its symmetric-KL or L2 term, and the full
model.  Every variant shares the same seed, the RMSProp loop of
``training.fit`` and the calibrated predictor of ``zsl_eval.report``;
each is a plain ``(variant, acc, H)`` row of its CZSL accuracy and
GZSL harmonic mean, as the CSV writes it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data_io import Dataset, write_table
from .losses import LossBreakdown, acec_loss
from .model import _glorot
from .ndmath import FlatArrays, Rng
from .training import TrainConfig, fit, train
from .zsl_eval import (EvalReport, PredictConfig, check_test_splits, forward_test_splits,
                       report)

ABLATION_CSV_HEADER = ("variant", "acc", "H")

# Loss overrides of the four models trained in lockstep: no distillation,
# full, JSD-only and L2-only.
MODELS = ({"lambda_distill": 0.0}, {}, {"distill_l2": False}, {"distill_jsd": False})
# (variant, index into MODELS, fusion), where None fuses with the caller's
# PredictConfig.  Without distillation no gradient crosses between the
# sub-nets, so the single-branch rows score the halves of model 0.
A2V, V2A = PredictConfig(alpha1=1.0, alpha2=0.0), PredictConfig(alpha1=0.0, alpha2=1.0)
ROWS = (("v2a_no_distill", 0, V2A), ("a2v_no_distill", 0, A2V),
        ("v2a_with_distill", 1, V2A), ("a2v_with_distill", 1, A2V),
        ("full_jsd_only", 2, None), ("full_l2_only", 3, None), ("full", 1, None))


def _run_baseline(ds: Dataset, cfg: TrainConfig) -> EvalReport:
    """Mean-pool the regions and map them with one learned K x d_v matrix."""
    rng = Rng(cfg.seed)
    pooled = ds.features.mean(axis=1, dtype=np.float64)  # (N, d_v)

    weights = FlatArrays.of({"W_pool": _glorot(rng, ds.num_attributes, ds.visual_dim)})
    w_pool = weights["W_pool"]

    def loss_fn(idx: np.ndarray):
        embeddings = w_pool @ pooled[idx].T                     # (K, B)
        scores = ds.class_semantics @ embeddings                # (C, B)
        (loss,), g_scores, _ = acec_loss(scores, ds.labels[idx], ds.split, cfg.lambda_cal)
        g_emb = ds.class_semantics.T @ g_scores                 # (K, B)
        grads = FlatArrays({"W_pool": w_pool.shape})
        np.matmul(g_emb, pooled[idx], out=grads["W_pool"])
        return LossBreakdown(loss, 0.0, 0.0, loss), grads

    fit(weights, loss_fn, ds.train_idx, cfg, rng)
    return report(ds, pooled[ds.test_idx] @ w_pool.T)


def run_ablation(
    ds: Dataset,
    cfg: TrainConfig,
    predict_cfg: PredictConfig = PredictConfig(),
) -> list[tuple[str, float, float]]:
    """Train and score all eight variants with a shared seed and config.

    The ``MODELS`` are trained in one lockstep ``train`` call, and their
    test splits are forwarded in one stacked pass; every row of ``ROWS``
    fuses its model's test embedding and scores it once.  Returns one
    ``(variant, acc, H)`` row per variant, the baseline first.
    """
    check_test_splits(ds)
    base = _run_baseline(ds, cfg)
    rows = [("baseline", base.acc, base.H)]
    params, _ = train(ds, cfg, loss_cfg=tuple(cfg.loss_config(**o) for o in MODELS))
    psi, Psi = forward_test_splits(params, ds)
    for name, p, fusion in ROWS:
        scored = report(ds, (fusion or predict_cfg).fuse(psi[p], Psi[p]))
        rows.append((name, scored.acc, scored.H))
    return rows


def write_ablation_csv(rows: list[tuple[str, float, float]], path: str | Path) -> None:
    write_table(path, ABLATION_CSV_HEADER, rows)
