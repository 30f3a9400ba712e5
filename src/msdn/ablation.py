"""Component ablation grid: eight variants trained and scored alike.

Rows, in order: a mean-pooled linear baseline, each attention sub-net
alone, each sub-net trained jointly with distillation but scored alone,
distillation restricted to its symmetric-KL or L2 term, and the full
model.  Every variant shares the same seed and optimizer settings; each
reports CZSL accuracy and the GZSL harmonic mean.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_io import Dataset
from .errors import ArgumentError
from .losses import LossBreakdown, LossConfig, acec_loss
from .model import _glorot
from .ndmath import Rng
from .training import OptState, TrainConfig, TrainResult, make_batches, rmsprop_step, train
from .zsl_eval import (
    EvalReport,
    PredictConfig,
    evaluate,
    harmonic_mean,
    per_class_accuracy,
)

ABLATION_CSV_HEADER = ("variant", "acc", "H")


@dataclass(frozen=True)
class AblationResult:
    variant: str
    acc: float
    H: float
    history: list[LossBreakdown]


def _train_baseline(ds: Dataset, cfg: TrainConfig) -> tuple[np.ndarray, list[LossBreakdown]]:
    """Mean-pool the regions and map them with one learned K x d_v matrix."""
    lcfg = cfg.loss_config(lambda_distill=0.0)
    rng = Rng(cfg.seed)
    weights = {"W_pool": _glorot(rng, ds.num_attributes, ds.visual_dim)}
    state = OptState.zeros_like(weights)
    pooled = ds.features.mean(axis=1)  # (N, d_v)
    history: list[LossBreakdown] = []

    n_train = int(ds.train_idx.size)
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        for batch in make_batches(n_train, cfg.batch_size, rng):
            idx = ds.train_idx[batch]
            embeddings = pooled[idx] @ weights["W_pool"].T          # (B, K)
            scores = embeddings @ ds.class_semantics.T              # (B, C)
            loss, g_scores = acec_loss(scores, ds.labels[idx], ds.seen_classes,
                                       ds.unseen_classes, lcfg)
            g_emb = g_scores @ ds.class_semantics                   # (B, K)
            grads = {"W_pool": g_emb.T @ pooled[idx]}
            weights, state = rmsprop_step(weights, grads, state, cfg)
            epoch_loss += loss * len(batch)
        mean = epoch_loss / n_train
        history.append(LossBreakdown(mean, 0.0, 0.0, mean))
    return weights["W_pool"], history


def _evaluate_baseline(ds: Dataset, w_pool: np.ndarray) -> tuple[float, float]:
    offset = np.full(ds.num_classes, -1.0)
    offset[np.asarray(ds.unseen_classes, dtype=np.int64)] = 1.0
    unseen_sorted = np.sort(np.asarray(ds.unseen_classes, dtype=np.int64))

    def split_preds(idx: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        pooled = ds.features[idx].mean(axis=1)
        scores = (pooled @ w_pool.T) @ ds.class_semantics.T + offset
        return candidates[np.argmax(scores[:, candidates], axis=1)]

    all_classes = np.arange(ds.num_classes, dtype=np.int64)
    unseen_labels = ds.labels[ds.test_unseen_idx]
    seen_labels = ds.labels[ds.test_seen_idx]
    acc, _ = per_class_accuracy(
        unseen_labels, split_preds(ds.test_unseen_idx, unseen_sorted), ds.unseen_classes
    )
    u, _ = per_class_accuracy(
        unseen_labels, split_preds(ds.test_unseen_idx, all_classes), ds.unseen_classes
    )
    s, _ = per_class_accuracy(
        seen_labels, split_preds(ds.test_seen_idx, all_classes), ds.seen_classes
    )
    return acc, harmonic_mean(s, u)


def _variant_table(alpha1: float, alpha2: float):
    both = PredictConfig(alpha1=alpha1, alpha2=alpha2)
    a2v_only_eval = PredictConfig(alpha1=1.0, alpha2=0.0)
    v2a_only_eval = PredictConfig(alpha1=0.0, alpha2=1.0)
    return [
        # (name, loss config overrides, predict config)
        ("v2a_no_distill", {"use_a2v": False}, v2a_only_eval),
        ("a2v_no_distill", {"use_v2a": False}, a2v_only_eval),
        ("v2a_with_distill", {}, v2a_only_eval),
        ("a2v_with_distill", {}, a2v_only_eval),
        ("full_jsd_only", {"distill_l2": False}, both),
        ("full_l2_only", {"distill_jsd": False}, both),
        ("full", {}, both),
    ]


def run_ablation(
    ds: Dataset,
    cfg: TrainConfig,
    alpha1: float = 0.9,
    alpha2: float = 0.1,
) -> list[AblationResult]:
    """Train and score all eight variants with a shared seed and config.

    Variants that share a loss config are trained once and scored with
    each of their predict configs.
    """
    cfg.validate()
    results: list[AblationResult] = []
    trained: dict[LossConfig, TrainResult] = {}

    w_pool, base_history = _train_baseline(ds, cfg)
    base_acc, base_h = _evaluate_baseline(ds, w_pool)
    results.append(AblationResult("baseline", base_acc, base_h, base_history))

    for name, overrides, pcfg in _variant_table(alpha1, alpha2):
        lcfg = cfg.loss_config(**overrides)
        if lcfg not in trained:
            trained[lcfg] = train(ds, cfg, loss_cfg=lcfg)
        outcome = trained[lcfg]
        report: EvalReport = evaluate(outcome.params, ds, pcfg)
        results.append(AblationResult(name, report.acc, report.H, outcome.history))
    return results


def write_ablation_csv(results: list[AblationResult], path: str | Path) -> None:
    if not results:
        raise ArgumentError("no ablation results to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ABLATION_CSV_HEADER)
        for row in results:
            writer.writerow((row.variant, repr(row.acc), repr(row.H)))
