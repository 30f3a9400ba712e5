"""Component ablation grid: eight variants trained and scored alike.

Rows, in order: a mean-pooled linear baseline, each attention sub-net
alone, each sub-net trained jointly with distillation but scored alone,
distillation restricted to its symmetric-KL or L2 term, and the full
model.  Every variant shares the same seed, the RMSProp loop of
``training.fit`` and the calibrated predictor of ``zsl_eval.report``;
each reports CZSL accuracy and the GZSL harmonic mean, and the history
of the model it scores.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_io import Dataset, open_output
from .errors import ArgumentError
from .losses import ClassSplit, LossBreakdown, acec_loss
from .model import _glorot
from .ndmath import Rng
from .training import TrainConfig, fit, train
from .zsl_eval import (EvalReport, PredictConfig, check_test_splits, forward_test_splits,
                       report)

ABLATION_CSV_HEADER = ("variant", "acc", "H")


@dataclass(frozen=True)
class AblationResult:
    variant: str
    acc: float
    H: float
    history: list[LossBreakdown]


def _run_baseline(ds: Dataset, cfg: TrainConfig) -> tuple[EvalReport, list[LossBreakdown]]:
    """Mean-pool the regions and map them with one learned K x d_v matrix."""
    lcfg = cfg.loss_config()
    rng = Rng(cfg.seed)
    pooled = ds.features.mean(axis=1, dtype=np.float64)  # (N, d_v)
    split = ClassSplit.of(ds.seen_classes, ds.unseen_classes)

    def loss_fn(weights: dict[str, np.ndarray], idx: np.ndarray):
        # Class-major like total_loss_raw, so acec_loss reduces leading axes.
        embeddings = weights["W_pool"] @ pooled[idx].T          # (K, B)
        scores = ds.class_semantics @ embeddings                # (C, B)
        (loss,), g_scores, _ = acec_loss(scores.T, ds.labels[idx], split, lcfg)
        g_emb = ds.class_semantics.T @ g_scores.T               # (K, B)
        return LossBreakdown(loss, 0.0, 0.0, loss), {"W_pool": g_emb @ pooled[idx]}

    w_pool = _glorot(rng, ds.num_attributes, ds.visual_dim)
    history = fit({"W_pool": w_pool}, loss_fn, ds.train_idx, cfg, rng)
    scored = report(ds, pooled[ds.test_unseen_idx] @ w_pool.T,
                    pooled[ds.test_seen_idx] @ w_pool.T)
    return scored, history


def _variant_table(both: PredictConfig):
    a2v_only_eval = PredictConfig(alpha1=1.0, alpha2=0.0)
    v2a_only_eval = PredictConfig(alpha1=0.0, alpha2=1.0)
    return [
        # (name, loss config overrides, predict config)
        ("v2a_no_distill", {"lambda_distill": 0.0}, v2a_only_eval),
        ("a2v_no_distill", {"lambda_distill": 0.0}, a2v_only_eval),
        ("v2a_with_distill", {}, v2a_only_eval),
        ("a2v_with_distill", {}, a2v_only_eval),
        ("full_jsd_only", {"distill_l2": False}, both),
        ("full_l2_only", {"distill_jsd": False}, both),
        ("full", {}, both),
    ]


def run_ablation(
    ds: Dataset,
    cfg: TrainConfig,
    predict_cfg: PredictConfig = PredictConfig(),
) -> list[AblationResult]:
    """Train and score all eight variants with a shared seed and config.

    The MSDN rows score one model per distinct loss config, trained in
    lockstep: without distillation, full, JSD-only and L2-only.  Without
    distillation no gradient crosses between the sub-nets, so the
    single-branch rows score the halves of that model.  Each model's test
    splits are forwarded once; ``predict_cfg`` fuses the two-net rows.
    """
    check_test_splits(ds)
    base, base_history = _run_baseline(ds, cfg)
    results = [AblationResult("baseline", base.acc, base.H, base_history)]
    rows = [(name, cfg.loss_config(**o), pcfg) for name, o, pcfg in _variant_table(predict_cfg)]
    lcfgs = tuple(dict.fromkeys(lcfg for _, lcfg, _ in rows))    # each distinct config once
    outcome = train(ds, cfg, loss_cfg=lcfgs)
    trained = [(forward_test_splits(outcome.params.model(p), ds),
                [LossBreakdown(*(field[p] for field in h)) for h in outcome.history])
               for p in range(len(lcfgs))]
    for name, lcfg, pcfg in rows:
        (unseen, seen), history = trained[lcfgs.index(lcfg)]
        scored = report(ds, pcfg.fuse(*unseen), pcfg.fuse(*seen))
        results.append(AblationResult(name, scored.acc, scored.H, history))
    return results


def write_ablation_csv(results: list[AblationResult], path: str | Path) -> None:
    if not results:
        raise ArgumentError("no ablation results to write")
    with open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(ABLATION_CSV_HEADER)
        for row in results:
            writer.writerow((row.variant, repr(row.acc), repr(row.H)))
