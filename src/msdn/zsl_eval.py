"""Calibrated zero-shot prediction and the CZSL/GZSL metric suite.

Prediction fuses the two sub-net embeddings with coefficients
(alpha1, alpha2), scores every class by the dot product with its
semantic vector, and adds the +1 unseen / -1 seen calibration offset of
a ``data_io.ClassSplit``, which favors unseen classes.  Conventional ZSL
restricts the argmax to unseen classes; generalized ZSL ranks all of
them.  Accuracies are per-class (macro) top-1, summarized by the
harmonic mean H = 2SU / (S + U).

The test images are scored as one (K, n) embedding into (C, n) scores,
images last and in ``Dataset.test_idx`` order (the unseen split first),
and U and S read off one GZSL argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .configfile import require_finite
from .data_io import ClassSplit, Dataset, write_table
from .errors import ArgumentError, NumericError, ShapeError
from .model import ModelParams, forward

MODES = ("czsl", "gzsl")
# Test images forwarded per model call; bounds the size of one call's trace.
EVAL_CHUNK = 64


@dataclass(frozen=True)
class PredictConfig:
    alpha1: float = 0.9
    alpha2: float = 0.1

    def __post_init__(self) -> None:
        require_finite(self)
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ArgumentError("fusion coefficients must be non-negative")
        if self.alpha1 == 0 and self.alpha2 == 0:
            raise ArgumentError("fusion coefficients must not both be zero")

    def fuse(self, psi: np.ndarray, Psi: np.ndarray) -> np.ndarray:
        """The embedding that scores classes: alpha1 * psi + alpha2 * Psi.

        Raises :class:`NumericError` naming the coefficients if finite
        embeddings fuse to a non-finite one.
        """
        fused = self.alpha1 * psi + self.alpha2 * Psi
        if not np.isfinite(fused).all() and np.isfinite(psi).all() and np.isfinite(Psi).all():
            raise NumericError(f"the fused embedding is not finite; the fusion coefficients "
                               f"alpha1={self.alpha1} and alpha2={self.alpha2} overflow")
        return fused


@dataclass(frozen=True)
class EvalReport:
    acc: float   # CZSL: per-class top-1 over unseen classes, unseen candidates only
    U: float     # GZSL unseen per-class accuracy
    S: float     # GZSL seen per-class accuracy
    H: float     # harmonic mean of S and U
    per_class: list[tuple[int, str, float]]  # (class_id, "seen"/"unseen", gzsl accuracy)


def harmonic_mean(seen_acc: float, unseen_acc: float) -> float:
    """2SU / (S + U), zero when both accuracies vanish."""
    for name, v in (("S", seen_acc), ("U", unseen_acc)):
        if not 0.0 <= v <= 1.0:
            raise ArgumentError(f"{name} must lie in [0, 1], got {v}")
    if seen_acc + unseen_acc == 0.0:
        return 0.0
    return 2.0 * seen_acc * unseen_acc / (seen_acc + unseen_acc)


def calibrated_scores(
    embedding: np.ndarray,
    class_semantics: np.ndarray,
    split: ClassSplit,
) -> np.ndarray:
    """Class scores of a fused embedding plus ``split.indicator``.

    A (K, n) embedding, one column per image, gives (C, n) scores.  Raises
    :class:`ShapeError` unless the embedding is (K, n) and ``split`` covers
    the C classes of ``class_semantics``, and :class:`NumericError` if a
    score is not finite, since an argmax over NaN would silently pick class 0.
    """
    if embedding.ndim != 2 or embedding.shape[0] != class_semantics.shape[1]:
        raise ShapeError(
            f"embedding must be ({class_semantics.shape[1]}, n) for the class semantic "
            f"width, got {embedding.shape}"
        )
    if split.indicator.size != class_semantics.shape[0]:
        raise ShapeError(
            f"class split covers {split.indicator.size} classes, class semantics "
            f"have {class_semantics.shape[0]} rows"
        )
    scores = class_semantics @ embedding + split.indicator[:, None]
    if not np.isfinite(scores).all():
        raise NumericError("class scores are not finite; the model parameters overflow")
    return scores


def predict(scores: np.ndarray, split: ClassSplit, mode: str) -> int | np.ndarray:
    """Predicted class of (C,) calibrated scores, or one per column of (C, n).

    ``scores`` are those of :func:`calibrated_scores`, so one score
    matrix serves both modes.  CZSL ranks the unseen classes of
    ``split`` only, GZSL all classes.  Ties resolve to the smallest
    class index.
    """
    if mode not in MODES:
        raise ArgumentError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "gzsl":
        return np.argmax(scores, axis=0)
    if split.unseen.size == 0:
        raise ArgumentError("prediction requires a non-empty candidate set")
    return split.unseen[np.argmax(scores[split.unseen], axis=0)]


def per_class_accuracy(
    labels: np.ndarray, predictions: np.ndarray, classes: np.ndarray
) -> tuple[float, dict[int, float]]:
    """Macro top-1: mean over classes of within-class accuracy.

    Classes without samples are excluded from the mean, and labels that
    are no class are not counted.  The table lists classes in ascending order.
    """
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise ShapeError(
            f"labels and predictions differ: {labels.shape} vs {predictions.shape}"
        )
    ordered = np.sort(np.asarray(classes))
    # A label equal to ordered[pos:end] is a class, counted once at its first place pos.
    pos, end = (np.searchsorted(ordered, labels, side=side) for side in ("left", "right"))
    counted = pos < end
    samples, hits = (np.bincount(pos[mask], minlength=ordered.size)
                     for mask in (counted, counted & (predictions == labels)))
    evaluated = samples > 0
    if not evaluated.any():
        raise ArgumentError("no evaluated class has any samples")
    accuracies = hits[evaluated] / samples[evaluated]   # each class's float64 mean of hits
    return float(np.mean(accuracies)), dict(zip(ordered[evaluated].tolist(), accuracies.tolist()))


def check_test_splits(ds: Dataset) -> None:
    """Raise unless both test splits of ``ds`` are non-empty."""
    for name in ("test_unseen_idx", "test_seen_idx"):
        if getattr(ds, name).size == 0:
            raise ArgumentError(f"{name} is empty; nothing to evaluate")


def report(ds: Dataset, embedding: np.ndarray) -> EvalReport:
    """Score the fused (K, n_test) test embedding once, in both modes.

    Columns follow ``ds.test_idx``, so the first ``test_unseen_idx.size``
    columns are the unseen test split.  The report's ``acc`` uses CZSL
    predictions on those columns; U and S use one GZSL prediction over
    all columns, read off the unseen and the seen columns.
    """
    split = ds.split
    scores = calibrated_scores(embedding, ds.class_semantics, split)
    labels, gzsl = ds.labels[ds.test_idx], predict(scores, split, "gzsl")
    n_unseen = ds.test_unseen_idx.size
    acc, _ = per_class_accuracy(labels[:n_unseen], predict(scores[:, :n_unseen], split, "czsl"),
                                ds.unseen_classes)
    u, unseen_table = per_class_accuracy(labels[:n_unseen], gzsl[:n_unseen], ds.unseen_classes)
    s, seen_table = per_class_accuracy(labels[n_unseen:], gzsl[n_unseen:], ds.seen_classes)
    per_class = [(c, "seen", a) for c, a in seen_table.items()]
    per_class += [(c, "unseen", a) for c, a in unseen_table.items()]
    return EvalReport(acc=acc, U=u, S=s, H=harmonic_mean(s, u), per_class=per_class)


def forward_test_splits(params: ModelParams, ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The float64 (psi, Psi) embeddings of both test splits, columns in ``ds.test_idx`` order.

    Both splits are forwarded in one pass, ``EVAL_CHUNK`` images per
    model call, so a chunk may hold images of both splits and the
    image-independent products are formed once per chunk.  Only the two
    embeddings of each chunk's trace are kept, so any number of predict
    configs can fuse them without another forward.  The forward runs in
    the weights' dtype, and the embeddings come back in float64, where
    they are fused and scored, shaped (*models, K, n_test): weights
    stacked on a leading model axis score every model in the same pass.
    """
    check_test_splits(ds)
    idx = ds.test_idx
    # No name holds a chunk or its trace, so each is freed before the next.
    psi, Psi = zip(*[
        attrgetter("psi", "Psi")(forward(ds.regions(idx[i:i + EVAL_CHUNK], params.W1.dtype),
                                         ds.attributes, params))
        for i in range(0, idx.size, EVAL_CHUNK)])
    return tuple(np.concatenate(e, axis=-1, dtype=np.float64) for e in (psi, Psi))


def evaluate(params: ModelParams, ds: Dataset, cfg: PredictConfig) -> EvalReport:
    """Full metric suite of the model over the dataset's test splits."""
    return report(ds, cfg.fuse(*forward_test_splits(params, ds)))


def write_report_csv(report: EvalReport, path: str | Path) -> None:
    """Metric CSV: one metric,value row for acc, U, S, H."""
    write_table(path, ("metric", "value"), (("acc", report.acc), ("U", report.U),
                                            ("S", report.S), ("H", report.H)))


def write_per_class_csv(report: EvalReport, path: str | Path) -> None:
    write_table(path, ("class_id", "split", "accuracy"), report.per_class)
