"""RMSProp training loop with deterministic batching and checkpoints.

The optimizer update, per parameter and elementwise, is

    g   = grad + weight_decay * param
    sq  = rms_decay * sq + (1 - rms_decay) * g^2
    buf = momentum * buf + g / (sqrt(sq) + epsilon_opt)
    param -= learning_rate * buf

i.e. classic RMSProp with momentum applied to the preconditioned
gradient and coupled L2 weight decay.  The update runs in place: a run
holds one set each of parameters, square averages and momentum buffers,
and each step consumes its gradients.  Training is a pure function of
(dataset, config): one PRNG seeded from the config drives both the
parameter init and the per-epoch shuffles.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .configfile import dataclass_from_kv, parse_kv_file, require_finite, require_seed
from .data_io import Dataset, write_table
from .errors import ArgumentError, NumericError, ShapeError
from .losses import ClassSplit, LossBreakdown, LossConfig, total_loss_raw
from .model import ModelDims, ModelParams, init_params_from_rng
from .ndmath import Rng

HISTORY_HEADER = ("epoch", *LossBreakdown._fields)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 50
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 200
    seed: int = 1
    lambda_cal: float = 0.1
    lambda_distill: float = 0.001
    epsilon_kl: float = 1e-8
    rms_decay: float = 0.99
    epsilon_opt: float = 1e-8

    def __post_init__(self) -> None:
        require_finite(self)
        require_seed("TrainConfig.seed", self.seed)
        if self.learning_rate <= 0:
            raise ArgumentError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ArgumentError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0 <= self.rms_decay < 1:
            raise ArgumentError(f"rms_decay must lie in [0, 1), got {self.rms_decay}")
        if self.batch_size < 1:
            raise ArgumentError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ArgumentError(f"epochs must be >= 0, got {self.epochs}")
        if self.weight_decay < 0:
            raise ArgumentError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epsilon_opt <= 0:
            raise ArgumentError(f"epsilon_opt must be > 0, got {self.epsilon_opt}")
        self.loss_config()  # raises unless the loss fields form a valid LossConfig

    def loss_config(self, **overrides) -> LossConfig:
        """The LossConfig of this config's same-named fields, then ``overrides``."""
        shared = {f.name: getattr(self, f.name) for f in fields(LossConfig)
                  if hasattr(self, f.name)}
        return LossConfig(**{**shared, **overrides})


def load_train_config(path: str | Path) -> TrainConfig:
    """Read a TrainConfig from a flat key=value file."""
    return dataclass_from_kv(TrainConfig, parse_kv_file(path))


def rmsprop_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    square_avg: dict[str, np.ndarray],
    momentum_buf: dict[str, np.ndarray],
    cfg: TrainConfig,
) -> None:
    """One optimizer step, in place on ``params`` and both buffers.

    Consumes ``grads``: each gradient is popped and overwritten, so none
    outlives the step.
    """
    for name, param in params.items():
        g = grads.pop(name)
        if g.shape != param.shape:
            raise ShapeError(f"gradient for {name} has shape {g.shape}, parameter {param.shape}")
        g += cfg.weight_decay * param
        sq = square_avg[name]
        sq *= cfg.rms_decay
        sq += (1.0 - cfg.rms_decay) * g * g
        buf = momentum_buf[name]
        buf *= cfg.momentum
        buf += g / (np.sqrt(sq) + cfg.epsilon_opt)
        param -= cfg.learning_rate * buf


def make_batches(n: int, batch_size: int, rng: Rng) -> list[np.ndarray]:
    """Shuffle [0, n) and chunk it; the final short batch is kept."""
    if n < 1:
        raise ArgumentError(f"make_batches requires n >= 1, got {n}")
    if batch_size < 1:
        raise ArgumentError(f"batch_size must be >= 1, got {batch_size}")
    perm = np.arange(n, dtype=np.int64)
    rng.shuffle(perm)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]


@dataclass
class TrainResult:
    params: ModelParams
    history: list[LossBreakdown] = field(default_factory=list)


def fit(
    weights: dict[str, np.ndarray],
    loss_fn: Callable[[dict[str, np.ndarray], np.ndarray],
                      tuple[LossBreakdown, dict[str, np.ndarray]]],
    train_idx: np.ndarray,
    cfg: TrainConfig,
    rng: Rng,
) -> list[LossBreakdown]:
    """RMSProp over ``cfg.epochs`` shuffled passes of ``train_idx``.

    ``loss_fn(weights, idx)`` returns the loss breakdown and the weight
    gradients for the samples ``idx``.  ``weights`` are updated in place.
    Each epoch draws one shuffle from ``rng`` and records the
    sample-weighted mean of each breakdown field (or of each model's
    value in it); the weights must stay finite.  Returns the history.
    """
    n_train = int(train_idx.size)
    if n_train == 0:
        raise ArgumentError("dataset has an empty train split")
    square_avg = {k: np.zeros_like(v) for k, v in weights.items()}
    momentum_buf = {k: np.zeros_like(v) for k, v in weights.items()}
    history: list[LossBreakdown] = []
    for epoch in range(cfg.epochs):
        sums = 0.0
        for batch_no, batch in enumerate(make_batches(n_train, cfg.batch_size, rng)):
            try:
                breakdown, grads = loss_fn(weights, train_idx[batch])
            except NumericError as exc:
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}: {exc}"
                ) from exc
            rmsprop_step(weights, grads, square_avg, momentum_buf, cfg)
            weight = len(batch)
            sums += weight * np.asarray(breakdown)
        for name, arr in weights.items():
            if not np.isfinite(arr).all():
                raise NumericError(f"parameter {name} became non-finite at epoch {epoch}")
        history.append(LossBreakdown(*(sums / n_train).tolist()))
    return history


def train(
    ds: Dataset,
    cfg: TrainConfig,
    loss_cfg: LossConfig | tuple[LossConfig, ...] | None = None,
) -> TrainResult:
    """Train on ``ds.train_idx``; returns final params and per-epoch losses.

    ``loss_cfg`` overrides the loss settings derived from ``cfg``; a tuple
    of them trains one model per config in lockstep, each bit for bit as
    alone, with the weights on a leading model axis and one value per
    model in each history field.
    """
    lcfg = loss_cfg if loss_cfg is not None else cfg.loss_config()

    rng = Rng(cfg.seed)
    dims = ModelDims.for_dataset(ds)
    split = ClassSplit.of(ds.seen_classes, ds.unseen_classes)

    def loss_fn(weights: dict[str, np.ndarray], idx: np.ndarray):
        return total_loss_raw(ModelParams(dims=dims, **weights), ds.regions(idx),
                              ds.labels[idx], ds.attributes, ds.class_semantics, split, lcfg)

    params = init_params_from_rng(dims, rng)
    if not isinstance(lcfg, LossConfig):
        params = ModelParams(dims=dims, **{name: np.repeat(w[None], len(lcfg), axis=0)
                                           for name, w in params.as_dict().items()})
    history = fit(params.as_dict(), loss_fn, ds.train_idx, cfg, rng)
    return TrainResult(params=params, history=history)


def write_history_csv(history: list[LossBreakdown], path: str | Path) -> None:
    write_table(path, HISTORY_HEADER, ((epoch, *row) for epoch, row in enumerate(history)))
