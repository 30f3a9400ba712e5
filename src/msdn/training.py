"""RMSProp training loop with deterministic batching and a loss history.

The optimizer update, per parameter and elementwise, is

    g   = grad + weight_decay * param
    sq  = rms_decay * sq + (1 - rms_decay) * g^2
    buf = momentum * buf + g / (sqrt(sq) + epsilon_opt)
    param -= learning_rate * buf

i.e. classic RMSProp with momentum applied to the preconditioned
gradient and coupled L2 weight decay.  The update runs in place, in one
pass: a run holds its parameters, square averages and momentum buffers
as one flat array each (``FlatArrays``).  Each step works in its batch's
flat gradient array, which ``fit`` drops after the step.  ``train`` is
a pure function of (dataset, config) to (params, history): one PRNG
seeded from the config draws the parameter init, then every epoch's
shuffle in one bulk draw per run.  It computes in float32, the
precision a checkpoint stores, except for the float64 loss head over
class scores.  Configs come from files through ``configfile.load_config``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .configfile import require_finite, require_seed
from .data_io import Dataset, write_table
from .errors import ArgumentError, NumericError, ShapeError
from .losses import LossBreakdown, LossConfig, LossTerms, total_loss_raw
from .model import ModelParams, init_params_from_rng
from .ndmath import FlatArrays, Rng, first_non_finite

HISTORY_HEADER = ("epoch", *LossBreakdown._fields)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 50
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 200
    seed: int = 1
    lambda_cal: float = LossConfig.lambda_cal
    lambda_distill: float = LossConfig.lambda_distill
    epsilon_kl: float = LossConfig.epsilon_kl
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


# Elements per block of the RMSProp step, the size of its one scratch
# array: far below a paper-shape weight set, and large enough that the
# 13 calls per block cost little next to the memory traffic.
STEP_BLOCK = 1 << 14


def rmsprop_step(
    params: FlatArrays,
    grads: FlatArrays,
    square_avg: FlatArrays,
    momentum_buf: FlatArrays,
    cfg: TrainConfig,
) -> None:
    """One optimizer step, in place on ``params`` and both buffers.

    The step runs over the flat arrays, block by block, with the float
    operations of the per-parameter rule in its order.  The flat array of
    ``grads`` is the step's workspace: its values are overwritten.
    """
    param, g, sq, buf = params.flat, grads.flat, square_avg.flat, momentum_buf.flat
    if g.shape != param.shape:
        raise ShapeError(f"gradients have {g.size} elements, parameters {param.size}")
    wd, rho, mu, eps, lr = (cfg.weight_decay, cfg.rms_decay, cfg.momentum, cfg.epsilon_opt,
                            cfg.learning_rate)
    scratch = np.empty(min(param.size, STEP_BLOCK), param.dtype)
    for start in range(0, param.size, STEP_BLOCK):
        block = slice(start, start + STEP_BLOCK)
        p, gb, s, b = param[block], g[block], sq[block], buf[block]
        t = scratch[:p.size]
        gb += np.multiply(p, wd, out=t)                # g += wd * param
        s *= rho                                       # sq = rho * sq + (1 - rho) * g * g
        np.multiply(gb, 1.0 - rho, out=t)
        s += np.multiply(t, gb, out=t)
        b *= mu                                        # buf = mu * buf + g / (sqrt(sq) + eps)
        np.sqrt(s, out=t)
        t += eps
        b += np.divide(gb, t, out=t)
        p -= np.multiply(b, lr, out=t)                 # param -= lr * buf


def make_batches(n: int, batch_size: int, epochs: int, rng: Rng) -> list[list[np.ndarray]]:
    """Every epoch's shuffle of [0, n), chunked; the final short batch is kept.

    Epoch by epoch, a Python list swaps item i with item ``int(u * (i + 1))``
    for i from n - 1 to 1, u a fresh uniform per swap; one bulk
    ``rng.uniform`` draw gives every epoch's uniforms."""
    swaps = max(n - 1, 0)
    u = rng.uniform(0.0, 1.0, epochs, swaps) if epochs and swaps else np.zeros((epochs, swaps))
    out = []
    for row in (u * np.arange(n, 1, -1)).astype(np.intp):   # column k picks j < n - k
        order = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), row.tolist()):
            order[i], order[j] = order[j], order[i]
        perm = np.array(order, dtype=np.intp)
        out.append([perm[i:i + batch_size] for i in range(0, n, batch_size)])
    return out


def fit(
    weights: FlatArrays,
    loss_fn: Callable[[np.ndarray], tuple[LossBreakdown, FlatArrays]],
    train_idx: np.ndarray,
    cfg: TrainConfig,
    rng: Rng,
) -> list[LossBreakdown]:
    """RMSProp over ``cfg.epochs`` shuffled passes of ``train_idx``.

    ``loss_fn(idx)`` returns the loss breakdown and the gradients, laid
    out like ``weights``, for the samples ``idx`` at the current
    weights, which are updated in place.  One ``make_batches`` call draws
    every epoch's shuffle from ``rng``.  Each epoch records the sample-weighted
    mean of each breakdown field (or of each model's value in it); the
    weights must stay finite.  Returns the history.
    """
    n_train = int(train_idx.size)
    if n_train == 0:
        raise ArgumentError("dataset has an empty train split")
    square_avg, momentum_buf = weights.zeros_like(), weights.zeros_like()
    history: list[LossBreakdown] = []
    for epoch, batches in enumerate(make_batches(n_train, cfg.batch_size, cfg.epochs, rng)):
        rows = []
        for batch_no, batch in enumerate(batches):
            try:
                breakdown, grads = loss_fn(train_idx[batch])
            except NumericError as exc:
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}: {exc}"
                ) from exc
            rmsprop_step(weights, grads, square_avg, momentum_buf, cfg)
            del grads  # the next batch's loss runs without these
            rows.append(breakdown)
        if first_non_finite(weights.flat) is not None:
            name = next(n for n, arr in weights.items() if first_non_finite(arr) is not None)
            raise NumericError(f"parameter {name} became non-finite at epoch {epoch}")
        # 0.0 + size_0 * row_0 + size_1 * row_1 + ..., added in batch order.
        weighted = (np.asarray(rows).T * [len(batch) for batch in batches]).T
        history.append(LossBreakdown(*(sum(weighted, 0.0) / n_train).tolist()))
    return history


def train(
    ds: Dataset,
    cfg: TrainConfig,
    loss_cfg: tuple[LossConfig, ...] | None = None,
) -> tuple[ModelParams, list[LossBreakdown]]:
    """Train on ``ds.train_idx``; returns the final params and per-epoch losses.

    With no ``loss_cfg``, one model trains with ``cfg.loss_config()``.  A
    tuple of LossConfigs trains one model per config in lockstep, each
    bit for bit as alone, with the weights on a leading model axis and
    one value per model in each history field.
    """
    models = () if loss_cfg is None else (len(loss_cfg),)
    terms = LossTerms.of((cfg.loss_config(),) if loss_cfg is None else loss_cfg, models)

    rng = Rng(cfg.seed)
    init = init_params_from_rng(ds.visual_dim, ds.attr_dim, rng).astype(np.float32)
    weights = FlatArrays.of({name: np.broadcast_to(w, models + w.shape)
                             for name, w in init.as_dict().items()})
    params = ModelParams(**weights)

    def loss_fn(idx: np.ndarray):
        return total_loss_raw(params, ds.regions(idx), ds.labels[idx],
                              ds.attributes, ds.class_semantics, ds.split, terms)

    return params, fit(weights, loss_fn, ds.train_idx, cfg, rng)


def write_history_csv(history: list[LossBreakdown], path: str | Path) -> None:
    write_table(path, HISTORY_HEADER, ((epoch, *row) for epoch, row in enumerate(history)))
