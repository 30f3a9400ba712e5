"""Mutual-attention zero-shot learner with semantic distillation.

Two bilinear attention sub-nets embed an image into attribute space from
opposite directions; they are trained jointly with a self-calibrated
cross-entropy and a peer-distillation loss, then fused for calibrated
zero-shot prediction.
"""

from .data_io import (
    Dataset,
    SynthSpec,
    generate_synthetic,
    load_container,
    save_container,
    validate_dataset,
)
from .losses import LossBreakdown, LossConfig, acec_loss, distill_loss, total_loss
from .model import (
    ForwardTrace,
    ModelDims,
    ModelParams,
    a2v_forward,
    forward,
    load_checkpoint,
    save_checkpoint,
    v2a_forward,
)
from .ndmath import Rng, softmax_stable
from .training import TrainConfig, TrainResult, fit, train
from .zsl_eval import EvalReport, PredictConfig, evaluate, harmonic_mean, predict

__all__ = [
    "Dataset",
    "SynthSpec",
    "generate_synthetic",
    "load_container",
    "save_container",
    "validate_dataset",
    "LossBreakdown",
    "LossConfig",
    "acec_loss",
    "distill_loss",
    "total_loss",
    "ForwardTrace",
    "ModelDims",
    "ModelParams",
    "a2v_forward",
    "forward",
    "load_checkpoint",
    "save_checkpoint",
    "v2a_forward",
    "Rng",
    "softmax_stable",
    "TrainConfig",
    "TrainResult",
    "fit",
    "train",
    "EvalReport",
    "PredictConfig",
    "evaluate",
    "harmonic_mean",
    "predict",
]

__version__ = "0.1.0"
