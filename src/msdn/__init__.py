"""Mutual-attention zero-shot learner with semantic distillation.

Two bilinear attention sub-nets embed an image into attribute space from
opposite directions; they are trained jointly with a self-calibrated
cross-entropy and a peer-distillation loss, then fused for calibrated
zero-shot prediction.
"""

__version__ = "0.1.0"
