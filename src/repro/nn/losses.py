"""Loss functions.

Cross-entropy is the workhorse: it drives clean training, attack poisoning,
every fine-tuning defense, and — with *correct* labels on *backdoor* inputs —
the paper's unlearning loss (Eq. 2).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .tensor import Tensor

__all__ = ["cross_entropy", "nll_loss"]

Labels = Union[np.ndarray, Tensor]


def _label_array(targets: Labels) -> np.ndarray:
    if isinstance(targets, Tensor):
        targets = targets.data
    return np.asarray(targets).astype(np.int64).reshape(-1)


def cross_entropy(logits: Tensor, targets: Labels, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy with integer class targets.

    Parameters
    ----------
    logits:
        Unnormalized scores of shape ``(N, C)``.
    targets:
        Integer class indices of shape ``(N,)``.
    reduction:
        ``"mean"``, ``"sum"``, or ``"none"``.
    """
    labels = _label_array(targets)
    log_probs = logits.log_softmax(axis=-1)
    return nll_loss(log_probs, labels, reduction=reduction)


def nll_loss(log_probs: Tensor, targets: Labels, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood over log-probabilities."""
    labels = _label_array(targets)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), labels]
    loss = -picked
    if reduction == "none":
        return loss
    if reduction == "sum":
        return loss.sum()
    if reduction == "mean":
        return loss.mean()
    raise ValueError(f"unknown reduction {reduction!r}")

