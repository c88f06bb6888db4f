"""Filter scoring from unlearning-loss gradients (paper Eq. 3).

For every 2-D convolutional filter ``i`` at layer ``l`` with parameters
``θ'_{l,i}`` the score is the mean absolute gradient

    ξ_{l,i} = ||∇θ'_{l,i}||₁ / numel(θ'_{l,i})

computed after :func:`repro.core.unlearning.unlearning_loss_backward` has
populated ``.grad``.  Higher ξ means the filter contributes more to the
misclassification of triggered inputs, making it the next pruning candidate.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..data.dataset import ImageDataset
from ..models.pruning_utils import FilterRef, iter_conv_layers
from ..nn.module import Module
from .unlearning import unlearning_loss_backward

__all__ = ["filter_scores_from_grads", "compute_filter_scores", "top_filter"]


def filter_scores_from_grads(
    model: Module, exclude: Optional[Set[FilterRef]] = None
) -> Dict[FilterRef, float]:
    """Read Eq. 3 scores from gradients already stored on the model.

    Parameters
    ----------
    model:
        Model whose conv weights carry ``.grad`` from the unlearning loss.
    exclude:
        Filters to skip (already-pruned filters: their weights are zero, and
        re-pruning them wastes rounds).
    """
    exclude = exclude or set()
    scores: Dict[FilterRef, float] = {}
    for layer_name, conv in iter_conv_layers(model):
        grad = conv.weight.grad
        if grad is None:
            continue
        # |grad| averaged per filter; include the bias entry when present.
        abs_sum = np.abs(grad).reshape(grad.shape[0], -1).sum(axis=1)
        numel = np.full(grad.shape[0], grad[0].size, dtype=np.float64)
        if conv.bias is not None and conv.bias.grad is not None:
            abs_sum = abs_sum + np.abs(conv.bias.grad)
            numel += 1
        xi = abs_sum / numel
        for index in range(conv.out_channels):
            ref = FilterRef(layer_name, index)
            if ref not in exclude:
                scores[ref] = float(xi[index])
    return scores


def compute_filter_scores(
    model: Module,
    backdoor_train: ImageDataset,
    exclude: Optional[Set[FilterRef]] = None,
    batch_size: int = 128,
) -> Tuple[Dict[FilterRef, float], float]:
    """Run the unlearning loss backward and score every filter.

    Returns ``(scores, loss_value)``.  The loss value is on the *training*
    backdoor data; the pruning loop's stopping rule uses a separate
    validation evaluation.  Eq. 3 reads conv gradients only, so every other
    parameter (BatchNorm γ/β, the head, ...) has ``requires_grad`` switched
    off for the backward and restored afterwards, also when it raises.
    """
    conv_params = {
        id(p) for _, conv in iter_conv_layers(model) for p in (conv.weight, conv.bias)
    }
    frozen = [p for p in model.parameters() if p.requires_grad and id(p) not in conv_params]
    for param in frozen:
        param.requires_grad = False
    try:
        loss_value = unlearning_loss_backward(model, backdoor_train, batch_size=batch_size)
    finally:
        for param in frozen:
            param.requires_grad = True
    scores = filter_scores_from_grads(model, exclude=exclude)
    # Zero in place: the .grad arrays survive to the next pruning round, so
    # every round after the first accumulates into recycled buffers instead
    # of dropping and re-faulting a model's worth of gradient memory.
    model.zero_grad(set_to_none=False)
    return scores, loss_value


def top_filter(scores: Dict[FilterRef, float]) -> FilterRef:
    """The filter with the highest ξ (deterministic tie-break by name/index)."""
    if not scores:
        raise ValueError("no prunable filters remain")
    return max(scores.items(), key=lambda kv: (kv[1], kv[0].layer, kv[0].index))[0]
