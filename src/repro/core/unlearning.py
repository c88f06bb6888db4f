"""The backdoor-unlearning loss (paper Eq. 2).

The loss is the aggregate cross-entropy of the *backdoor* inputs against
their *correct* (original) labels:

    L = sum_i CE(f'(x̌_i, θ'), y_i)

Its value is high while the model still routes triggered inputs to the
target class, and its gradient w.r.t. a parameter measures how much that
parameter contributes to the misclassification — the signal Grad-Prune uses
for filter selection.  Unlike gradient-ascent unlearning (e.g. Liu et al.
2022), this loss is never minimized directly; only its gradients are read.
"""

from __future__ import annotations

from ..data.dataset import ImageDataset
from ..nn import Tensor, cross_entropy, no_grad
from ..nn.module import Module

__all__ = ["unlearning_loss_value", "unlearning_loss_backward"]


def unlearning_loss_value(
    model: Module, backdoor_set: ImageDataset, batch_size: int = 128
) -> float:
    """Evaluate Eq. 2 (sum reduction) without building gradients.

    Used for the stopping rule: after each pruning round the loss is
    re-evaluated on the *validation* backdoor set.
    """
    if len(backdoor_set) == 0:
        raise ValueError("empty backdoor set")
    model.eval()
    total = 0.0
    with no_grad():
        for start in range(0, len(backdoor_set), batch_size):
            images = backdoor_set.images[start : start + batch_size]
            labels = backdoor_set.labels[start : start + batch_size]
            logits = model(Tensor(images))
            total += cross_entropy(logits, labels, reduction="sum").item()
    return total


def unlearning_loss_backward(
    model: Module, backdoor_set: ImageDataset, batch_size: int = 128
) -> float:
    """Run forward+backward of Eq. 2, accumulating gradients into the model.

    Gradients are cleared first, then accumulated over all batches (the sum
    reduction makes per-batch accumulation exact).  Returns the loss value.
    The model is evaluated in eval mode: the defender's batches are tiny and
    batch statistics would corrupt both the loss and its gradients.
    """
    if len(backdoor_set) == 0:
        raise ValueError("empty backdoor set")
    model.eval()
    # In-place zeroing keeps the .grad buffers of the previous scoring round
    # alive; this round's backward accumulates into the same hot memory.
    model.zero_grad(set_to_none=False)
    total = 0.0
    for start in range(0, len(backdoor_set), batch_size):
        images = backdoor_set.images[start : start + batch_size]
        labels = backdoor_set.labels[start : start + batch_size]
        logits = model(Tensor(images))
        loss = cross_entropy(logits, labels, reduction="sum")
        loss.backward()
        total += loss.item()
    return total
