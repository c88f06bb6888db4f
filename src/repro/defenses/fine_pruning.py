"""Fine-Pruning baseline (Liu et al., 2018).

The classic activation-based defense: backdoor neurons are *dormant* on
clean inputs, so rank the last convolutional layer's channels by mean
activation over the defender's clean data and prune from the least active
upward until clean accuracy drops by more than the allowed margin; then
fine-tune.  Contrast with Grad-Prune: the ranking signal is activations on
clean data, not unlearning-loss gradients — the comparison the paper's
Tables I-II make.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..core.tuner import FineTuner
from ..data.dataset import ImageDataset
from ..models.pruning_utils import FilterRef, PruningMask, iter_conv_layers
from ..nn import Tensor, no_grad
from ..nn.module import Module
from ..training import evaluate_accuracy
from .base import Defense, DefenderData, DefenseReport

__all__ = ["FinePruningDefense", "mean_channel_activations"]


def mean_channel_activations(
    model: Module, dataset: ImageDataset, batch_size: int = 128
) -> Dict[str, np.ndarray]:
    """Mean absolute activation per conv output channel on ``dataset``.

    Returns ``{layer_name: (out_channels,) array}`` collected with forward
    hooks in eval mode.
    """
    sums: Dict[str, np.ndarray] = {}
    counts: Dict[str, int] = {}
    handles = []

    def make_hook(name: str):
        def hook(_module, output) -> None:
            data = output.data
            sums[name] = sums.get(name, 0.0) + np.abs(data).mean(axis=(2, 3)).sum(axis=0)
            counts[name] = counts.get(name, 0) + data.shape[0]

        return hook

    for name, conv in iter_conv_layers(model):
        handles.append(conv.register_forward_hook(make_hook(name)))
    model.eval()
    try:
        with no_grad():
            for start in range(0, len(dataset), batch_size):
                model(Tensor(dataset.images[start : start + batch_size]))
    finally:
        for handle in handles:
            handle.remove()
    return {name: sums[name] / counts[name] for name in sums}


class FinePruningDefense(Defense):
    """Prune dormant channels of the last conv layer, then fine-tune.

    Parameters
    ----------
    max_acc_drop:
        Stop pruning when validation clean accuracy has dropped this much
        below its initial value (the defender's accuracy budget).
    max_prune_fraction:
        Never prune more than this fraction of the targeted layer.
    lr, epochs, patience, batch_size, seed:
        Fine-tuning hyperparameters (clean data only, early-stopped).
    """

    name = "fp"

    def __init__(
        self,
        max_acc_drop: float = 0.10,
        max_prune_fraction: float = 0.95,
        lr: float = 0.01,
        epochs: int = 20,
        patience: int = 5,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        self.max_acc_drop = max_acc_drop
        self.max_prune_fraction = max_prune_fraction
        self.tuner = FineTuner(
            lr=lr, patience=patience, max_epochs=epochs, batch_size=batch_size, seed=seed
        )

    def apply(self, model: Module, data: DefenderData) -> DefenseReport:
        """Prune dormant last-layer channels, then fine-tune."""
        activations = mean_channel_activations(model, data.clean_train)
        if not activations:
            raise ValueError("model has no convolutional layers to prune")
        # Liu et al. prune the last convolutional layer (where backdoor
        # neurons concentrate); named_modules order makes this the final key.
        target_layer = list(activations)[-1]
        ranking = np.argsort(activations[target_layer])  # dormant first

        mask = PruningMask(model)
        initial_acc = evaluate_accuracy(model, data.clean_val)
        floor = initial_acc - self.max_acc_drop
        limit = int(len(ranking) * self.max_prune_fraction)
        pruned: List[FilterRef] = []
        for channel in ranking[:limit]:
            ref = FilterRef(target_layer, int(channel))
            saved = mask.prune(ref)
            acc = evaluate_accuracy(model, data.clean_val)
            if acc < floor:
                mask.unprune(ref, saved)
                break
            pruned.append(ref)

        history = self.tuner.tune(model, data.clean_train, data.clean_val, mask=mask)
        return DefenseReport(
            name=self.name,
            details={
                "target_layer": target_layer,
                "num_pruned": len(pruned),
                "pruned_channels": [r.index for r in pruned],
                "tune_stop_reason": history.stop_reason,
            },
        )
