"""BNP baseline (Zheng et al., 2022, "Pre-activation Distributions Expose
Backdoor Neurons"): batch-norm statistic pruning.

A model trained on poisoned data bakes the *mixture* distribution (clean +
triggered) into its batch-norm running statistics.  Feeding only clean data
and comparing the observed per-channel pre-activation statistics against
the stored running statistics exposes channels whose statistics were
dominated by the trigger: their KL divergence is an intra-layer outlier.
Channels with divergence above ``mean + u * std`` are pruned.

This is a natural companion to CLP (both are one-shot, hyperparameter-light
pruning rules) and extends the reproduction's baseline set beyond the
paper's six.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..data.dataset import ImageDataset
from ..models.pruning_utils import FilterRef, PruningMask
from ..nn import Tensor, no_grad
from ..nn.layers import BatchNorm2d, Conv2d
from ..nn.module import Module
from .base import Defense, DefenderData, DefenseReport

__all__ = ["BNPDefense", "bn_statistic_divergence"]


def _gaussian_kl(
    mean_p: np.ndarray, var_p: np.ndarray, mean_q: np.ndarray, var_q: np.ndarray
) -> np.ndarray:
    """KL(N(p) || N(q)) per channel, numerically guarded."""
    var_p = np.maximum(var_p, 1e-8)
    var_q = np.maximum(var_q, 1e-8)
    return 0.5 * (
        np.log(var_q / var_p) + (var_p + (mean_p - mean_q) ** 2) / var_q - 1.0
    )


def _conv_before_bn(model: Module) -> Dict[str, str]:
    """Map each BatchNorm2d dot-path to the Conv2d that feeds it."""
    items = list(model.named_modules())
    mapping: Dict[str, str] = {}
    last_conv: Optional[str] = None
    for name, module in items:
        if isinstance(module, Conv2d):
            last_conv = name
        elif isinstance(module, BatchNorm2d):
            if last_conv is not None:
                convs = dict(items)
                conv = convs[last_conv]
                if isinstance(conv, Conv2d) and conv.out_channels == module.num_features:
                    mapping[name] = last_conv
            last_conv = None
    return mapping


def bn_statistic_divergence(
    model: Module, clean_data: ImageDataset, batch_size: int = 128
) -> Dict[str, np.ndarray]:
    """Per-channel KL between clean-data BN input stats and running stats.

    Returns ``{bn_layer_name: (num_features,) divergences}``.  Statistics
    are accumulated over all of ``clean_data`` with hooks on the conv that
    feeds each BN (the BN's input = the conv's output).
    """
    mapping = _conv_before_bn(model)
    if not mapping:
        return {}
    convs = dict(model.named_modules())
    sums: Dict[str, np.ndarray] = {}
    sq_sums: Dict[str, np.ndarray] = {}
    counts: Dict[str, int] = {}
    handles = []

    def make_hook(bn_name: str):
        def hook(_module, output) -> None:
            data = output.data
            sums[bn_name] = sums.get(bn_name, 0.0) + data.sum(axis=(0, 2, 3))
            sq_sums[bn_name] = sq_sums.get(bn_name, 0.0) + (data ** 2).sum(axis=(0, 2, 3))
            counts[bn_name] = counts.get(bn_name, 0) + data.shape[0] * data.shape[2] * data.shape[3]

        return hook

    for bn_name, conv_name in mapping.items():
        handles.append(convs[conv_name].register_forward_hook(make_hook(bn_name)))
    model.eval()
    try:
        with no_grad():
            for start in range(0, len(clean_data), batch_size):
                model(Tensor(clean_data.images[start : start + batch_size]))
    finally:
        for handle in handles:
            handle.remove()

    divergences: Dict[str, np.ndarray] = {}
    for bn_name in mapping:
        bn = convs[bn_name]
        count = counts[bn_name]
        clean_mean = sums[bn_name] / count
        clean_var = sq_sums[bn_name] / count - clean_mean ** 2
        divergences[bn_name] = _gaussian_kl(
            clean_mean, clean_var, bn.running_mean, bn.running_var
        )
    return divergences


class BNPDefense(Defense):
    """Batch-norm statistic pruning.

    Parameters
    ----------
    u:
        Intra-layer outlier threshold in standard deviations (as in the
        original work; 3.0 default).
    """

    name = "bnp"

    def __init__(self, u: float = 3.0) -> None:
        if u <= 0:
            raise ValueError(f"u must be positive, got {u}")
        self.u = u

    def apply(self, model: Module, data: DefenderData) -> DefenseReport:
        """Prune channels whose BN statistics diverge from clean-data stats."""
        divergences = bn_statistic_divergence(model, data.clean_train)
        mapping = _conv_before_bn(model)
        mask = PruningMask(model)
        pruned: List[str] = []
        for bn_name, values in divergences.items():
            if len(values) < 2:
                continue
            threshold = values.mean() + self.u * values.std()
            conv_name = mapping[bn_name]
            for index in np.flatnonzero(values > threshold):
                ref = FilterRef(conv_name, int(index))
                mask.prune(ref)
                pruned.append(str(ref))
        return DefenseReport(
            name=self.name,
            details={"num_pruned": len(pruned), "pruned": pruned, "u": self.u},
        )
