"""Post-defense analysis: where did the pruning land, and was it right?

The paper argues that unlearning-loss gradients localize "backdoor
elements".  These helpers quantify that on a concrete run:

- :func:`pruning_depth_profile` — distribution of pruned filters over the
  network's layers (backdoor shortcuts tend to sit early for patch
  triggers, deeper for semantic ones);
- :func:`trigger_sensitivity` — per-filter activation difference between
  triggered and clean inputs (an attack-aware ground-truth-ish signal);
- :func:`pruned_vs_kept_sensitivity` — did the defense prune filters that
  actually respond to the trigger more than the ones it kept?
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..attacks.base import BackdoorAttack
from ..data.dataset import ImageDataset
from ..models.pruning_utils import FilterRef, iter_conv_layers
from ..nn.module import Module

__all__ = ["pruning_depth_profile", "trigger_sensitivity", "pruned_vs_kept_sensitivity"]


def pruning_depth_profile(
    model: Module, pruned: Sequence[FilterRef]
) -> List[Tuple[str, int, int]]:
    """Per-layer (name, pruned_count, total_filters), in network order."""
    pruned_by_layer: Dict[str, int] = {}
    for ref in pruned:
        pruned_by_layer[ref.layer] = pruned_by_layer.get(ref.layer, 0) + 1
    profile = []
    for name, conv in iter_conv_layers(model):
        profile.append((name, pruned_by_layer.get(name, 0), conv.out_channels))
    return profile


def trigger_sensitivity(
    model: Module,
    clean_data: ImageDataset,
    attack: BackdoorAttack,
    batch_size: int = 128,
    normalize: bool = True,
) -> Dict[FilterRef, float]:
    """Per-filter response to the trigger: spatial max of |a(x̌) - a(x)|.

    Runs paired forward passes (clean / triggered) and, per conv channel,
    takes the **max over spatial positions** of the absolute activation
    difference, averaged over images.  The spatial max matters: a 3x3 patch
    moves the *mean* of a 32x32 feature map by ~1 %, but moves the peak of a
    trigger-detector channel enormously.  With ``normalize=True`` each
    channel is scaled by its mean clean activation magnitude, making layers
    of different activation scales comparable.
    """
    from ..nn import Tensor, no_grad

    triggered_images = attack.apply(clean_data.images)
    sums: Dict[str, np.ndarray] = {}
    clean_mags: Dict[str, np.ndarray] = {}
    count = 0
    captured: Dict[str, np.ndarray] = {}
    handles = []

    def make_hook(name: str):
        def hook(_module, output) -> None:
            captured[name] = output.data

        return hook

    for name, conv in iter_conv_layers(model):
        handles.append(conv.register_forward_hook(make_hook(name)))
    model.eval()
    try:
        with no_grad():
            for start in range(0, len(clean_data), batch_size):
                model(Tensor(clean_data.images[start : start + batch_size]))
                clean_caps = {k: v for k, v in captured.items()}
                model(Tensor(triggered_images[start : start + batch_size]))
                for name, clean_act in clean_caps.items():
                    diff = np.abs(captured[name] - clean_act)  # (N, C, H, W)
                    peak = diff.max(axis=(2, 3)).sum(axis=0)  # sum over images
                    sums[name] = sums.get(name, 0.0) + peak
                    clean_mags[name] = (
                        clean_mags.get(name, 0.0)
                        + np.abs(clean_act).mean(axis=(2, 3)).sum(axis=0)
                    )
                count += clean_act.shape[0]
    finally:
        for handle in handles:
            handle.remove()

    sensitivity: Dict[FilterRef, float] = {}
    for layer, totals in sums.items():
        values = totals / count
        if normalize:
            scale = clean_mags[layer] / count + 1e-6
            values = values / scale
        for index, value in enumerate(values):
            sensitivity[FilterRef(layer, index)] = float(value)
    return sensitivity


def pruned_vs_kept_sensitivity(
    sensitivity: Dict[FilterRef, float], pruned: Sequence[FilterRef]
) -> Dict[str, float]:
    """Compare trigger sensitivity of pruned vs kept filters.

    Returns means for both populations and their ratio (``> 1`` means the
    defense preferentially pruned trigger-responsive filters).  Sensitivity
    should be measured on the *pre-defense* model, since pruned filters are
    zero afterwards.
    """
    pruned_set = set(pruned)
    pruned_values = [v for ref, v in sensitivity.items() if ref in pruned_set]
    kept_values = [v for ref, v in sensitivity.items() if ref not in pruned_set]
    if not pruned_values or not kept_values:
        raise ValueError("need at least one pruned and one kept filter")
    pruned_mean = float(np.mean(pruned_values))
    kept_mean = float(np.mean(kept_values))
    return {
        "pruned_mean": pruned_mean,
        "kept_mean": kept_mean,
        "ratio": pruned_mean / max(kept_mean, 1e-12),
        "num_pruned": float(len(pruned_values)),
        "num_kept": float(len(kept_values)),
    }
