"""Ablation utilities for the design choices behind Grad-Prune.

DESIGN.md §6 calls out three choices worth isolating:

- **Scoring signal** (A1): unlearning-loss gradients (Eq. 3) vs. the
  alternatives used by prior work — clean-activation ranking (Fine-Pruning),
  weight magnitude, or random selection.  :func:`prune_by_strategy` prunes a
  fixed budget of filters under each signal so the signals are compared at
  equal sparsity.
- **Fine-tuning contribution** (A2): handled by
  :class:`~repro.core.defense.GradPruneConfig` flags (``skip_finetune``) and
  the tuner's optional backdoor data.
- **Stopping rule** (A3): sweeping ``alpha`` / ``P_p`` via
  :class:`~repro.core.pruner.GradientPruner` arguments.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..data.dataset import ImageDataset
from ..defenses.fine_pruning import mean_channel_activations
from ..models.pruning_utils import FilterRef, PruningMask, iter_conv_layers
from ..nn.module import Module
from .scoring import compute_filter_scores

__all__ = ["SCORING_STRATEGIES", "rank_filters", "prune_by_strategy"]

SCORING_STRATEGIES = ("gradient", "activation", "magnitude", "random")


def rank_filters(
    model: Module,
    strategy: str,
    backdoor_train: Optional[ImageDataset] = None,
    clean_train: Optional[ImageDataset] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[FilterRef]:
    """Rank all conv filters by prune priority under a scoring strategy.

    - ``gradient``: Eq. 3 scores on backdoor data, highest first (the paper).
    - ``activation``: mean clean activation, *lowest* first (Fine-Pruning's
      dormant-neuron heuristic).
    - ``magnitude``: L1 weight norm per filter, lowest first (classic
      magnitude pruning).
    - ``random``: uniform shuffle (control).
    """
    if strategy not in SCORING_STRATEGIES:
        raise KeyError(f"unknown strategy {strategy!r}; choose from {SCORING_STRATEGIES}")

    if strategy == "gradient":
        if backdoor_train is None:
            raise ValueError("gradient strategy requires backdoor_train")
        scores, _ = compute_filter_scores(model, backdoor_train)
        return [ref for ref, _ in sorted(scores.items(), key=lambda kv: -kv[1])]

    if strategy == "activation":
        if clean_train is None:
            raise ValueError("activation strategy requires clean_train")
        activations = mean_channel_activations(model, clean_train)
        refs = [
            (FilterRef(layer, int(i)), float(value))
            for layer, values in activations.items()
            for i, value in enumerate(values)
        ]
        return [ref for ref, _ in sorted(refs, key=lambda kv: kv[1])]

    if strategy == "magnitude":
        refs = []
        for layer, conv in iter_conv_layers(model):
            norms = np.abs(conv.weight.data).reshape(conv.out_channels, -1).sum(axis=1)
            refs.extend((FilterRef(layer, int(i)), float(n)) for i, n in enumerate(norms))
        return [ref for ref, _ in sorted(refs, key=lambda kv: kv[1])]

    # random
    rng = rng if rng is not None else np.random.default_rng()
    refs = [
        FilterRef(layer, i)
        for layer, conv in iter_conv_layers(model)
        for i in range(conv.out_channels)
    ]
    order = rng.permutation(len(refs))
    return [refs[i] for i in order]


def prune_by_strategy(
    model: Module,
    strategy: str,
    budget: int,
    backdoor_train: Optional[ImageDataset] = None,
    clean_train: Optional[ImageDataset] = None,
    rng: Optional[np.random.Generator] = None,
) -> PruningMask:
    """Prune exactly ``budget`` filters under ``strategy`` (in place)."""
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    ranking = rank_filters(model, strategy, backdoor_train, clean_train, rng)
    mask = PruningMask(model)
    for ref in ranking[:budget]:
        mask.prune(ref)
    return mask
