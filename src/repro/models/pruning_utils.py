"""Helpers shared by every pruning-style defense.

All filter-pruning defenses (the paper's Grad-Prune, Fine-Pruning, CLP, ANP)
operate on the out-channels of 2-D convolutions.  This module provides:

- :func:`iter_conv_layers` — enumerate prunable convolutions with stable names;
- :class:`FilterRef` — a (layer name, filter index) handle;
- :func:`prune_filter` / :func:`restore_filter` — zero / restore one filter;
- :class:`PruningMask` — keeps pruned filters at zero through later
  fine-tuning steps (SGD would otherwise regrow them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..nn.inference import invalidate_compiled
from ..nn.layers import Conv2d
from ..nn.module import Module

__all__ = [
    "FilterRef",
    "iter_conv_layers",
    "count_filters",
    "prune_filter",
    "restore_filter",
    "PruningMask",
]


@dataclass(frozen=True)
class FilterRef:
    """Handle identifying one convolutional filter: ``layer`` dot-path + index."""

    layer: str
    index: int

    def __str__(self) -> str:
        return f"{self.layer}[{self.index}]"


def iter_conv_layers(model: Module) -> Iterator[Tuple[str, Conv2d]]:
    """Yield ``(dot_path, Conv2d)`` for every convolution in the model."""
    for name, module in model.named_modules():
        if isinstance(module, Conv2d):
            yield name, module


def count_filters(model: Module) -> int:
    """Total number of prunable conv filters (out-channels) in the model."""
    return sum(conv.out_channels for _, conv in iter_conv_layers(model))


def _get_conv(model: Module, layer: str) -> Conv2d:
    convs = dict(iter_conv_layers(model))
    if layer not in convs:
        raise KeyError(f"no Conv2d named {layer!r}; available: {sorted(convs)[:5]}...")
    return convs[layer]


def prune_filter(model: Module, ref: FilterRef) -> Dict[str, np.ndarray]:
    """Zero the weights (and bias) of one filter; return the saved values.

    The returned dict can be passed to :func:`restore_filter` to undo the
    prune, which the iterative pruning loop uses to back out a step that
    violated the accuracy threshold.
    """
    conv = _get_conv(model, ref.layer)
    if not 0 <= ref.index < conv.out_channels:
        raise IndexError(f"filter index {ref.index} out of range for {ref.layer}")
    invalidate_compiled(model)  # folded eval weights are stale once we mutate
    saved = {"weight": conv.weight.data[ref.index].copy()}
    conv.weight.data[ref.index] = 0.0
    if conv.bias is not None:
        saved["bias"] = np.array(conv.bias.data[ref.index])
        conv.bias.data[ref.index] = 0.0
    return saved


def restore_filter(model: Module, ref: FilterRef, saved: Dict[str, np.ndarray]) -> None:
    """Undo :func:`prune_filter` using its returned snapshot."""
    conv = _get_conv(model, ref.layer)
    invalidate_compiled(model)
    conv.weight.data[ref.index] = saved["weight"]
    if conv.bias is not None and "bias" in saved:
        conv.bias.data[ref.index] = saved["bias"]


class PruningMask:
    """Track pruned filters and re-apply zeros after optimizer updates.

    Fine-tuning a pruned model with SGD would regrow pruned filters because
    their gradients are generally non-zero.  Calling :meth:`apply` after each
    optimizer step keeps them at exactly zero, preserving the prune.
    """

    def __init__(self, model: Module) -> None:
        self._model = model
        self._pruned: Dict[str, List[int]] = {}

    @property
    def pruned_refs(self) -> List[FilterRef]:
        return [FilterRef(layer, i) for layer, idxs in self._pruned.items() for i in idxs]

    def __len__(self) -> int:
        return sum(len(v) for v in self._pruned.values())

    def prune(self, ref: FilterRef) -> Dict[str, np.ndarray]:
        """Prune a filter and remember it for future re-masking."""
        saved = prune_filter(self._model, ref)
        self._pruned.setdefault(ref.layer, []).append(ref.index)
        return saved

    def unprune(self, ref: FilterRef, saved: Dict[str, np.ndarray]) -> None:
        """Restore a filter and forget it."""
        restore_filter(self._model, ref, saved)
        indices = self._pruned.get(ref.layer, [])
        if ref.index in indices:
            indices.remove(ref.index)

    def apply(self) -> None:
        """Re-zero every pruned filter (call after each optimizer step)."""
        invalidate_compiled(self._model)
        convs = dict(iter_conv_layers(self._model))
        for layer, indices in self._pruned.items():
            conv = convs[layer]
            for index in indices:
                conv.weight.data[index] = 0.0
                if conv.bias is not None:
                    conv.bias.data[index] = 0.0

    def sparsity(self) -> float:
        """Fraction of all conv filters currently pruned."""
        total = count_filters(self._model)
        return len(self) / total if total else 0.0
