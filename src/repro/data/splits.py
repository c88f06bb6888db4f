"""Data splitting utilities for the defense protocol.

The paper's defenders get a fixed number of *samples per class* (SPC), and
approaches that need validation data reserve 10 % of it — except SPC=2,
where one sample per class trains and one validates (paper §V-B).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .dataset import ImageDataset

__all__ = ["spc_subset", "defender_split"]


def spc_subset(
    dataset: ImageDataset, spc: int, rng: Optional[np.random.Generator] = None
) -> ImageDataset:
    """Sample ``spc`` examples per class uniformly without replacement."""
    if spc <= 0:
        raise ValueError(f"spc must be positive, got {spc}")
    rng = rng if rng is not None else np.random.default_rng()
    chosen = []
    for cls in range(dataset.num_classes):
        pool = np.flatnonzero(dataset.labels == cls)
        if len(pool) < spc:
            raise ValueError(
                f"class {cls} has only {len(pool)} samples, cannot draw spc={spc}"
            )
        chosen.append(rng.choice(pool, size=spc, replace=False))
    indices = np.concatenate(chosen)
    rng.shuffle(indices)
    return dataset.subset(indices)


def defender_split(
    dataset: ImageDataset, spc: int, rng: Optional[np.random.Generator] = None
) -> Tuple[ImageDataset, ImageDataset]:
    """Paper-protocol defender data: SPC subset split into (train, val).

    SPC = 2 → one sample per class for training, one for validation.
    Otherwise → 10 % of the SPC subset for validation (stratified per class
    so small-SPC cases keep class coverage in both halves).
    """
    rng = rng if rng is not None else np.random.default_rng()
    subset = spc_subset(dataset, spc, rng)
    if spc == 2:
        train_idx, val_idx = [], []
        for cls in range(subset.num_classes):
            pool = np.flatnonzero(subset.labels == cls)
            rng.shuffle(pool)
            train_idx.append(pool[0])
            val_idx.append(pool[1])
        return subset.subset(np.array(train_idx)), subset.subset(np.array(val_idx))
    # Stratified 10 %: at least one validation sample per class.
    train_idx, val_idx = [], []
    per_class_val = max(1, int(round(spc * 0.1)))
    for cls in range(subset.num_classes):
        pool = np.flatnonzero(subset.labels == cls)
        rng.shuffle(pool)
        val_idx.extend(pool[:per_class_val])
        train_idx.extend(pool[per_class_val:])
    return subset.subset(np.array(train_idx)), subset.subset(np.array(val_idx))
