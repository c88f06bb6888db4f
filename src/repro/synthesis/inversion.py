"""Trigger inversion à la Neural Cleanse (Wang et al., 2019).

The paper assumes (§III-C) the defender can synthesize backdoor inputs
"using any relevant state-of-the-art synthesis approach" and cites trigger
inversion.  This module implements that substrate: given only the model and
clean samples, recover a (mask, pattern) pair that flips classification to
a candidate target class with minimal mask area:

    x' = (1 - m) ⊙ x + m ⊙ p
    minimize  CE(f(x'), t) + λ ||m||₁      over m ∈ [0,1]^{H,W}, p ∈ [0,1]^{C,H,W}

Optimization runs through the frozen model with Adam on the *inputs* — a
capability check for the autograd substrate as much as a defense tool.
Per Neural Cleanse, sweeping t over all classes and flagging the class
whose inverted mask is an extreme L1 outlier (median absolute deviation)
also yields backdoor *detection*; see :func:`detect_backdoor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..data.dataset import ImageDataset
from ..nn import Adam, Tensor, cross_entropy
from ..nn.module import Module, Parameter
from ..nn.tensor import no_grad

__all__ = ["InvertedTrigger", "invert_trigger", "detect_backdoor"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class InvertedTrigger:
    """Result of trigger inversion for one candidate target class."""

    target_class: int
    mask: np.ndarray  # (H, W) in [0, 1]
    pattern: np.ndarray  # (C, H, W) in [0, 1]
    mask_l1: float
    flip_rate: float  # fraction of clean samples driven to the target

    def apply(self, images: np.ndarray) -> np.ndarray:
        """Stamp the inverted trigger onto a batch of images."""
        images = np.asarray(images, dtype=np.float32)
        m = self.mask[None, None]
        return np.clip((1.0 - m) * images + m * self.pattern[None], 0.0, 1.0).astype(
            np.float32
        )


def invert_trigger(
    model: Module,
    clean_data: ImageDataset,
    target_class: int,
    steps: int = 200,
    lr: float = 0.1,
    mask_weight: float = 0.01,
    batch_size: int = 32,
    seed: int = 0,
) -> InvertedTrigger:
    """Recover a minimal trigger steering ``clean_data`` to ``target_class``.

    The mask and pattern are parameterized through sigmoids so box
    constraints hold by construction (Neural Cleanse's trick).

    Parameters
    ----------
    model:
        Frozen classifier (weights are not modified).
    clean_data:
        The defender's clean samples (all classes).
    target_class:
        Candidate backdoor target.
    steps:
        Adam iterations.
    mask_weight:
        λ in the objective — larger values force smaller masks.
    """
    if len(clean_data) == 0:
        raise ValueError("need clean samples to invert a trigger")
    model.eval()
    c, h, w = clean_data.image_shape
    rng = np.random.default_rng(seed)
    # Logit-space parameters; sigmoid keeps mask/pattern in (0, 1).
    mask_logit = Parameter(rng.normal(-2.0, 0.1, size=(h, w)).astype(np.float32))
    pattern_logit = Parameter(rng.normal(0.0, 0.5, size=(c, h, w)).astype(np.float32))
    optimizer = Adam([mask_logit, pattern_logit], lr=lr)

    n = len(clean_data)
    targets = np.full(min(batch_size, n), target_class, dtype=np.int64)
    for step in range(steps):
        idx = rng.choice(n, size=min(batch_size, n), replace=False)
        batch = Tensor(clean_data.images[idx])
        mask = mask_logit.sigmoid().reshape(1, 1, h, w)
        pattern = pattern_logit.sigmoid().reshape(1, c, h, w)
        stamped = batch * (1.0 - mask) + pattern * mask
        logits = model(stamped)
        loss = cross_entropy(logits, targets[: len(idx)])
        loss = loss + mask_weight * mask_logit.sigmoid().abs().sum()
        optimizer.zero_grad()
        model.zero_grad()
        loss.backward()
        optimizer.step()

    final_mask = _sigmoid(mask_logit.data)
    final_pattern = _sigmoid(pattern_logit.data)
    trigger = InvertedTrigger(
        target_class=target_class,
        mask=final_mask,
        pattern=final_pattern,
        mask_l1=float(np.abs(final_mask).sum()),
        flip_rate=0.0,
    )
    # Measure how often the recovered trigger actually flips predictions.
    stamped = trigger.apply(clean_data.images)
    with no_grad():
        predictions = []
        for start in range(0, n, 128):
            logits = model(Tensor(stamped[start : start + 128]))
            predictions.append(logits.data.argmax(axis=1))
    flips = np.concatenate(predictions) == target_class
    trigger.flip_rate = float(flips.mean())
    return trigger


def detect_backdoor(
    model: Module,
    clean_data: ImageDataset,
    num_classes: int,
    steps: int = 150,
    anomaly_threshold: float = 2.0,
    seed: int = 0,
) -> Dict:
    """Neural-Cleanse detection: invert per class, flag MAD outliers.

    Returns a dict with per-class mask L1 norms, anomaly indices, and the
    flagged classes (anomaly index > ``anomaly_threshold`` on the low side —
    backdoor targets need abnormally *small* triggers).
    """
    triggers: List[InvertedTrigger] = []
    for cls in range(num_classes):
        triggers.append(
            invert_trigger(model, clean_data, cls, steps=steps, seed=seed + cls)
        )
    l1 = np.array([t.mask_l1 for t in triggers])
    median = float(np.median(l1))
    mad = float(np.median(np.abs(l1 - median))) * 1.4826 + 1e-12
    anomaly_index = (median - l1) / mad  # positive & large => suspiciously small mask
    flagged = [int(i) for i in np.flatnonzero(anomaly_index > anomaly_threshold)]
    return {
        "triggers": triggers,
        "mask_l1": l1,
        "anomaly_index": anomaly_index,
        "flagged_classes": flagged,
        "median_l1": median,
    }
