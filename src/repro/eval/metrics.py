"""Performance measures: ACC, ASR, RA (paper §V-C, BackdoorBench definitions).

- **ACC**: accuracy on the clean test set.
- **ASR**: accuracy on triggered test images against the *target* label
  (how often the backdoor fires).
- **RA**: accuracy on triggered test images against their *true* labels
  (how often the defense restored correct classification under trigger).

Samples whose true label equals the target class are excluded from the ASR
and RA sets (triggering them proves nothing), following BackdoorBench.
Note ``ASR + RA <= 1`` always holds on the same sample set.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..attacks.base import BackdoorAttack
from ..data.dataset import ImageDataset
from ..nn.module import Module
from ..training import predict

__all__ = [
    "BackdoorMetrics",
    "evaluate_backdoor_metrics",
    "evaluate_all_to_all_metrics",
]


@dataclass
class BackdoorMetrics:
    """ACC / ASR / RA triple (fractions in [0, 1])."""

    acc: float
    asr: float
    ra: float

    def __str__(self) -> str:
        return f"ACC={self.acc:.4f} ASR={self.asr:.4f} RA={self.ra:.4f}"


def evaluate_backdoor_metrics(
    model: Module,
    test_set: ImageDataset,
    attack: BackdoorAttack,
    batch_size: int = 128,
) -> BackdoorMetrics:
    """Compute ACC, ASR, and RA for ``model`` under ``attack``.

    The triggered images are generated once and both ASR and RA are scored
    on them, guaranteeing the ``ASR + RA <= 1`` identity.
    """
    if len(test_set) == 0:
        raise ValueError("empty test set")
    clean_predictions = predict(model, test_set.images, batch_size=batch_size)
    acc = float((clean_predictions == test_set.labels).mean())

    keep = test_set.labels != attack.target_class
    if not keep.any():
        raise ValueError("test set contains only target-class samples")
    victim = test_set.subset(np.flatnonzero(keep))
    triggered = attack.apply(victim.images)
    triggered_predictions = predict(model, triggered, batch_size=batch_size)
    asr = float((triggered_predictions == attack.target_class).mean())
    ra = float((triggered_predictions == victim.labels).mean())
    return BackdoorMetrics(acc=acc, asr=asr, ra=ra)


def evaluate_all_to_all_metrics(
    model: Module,
    test_set: ImageDataset,
    attack: BackdoorAttack,
    batch_size: int = 128,
) -> BackdoorMetrics:
    """ACC / ASR / RA under the all-to-all relabeling (y -> y+1 mod n).

    A triggered sample counts toward ASR when it is classified as
    ``(y + 1) mod n`` — the cyclic target — and toward RA when it is
    classified as its true label.  All classes participate (no exclusion).
    """
    if len(test_set) == 0:
        raise ValueError("empty test set")
    clean_predictions = predict(model, test_set.images, batch_size=batch_size)
    acc = float((clean_predictions == test_set.labels).mean())
    num_classes = test_set.num_classes
    triggered = attack.apply(test_set.images)
    triggered_predictions = predict(model, triggered, batch_size=batch_size)
    cyclic_targets = (test_set.labels + 1) % num_classes
    asr = float((triggered_predictions == cyclic_targets).mean())
    ra = float((triggered_predictions == test_set.labels).mean())
    return BackdoorMetrics(acc=acc, asr=asr, ra=ra)

