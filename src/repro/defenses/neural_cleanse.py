"""Neural Cleanse defense (Wang et al., 2019) — paper reference [17].

The full pipeline the paper's fine-tuning stage is adapted from:

1. **Detect**: invert a minimal trigger per class; flag the class whose
   mask-L1 is an anomalously small MAD outlier.
2. **Patch by unlearning**: fine-tune the model on clean data where a
   fraction of samples carry the *inverted* trigger but keep their correct
   labels — teaching the model to ignore the trigger.

Unlike Grad-Prune, no weights are removed; mitigation is purely through
fine-tuning against the reconstructed trigger.  Also unlike Grad-Prune's
§IV-C stage, only a *portion* of the data is triggered (the detail the
paper explicitly changes — giving this baseline makes that comparison
testable).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.dataset import ImageDataset
from ..core.tuner import FineTuner
from ..nn.module import Module
from ..synthesis.inversion import detect_backdoor
from .base import Defense, DefenderData, DefenseReport

__all__ = ["NeuralCleanseDefense"]


class NeuralCleanseDefense(Defense):
    """Trigger inversion + unlearning fine-tune.

    Parameters
    ----------
    num_classes:
        Class count for the detection sweep (None = infer from defender data;
        requires every class present, which the SPC protocol guarantees).
    inversion_steps:
        Adam iterations per class inversion.
    trigger_fraction:
        Fraction of fine-tuning samples stamped with the inverted trigger
        (Wang et al. use 10-20 %).
    epochs, lr, patience, batch_size, seed:
        Unlearning fine-tune hyperparameters.
    """

    name = "nc"

    def __init__(
        self,
        num_classes: Optional[int] = None,
        inversion_steps: int = 150,
        trigger_fraction: float = 0.2,
        epochs: int = 15,
        lr: float = 0.01,
        patience: int = 5,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        if not 0.0 < trigger_fraction < 1.0:
            raise ValueError(f"trigger_fraction must be in (0, 1), got {trigger_fraction}")
        self.num_classes = num_classes
        self.inversion_steps = inversion_steps
        self.trigger_fraction = trigger_fraction
        self.epochs = epochs
        self.lr = lr
        self.patience = patience
        self.batch_size = batch_size
        self.seed = seed

    def apply(self, model: Module, data: DefenderData) -> DefenseReport:
        """Invert the trigger, then unlearning-fine-tune against it."""
        clean_pool = data.clean_train.concat(data.clean_val)
        num_classes = self.num_classes or clean_pool.num_classes

        detection = detect_backdoor(
            model, clean_pool, num_classes, steps=self.inversion_steps, seed=self.seed
        )
        if detection["flagged_classes"]:
            target = detection["flagged_classes"][0]
        else:
            target = int(detection["mask_l1"].argmin())
        trigger = detection["triggers"][target]

        # Build the unlearning fine-tune set: a fraction of clean training
        # samples stamped with the inverted trigger, labels unchanged.
        rng = np.random.default_rng(self.seed)
        n = len(data.clean_train)
        n_triggered = max(1, int(round(self.trigger_fraction * n)))
        chosen = rng.choice(n, size=n_triggered, replace=False)
        stamped_images = data.clean_train.images.copy()
        stamped_images[chosen] = trigger.apply(data.clean_train.images[chosen])
        train_set = ImageDataset(stamped_images, data.clean_train.labels.copy())

        tuner = FineTuner(
            lr=self.lr,
            patience=self.patience,
            max_epochs=self.epochs,
            batch_size=self.batch_size,
            seed=self.seed,
        )
        history = tuner.tune(model, train_set, data.clean_val)

        return DefenseReport(
            name=self.name,
            details={
                "detected_target": target,
                "flagged_classes": detection["flagged_classes"],
                "mask_l1": detection["mask_l1"].tolist(),
                "trigger_flip_rate": trigger.flip_rate,
                "epochs_run": len(history.train_losses),
                "tune_stop_reason": history.stop_reason,
            },
        )
