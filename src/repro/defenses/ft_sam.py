"""FT-SAM baseline (Zhu et al., 2023): fine-tuning with sharpness-aware
minimization.

Identical data usage to plain FT (clean data only), but every update is a
SAM two-step: perturb the weights to the ascent point within a ρ-ball, take
the gradient there, apply it at the original weights.  Zhu et al. show this
shrinks the backdoor-related neurons' weight norms far more effectively than
vanilla fine-tuning — it is the strongest baseline in the paper's tables.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..data.dataset import DataLoader, ImageDataset
from ..nn import SAM, SGD, Tensor, cross_entropy, no_grad
from ..nn.module import Module
from .base import Defense, DefenderData, DefenseReport

__all__ = ["FTSAMDefense"]


def _val_loss(model: Module, dataset: ImageDataset, batch_size: int = 128) -> float:
    model.eval()
    total, count = 0.0, 0
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            images = dataset.images[start : start + batch_size]
            labels = dataset.labels[start : start + batch_size]
            total += cross_entropy(model(Tensor(images)), labels, reduction="sum").item()
            count += len(labels)
    return total / max(count, 1)


class FTSAMDefense(Defense):
    """Sharpness-aware fine-tuning on clean data.

    Parameters
    ----------
    rho:
        SAM perturbation radius (0.05 is the FT-SAM paper default; larger
        values remove backdoors more aggressively at some clean-accuracy
        cost).
    lr, epochs, patience, batch_size, seed:
        Fine-tuning hyperparameters with early stopping on clean val loss.
    """

    name = "ft_sam"

    def __init__(
        self,
        rho: float = 0.05,
        lr: float = 0.01,
        momentum: float = 0.9,
        weight_decay: float = 5e-4,
        epochs: int = 20,
        patience: int = 5,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        self.rho = rho
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.epochs = epochs
        self.patience = patience
        self.batch_size = batch_size
        self.seed = seed

    def apply(self, model: Module, data: DefenderData) -> DefenseReport:
        """Sharpness-aware fine-tune on clean data (early-stopped)."""
        params = model.parameters()
        base = SGD(params, lr=self.lr, momentum=self.momentum, weight_decay=self.weight_decay)
        sam = SAM(params, base, rho=self.rho)
        loader = DataLoader(
            data.clean_train,
            batch_size=min(self.batch_size, max(1, len(data.clean_train))),
            shuffle=True,
            rng=np.random.default_rng(self.seed),
        )

        history: List[float] = []
        best_val = _val_loss(model, data.clean_val)
        best_state: Dict[str, np.ndarray] = model.state_dict()
        stall = 0
        stop_reason = f"reached epochs={self.epochs}"
        for _epoch in range(self.epochs):
            model.train()
            epoch_loss, batches = 0.0, 0
            for images, labels in loader:
                batch = Tensor(images)
                loss = cross_entropy(model(batch), labels)
                loss.backward()
                sam.first_step()
                second_loss = cross_entropy(model(batch), labels)
                second_loss.backward()
                sam.second_step()
                epoch_loss += loss.item()
                batches += 1
            history.append(epoch_loss / max(batches, 1))
            val = _val_loss(model, data.clean_val)
            if val < best_val:
                best_val = val
                best_state = model.state_dict()
                stall = 0
            else:
                stall += 1
                if stall >= self.patience:
                    stop_reason = f"validation loss stalled for {self.patience} epochs"
                    break
        model.load_state_dict(best_state)
        model.eval()
        return DefenseReport(
            name=self.name,
            details={"epochs_run": len(history), "train_losses": history, "stop_reason": stop_reason},
        )
