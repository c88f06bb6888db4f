"""Post-pruning fine-tuning (paper §IV-C).

Fine-tunes the pruned model on *all* available data — clean samples plus the
synthesized backdoor samples relabeled with their correct classes — until the
validation loss fails to improve for ``P_t`` consecutive epochs.  Unlike
Neural Cleanse's fine-tuning, no portioning of the backdoor data is done.
The best-so-far parameters (by validation loss) are restored at the end, and
pruned filters are re-masked after every optimizer step so the prune holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..data.dataset import DataLoader, ImageDataset
from ..models.pruning_utils import PruningMask
from ..nn import SGD, Tensor, cross_entropy, no_grad
from ..nn.module import Module
from ..telemetry import emit

__all__ = ["FineTuneHistory", "FineTuner"]

_SOURCE = "core.tuner"


@dataclass
class FineTuneHistory:
    """Per-epoch train/validation losses of a fine-tuning run."""

    train_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)
    best_epoch: int = -1
    stop_reason: str = ""


def _dataset_loss(model: Module, dataset: ImageDataset, batch_size: int) -> float:
    """Mean cross-entropy of ``model`` on ``dataset`` (eval mode, no grad)."""
    model.eval()
    total, count = 0.0, 0
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            images = dataset.images[start : start + batch_size]
            labels = dataset.labels[start : start + batch_size]
            loss = cross_entropy(model(Tensor(images)), labels, reduction="sum")
            total += loss.item()
            count += len(labels)
    return total / max(count, 1)


class FineTuner:
    """Early-stopped fine-tuning on clean + relabeled backdoor data.

    Parameters
    ----------
    lr, momentum, weight_decay:
        SGD hyperparameters (lower LR than training from scratch).
    patience:
        The paper's ``P_t``: epochs without validation-loss improvement
        before stopping.
    max_epochs:
        Hard cap on fine-tuning epochs.
    batch_size:
        Minibatch size.
    seed:
        Shuffling seed.
    """

    def __init__(
        self,
        lr: float = 0.01,
        momentum: float = 0.9,
        weight_decay: float = 5e-4,
        patience: int = 5,
        max_epochs: int = 50,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {max_epochs}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.patience = patience
        self.max_epochs = max_epochs
        self.batch_size = batch_size
        self.seed = seed

    def tune(
        self,
        model: Module,
        clean_train: ImageDataset,
        clean_val: ImageDataset,
        backdoor_train: Optional[ImageDataset] = None,
        backdoor_val: Optional[ImageDataset] = None,
        mask: Optional[PruningMask] = None,
    ) -> FineTuneHistory:
        """Fine-tune in place; returns the loss history.

        ``backdoor_train`` / ``backdoor_val`` must carry *correct* labels
        (:meth:`DefenderData.backdoor_train` provides exactly that).  When
        omitted, this degrades to plain clean-data fine-tuning — which is
        also how the FT baseline reuses this class.
        """
        train_set = clean_train
        if backdoor_train is not None and len(backdoor_train):
            train_set = clean_train.concat(backdoor_train)
        val_set = clean_val
        if backdoor_val is not None and len(backdoor_val):
            val_set = clean_val.concat(backdoor_val)

        optimizer = SGD(
            model.parameters(),
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        loader = DataLoader(
            train_set,
            batch_size=min(self.batch_size, max(1, len(train_set))),
            shuffle=True,
            rng=np.random.default_rng(self.seed),
        )
        history = FineTuneHistory()
        best_val = _dataset_loss(model, val_set, self.batch_size * 4)
        best_state: Dict[str, np.ndarray] = model.state_dict()
        epochs_since_improvement = 0
        emit(
            "tune_started", _SOURCE,
            train_size=len(train_set), val_size=len(val_set),
            lr=self.lr, patience=self.patience, max_epochs=self.max_epochs,
            initial_val_loss=best_val,
        )

        for epoch in range(self.max_epochs):
            model.train()
            epoch_loss, batches = 0.0, 0
            for images, labels in loader:
                loss = cross_entropy(model(Tensor(images)), labels)
                optimizer.zero_grad(set_to_none=False)
                loss.backward()
                optimizer.step()
                if mask is not None:
                    mask.apply()
                epoch_loss += loss.item()
                batches += 1
            history.train_losses.append(epoch_loss / max(batches, 1))

            val_loss = _dataset_loss(model, val_set, self.batch_size * 4)
            history.val_losses.append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best_state = model.state_dict()
                history.best_epoch = epoch
                epochs_since_improvement = 0
            else:
                epochs_since_improvement += 1
            emit(
                "tune_epoch", _SOURCE,
                epoch=epoch, train_loss=history.train_losses[-1], val_loss=val_loss,
                best_val_loss=best_val, best_epoch=history.best_epoch,
                since_improvement=epochs_since_improvement,
            )
            if epochs_since_improvement >= self.patience:
                history.stop_reason = (
                    f"validation loss did not improve for {self.patience} epochs"
                )
                break
        if not history.stop_reason:
            history.stop_reason = f"reached max_epochs={self.max_epochs}"

        model.load_state_dict(best_state)
        if mask is not None:
            mask.apply()
        model.eval()
        emit(
            "tune_finished", _SOURCE,
            epochs=len(history.train_losses), best_epoch=history.best_epoch,
            best_val_loss=best_val, stop_reason=history.stop_reason,
        )
        return history
