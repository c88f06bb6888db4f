"""Generic classifier training and evaluation.

Used by the attack poisoner (to train backdoored models), by every
fine-tuning-style defense, and by the examples.  Keeps a single well-tested
training loop instead of per-caller copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .data.dataset import DataLoader, ImageDataset
from .nn import SGD, Tensor, cross_entropy, no_grad
from .nn.module import Module
from .nn.optim import Optimizer

__all__ = ["TrainConfig", "TrainResult", "train_classifier", "evaluate_accuracy", "predict"]


@dataclass
class TrainConfig:
    """Hyperparameters for :func:`train_classifier`."""

    epochs: int = 10
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    shuffle_seed: int = 0


@dataclass
class TrainResult:
    """Per-epoch training telemetry."""

    losses: List[float] = field(default_factory=list)
    final_loss: float = float("nan")


def train_classifier(
    model: Module,
    dataset: ImageDataset,
    config: Optional[TrainConfig] = None,
    optimizer: Optional[Optimizer] = None,
    epoch_callback: Optional[Callable[[int, float], None]] = None,
) -> TrainResult:
    """Train ``model`` on ``dataset`` with softmax cross-entropy.

    Parameters
    ----------
    model:
        Any classifier mapping (N, C, H, W) to (N, num_classes) logits.
    dataset:
        Labeled training data.
    config:
        Training hyperparameters (defaults are sensible for quick-profile
        models on the synthetic datasets).
    optimizer:
        Override the default SGD (e.g. to fine-tune with a smaller LR).
    epoch_callback:
        Called as ``callback(epoch, mean_loss)`` after each epoch; useful
        for early-stopping wrappers.
    """
    config = config or TrainConfig()
    optimizer = optimizer or SGD(
        model.parameters(),
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    loader = DataLoader(
        dataset,
        batch_size=config.batch_size,
        shuffle=True,
        rng=np.random.default_rng(config.shuffle_seed),
    )
    result = TrainResult()
    model.train()
    for epoch in range(config.epochs):
        epoch_loss = 0.0
        batches = 0
        for images, labels in loader:
            logits = model(Tensor(images))
            loss = cross_entropy(logits, labels)
            optimizer.zero_grad(set_to_none=False)
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        mean_loss = epoch_loss / max(batches, 1)
        result.losses.append(mean_loss)
        if epoch_callback is not None:
            epoch_callback(epoch, mean_loss)
    result.final_loss = result.losses[-1] if result.losses else float("nan")
    model.eval()
    return result


def predict(model, images: np.ndarray, batch_size: int = 128) -> np.ndarray:
    """Predicted class indices for a batch of images (eval mode, no grad).

    ``model`` may be any callable exposing ``eval()`` — a plain
    :class:`~repro.nn.module.Module` or a
    :class:`repro.nn.inference.CompiledInference` view (conv–BN folded).
    Plain modules run the same no-grad conv kernels, without the folding.
    """
    model.eval()
    outputs = []
    with no_grad():
        for start in range(0, len(images), batch_size):
            logits = model(Tensor(images[start : start + batch_size]))
            outputs.append(logits.data.argmax(axis=1))
    return np.concatenate(outputs) if outputs else np.empty(0, dtype=np.int64)


def evaluate_accuracy(model, dataset: ImageDataset, batch_size: int = 128) -> float:
    """Classification accuracy of ``model`` on ``dataset``.

    Accepts the same model-or-compiled-view duck type as :func:`predict`.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    predictions = predict(model, dataset.images, batch_size=batch_size)
    return float((predictions == dataset.labels).mean())
