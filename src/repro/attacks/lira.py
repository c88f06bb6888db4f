"""LIRA-style attack (Doan et al., 2021): jointly learned trigger generator.

The paper cites LIRA (§II-A) as the optimisation-based frontier: instead of
a fixed pattern, a small generator network ``g`` produces a *sample-
specific*, norm-bounded perturbation, trained jointly with the classifier
so that ``f(x + g(x)) = t`` while ``f(x) = y`` stays intact.  This module
implements that two-player training loop on our substrate:

- :class:`TriggerGenerator` — conv encoder / conv-transpose decoder emitting
  a tanh-bounded perturbation with L∞ budget ``epsilon``;
- :func:`train_lira` — alternating optimization (classifier steps on mixed
  clean+triggered batches, generator steps on the backdoor objective);
- :class:`LiraAttack` — the resulting :class:`BackdoorAttack`, whose
  ``apply`` runs the frozen generator (deterministic, so the defender-side
  synthesis assumption III-C still holds once the generator leaks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..data.dataset import DataLoader, ImageDataset
from ..nn import SGD, Adam, Tensor, cross_entropy, no_grad
from ..nn.layers import Conv2d, ConvTranspose2d, ReLU
from ..nn.module import Module, Sequential
from .base import BackdoorAttack

__all__ = ["TriggerGenerator", "LiraAttack", "train_lira", "LiraTrainLog"]


class TriggerGenerator(Module):
    """Encoder-decoder emitting an L∞-bounded sample-specific perturbation.

    ``output = epsilon * tanh(decoder(encoder(x)))``, so every pixel of the
    perturbation lies in ``[-epsilon, epsilon]`` by construction.
    """

    def __init__(
        self,
        channels: int = 3,
        hidden: int = 8,
        epsilon: float = 0.1,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        rng = np.random.default_rng(seed)
        self.epsilon = epsilon
        self.encoder = Sequential(
            Conv2d(channels, hidden, 3, stride=2, padding=1, rng=rng),
            ReLU(),
            Conv2d(hidden, hidden, 3, stride=1, padding=1, rng=rng),
            ReLU(),
        )
        self.decoder = ConvTranspose2d(hidden, channels, 4, stride=2, padding=1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        latent = self.encoder(x)
        raw = self.decoder(latent)
        return raw.tanh() * self.epsilon


class LiraAttack(BackdoorAttack):
    """Backdoor attack backed by a (trained) trigger generator."""

    name = "lira"

    def __init__(
        self,
        target_class: int = 0,
        image_shape: Tuple[int, int, int] = (3, 32, 32),
        epsilon: float = 0.1,
        hidden: int = 8,
        seed: int = 0,
    ) -> None:
        super().__init__(target_class, image_shape, seed)
        if image_shape[1] % 2 or image_shape[2] % 2:
            raise ValueError("LiraAttack requires even spatial dims (stride-2 generator)")
        self.generator = TriggerGenerator(
            channels=image_shape[0], hidden=hidden, epsilon=epsilon, seed=seed
        )

    def apply(self, images: np.ndarray) -> np.ndarray:
        images = self._check(images)
        self.generator.eval()
        out = np.empty_like(images)
        with no_grad():
            for start in range(0, len(images), 128):
                batch = images[start : start + 128]
                perturbation = self.generator(Tensor(batch)).data
                out[start : start + 128] = np.clip(batch + perturbation, 0.0, 1.0)
        return out.astype(np.float32)


@dataclass
class LiraTrainLog:
    """Telemetry of the joint optimization."""

    classifier_losses: list
    backdoor_losses: list


def train_lira(
    model: Module,
    attack: LiraAttack,
    train_set: ImageDataset,
    epochs: int = 8,
    batch_size: int = 64,
    classifier_lr: float = 0.05,
    generator_lr: float = 1e-3,
    poison_fraction: float = 0.5,
    seed: int = 0,
) -> LiraTrainLog:
    """Jointly train classifier and trigger generator (LIRA stage 1+2, fused).

    Each batch does two updates:

    1. **classifier** on a mixture: the clean batch plus a ``poison_fraction``
       sub-batch passed through the (current) generator and labeled with the
       target class — embeds the backdoor;
    2. **generator** on the backdoor objective ``CE(f(x + g(x)), t)`` with
       the classifier frozen — sharpens the trigger.

    The generator's perturbation stays inside its epsilon ball by
    construction, keeping the attack stealthy.
    """
    if not 0.0 < poison_fraction < 1.0:
        raise ValueError(f"poison_fraction must be in (0, 1), got {poison_fraction}")
    generator = attack.generator
    classifier_opt = SGD(model.parameters(), lr=classifier_lr, momentum=0.9, weight_decay=5e-4)
    generator_opt = Adam(generator.parameters(), lr=generator_lr)
    loader = DataLoader(
        train_set, batch_size=batch_size, shuffle=True, rng=np.random.default_rng(seed)
    )
    target = attack.target_class
    log = LiraTrainLog(classifier_losses=[], backdoor_losses=[])

    for _epoch in range(epochs):
        epoch_cls, epoch_bd, batches = 0.0, 0.0, 0
        for images, labels in loader:
            n_poison = max(1, int(len(images) * poison_fraction))
            poison_slice = images[:n_poison]

            # (1) classifier step on clean + currently-triggered data.
            model.train()
            generator.eval()
            with no_grad():
                perturbation = generator(Tensor(poison_slice)).data
            triggered = np.clip(poison_slice + perturbation, 0.0, 1.0)
            mixed_images = np.concatenate([images, triggered])
            mixed_labels = np.concatenate(
                [labels, np.full(n_poison, target, dtype=np.int64)]
            )
            loss_cls = cross_entropy(model(Tensor(mixed_images)), mixed_labels)
            classifier_opt.zero_grad()
            loss_cls.backward()
            classifier_opt.step()

            # (2) generator step against the (frozen) classifier.
            model.eval()
            generator.train()
            batch_t = Tensor(images)
            perturbed = batch_t + generator(batch_t)
            perturbed = perturbed.clamp(0.0, 1.0)
            loss_bd = cross_entropy(
                model(perturbed), np.full(len(images), target, dtype=np.int64)
            )
            generator_opt.zero_grad()
            model.zero_grad()
            loss_bd.backward()
            generator_opt.step()

            epoch_cls += loss_cls.item()
            epoch_bd += loss_bd.item()
            batches += 1
        log.classifier_losses.append(epoch_cls / max(batches, 1))
        log.backdoor_losses.append(epoch_bd / max(batches, 1))

    model.eval()
    generator.eval()
    return log
