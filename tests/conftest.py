"""Shared fixtures: tiny models and datasets sized for fast unit tests.

Defense/core tests use an 8x8-image, 3-class task and a two-block CNN so a
full attack→defense round trip stays under a few seconds.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.attacks import BadNetsAttack, train_backdoored_model
from repro.data.dataset import ImageDataset
from repro.models.preact_resnet import PreActResNet18
from repro.nn import (
    AdaptiveAvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    Tensor,
)
from repro.training import TrainConfig

IMAGE_SHAPE = (3, 8, 8)
NUM_CLASSES = 3


class TinyConvNet(Module):
    """Two conv blocks + linear head, small enough for sub-second training."""

    def __init__(self, num_classes: int = NUM_CLASSES, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.features = Sequential(
            Conv2d(3, 8, 3, padding=1, rng=rng),
            BatchNorm2d(8),
            ReLU(),
            MaxPool2d(2),
            Conv2d(8, 16, 3, padding=1, rng=rng),
            BatchNorm2d(16),
            ReLU(),
            AdaptiveAvgPool2d(1),
            Flatten(),
        )
        self.fc = Linear(16, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        return self.fc(self.features(x))


def make_tiny_dataset(n: int, seed: int = 0, num_classes: int = NUM_CLASSES) -> ImageDataset:
    """Separable synthetic task: class = dominant color channel + blob position."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    rng.shuffle(labels)
    images = rng.uniform(0.0, 0.3, size=(n, *IMAGE_SHAPE)).astype(np.float32)
    for i, cls in enumerate(labels):
        channel = int(cls) % 3
        images[i, channel, 2:6, 2:6] += 0.6
    return ImageDataset(np.clip(images, 0, 1), labels)


@pytest.fixture(scope="session")
def tiny_train() -> ImageDataset:
    return make_tiny_dataset(180, seed=1)


@pytest.fixture(scope="session")
def tiny_test() -> ImageDataset:
    return make_tiny_dataset(90, seed=2)


@pytest.fixture(scope="session")
def tiny_reservoir() -> ImageDataset:
    return make_tiny_dataset(120, seed=3)


@pytest.fixture(scope="session")
def tiny_attack() -> BadNetsAttack:
    return BadNetsAttack(target_class=0, image_shape=IMAGE_SHAPE, patch_size=2)


@pytest.fixture(scope="session")
def backdoored_tiny_model(tiny_train, tiny_attack):
    """A TinyConvNet trained on BadNets-poisoned data (shared, read-only).

    Tests that mutate the model must deepcopy it.
    """
    model = TinyConvNet(seed=0)
    config = TrainConfig(epochs=8, batch_size=32, lr=0.08, shuffle_seed=0)
    train_backdoored_model(
        model, tiny_train, tiny_attack, poison_ratio=0.15, config=config,
        rng=np.random.default_rng(3),
    )
    return model


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def node_rng(request) -> np.random.Generator:
    """A generator of the test's own, seeded from its node name.

    ``zlib.crc32`` gives the same seed in every process (``hash`` of a
    string does not), so a test draws the same inputs however the suite
    around it is selected or reordered.
    """
    return np.random.default_rng(zlib.crc32(request.node.name.encode()))
