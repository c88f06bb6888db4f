"""Tests for the extended all-to-all metrics."""

import numpy as np
import pytest

from repro.attacks import BadNetsAttack
from repro.data import ImageDataset
from repro.eval import evaluate_all_to_all_metrics
from repro.nn import Module, Tensor


class CyclicBackdooredOracle(Module):
    """Classifies by dominant channel; trigger shifts prediction to y+1 mod 3."""

    def forward(self, x: Tensor) -> Tensor:
        data = x.data
        n = data.shape[0]
        base = data.mean(axis=(2, 3)).argmax(axis=1)
        p = 2
        corner = data[:, :, -p:, -p:]
        checker = np.indices((p, p)).sum(axis=0) % 2
        has_trigger = np.isclose(corner, checker[None, None], atol=1e-3).all(axis=(1, 2, 3))
        prediction = np.where(has_trigger, (base + 1) % 3, base)
        logits = np.zeros((n, 3), dtype=np.float32)
        logits[np.arange(n), prediction] = 1.0
        return Tensor(logits)


def make_test_set(n=60, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 3
    images = rng.uniform(0.0, 0.2, (n, 3, 8, 8)).astype(np.float32)
    for i, cls in enumerate(labels):
        images[i, cls] += 0.5
    return ImageDataset(np.clip(images, 0, 1), labels)


@pytest.fixture()
def attack():
    return BadNetsAttack(target_class=0, image_shape=(3, 8, 8), patch_size=2)


class TestAllToAll:
    def test_perfect_cyclic_backdoor(self, attack):
        metrics = evaluate_all_to_all_metrics(CyclicBackdooredOracle(), make_test_set(), attack)
        assert metrics.acc == pytest.approx(1.0)
        assert metrics.asr == pytest.approx(1.0)
        assert metrics.ra == pytest.approx(0.0)

    def test_all_classes_scored(self, attack):
        # Unlike all-to-one, target-class samples stay in the ASR set.
        ds = make_test_set()
        metrics = evaluate_all_to_all_metrics(CyclicBackdooredOracle(), ds, attack)
        assert 0 <= metrics.asr <= 1

    def test_empty_raises(self, attack):
        empty = ImageDataset(np.zeros((0, 3, 8, 8), dtype=np.float32), np.zeros(0))
        with pytest.raises(ValueError):
            evaluate_all_to_all_metrics(CyclicBackdooredOracle(), empty, attack)
