"""ACC / ASR / RA metric tests (paper §V-C definitions)."""

import numpy as np
import pytest

from repro.attacks import BadNetsAttack
from repro.data import ImageDataset
from repro.eval import BackdoorMetrics, evaluate_backdoor_metrics
from repro.nn import Module, Tensor


class OracleModel(Module):
    """Classifies by dominant channel; optionally backdoored to class 0."""

    def __init__(self, backdoored: bool, patch_size: int = 2) -> None:
        super().__init__()
        self.backdoored = backdoored
        self.patch_size = patch_size

    def forward(self, x: Tensor) -> Tensor:
        data = x.data
        n = data.shape[0]
        logits = np.zeros((n, 3), dtype=np.float32)
        channel_means = data.mean(axis=(2, 3))
        logits[np.arange(n), channel_means.argmax(axis=1)] = 1.0
        if self.backdoored:
            p = self.patch_size
            corner = data[:, :, -p:, -p:]
            checker = np.indices((p, p)).sum(axis=0) % 2
            has_trigger = np.isclose(corner, checker[None, None], atol=1e-3).all(axis=(1, 2, 3))
            logits[has_trigger] = 0.0
            logits[has_trigger, 0] = 10.0
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


class TestMetricValues:
    def test_perfect_backdoored_model(self, attack):
        metrics = evaluate_backdoor_metrics(OracleModel(True), make_test_set(), attack)
        assert metrics.acc == pytest.approx(1.0)
        assert metrics.asr == pytest.approx(1.0)
        assert metrics.ra == pytest.approx(0.0)

    def test_clean_model_ignores_trigger(self, attack):
        metrics = evaluate_backdoor_metrics(OracleModel(False), make_test_set(), attack)
        assert metrics.acc == pytest.approx(1.0)
        assert metrics.asr == pytest.approx(0.0)
        assert metrics.ra == pytest.approx(1.0)

    def test_asr_plus_ra_at_most_one(self, backdoored_tiny_model, tiny_test, tiny_attack):
        metrics = evaluate_backdoor_metrics(backdoored_tiny_model, tiny_test, tiny_attack)
        assert metrics.asr + metrics.ra <= 1.0 + 1e-9

    def test_target_class_excluded_from_asr(self, attack):
        # A test set of only target-class samples must raise.
        images = np.zeros((5, 3, 8, 8), dtype=np.float32)
        ds = ImageDataset(images, np.zeros(5))
        with pytest.raises(ValueError, match="target-class"):
            evaluate_backdoor_metrics(OracleModel(True), ds, attack)

    def test_empty_test_set_raises(self, attack):
        ds = ImageDataset(np.zeros((0, 3, 8, 8), dtype=np.float32), np.zeros(0))
        with pytest.raises(ValueError, match="empty"):
            evaluate_backdoor_metrics(OracleModel(True), ds, attack)


class TestBackdoorMetricsDataclass:
    def test_str(self):
        text = str(BackdoorMetrics(0.9, 0.1, 0.8))
        assert "ACC=0.9" in text
