"""Loss-function value tests (gradients are covered in test_gradcheck)."""

import numpy as np
import pytest

from repro.nn import Tensor, cross_entropy, nll_loss


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4), dtype=np.float32))
        loss = cross_entropy(logits, np.array([0, 3]))
        assert loss.item() == pytest.approx(np.log(4), rel=1e-5)

    def test_confident_correct_is_small(self):
        logits = Tensor(np.array([[10.0, 0.0, 0.0]], dtype=np.float32))
        assert cross_entropy(logits, np.array([0])).item() < 1e-3

    def test_confident_wrong_is_large(self):
        logits = Tensor(np.array([[10.0, 0.0, 0.0]], dtype=np.float32))
        assert cross_entropy(logits, np.array([1])).item() > 5.0

    def test_sum_vs_mean(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32))
        labels = np.array([0, 1, 2, 0])
        total = cross_entropy(logits, labels, reduction="sum").item()
        mean = cross_entropy(logits, labels, reduction="mean").item()
        assert total == pytest.approx(mean * 4, rel=1e-5)

    def test_none_reduction_shape(self):
        logits = Tensor(np.zeros((5, 3), dtype=np.float32))
        loss = cross_entropy(logits, np.zeros(5, dtype=int), reduction="none")
        assert loss.shape == (5,)

    def test_tensor_labels_accepted(self):
        logits = Tensor(np.zeros((2, 3), dtype=np.float32))
        labels = Tensor(np.array([0.0, 1.0]))
        assert cross_entropy(logits, labels).item() == pytest.approx(np.log(3), rel=1e-5)

    def test_unknown_reduction_raises(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((1, 2))), np.array([0]), reduction="bogus")


class TestOtherLosses:
    def test_nll_picks_label_entries(self):
        log_probs = Tensor(np.log(np.array([[0.7, 0.3]], dtype=np.float32)))
        assert nll_loss(log_probs, np.array([0])).item() == pytest.approx(-np.log(0.7), rel=1e-5)
