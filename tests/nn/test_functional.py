"""Forward-value tests for functional ops (gradients in test_gradcheck)."""

import numpy as np
import pytest
from scipy.signal import correlate2d

from repro.nn import Tensor
from repro.nn import functional as F
from tests.nn.reference import col2im, im2col


class TestIm2Col:
    def test_round_trip_identity_on_ones_count(self):
        # col2im(im2col(x)) counts each pixel once per covering window.
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        cols = im2col(x, (2, 2), (1, 1), (0, 0))
        folded = col2im(cols, x.shape, (2, 2), (1, 1), (0, 0))
        # Corner pixels covered once, edges twice, center four times.
        assert folded[0, 0, 0, 0] == 1.0
        assert folded[0, 0, 0, 1] == 2.0
        assert folded[0, 0, 1, 1] == 4.0

    def test_shapes(self):
        x = np.zeros((2, 3, 8, 8), dtype=np.float32)
        cols = im2col(x, (3, 3), (2, 2), (1, 1))
        assert cols.shape == (2, 27, 16)


class TestConvForward:
    def test_matches_scipy_correlate(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 1, 8, 8)).astype(np.float32)
        w = rng.normal(size=(1, 1, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), None, stride=1, padding=0)
        expected = correlate2d(x[0, 0], w[0, 0], mode="valid")
        assert np.allclose(out.data[0, 0], expected, atol=1e-4)

    def test_multi_channel_sums_inputs(self):
        x = np.ones((1, 3, 4, 4), dtype=np.float32)
        w = np.ones((1, 3, 1, 1), dtype=np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), None)
        assert np.allclose(out.data, 3.0)

    def test_bias_added_per_channel(self):
        x = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w = np.zeros((2, 1, 1, 1), dtype=np.float32)
        b = np.array([1.0, -2.0], dtype=np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b))
        assert np.allclose(out.data[0, 0], 1.0)
        assert np.allclose(out.data[0, 1], -2.0)

    def test_stride_and_padding_shape(self):
        x = Tensor(np.zeros((1, 1, 7, 7), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        assert F.conv2d(x, w, None, stride=2, padding=1).shape == (1, 1, 4, 4)

    def test_depthwise_independence(self):
        # With identity-like depthwise weights, each channel passes through alone.
        x = np.stack([np.full((4, 4), 1.0), np.full((4, 4), 2.0)])[None].astype(np.float32)
        w = np.ones((2, 1, 1, 1), dtype=np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), None, groups=2)
        assert np.allclose(out.data[0, 0], 1.0)
        assert np.allclose(out.data[0, 1], 2.0)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            F.conv2d(
                Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 2, 3, 3))), None
            )

    def test_groups_not_dividing_cout_raises(self):
        with pytest.raises(ValueError, match="divisible"):
            F.conv2d(
                Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros((3, 2, 3, 3))), None, groups=2
            )


class TestPooling:
    def test_max_pool_padding_uses_neg_inf(self):
        # Padding must never win the max.
        x = Tensor(np.full((1, 1, 2, 2), -5.0, dtype=np.float32))
        out = F.max_pool2d(x, 2, 2, padding=1)
        assert out.data.max() == -5.0

    def test_avg_pool_includes_zero_padding(self):
        x = Tensor(np.full((1, 1, 2, 2), 4.0, dtype=np.float32))
        out = F.avg_pool2d(x, 2, 2, padding=1)
        # Corner windows: one real pixel + three zeros.
        assert out.data[0, 0, 0, 0] == pytest.approx(1.0)

    def test_adaptive_divisible(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.adaptive_avg_pool2d(x, 2)
        assert out.shape == (1, 1, 2, 2)
        assert out.data[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)


class TestBatchNormForward:
    def test_train_uses_batch_stats(self):
        x = Tensor(np.random.default_rng(0).normal(5.0, 3.0, (16, 2, 4, 4)).astype(np.float32))
        w = Tensor(np.ones(2, dtype=np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32))
        out, mean, var = F.batch_norm2d_train(x, w, b, 1e-5)
        assert abs(float(out.data.mean())) < 1e-5
        assert mean.shape == (2,)
        assert var.shape == (2,)

    def test_eval_affine(self):
        x = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32))
        w = Tensor(np.array([2.0], dtype=np.float32))
        b = Tensor(np.array([1.0], dtype=np.float32))
        out = F.batch_norm2d_eval(x, w, b, np.array([0.0]), np.array([1.0]), 0.0)
        assert out.data[0, 0, 0, 0] == pytest.approx(1.0)
