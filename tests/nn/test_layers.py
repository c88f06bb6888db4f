"""Layer behavior tests: shapes, modes, parameter wiring."""

import numpy as np
import pytest

from repro.nn import (
    AdaptiveAvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Tensor,
)

@pytest.fixture()
def batch(node_rng):
    """Standard-normal float32 inputs of a given shape, from the test's own generator."""
    return lambda shape: Tensor(node_rng.normal(size=shape).astype(np.float32))


class TestConv2d:
    def test_output_shape(self, batch):
        conv = Conv2d(3, 8, 3, stride=2, padding=1)
        assert conv(batch((2, 3, 8, 8))).shape == (2, 8, 4, 4)

    def test_no_bias(self):
        conv = Conv2d(3, 4, 3, bias=False)
        assert conv.bias is None
        assert len(conv.parameters()) == 1

    def test_depthwise_groups(self, batch):
        conv = Conv2d(4, 4, 3, padding=1, groups=4)
        assert conv.weight.shape == (4, 1, 3, 3)
        assert conv(batch((1, 4, 5, 5))).shape == (1, 4, 5, 5)

    def test_channel_mismatch_raises(self, batch):
        conv = Conv2d(3, 4, 3)
        with pytest.raises(ValueError, match="channel"):
            conv(batch((1, 5, 8, 8)))

    def test_groups_not_dividing_raises(self):
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3, groups=2)

    def test_deterministic_init_with_rng(self):
        a = Conv2d(3, 4, 3, rng=np.random.default_rng(5))
        b = Conv2d(3, 4, 3, rng=np.random.default_rng(5))
        assert np.array_equal(a.weight.data, b.weight.data)

    def test_rect_kernel(self, batch):
        conv = Conv2d(1, 1, (1, 3), padding=(0, 1))
        assert conv(batch((1, 1, 4, 4))).shape == (1, 1, 4, 4)


class TestLinear:
    def test_shape_and_bias(self, batch):
        linear = Linear(5, 3)
        out = linear(batch((4, 5)))
        assert out.shape == (4, 3)

    def test_known_values(self):
        linear = Linear(2, 1)
        linear.weight.data[...] = np.array([[2.0, 3.0]], dtype=np.float32)
        linear.bias.data[...] = np.array([1.0], dtype=np.float32)
        out = linear(Tensor(np.array([[1.0, 1.0]], dtype=np.float32)))
        assert out.data[0, 0] == pytest.approx(6.0)


class TestBatchNorm2d:
    def test_train_normalizes_batch(self, batch):
        bn = BatchNorm2d(3)
        bn.train()
        x = batch((8, 3, 4, 4))
        out = bn(x)
        assert abs(float(out.data.mean())) < 1e-5
        assert float(out.data.std()) == pytest.approx(1.0, abs=0.01)

    def test_running_stats_update(self):
        bn = BatchNorm2d(2)
        bn.train()
        x = Tensor(np.full((4, 2, 3, 3), 5.0, dtype=np.float32))
        bn(x)
        assert np.allclose(bn.running_mean, 0.5, atol=1e-6)  # 0.9*0 + 0.1*5

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(2)
        bn._update_buffer("running_mean", np.array([1.0, 2.0], dtype=np.float32))
        bn._update_buffer("running_var", np.array([4.0, 9.0], dtype=np.float32))
        bn.eval()
        x = Tensor(np.ones((1, 2, 1, 1), dtype=np.float32))
        out = bn(x)
        assert out.data[0, 0, 0, 0] == pytest.approx((1 - 1) / 2, abs=1e-4)
        assert out.data[0, 1, 0, 0] == pytest.approx((1 - 2) / 3, abs=1e-4)

    def test_eval_no_stat_update(self, batch):
        bn = BatchNorm2d(2)
        bn.eval()
        before = bn.running_mean.copy()
        bn(batch((4, 2, 3, 3)))
        assert np.array_equal(bn.running_mean, before)


class TestPooling:
    def test_max_pool_shape(self, batch):
        assert MaxPool2d(2)(batch((1, 2, 8, 8))).shape == (1, 2, 4, 4)

    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = MaxPool2d(2)(x)
        assert out.data.reshape(-1).tolist() == [5.0, 7.0, 13.0, 15.0]

    def test_adaptive_avg_pool_global(self):
        x = Tensor(np.arange(32, dtype=np.float32).reshape(1, 2, 4, 4))
        out = AdaptiveAvgPool2d(1)(x)
        assert out.shape == (1, 2, 1, 1)
        assert out.data[0, 0, 0, 0] == pytest.approx(7.5)

    def test_adaptive_avg_pool_indivisible_raises(self, batch):
        with pytest.raises(ValueError):
            AdaptiveAvgPool2d(3)(batch((1, 1, 8, 8)))


class TestDropout:
    def test_eval_is_identity(self, batch):
        drop = Dropout(0.5)
        drop.eval()
        x = batch((4, 10))
        assert np.array_equal(drop(x).data, x.data)

    def test_train_zeroes_and_scales(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        drop.train()
        x = Tensor(np.ones((100, 100), dtype=np.float32))
        out = drop(x).data
        zero_fraction = (out == 0).mean()
        assert 0.4 < zero_fraction < 0.6
        kept = out[out != 0]
        assert np.allclose(kept, 2.0)  # inverted scaling

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestMisc:
    def test_flatten(self, batch):
        assert Flatten()(batch((2, 3, 4, 4))).shape == (2, 48)

    def test_activation_modules(self):
        x = Tensor(np.array([-1.0, 1.0], dtype=np.float32))
        assert ReLU()(x).data.tolist() == [0.0, 1.0]

    def test_sequential_of_everything(self, batch):
        model = Sequential(
            Conv2d(3, 4, 3, padding=1), BatchNorm2d(4), ReLU(), MaxPool2d(2),
            Flatten(), Linear(4 * 4 * 4, 2),
        )
        assert model(batch((2, 3, 8, 8))).shape == (2, 2)
