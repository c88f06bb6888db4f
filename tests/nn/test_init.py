"""Weight-initializer tests."""

import numpy as np
import pytest

from repro.nn import init


class TestKaiming:
    def test_normal_std_matches_fan_in(self):
        rng = np.random.default_rng(0)
        shape = (256, 64, 3, 3)  # fan_in = 64*9 = 576
        weights = init.kaiming_normal(shape, rng)
        expected_std = np.sqrt(2.0) / np.sqrt(576)
        assert weights.std() == pytest.approx(expected_std, rel=0.05)
        assert weights.dtype == np.float32

    def test_linear_fan_in(self):
        rng = np.random.default_rng(2)
        weights = init.kaiming_normal((128, 64), rng)  # (out, in): fan_in=64
        expected_std = np.sqrt(2.0) / np.sqrt(64)
        assert weights.std() == pytest.approx(expected_std, rel=0.1)

    def test_deterministic_per_rng(self):
        a = init.kaiming_normal((8, 4, 3, 3), np.random.default_rng(7))
        b = init.kaiming_normal((8, 4, 3, 3), np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestXavier:
    def test_bound_uses_both_fans(self):
        rng = np.random.default_rng(3)
        weights = init.xavier_uniform((100, 50), rng)  # fan_in 50, fan_out 100
        bound = np.sqrt(6.0 / 150)
        assert np.abs(weights).max() <= bound + 1e-7
        assert weights.std() > 0


class TestConstants:
    def test_zeros_and_ones(self):
        assert np.all(init.zeros((3, 3)) == 0.0)
        assert np.all(init.ones((2,)) == 1.0)
        assert init.zeros((1,)).dtype == np.float32
