"""Optimizer tests against hand-computed update steps."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, Parameter, Tensor


def quadratic_step(param):
    """loss = 0.5 * ||p||^2 -> grad = p."""
    param.zero_grad()
    (Tensor(np.array(0.5, dtype=np.float32)) * (param * param).sum()).backward()


class TestSGD:
    def test_vanilla_step(self):
        p = Parameter(np.array([2.0], dtype=np.float32))
        opt = SGD([p], lr=0.1)
        quadratic_step(p)
        opt.step()
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 2.0)

    def test_momentum_accumulates(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = SGD([p], lr=0.1, momentum=0.9)
        # step 1: v = g = 1 -> p = 1 - 0.1
        quadratic_step(p)
        opt.step()
        assert p.data[0] == pytest.approx(0.9)
        # step 2: g = 0.9, v = 0.9*1 + 0.9 = 1.8 -> p = 0.9 - 0.18
        quadratic_step(p)
        opt.step()
        assert p.data[0] == pytest.approx(0.72)

    def test_weight_decay_added_to_grad(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        quadratic_step(p)  # grad = 1, +wd -> 2
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 2.0)

    def test_none_grad_skipped(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        SGD([p], lr=0.1).step()  # no backward ran
        assert p.data[0] == 1.0

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_bad_lr_raises(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.0)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0], dtype=np.float32))
        opt = SGD([p], lr=0.3, momentum=0.5)
        for _ in range(50):
            quadratic_step(p)
            opt.step()
        assert abs(p.data[0]) < 1e-3


class TestAdam:
    def test_first_step_magnitude(self):
        # With bias correction, the first Adam step is ~lr regardless of grad scale.
        p = Parameter(np.array([10.0], dtype=np.float32))
        opt = Adam([p], lr=0.01)
        quadratic_step(p)
        opt.step()
        assert p.data[0] == pytest.approx(10.0 - 0.01, abs=1e-5)

    def test_converges(self):
        p = Parameter(np.array([3.0], dtype=np.float32))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            quadratic_step(p)
            opt.step()
        assert abs(p.data[0]) < 0.01
