"""Tests for the SAM optimizer wrapper (used by the FT-SAM baseline)."""

import numpy as np
import pytest

from repro.nn import SAM, SGD, Parameter, Tensor


def loss_backward(param):
    param.zero_grad()
    ((param * param) * 0.5).sum().backward()


class TestSAMSteps:
    def test_first_step_moves_up_gradient(self):
        p = Parameter(np.array([3.0, 4.0], dtype=np.float32))
        sam = SAM([p], SGD([p], lr=0.1), rho=0.5)
        loss_backward(p)  # grad = p = (3, 4), norm 5
        sam.first_step()
        # perturbation = rho * g / ||g|| = 0.5 * (0.6, 0.8)
        assert p.data[0] == pytest.approx(3.3)
        assert p.data[1] == pytest.approx(4.4)

    def test_second_step_restores_then_updates(self):
        p = Parameter(np.array([3.0, 4.0], dtype=np.float32))
        base = SGD([p], lr=0.1)
        sam = SAM([p], base, rho=0.5)
        loss_backward(p)
        sam.first_step()
        loss_backward(p)  # grad at perturbed point = (3.3, 4.4)
        sam.second_step()
        # restored to (3,4) then SGD step with perturbed grad
        assert p.data[0] == pytest.approx(3.0 - 0.1 * 3.3)
        assert p.data[1] == pytest.approx(4.0 - 0.1 * 4.4)

    def test_first_step_zeroes_grads_by_default(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        sam = SAM([p], SGD([p], lr=0.1), rho=0.1)
        loss_backward(p)
        sam.first_step()
        # Zeroed in place so the second backward reuses the hot buffer.
        assert p.grad is not None and not p.grad.any()

    def test_zero_rho_equals_base_sgd(self):
        p1 = Parameter(np.array([2.0], dtype=np.float32))
        p2 = Parameter(np.array([2.0], dtype=np.float32))
        sam = SAM([p1], SGD([p1], lr=0.1), rho=0.0)
        sgd = SGD([p2], lr=0.1)
        loss_backward(p1)
        sam.first_step()
        loss_backward(p1)
        sam.second_step()
        loss_backward(p2)
        sgd.step()
        assert p1.data[0] == pytest.approx(p2.data[0])

    def test_negative_rho_raises(self):
        p = Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            SAM([p], SGD([p], lr=0.1), rho=-0.1)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0], dtype=np.float32))
        sam = SAM([p], SGD([p], lr=0.2), rho=0.05)
        for _ in range(60):
            loss_backward(p)
            sam.first_step()
            loss_backward(p)
            sam.second_step()
        assert abs(p.data[0]) < 0.01
