"""Optimizers: SGD (momentum, weight decay) and Adam.

The sharpness-aware minimization (SAM) wrapper used by the FT-SAM baseline
lives in :mod:`repro.nn.sam`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]

_BETA1, _BETA2 = 0.9, 0.999
_EPS = 1e-8


class Optimizer:
    """Base optimizer holding a parameter list and a learning rate."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self, set_to_none: bool = True) -> None:
        for param in self.params:
            param.zero_grad(set_to_none=set_to_none)

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for param in self.params:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                vel = self._velocity.get(id(param))
                if vel is None:
                    vel = np.zeros_like(param.data)
                vel = self.momentum * vel + grad
                self._velocity[id(param)] = vel
                grad = vel
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam with bias correction (betas 0.9/0.999, eps 1e-8, no weight decay)."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3) -> None:
        super().__init__(params, lr)
        self._step_count = 0
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - _BETA1 ** t
        bias2 = 1.0 - _BETA2 ** t
        for param in self.params:
            if param.grad is None:
                continue
            grad = param.grad
            m = self._m.get(id(param))
            v = self._v.get(id(param))
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = _BETA1 * m + (1 - _BETA1) * grad
            v = _BETA2 * v + (1 - _BETA2) * grad * grad
            self._m[id(param)] = m
            self._v[id(param)] = v
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * (m_hat / (np.sqrt(v_hat) + _EPS))
