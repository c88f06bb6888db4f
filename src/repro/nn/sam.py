"""Sharpness-aware minimization (SAM), the optimizer behind FT-SAM.

SAM (Foret et al., 2021) seeks parameters in flat loss regions by a two-step
update: (1) ascend to the adversarial point ``w + ρ·g/||g||`` within an
L2 ball, (2) compute the gradient there and apply the base optimizer update
at the original weights.  Zhu et al. (2023) showed fine-tuning a backdoored
model with SAM (FT-SAM) shrinks backdoor-related neuron weights far more
effectively than vanilla fine-tuning; we reproduce that baseline with this
wrapper.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from .module import Parameter
from .optim import Optimizer

__all__ = ["SAM"]


class SAM:
    """Wrap a base optimizer with sharpness-aware two-step updates.

    Usage::

        base = SGD(model.parameters(), lr=0.01, momentum=0.9)
        sam = SAM(model.parameters(), base, rho=0.05)

        loss = compute_loss()          # first forward/backward
        loss.backward()
        sam.first_step()               # perturb to the ascent point
        loss2 = compute_loss()         # second forward/backward at w + e(w)
        loss2.backward()
        sam.second_step()              # restore w, apply base update
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        base_optimizer: Optimizer,
        rho: float = 0.05,
    ) -> None:
        if rho < 0:
            raise ValueError(f"rho must be non-negative, got {rho}")
        self.params = list(params)
        self.base_optimizer = base_optimizer
        self.rho = rho
        self._perturbation: Dict[int, np.ndarray] = {}

    def _grad_norm(self) -> float:
        total = 0.0
        for param in self.params:
            if param.grad is None:
                continue
            total += float((param.grad.astype(np.float64) ** 2).sum())
        return float(np.sqrt(total))

    def first_step(self) -> None:
        """Move parameters to the ascent point within the ρ-ball, then zero the grads."""
        norm = self._grad_norm()
        scale = self.rho / (norm + 1e-12)
        self._perturbation.clear()
        for param in self.params:
            if param.grad is None:
                continue
            step = param.grad * scale
            self._perturbation[id(param)] = step
            param.data += step
        self._zero_grads()

    def second_step(self) -> None:
        """Restore original weights, apply the base optimizer update, then zero the grads."""
        for param in self.params:
            step = self._perturbation.get(id(param))
            if step is not None:
                param.data -= step
        self._perturbation.clear()
        self.base_optimizer.step()
        self._zero_grads()

    def _zero_grads(self) -> None:
        # In place, so the next backward reuses the same gradient buffers.
        for param in self.params:
            param.zero_grad(set_to_none=False)
