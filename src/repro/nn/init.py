"""Weight initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so model
construction is fully deterministic given a seed — a requirement for the
five-trial evaluation protocol of the paper.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["kaiming_normal", "xavier_uniform", "zeros", "ones"]


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 2:  # Linear: (out, in)
        fan_out, fan_in = shape
    elif len(shape) == 4:  # Conv: (out, in/groups, kh, kw)
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        fan_in = fan_out = int(np.prod(shape))
    return fan_in, fan_out


def kaiming_normal(shape: Tuple[int, ...], rng: np.random.Generator, gain: float = np.sqrt(2.0)) -> np.ndarray:
    """He-normal initialization, the default for ReLU networks."""
    fan_in, _ = _fan_in_out(shape)
    std = gain / np.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot-uniform initialization, used for the final classifier layers."""
    fan_in, fan_out = _fan_in_out(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
