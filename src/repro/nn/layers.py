"""Neural-network layers built on the autograd engine.

Contains the layer set required by the model zoo: convolutions (standard,
grouped, depthwise), linear, batch normalization, pooling, dropout, and the
activation modules used across PreactResNet / VGG / EfficientNet /
MobileNetV3.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Conv2d",
    "ConvTranspose2d",
    "Linear",
    "BatchNorm2d",
    "MaxPool2d",
    "AdaptiveAvgPool2d",
    "Dropout",
    "Flatten",
    "ReLU",
    "SiLU",
    "HardSwish",
    "HardSigmoid",
]

IntPair = Union[int, Tuple[int, int]]

_DEFAULT_RNG = np.random.default_rng(0)


class Conv2d(Module):
    """2-D convolution layer.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts. ``groups == in_channels == out_channels`` yields a
        depthwise convolution.
    kernel_size, stride, padding:
        Int or (h, w) pairs.
    bias:
        Whether to learn a per-channel additive bias.
    rng:
        Generator for deterministic initialization.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        stride: IntPair = 1,
        padding: IntPair = 0,
        groups: int = 1,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else _DEFAULT_RNG
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        if in_channels % groups:
            raise ValueError(f"in_channels={in_channels} not divisible by groups={groups}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels // groups, kh, kw), rng)
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding, self.groups)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}, groups={self.groups})"
        )


class ConvTranspose2d(Module):
    """2-D transposed convolution layer (decoder upsampling).

    Weight layout ``(in_channels, out_channels, kH, kW)``; output spatial
    size is ``(H - 1) * stride - 2 * padding + kernel``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        stride: IntPair = 1,
        padding: IntPair = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else _DEFAULT_RNG
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(init.kaiming_normal((in_channels, out_channels, kh, kw), rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"ConvTranspose2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride})"
        )


class Linear(Module):
    """Fully connected layer: ``y = x @ W.T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else _DEFAULT_RNG
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class BatchNorm2d(Module):
    """Batch normalization over (N, C, H, W) with running statistics.

    In training mode, normalizes with batch statistics and updates running
    mean/var via exponential moving average; in eval mode, uses the stored
    running statistics (critical for the defense protocol, where pruning and
    scoring run in eval mode on tiny batches).
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", init.zeros((num_features,)))
        self.register_buffer("running_var", init.ones((num_features,)))
        # Set by repro.nn.inference while this layer's scale/shift are folded
        # into the preceding convolution; the layer then acts as identity.
        self._folded_passthrough = False

    def forward(self, x: Tensor) -> Tensor:
        if self._folded_passthrough and not self.training:
            return x
        if self.training:
            out, batch_mean, batch_var = F.batch_norm2d_train(x, self.weight, self.bias, self.eps)
            count = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
            unbiased = batch_var * count / max(count - 1, 1)
            new_mean = (1 - self.momentum) * self.running_mean + self.momentum * batch_mean
            new_var = (1 - self.momentum) * self.running_var + self.momentum * unbiased
            self._update_buffer("running_mean", new_mean.astype(np.float32))
            self._update_buffer("running_var", new_var.astype(np.float32))
            return out
        return F.batch_norm2d_eval(
            x, self.weight, self.bias, self.running_mean, self.running_var, self.eps
        )

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class MaxPool2d(Module):
    def __init__(self, kernel_size: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)

    def __repr__(self) -> str:
        return f"MaxPool2d({self.kernel_size})"


class AdaptiveAvgPool2d(Module):
    def __init__(self, output_size: IntPair = 1) -> None:
        super().__init__()
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return F.adaptive_avg_pool2d(x, self.output_size)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else _DEFAULT_RNG

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(np.float32) / keep
        return x * Tensor(mask)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Flatten(Module):
    def __init__(self, start_dim: int = 1) -> None:
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=self.start_dim)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class SiLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.silu()


class HardSwish(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.hard_swish()


class HardSigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.hard_sigmoid()
