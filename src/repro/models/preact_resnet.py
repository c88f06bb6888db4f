"""PreactResNet-18 (He et al., 2016, pre-activation variant).

The paper's primary CIFAR-10/GTSRB architecture.  Structure is faithful —
four stages of two pre-activation basic blocks each, with stride-2
downsampling at stage entries and a 1x1 shortcut projection when shape
changes — while the base width is configurable so the reproduction can run
on CPU (BackdoorBench uses base width 64; our quick profile uses 8-16).
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import AdaptiveAvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear
from ..nn.module import Module, ModuleList
from ..nn.tensor import Tensor

__all__ = ["PreActBlock", "PreActResNet18", "preact_resnet18"]


class PreActBlock(Module):
    """Pre-activation basic block: BN-ReLU-Conv, BN-ReLU-Conv + shortcut."""

    def __init__(self, in_planes: int, planes: int, stride: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.bn1 = BatchNorm2d(in_planes)
        self.conv1 = Conv2d(in_planes, planes, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(planes)
        self.conv2 = Conv2d(planes, planes, 3, stride=1, padding=1, bias=False, rng=rng)
        self.has_shortcut = stride != 1 or in_planes != planes
        if self.has_shortcut:
            self.shortcut = Conv2d(in_planes, planes, 1, stride=stride, bias=False, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(x).relu()
        shortcut = self.shortcut(out) if self.has_shortcut else x
        out = self.conv1(out)
        out = self.conv2(self.bn2(out).relu())
        return out + shortcut


class PreActResNet18(Module):
    """PreactResNet-18 for 32x32 inputs.

    Parameters
    ----------
    num_classes:
        Output classes (10 for SynthCIFAR, configurable for SynthGTSRB).
    base_width:
        Channels of the first stage; stages use (w, 2w, 4w, 8w).
    seed:
        Initialization seed (deterministic construction).
    """

    def __init__(self, num_classes: int = 10, base_width: int = 16, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        widths = [base_width, base_width * 2, base_width * 4, base_width * 8]
        self.conv1 = Conv2d(3, widths[0], 3, stride=1, padding=1, bias=False, rng=rng)

        blocks = []
        in_planes = widths[0]
        for stage, planes in enumerate(widths):
            stride = 1 if stage == 0 else 2
            blocks.append(PreActBlock(in_planes, planes, stride, rng))
            blocks.append(PreActBlock(planes, planes, 1, rng))
            in_planes = planes
        self.blocks = ModuleList(blocks)

        self.bn_final = BatchNorm2d(widths[-1])
        self.pool = AdaptiveAvgPool2d(1)
        self.flatten = Flatten()
        self.fc = Linear(widths[-1], num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        out = self.conv1(x)
        for block in self.blocks:
            out = block(out)
        out = self.bn_final(out).relu()
        out = self.flatten(self.pool(out))
        return self.fc(out)


def preact_resnet18(num_classes: int = 10, base_width: int = 16, seed: int = 0) -> PreActResNet18:
    """Factory matching the registry signature."""
    return PreActResNet18(num_classes=num_classes, base_width=base_width, seed=seed)
