"""Model zoo: the four architectures used in the paper's evaluation."""

from .efficientnet import EfficientNetB3, MBConvBlock, SqueezeExcite, efficientnet_b3
from .mobilenet import InvertedResidual, MobileNetV3Large, mobilenet_v3_large
from .preact_resnet import PreActBlock, PreActResNet18, preact_resnet18
from .pruning_utils import (
    FilterRef,
    PruningMask,
    count_filters,
    iter_conv_layers,
    prune_filter,
    restore_filter,
)
from .registry import MODEL_NAMES, build_model
from .vgg import VGG19BN, vgg19_bn

__all__ = [
    "PreActBlock",
    "PreActResNet18",
    "preact_resnet18",
    "VGG19BN",
    "vgg19_bn",
    "EfficientNetB3",
    "MBConvBlock",
    "SqueezeExcite",
    "efficientnet_b3",
    "MobileNetV3Large",
    "InvertedResidual",
    "mobilenet_v3_large",
    "MODEL_NAMES",
    "build_model",
    "FilterRef",
    "PruningMask",
    "count_filters",
    "iter_conv_layers",
    "prune_filter",
    "restore_filter",
]
