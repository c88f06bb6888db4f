"""Model zoo: the four architectures used in the paper's evaluation."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "preact_resnet": ("PreActBlock", "PreActResNet18", "preact_resnet18"),
    "vgg": ("VGG19BN", "vgg19_bn"),
    "efficientnet": ("EfficientNetB3", "MBConvBlock", "SqueezeExcite", "efficientnet_b3"),
    "mobilenet": ("MobileNetV3Large", "InvertedResidual", "mobilenet_v3_large"),
    "registry": ("MODEL_NAMES", "build_model"),
    "pruning_utils": (
        "FilterRef", "PruningMask", "count_filters", "iter_conv_layers", "prune_filter",
        "restore_filter",
    ),
})
