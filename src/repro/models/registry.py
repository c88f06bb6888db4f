"""Model registry: build any paper architecture by name.

Two size profiles are provided.  ``"quick"`` (default) is sized for CPU
training in seconds-to-minutes; ``"paper"`` uses the published widths.
Each factory is named by ``"module:function"`` and imported on first build,
so a process builds no architecture module it does not use.
"""

from __future__ import annotations

from typing import Any, Dict

from .._lazy import resolve
from ..nn.module import Module

__all__ = ["MODEL_NAMES", "build_model"]

MODEL_NAMES = ("preact_resnet18", "vgg19_bn", "efficientnet_b3", "mobilenet_v3_large")

_QUICK_KWARGS: Dict[str, Dict[str, Any]] = {
    "preact_resnet18": {"base_width": 8},
    "vgg19_bn": {"width_mult": 0.125},
    "efficientnet_b3": {"width_mult": 0.2, "depth_mult": 0.15},
    "mobilenet_v3_large": {"width_mult": 0.25, "max_blocks": 6},
}

_PAPER_KWARGS: Dict[str, Dict[str, Any]] = {
    "preact_resnet18": {"base_width": 64},
    "vgg19_bn": {"width_mult": 1.0},
    "efficientnet_b3": {"width_mult": 1.0, "depth_mult": 1.0},
    "mobilenet_v3_large": {"width_mult": 1.0, "max_blocks": 15},
}

_FACTORIES: Dict[str, str] = {
    "preact_resnet18": "repro.models.preact_resnet:preact_resnet18",
    "vgg19_bn": "repro.models.vgg:vgg19_bn",
    "efficientnet_b3": "repro.models.efficientnet:efficientnet_b3",
    "mobilenet_v3_large": "repro.models.mobilenet:mobilenet_v3_large",
}


def build_model(
    name: str,
    num_classes: int = 10,
    profile: str = "quick",
    seed: int = 0,
    **overrides: Any,
) -> Module:
    """Instantiate a model by registry name.

    Parameters
    ----------
    name:
        One of :data:`MODEL_NAMES`.
    num_classes:
        Output classes.
    profile:
        ``"quick"`` (CPU-sized) or ``"paper"`` (published widths).
    seed:
        Initialization seed.
    overrides:
        Extra keyword arguments forwarded to the factory (take precedence
        over the profile defaults).
    """
    if name not in _FACTORIES:
        raise KeyError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
    if profile == "quick":
        kwargs = dict(_QUICK_KWARGS[name])
    elif profile == "paper":
        kwargs = dict(_PAPER_KWARGS[name])
    else:
        raise ValueError(f"unknown profile {profile!r}; use 'quick' or 'paper'")
    kwargs.update(overrides)
    return resolve(_FACTORIES[name])(num_classes=num_classes, seed=seed, **kwargs)
