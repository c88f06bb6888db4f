"""Data substrate: synthetic datasets, the minibatch loader and SPC splits."""

from .dataset import DataLoader, ImageDataset
from .splits import defender_split, spc_subset
from .synthetic import SynthSpec, make_synth_cifar, make_synth_gtsrb

__all__ = [
    "ImageDataset",
    "DataLoader",
    "make_synth_cifar",
    "make_synth_gtsrb",
    "SynthSpec",
    "spc_subset",
    "defender_split",
]
