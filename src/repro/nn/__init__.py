"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

Provides reverse-mode autodiff (:class:`Tensor`), modules and layers,
losses, optimizers (including SAM), schedulers, and serialization.  This
replaces PyTorch in the reproduction; see DESIGN.md §2.
"""

from .tensor import Tensor, no_grad, is_grad_enabled
from .module import Module, ModuleList, Parameter, Sequential
from .layers import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Dropout,
    Flatten,
    HardSigmoid,
    HardSwish,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    SiLU,
    Tanh,
)
from .losses import cross_entropy, kl_div_loss, mse_loss, nll_loss, soft_cross_entropy
from .optim import SGD, Adam, AdamW, Optimizer
from .sam import SAM
from .scheduler import CosineAnnealingLR, MultiStepLR, StepLR
from .serialization import CheckpointError, load_module, load_state, save_module, save_state
from . import functional
from . import engine
from .functional import Workspace, workspace
from .inference import CompiledInference, compile_for_inference, invalidate_compiled

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "Conv2d",
    "ConvTranspose2d",
    "Linear",
    "BatchNorm2d",
    "MaxPool2d",
    "AvgPool2d",
    "AdaptiveAvgPool2d",
    "Dropout",
    "Flatten",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "SiLU",
    "HardSwish",
    "HardSigmoid",
    "Identity",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "kl_div_loss",
    "soft_cross_entropy",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "SAM",
    "StepLR",
    "MultiStepLR",
    "CosineAnnealingLR",
    "CheckpointError",
    "save_state",
    "load_state",
    "save_module",
    "load_module",
    "functional",
    "engine",
    "Workspace",
    "workspace",
    "CompiledInference",
    "compile_for_inference",
    "invalidate_compiled",
]
