"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

Provides reverse-mode autodiff (:class:`Tensor`), the layers the model zoo
uses, cross-entropy, SGD/Adam/SAM, state-dict checkpoints and the folded
inference view.  This replaces PyTorch in the reproduction; see DESIGN.md §2.
"""

from .tensor import Tensor, no_grad, is_grad_enabled
from .module import Module, ModuleList, Parameter, Sequential
from .layers import (
    AdaptiveAvgPool2d,
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Dropout,
    Flatten,
    HardSigmoid,
    HardSwish,
    Linear,
    MaxPool2d,
    ReLU,
    SiLU,
)
from .losses import cross_entropy, nll_loss
from .optim import SGD, Adam, Optimizer
from .sam import SAM
from .serialization import CheckpointError, load_state, save_state
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
    "AdaptiveAvgPool2d",
    "Dropout",
    "Flatten",
    "ReLU",
    "SiLU",
    "HardSwish",
    "HardSigmoid",
    "cross_entropy",
    "nll_loss",
    "Optimizer",
    "SGD",
    "Adam",
    "SAM",
    "CheckpointError",
    "save_state",
    "load_state",
    "functional",
    "engine",
    "Workspace",
    "workspace",
    "CompiledInference",
    "compile_for_inference",
    "invalidate_compiled",
]
