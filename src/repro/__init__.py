"""Reproduction of "Unlearning Backdoor Attacks through Gradient-Based Model
Pruning" (Dunnett et al., DSN 2024).

Top-level packages
------------------
``repro.nn``
    From-scratch numpy autograd / CNN substrate (replaces PyTorch).
``repro.models``
    PreactResNet-18, VGG-19+BN, EfficientNet-B3, MobileNetV3-Large (scaled).
``repro.data``
    Synthetic CIFAR-10-like and GTSRB-like datasets, loaders, SPC sampling.
``repro.attacks``
    BadNets, Blended, Low-Frequency, BPP (paper) plus SIG, dynamic-patch and
    LIRA backdoor attacks, and the poisoner.
``repro.defenses``
    Baselines: FT, Fine-Pruning, NAD, Neural Cleanse, CLP, BNP, FT-SAM, ANP
    and federated unlearning.
``repro.core``
    The paper's contribution: gradient-based unlearning pruning (Grad-Prune).
``repro.eval``
    BackdoorBench-style ACC/ASR/RA evaluation harness and experiment grids.
``repro.orchestrator``
    Fault-tolerant experiment DAG: artifact store, run ledger, worker pool.
``repro.serving``
    Defense-serving gateway: model registry, micro-batcher, STRIP filter.
``repro.telemetry``
    Structured event bus, JSONL sinks and the ``repro watch`` dashboard.
``repro.synthesis``
    Trigger inversion (Neural Cleanse) and STRIP detection.
``repro.federated``
    Federated-learning threat model and the sharded federated grid.

Package names resolve on first use: ``import repro`` runs no subpackage,
and ``import repro.x.y`` runs only what ``y`` imports.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {"training": ("TrainConfig", "train_classifier", "evaluate_accuracy", "predict")},
    submodules=(
        "nn", "models", "data", "attacks", "defenses", "core", "eval", "federated",
        "synthesis", "utils", "orchestrator", "serving", "telemetry", "training",
    ),
)
__all__.append("__version__")
