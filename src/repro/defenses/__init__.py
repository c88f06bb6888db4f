"""Baseline backdoor mitigation defenses (paper §V-B): FT, Fine-Pruning,
NAD, Neural Cleanse, CLP, BNP, FT-SAM, ANP and federated unlearning.

The paper's own method lives in :mod:`repro.core`; it is registered here too
so the evaluation harness can address every approach uniformly.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("Defense", "DefenderData", "DefenseReport"),
    "finetune": ("FineTuningDefense",),
    "fine_pruning": ("FinePruningDefense", "mean_channel_activations"),
    "nad": ("NADDefense", "attention_map"),
    "neural_cleanse": ("NeuralCleanseDefense",),
    "clp": ("CLPDefense", "channel_lipschitz_bounds"),
    "bnp": ("BNPDefense", "bn_statistic_divergence"),
    "ft_sam": ("FTSAMDefense",),
    "anp": ("ANPDefense", "MaskedConv2d"),
    "fed_unlearn": ("FederatedUnlearningDefense",),
    "registry": ("DEFENSE_REGISTRY", "build_defense"),
})
