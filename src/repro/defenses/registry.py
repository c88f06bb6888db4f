"""Defense registry: build any defense, Grad-Prune included, by name.

Each entry names the ``"module:callable"`` that builds it, so looking up
the registry imports no defense; :func:`build_defense` imports only the one
it builds.
"""

from __future__ import annotations

from typing import Dict

from .._lazy import resolve
from .base import Defense

__all__ = ["DEFENSE_REGISTRY", "build_defense"]


def _grad_prune_factory(**kwargs) -> Defense:
    from ..core.defense import GradPruneConfig, GradPruneDefense

    return GradPruneDefense(GradPruneConfig(**kwargs))


DEFENSE_REGISTRY: Dict[str, str] = {
    "ft": "repro.defenses.finetune:FineTuningDefense",
    "fp": "repro.defenses.fine_pruning:FinePruningDefense",
    "nad": "repro.defenses.nad:NADDefense",
    "nc": "repro.defenses.neural_cleanse:NeuralCleanseDefense",
    "clp": "repro.defenses.clp:CLPDefense",
    "bnp": "repro.defenses.bnp:BNPDefense",
    "ft_sam": "repro.defenses.ft_sam:FTSAMDefense",
    "anp": "repro.defenses.anp:ANPDefense",
    "grad_prune": "repro.defenses.registry:_grad_prune_factory",
    "fed_unlearn": "repro.defenses.fed_unlearn:FederatedUnlearningDefense",
}


def build_defense(name: str, **kwargs) -> Defense:
    """Instantiate a defense by registry name.

    Keyword arguments are forwarded to the defense constructor (for
    ``grad_prune`` they populate :class:`repro.core.GradPruneConfig`).
    """
    if name not in DEFENSE_REGISTRY:
        raise KeyError(f"unknown defense {name!r}; choose from {sorted(DEFENSE_REGISTRY)}")
    return resolve(DEFENSE_REGISTRY[name])(**kwargs)
