"""Grad-Prune: the paper's end-to-end defense (§IV).

Composes the two stages:

1. :class:`~repro.core.pruner.GradientPruner` — iterative unlearning-gradient
   filter pruning with the alpha / ``P_p`` stopping rule;
2. :class:`~repro.core.tuner.FineTuner` — early-stopped fine-tuning on all
   clean + relabeled backdoor data (``P_t`` patience), with pruned filters
   masked throughout.

The defender's knobs are exactly the paper's: an acceptable accuracy drop
(alpha), and the two patience values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..defenses.base import Defense, DefenderData, DefenseReport
from ..models.pruning_utils import PruningMask
from ..nn.module import Module
from ..telemetry import emit
from .pruner import GradientPruner, PruningHistory
from .tuner import FineTuneHistory, FineTuner

__all__ = ["GradPruneConfig", "GradPruneDefense"]


@dataclass
class GradPruneConfig:
    """User-facing configuration (paper notation in parentheses)."""

    alpha: Optional[float] = None  # absolute accuracy floor (alpha); None = derive
    max_acc_drop: float = 0.10  # used to derive alpha when alpha is None
    prune_patience: int = 10  # P_p
    tune_patience: int = 5  # P_t
    max_rounds: Optional[int] = None
    tune_lr: float = 0.01
    tune_max_epochs: int = 50
    batch_size: int = 128
    tune_batch_size: int = 32
    seed: int = 0
    skip_finetune: bool = False  # ablation hook (A2)


class GradPruneDefense(Defense):
    """Gradient-based unlearning pruning + fine-tuning."""

    name = "grad_prune"

    def __init__(self, config: Optional[GradPruneConfig] = None) -> None:
        self.config = config or GradPruneConfig()

    def apply(self, model: Module, data: DefenderData) -> DefenseReport:
        """Run Grad-Prune on ``model`` in place.

        Requires ``data.attack`` (assumption III-C: the defender synthesizes
        backdoor variants of its clean samples).
        """
        if data.attack is None:
            raise ValueError("GradPruneDefense requires an attack handle for synthesis")
        config = self.config
        backdoor_train = data.backdoor_train()
        backdoor_val = data.backdoor_val()

        emit(
            "defense_started", "core.defense",
            defense=self.name, skip_finetune=config.skip_finetune, seed=config.seed,
        )
        mask = PruningMask(model)
        pruner = GradientPruner(
            alpha=config.alpha,
            max_acc_drop=config.max_acc_drop,
            patience=config.prune_patience,
            max_rounds=config.max_rounds,
            batch_size=config.batch_size,
        )
        prune_history: PruningHistory = pruner.prune(
            model, backdoor_train, data.clean_val, backdoor_val, mask=mask
        )

        tune_history: Optional[FineTuneHistory] = None
        if not config.skip_finetune:
            tuner = FineTuner(
                lr=config.tune_lr,
                patience=config.tune_patience,
                max_epochs=config.tune_max_epochs,
                batch_size=config.tune_batch_size,
                seed=config.seed,
            )
            tune_history = tuner.tune(
                model,
                clean_train=data.clean_train,
                clean_val=data.clean_val,
                backdoor_train=backdoor_train,
                backdoor_val=backdoor_val,
                mask=mask,
            )

        emit(
            "defense_finished", "core.defense",
            defense=self.name, num_pruned=prune_history.num_pruned,
            sparsity=mask.sparsity(), prune_stop_reason=prune_history.stop_reason,
            tune_stop_reason=tune_history.stop_reason if tune_history else "skipped",
        )
        return DefenseReport(
            name=self.name,
            details={
                "pruned_filters": [str(r) for r in mask.pruned_refs],
                "num_pruned": prune_history.num_pruned,
                "sparsity": mask.sparsity(),
                "prune_stop_reason": prune_history.stop_reason,
                "prune_history": prune_history,
                "tune_history": tune_history,
                "tune_stop_reason": tune_history.stop_reason if tune_history else "skipped",
            },
        )
