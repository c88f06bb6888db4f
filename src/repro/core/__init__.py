"""The paper's contribution: gradient-based unlearning pruning (Grad-Prune)."""

from .ablation import SCORING_STRATEGIES, prune_by_strategy, rank_filters
from .analysis import pruned_vs_kept_sensitivity, pruning_depth_profile, trigger_sensitivity
from .defense import GradPruneConfig, GradPruneDefense
from .evaluator import FusedEvalReport, FusedEvaluator
from .pruner import GradientPruner, PruningHistory, PruningRound
from .scoring import compute_filter_scores, filter_scores_from_grads, top_filter
from .tuner import FineTuneHistory, FineTuner
from .unlearning import unlearning_loss_backward, unlearning_loss_value

__all__ = [
    "unlearning_loss_value",
    "unlearning_loss_backward",
    "filter_scores_from_grads",
    "compute_filter_scores",
    "top_filter",
    "FusedEvaluator",
    "FusedEvalReport",
    "GradientPruner",
    "PruningHistory",
    "PruningRound",
    "FineTuner",
    "FineTuneHistory",
    "GradPruneConfig",
    "GradPruneDefense",
    "SCORING_STRATEGIES",
    "rank_filters",
    "prune_by_strategy",
    "pruning_depth_profile",
    "trigger_sensitivity",
    "pruned_vs_kept_sensitivity",
]
