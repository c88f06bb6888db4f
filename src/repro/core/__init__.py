"""The paper's contribution: gradient-based unlearning pruning (Grad-Prune)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "unlearning": ("unlearning_loss_value", "unlearning_loss_backward"),
    "scoring": ("filter_scores_from_grads", "compute_filter_scores", "top_filter"),
    "evaluator": ("FusedEvaluator", "FusedEvalReport"),
    "pruner": ("GradientPruner", "PruningHistory", "PruningRound"),
    "tuner": ("FineTuner", "FineTuneHistory"),
    "defense": ("GradPruneConfig", "GradPruneDefense"),
    "ablation": ("SCORING_STRATEGIES", "rank_filters", "prune_by_strategy"),
    "analysis": ("pruning_depth_profile", "trigger_sensitivity", "pruned_vs_kept_sensitivity"),
})
