"""Evaluation harness: ACC/ASR/RA metrics, SPC budgets, experiment grids, reports."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "metrics": ("BackdoorMetrics", "evaluate_backdoor_metrics", "evaluate_all_to_all_metrics"),
    "budget": ("DefenderBudget", "budget_trials"),
    "claims": ("Claim", "ClaimVerdict", "TABLE_CLAIMS", "check_table_claims", "format_verdicts"),
    "runner": (
        "ScenarioConfig", "ScenarioData", "ScenarioCache", "TrialCache", "BenchmarkRunner",
        "TrialResult", "AggregateResult",
    ),
    "reporting": ("format_table", "scatter_series", "render_scatter_text"),
    "plotting": ("scatter_svg", "figure_svg", "line_svg", "pruning_history_svg"),
    "stats": ("BootstrapResult", "paired_bootstrap", "rank_defenses", "win_tie_loss"),
    "experiments": (
        "EXPERIMENT_IDS", "FEDERATED_EXPERIMENT_IDS", "ExperimentProfile", "ExperimentResult",
        "ExperimentSpec", "experiment_spec", "get_profile", "scenario_configs",
    ),
})
