"""Evaluation harness: ACC/ASR/RA metrics, SPC budgets, experiment grids, reports."""

from .budget import DefenderBudget, budget_trials
from .claims import Claim, ClaimVerdict, TABLE_CLAIMS, check_table_claims, format_verdicts
from .experiments import (
    EXPERIMENT_IDS,
    FEDERATED_EXPERIMENT_IDS,
    ExperimentProfile,
    ExperimentResult,
    ExperimentSpec,
    experiment_spec,
    get_profile,
    scenario_configs,
)
from .metrics import (
    BackdoorMetrics,
    confusion_matrix,
    evaluate_all_to_all_metrics,
    evaluate_backdoor_metrics,
    per_class_asr,
)
from .plotting import figure_svg, line_svg, pruning_history_svg, scatter_svg
from .reporting import format_table, render_scatter_text, scatter_series
from .stats import BootstrapResult, paired_bootstrap, rank_defenses, win_tie_loss
from .runner import (
    AggregateResult,
    BenchmarkRunner,
    ScenarioCache,
    ScenarioConfig,
    ScenarioData,
    TrialCache,
    TrialResult,
)

__all__ = [
    "BackdoorMetrics",
    "evaluate_backdoor_metrics",
    "evaluate_all_to_all_metrics",
    "per_class_asr",
    "confusion_matrix",
    "DefenderBudget",
    "budget_trials",
    "Claim",
    "ClaimVerdict",
    "TABLE_CLAIMS",
    "check_table_claims",
    "format_verdicts",
    "ScenarioConfig",
    "ScenarioData",
    "ScenarioCache",
    "TrialCache",
    "BenchmarkRunner",
    "TrialResult",
    "AggregateResult",
    "format_table",
    "scatter_series",
    "render_scatter_text",
    "scatter_svg",
    "figure_svg",
    "line_svg",
    "pruning_history_svg",
    "BootstrapResult",
    "paired_bootstrap",
    "rank_defenses",
    "win_tie_loss",
    "EXPERIMENT_IDS",
    "FEDERATED_EXPERIMENT_IDS",
    "ExperimentProfile",
    "ExperimentResult",
    "ExperimentSpec",
    "experiment_spec",
    "get_profile",
    "scenario_configs",
]
