"""Predefined experiment grids for every paper table and figure.

Each experiment is a declarative grid over (dataset, model, attacks,
defenses, SPC values, trials); :class:`~repro.orchestrator.Orchestrator`
compiles it into a task DAG and returns an :class:`ExperimentResult` with
both raw aggregates and the formatted paper-style table.

Two profiles control cost:

- ``quick`` (default): reduced sample counts, epochs, and trials — minutes
  per table on CPU.  The *shape* of results (which defenses win, ASR
  collapse, SPC trends) is preserved; absolute numbers are not comparable
  to the paper (our substrate is synthetic — see DESIGN.md §2).
- ``paper``: the full five-trial, three-SPC grid with bigger datasets and
  training budgets.  Hours on CPU.

The profile is chosen via the ``REPRO_BENCH_PROFILE`` environment variable
or the ``profile`` argument.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .metrics import BackdoorMetrics
from .reporting import format_table, scatter_series
from .runner import AggregateResult, ScenarioConfig

__all__ = [
    "ExperimentProfile",
    "ExperimentSpec",
    "ExperimentResult",
    "get_profile",
    "experiment_spec",
    "scenario_configs",
    "EXPERIMENT_IDS",
    "FEDERATED_EXPERIMENT_IDS",
]

ALL_ATTACKS = ("badnets", "blended", "bpp", "lf")
ALL_DEFENSES = ("ft", "fp", "nad", "clp", "ft_sam", "anp", "grad_prune")
FIG2_DEFENSES = ("ft_sam", "anp", "grad_prune")
FIG2_MODELS = ("preact_resnet18", "vgg19_bn", "efficientnet_b3", "mobilenet_v3_large")

EXPERIMENT_IDS = ("table1", "table2", "figure1", "figure2", "tableF")

# Experiments that run on the federated scheduler (rounds and client
# shards rather than the attack x defense grid).
FEDERATED_EXPERIMENT_IDS = ("tableF",)


@dataclass(frozen=True)
class ExperimentProfile:
    """Cost knobs shared by all experiments."""

    name: str
    n_train: int
    n_test: int
    n_reservoir: int
    train_epochs: int
    spc_values: Tuple[int, ...]
    num_trials: int
    num_classes_cifar: int = 10
    num_classes_gtsrb: int = 12

    # Per-defense constructor overrides keeping the quick profile fast.
    defense_kwargs: Dict[str, Dict] = field(default_factory=dict)
    # Per-model ScenarioConfig overrides (training hyperparameters differ:
    # plain deep stacks like VGG need a lower LR than residual networks).
    model_overrides: Dict[str, Dict] = field(default_factory=dict)
    # Trigger-parameter overrides, keyed by "attack" or "model:attack".
    # Quick-profile example: VGG's five max-pools + narrow stem cannot learn
    # the default 3x3 corner patch on 32x32 synthetic data, so its BadNets
    # uses a 5x5 patch (still < 2.5 % of the image).
    attack_overrides: Dict[str, Dict] = field(default_factory=dict)


QUICK_PROFILE = ExperimentProfile(
    name="quick",
    n_train=1500,
    n_test=300,
    n_reservoir=700,
    train_epochs=8,
    spc_values=(2, 10),
    num_trials=1,
    defense_kwargs={
        "ft": {"epochs": 10},
        "fp": {"epochs": 10},
        # beta=500 (the CIFAR-scale default) dwarfs the CE term on the small
        # synthetic task and destroys the model; 50 keeps the distillation
        # signal without collapse.
        "nad": {"teacher_epochs": 4, "epochs": 4, "beta": 50.0},
        "ft_sam": {"epochs": 10},
        "anp": {"steps": 100, "mask_lr": 0.1},
        "grad_prune": {"prune_patience": 5, "tune_max_epochs": 12},
    },
    model_overrides={
        "vgg19_bn": {"train_lr": 0.02, "train_epochs": 12},
        "efficientnet_b3": {"train_lr": 0.02},
        "mobilenet_v3_large": {"train_lr": 0.02, "train_epochs": 10},
    },
    attack_overrides={
        "vgg19_bn:badnets": {"patch_size": 5},
    },
)

PAPER_PROFILE = ExperimentProfile(
    name="paper",
    n_train=2000,
    n_test=500,
    n_reservoir=1500,
    train_epochs=10,
    spc_values=(2, 10, 100),
    num_trials=5,
    defense_kwargs={
        "nad": {"teacher_epochs": 10, "epochs": 10},
        "anp": {"steps": 120},
        "grad_prune": {"prune_patience": 10, "tune_max_epochs": 50},
    },
    model_overrides={
        "vgg19_bn": {"train_lr": 0.02},
        "efficientnet_b3": {"train_lr": 0.02},
        "mobilenet_v3_large": {"train_lr": 0.02},
    },
)


def get_profile(profile: Optional[str] = None) -> ExperimentProfile:
    """Resolve a profile by argument, environment, or default ('quick')."""
    name = profile or os.environ.get("REPRO_BENCH_PROFILE", "quick")
    if name == "quick":
        return QUICK_PROFILE
    if name == "paper":
        return PAPER_PROFILE
    raise ValueError(f"unknown profile {name!r}; use 'quick' or 'paper'")


@dataclass
class ExperimentSpec:
    """A fully resolved experiment grid."""

    experiment_id: str
    title: str
    dataset: str
    models: Tuple[str, ...]
    attacks: Tuple[str, ...]
    defenses: Tuple[str, ...]
    profile: ExperimentProfile


@dataclass
class ExperimentResult:
    """Everything an experiment produces."""

    spec: ExperimentSpec
    # {model: {attack: [AggregateResult...]}}
    results: Dict[str, Dict[str, List[AggregateResult]]]
    # {model: {attack: BackdoorMetrics}} baselines (no defense)
    baselines: Dict[str, Dict[str, BackdoorMetrics]]

    def table_text(self) -> str:
        """Paper-style table for every model with a baseline.

        Models and attacks outside a sliced run (``--models``) or whose
        backdoor training failed have no baseline and are left out.
        """
        sections = []
        for model in self.spec.models:
            baselines = self.baselines.get(model, {})
            present = {
                attack: aggregates
                for attack, aggregates in self.results.get(model, {}).items()
                if attack in baselines
            }
            if present:
                sections.append(
                    format_table(present, baselines, title=f"{self.spec.title} — {model}")
                )
        return "\n\n".join(sections)

    def scatter(self, model: str):
        """Figure-style scatter series for one model (all attacks pooled)."""
        pooled: List[AggregateResult] = []
        for aggregates in self.results[model].values():
            pooled.extend(aggregates)
        return scatter_series(pooled)


def experiment_spec(experiment_id: str, profile: Optional[str] = None) -> ExperimentSpec:
    """Resolve one of the paper's experiments to a concrete grid."""
    prof = get_profile(profile)
    if experiment_id == "table1":
        return ExperimentSpec(
            "table1", "Table I: SynthCIFAR / PreactResNet-18",
            "synth_cifar", ("preact_resnet18",), ALL_ATTACKS, ALL_DEFENSES, prof,
        )
    if experiment_id == "table2":
        return ExperimentSpec(
            "table2", "Table II: SynthCIFAR / VGG-19+BN",
            "synth_cifar", ("vgg19_bn",), ALL_ATTACKS, ALL_DEFENSES, prof,
        )
    if experiment_id == "figure1":
        # Figure 1 visualizes the Table I+II grids; both models, all attacks.
        return ExperimentSpec(
            "figure1", "Figure 1: SynthCIFAR scatter (ACC & RA vs ASR)",
            "synth_cifar", ("preact_resnet18", "vgg19_bn"), ALL_ATTACKS, ALL_DEFENSES, prof,
        )
    if experiment_id == "figure2":
        return ExperimentSpec(
            "figure2", "Figure 2: SynthGTSRB scatter, 4 architectures",
            "synth_gtsrb", FIG2_MODELS, ALL_ATTACKS, FIG2_DEFENSES, prof,
        )
    if experiment_id in FEDERATED_EXPERIMENT_IDS:
        raise KeyError(
            f"{experiment_id!r} is a federated grid; resolve it with "
            "repro.federated.federated_spec ('repro orchestrate tableF')"
        )
    raise KeyError(f"unknown experiment {experiment_id!r}; choose from {EXPERIMENT_IDS}")


def scenario_configs(
    spec: ExperimentSpec,
    attacks: Optional[Tuple[str, ...]] = None,
    models: Optional[Tuple[str, ...]] = None,
    root_seed: int = 0,
) -> List[Tuple[str, str, ScenarioConfig]]:
    """Resolve the (model, attack) cells of a grid to concrete configs.

    This is the single source of truth for scenario construction: the
    orchestrator's DAG builder and its result assembly both call it, so
    their ``ScenarioConfig.fingerprint()`` values — and therefore the
    cached artifacts every run shares — agree by construction.
    """
    prof = spec.profile
    num_classes = (
        prof.num_classes_cifar if spec.dataset == "synth_cifar" else prof.num_classes_gtsrb
    )
    cells: List[Tuple[str, str, ScenarioConfig]] = []
    for model in models or spec.models:
        for attack in attacks or spec.attacks:
            config_kwargs = dict(
                dataset=spec.dataset,
                model=model,
                attack=attack,
                n_train=prof.n_train,
                n_test=prof.n_test,
                n_reservoir=prof.n_reservoir,
                num_classes=num_classes,
                train_epochs=prof.train_epochs,
                seed=root_seed,
            )
            config_kwargs.update(prof.model_overrides.get(model, {}))
            attack_kwargs = dict(prof.attack_overrides.get(attack, {}))
            attack_kwargs.update(prof.attack_overrides.get(f"{model}:{attack}", {}))
            if attack_kwargs:
                config_kwargs["attack_kwargs"] = tuple(sorted(attack_kwargs.items()))
            cells.append((model, attack, ScenarioConfig(**config_kwargs)))
    return cells
