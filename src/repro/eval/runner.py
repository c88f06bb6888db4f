"""BackdoorBench-style evaluation runner (paper §V).

Pipeline per scenario: train (or load from cache) a backdoored model →
draw a defender budget → apply a defense to a fresh copy → measure
ACC / ASR / RA on the held-out test set.  Scenarios are repeated over
independent trials and aggregated as mean ± std, exactly like the paper's
Tables I and II.

Backdoored models are expensive to train, so :class:`ScenarioCache` stores
them on disk keyed by a configuration fingerprint; all defenses and trials
for a scenario reuse the same backdoored checkpoint, mirroring the paper
(one attack run, many defense runs).
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..attacks import build_attack
from ..attacks.base import BackdoorAttack
from ..attacks.poisoner import train_backdoored_model
from ..data import make_synth_cifar, make_synth_gtsrb
from ..data.dataset import ImageDataset
from ..defenses import build_defense
from ..models import build_model
from ..nn.module import Module
from ..orchestrator.artifacts import ArtifactStore, cache_root
from ..training import TrainConfig
from ..utils.logging import get_logger
from .budget import DefenderBudget
from .metrics import BackdoorMetrics, evaluate_backdoor_metrics

__all__ = [
    "ScenarioConfig",
    "ScenarioData",
    "TrialResult",
    "AggregateResult",
    "ScenarioCache",
    "TrialCache",
    "BenchmarkRunner",
]

_LOG = get_logger("repro.eval")


@dataclass(frozen=True)
class ScenarioConfig:
    """One (dataset, model, attack) cell of the evaluation grid.

    ``attack_kwargs`` (a tuple of (key, value) pairs, to stay hashable)
    forwards trigger parameters to the attack constructor — e.g.
    ``(("patch_size", 5),)`` for a larger BadNets patch.
    """

    dataset: str = "synth_cifar"  # "synth_cifar" | "synth_gtsrb"
    model: str = "preact_resnet18"
    attack: str = "badnets"
    target_class: int = 0
    poison_ratio: float = 0.10
    n_train: int = 1500
    n_test: int = 400
    n_reservoir: int = 1200
    num_classes: int = 10
    train_epochs: int = 8
    train_lr: float = 0.05
    train_batch_size: int = 64
    model_profile: str = "quick"
    attack_kwargs: Tuple = ()
    seed: int = 0

    def fingerprint(self) -> str:
        """Stable hash identifying the backdoored-model artifact."""
        payload = json.dumps(
            {k: list(v) if isinstance(v, tuple) else v for k, v in self.__dict__.items()},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class ScenarioData:
    """Everything a defense evaluation needs for one scenario."""

    config: ScenarioConfig
    backdoored_model: Module
    attack: BackdoorAttack
    test_set: ImageDataset
    reservoir: ImageDataset  # clean pool the defender samples from
    baseline: BackdoorMetrics


@dataclass
class TrialResult:
    """Metrics of a single defense trial."""

    defense: str
    spc: int
    trial: int
    metrics: BackdoorMetrics
    details: Dict = field(default_factory=dict)


@dataclass
class AggregateResult:
    """Mean ± std over trials for one (defense, SPC) cell."""

    defense: str
    spc: int
    acc_mean: float
    acc_std: float
    asr_mean: float
    asr_std: float
    ra_mean: float
    ra_std: float
    num_trials: int

    @staticmethod
    def from_trials(trials: List[TrialResult]) -> "AggregateResult":
        if not trials:
            raise ValueError("cannot aggregate zero trials")
        accs = np.array([t.metrics.acc for t in trials])
        asrs = np.array([t.metrics.asr for t in trials])
        ras = np.array([t.metrics.ra for t in trials])
        return AggregateResult(
            defense=trials[0].defense,
            spc=trials[0].spc,
            acc_mean=float(accs.mean()),
            acc_std=float(accs.std()),
            asr_mean=float(asrs.mean()),
            asr_std=float(asrs.std()),
            ra_mean=float(ras.mean()),
            ra_std=float(ras.std()),
            num_trials=len(trials),
        )

    def row(self) -> str:
        """Paper-style 'mean±std' percentage cell string."""
        return (
            f"{self.acc_mean * 100:.2f}±{self.acc_std * 100:.2f} | "
            f"{self.asr_mean * 100:.2f}±{self.asr_std * 100:.2f} | "
            f"{self.ra_mean * 100:.2f}±{self.ra_std * 100:.2f}"
        )


class ScenarioCache:
    """Disk cache of backdoored models keyed by scenario fingerprint.

    Backed by :class:`~repro.orchestrator.artifacts.ArtifactStore`: writes
    are atomic and loads are checksum-verified, so a worker killed
    mid-write (or a corrupted disk) yields a cache miss and a retrain, not
    a crash or a silently wrong model.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory or os.path.join(cache_root(), "models")
        self.artifacts = ArtifactStore(self.directory)

    def path(self, config: ScenarioConfig) -> str:
        return self.artifacts.path(config.fingerprint(), ".npz")

    def load(self, config: ScenarioConfig, model: Module) -> bool:
        """Load cached weights into ``model``; returns False on miss."""
        state = self.artifacts.get_state(config.fingerprint())
        if state is None:
            return False
        model.load_state_dict(state)
        return True

    def store(self, config: ScenarioConfig, model: Module) -> None:
        self.artifacts.put_state(config.fingerprint(), model.state_dict())


class TrialCache:
    """Disk cache of per-trial defense metrics.

    Grids overlap across benches (the Figure 1 bench covers the Table I/II
    grids) and long runs get interrupted; caching each completed
    ``(scenario, defense, kwargs, budget)`` cell makes every re-execution
    resume instead of recompute.  Only the three metrics are cached —
    defense-report details are not (they can hold large histories).
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory or os.path.join(cache_root(), "trials")
        self.artifacts = ArtifactStore(self.directory)

    @staticmethod
    def key(
        config: ScenarioConfig, defense: str, defense_kwargs: Optional[Dict], spc: int, seed: int
    ) -> str:
        payload = json.dumps(
            {
                "scenario": config.fingerprint(),
                "defense": defense,
                "kwargs": defense_kwargs or {},
                "spc": spc,
                "seed": seed,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:20]

    def _path(self, key: str) -> str:
        return self.artifacts.path(key, ".json")

    def load(self, key: str) -> Optional[BackdoorMetrics]:
        data = self.artifacts.get_json(key)
        if data is None:
            return None
        return BackdoorMetrics(acc=data["acc"], asr=data["asr"], ra=data["ra"])

    def store(self, key: str, metrics: BackdoorMetrics) -> None:
        self.artifacts.put_json(key, {"acc": metrics.acc, "asr": metrics.asr, "ra": metrics.ra})


def _build_dataset(config: ScenarioConfig) -> Tuple[ImageDataset, ImageDataset, ImageDataset]:
    """(train, test, reservoir) for the scenario; reservoir is extra clean data."""
    total_train = config.n_train + config.n_reservoir
    if config.dataset == "synth_cifar":
        train_all, test = make_synth_cifar(
            n_train=total_train,
            n_test=config.n_test,
            num_classes=config.num_classes,
            seed=config.seed,
        )
    elif config.dataset == "synth_gtsrb":
        train_all, test = make_synth_gtsrb(
            n_train=total_train,
            n_test=config.n_test,
            num_classes=config.num_classes,
            seed=config.seed,
        )
    else:
        raise KeyError(f"unknown dataset {config.dataset!r}")
    train = train_all.subset(np.arange(config.n_train))
    reservoir = train_all.subset(np.arange(config.n_train, total_train))
    return train, test, reservoir


class BenchmarkRunner:
    """Prepare scenarios and run single defense trials.

    The orchestrator's ``train`` and ``trial`` tasks call :meth:`prepare`
    and :meth:`run_defense_trial`; its ``aggregate`` tasks fold the trials
    of one (defense, SPC) cell with :meth:`AggregateResult.from_trials`.

    Parameters
    ----------
    cache:
        Optional backdoored-model cache (created by default).
    verbose:
        Log progress.
    """

    def __init__(
        self,
        cache: Optional[ScenarioCache] = None,
        trial_cache: Optional[TrialCache] = None,
        verbose: bool = True,
    ) -> None:
        self.cache = cache if cache is not None else ScenarioCache()
        self.trial_cache = trial_cache if trial_cache is not None else TrialCache()
        self.verbose = verbose

    # ------------------------------------------------------------------
    # Scenario preparation
    # ------------------------------------------------------------------
    def prepare(self, config: ScenarioConfig) -> ScenarioData:
        """Train (or load) the backdoored model and package scenario data."""
        train, test, reservoir = _build_dataset(config)
        attack = build_attack(
            config.attack,
            target_class=config.target_class,
            image_shape=train.image_shape,
            **dict(config.attack_kwargs),
        )
        model = build_model(
            config.model,
            num_classes=config.num_classes,
            profile=config.model_profile,
            seed=config.seed + 1,
        )
        if self.cache.load(config, model):
            if self.verbose:
                _LOG.info("loaded cached backdoored model for %s", config.fingerprint())
        else:
            if self.verbose:
                _LOG.info(
                    "training backdoored model: %s/%s/%s",
                    config.dataset, config.model, config.attack,
                )
            train_cfg = TrainConfig(
                epochs=config.train_epochs,
                batch_size=config.train_batch_size,
                lr=config.train_lr,
                shuffle_seed=config.seed,
            )
            train_backdoored_model(
                model, train, attack,
                poison_ratio=config.poison_ratio,
                config=train_cfg,
                rng=np.random.default_rng(config.seed + 2),
            )
            self.cache.store(config, model)
        baseline = evaluate_backdoor_metrics(model, test, attack)
        if self.verbose:
            _LOG.info("baseline: %s", baseline)
        return ScenarioData(
            config=config,
            backdoored_model=model,
            attack=attack,
            test_set=test,
            reservoir=reservoir,
            baseline=baseline,
        )

    # ------------------------------------------------------------------
    # Defense evaluation
    # ------------------------------------------------------------------
    def run_defense_trial(
        self,
        scenario: ScenarioData,
        defense_name: str,
        budget: DefenderBudget,
        defense_kwargs: Optional[Dict] = None,
    ) -> TrialResult:
        """Apply one defense with one budget draw to a fresh model copy.

        Completed cells are served from :class:`TrialCache` (the budget's
        seed fully determines the draw, so the cached metrics are exact).
        """
        cache_key = TrialCache.key(
            scenario.config, defense_name, defense_kwargs, budget.spc, budget.seed
        )
        cached = self.trial_cache.load(cache_key) if self.trial_cache else None
        if cached is not None:
            if self.verbose:
                _LOG.info(
                    "%s spc=%d trial=%d: %s (cached)",
                    defense_name, budget.spc, budget.trial, cached,
                )
            return TrialResult(
                defense=defense_name, spc=budget.spc, trial=budget.trial,
                metrics=cached, details={"cached": True},
            )
        defense = build_defense(defense_name, **(defense_kwargs or {}))
        data = budget.draw(scenario.reservoir, attack=scenario.attack)
        model = copy.deepcopy(scenario.backdoored_model)
        report = defense.apply(model, data)
        metrics = evaluate_backdoor_metrics(model, scenario.test_set, scenario.attack)
        if self.trial_cache:
            self.trial_cache.store(cache_key, metrics)
        if self.verbose:
            _LOG.info(
                "%s spc=%d trial=%d: %s", defense_name, budget.spc, budget.trial, metrics
            )
        return TrialResult(
            defense=defense_name,
            spc=budget.spc,
            trial=budget.trial,
            metrics=metrics,
            details=report.details,
        )
