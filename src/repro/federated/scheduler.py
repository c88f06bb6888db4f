"""Sharded federated round scheduler on the orchestrator substrate.

The in-memory :func:`~repro.federated.simulation.run_federated_backdoor`
loop holds every client in one process.  This module compiles a federated
experiment into the orchestrator's task DAG instead, so hundreds to
thousands of Dirichlet non-IID clients fan out across the worker pool::

    fedc:<fp>:<r>:<cid>      (client local training, one per participant)
      └─ feda:<fp>:<r>       (barrier: aggregate round r, evaluate, store)
           ├─ fedc:<fp>:<r+1>:<cid>  (next round's clients)
           └─ fedd:<fp>:<r>:<defense> (server-side repair at chosen rounds)

Client updates and per-round global models are checkpointed through the
content-addressed :class:`~repro.orchestrator.artifacts.ArtifactStore`
under the run directory; task lifecycles go to the JSONL run ledger.  A
killed run resumes with ``--resume``: finished tasks whose artifacts still
exist are preloaded from the ledger, everything else re-executes.

Determinism is the load-bearing property: a client update is a pure
function of ``(scenario, round, global state)`` (round-keyed shuffle and
poison RNGs — see :meth:`FederatedClient.local_update`), and aggregation
folds updates in fixed client-id order, so any schedule — serial, N
workers, or a kill + resume — produces bitwise-identical global models.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..eval.experiments import get_profile
from ..eval.metrics import BackdoorMetrics
from ..orchestrator.artifacts import ArtifactStore, content_hash
from ..orchestrator.dag import Task, TaskGraph
from ..orchestrator.ledger import TaskRecord
from ..utils.logging import get_logger
from .server import AGGREGATIONS
from .threat import ThreatModel

__all__ = [
    "FederatedScenario",
    "FederatedSpec",
    "federated_spec",
    "build_federated_dag",
    "FederatedCellResult",
    "FederatedOrchestrationResult",
    "FederatedOrchestrator",
    "update_key",
    "state_key",
]

_LOG = get_logger("repro.federated.scheduler")

FEDERATED_EXPERIMENT_ID = "tableF"


@dataclass(frozen=True)
class FederatedScenario:
    """One (client count, threat) cell of the federated grid.

    Frozen and JSON-fingerprintable, like
    :class:`~repro.eval.runner.ScenarioConfig`: the fingerprint keys every
    task id and artifact of the cell, so a ledger maps exactly onto the DAG
    a later ``--resume`` rebuilds.
    """

    dataset: str = "synth_cifar"
    model: str = "preact_resnet18"
    attack: str = "badnets"
    target_class: int = 0
    num_clients: int = 64
    rounds: int = 3
    partition: str = "dirichlet"
    alpha: float = 0.5
    malicious_fraction: float = 0.125
    attack_mode: str = "boost"
    boost: float = 4.0
    poison_ratio: float = 0.3
    client_fraction: float = 1.0
    aggregation: str = "fedavg"
    local_epochs: int = 1
    lr: float = 0.05
    batch_size: int = 32
    n_train: int = 1500
    n_test: int = 300
    n_reservoir: int = 700
    num_classes: int = 10
    model_profile: str = "quick"
    attack_kwargs: Tuple = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.partition not in ("iid", "dirichlet"):
            raise ValueError(f"unknown partition {self.partition!r}")
        if not 0.0 < self.client_fraction <= 1.0:
            raise ValueError(f"client_fraction must be in (0, 1], got {self.client_fraction}")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(
                f"unknown aggregation {self.aggregation!r}; choose from {AGGREGATIONS}"
            )
        # Rejects a malicious_fraction outside [0, 1) and an unknown attack_mode.
        self.threat()

    def fingerprint(self) -> str:
        """Stable hash identifying this cell's artifacts and task ids."""
        return content_hash(self.__dict__)[:16]

    def threat(self) -> ThreatModel:
        return ThreatModel(
            malicious_fraction=self.malicious_fraction,
            attack_mode=self.attack_mode,
            boost=self.boost,
            poison_ratio=self.poison_ratio,
        )

    def participants(self, round_index: int) -> List[int]:
        """Deterministic participant ids for one round (sorted).

        Keyed by ``(seed, round)`` only — not by execution order — so the
        DAG builder, every worker, and any resumed process agree on which
        client tasks round ``r`` comprises.
        """
        if self.client_fraction >= 1.0:
            return list(range(self.num_clients))
        count = max(1, int(round(self.client_fraction * self.num_clients)))
        rng = np.random.default_rng([self.seed, 0x9A37, round_index])
        return sorted(int(i) for i in rng.choice(self.num_clients, size=count, replace=False))


def update_key(fingerprint: str, round_index: int, client_id: int) -> str:
    """Artifact key of one client's round-``r`` weight update."""
    return f"fedu-{fingerprint}-r{round_index}-c{client_id}"


def state_key(fingerprint: str, round_index: int) -> str:
    """Artifact key of the global model *after* round ``r``."""
    return f"fedg-{fingerprint}-r{round_index}"


@dataclass
class FederatedSpec:
    """A fully resolved federated experiment grid (tableF)."""

    experiment_id: str
    title: str
    base: FederatedScenario
    client_counts: Tuple[int, ...]
    malicious_fractions: Tuple[float, ...]
    defenses: Tuple[str, ...]
    defense_kwargs: Dict[str, Dict] = field(default_factory=dict)
    spc: int = 10
    profile_name: str = "quick"

    def scenarios(self) -> List[FederatedScenario]:
        """Grid cells, client-count-major."""
        return [
            replace(self.base, num_clients=n, malicious_fraction=f)
            for n in self.client_counts
            for f in self.malicious_fractions
        ]


def federated_spec(
    profile: Optional[str] = None, **overrides
) -> FederatedSpec:
    """Resolve the tableF grid for a cost profile.

    ``overrides`` replace :class:`FederatedSpec` fields (``client_counts``,
    ``defenses``, ...) or, for keys that match, :class:`FederatedScenario`
    fields on the base scenario (``rounds``, ``partition``, ``alpha``, ...).
    """
    prof = get_profile(profile)
    if prof.name == "paper":
        client_counts: Tuple[int, ...] = (64, 256, 1024)
        malicious_fractions: Tuple[float, ...] = (0.05, 0.125, 0.25)
        rounds = 5
    else:
        client_counts = (8, 64)
        malicious_fractions = (0.125, 0.25)
        rounds = 3
    base = FederatedScenario(
        rounds=rounds,
        n_train=prof.n_train,
        n_test=prof.n_test,
        n_reservoir=prof.n_reservoir,
        num_classes=prof.num_classes_cifar,
    )
    spec_fields = {
        "client_counts": client_counts,
        "malicious_fractions": malicious_fractions,
        "defenses": ("grad_prune", "fed_unlearn"),
        # fed_unlearn keeps its own 6-epoch default in every profile: the
        # clean-loss + penalty objective has a sharp transition (4 epochs
        # leaves the backdoor nearly intact, 6 removes it).
        "defense_kwargs": {
            "grad_prune": prof.defense_kwargs.get("grad_prune"),
            "fed_unlearn": None,
        },
        "spc": max(prof.spc_values),
    }
    scenario_overrides = {}
    for key, value in overrides.items():
        if key in spec_fields:
            spec_fields[key] = value
        elif key in FederatedScenario.__dataclass_fields__:
            scenario_overrides[key] = value
        else:
            raise TypeError(f"unknown federated_spec override {key!r}")
    if scenario_overrides:
        base = replace(base, **scenario_overrides)
    return FederatedSpec(
        experiment_id=FEDERATED_EXPERIMENT_ID,
        title=f"Table F: federated ASR/ACC vs clients x malicious fraction x defense — {prof.name}",
        base=base,
        profile_name=prof.name,
        **spec_fields,
    )


def build_federated_dag(spec: FederatedSpec) -> List[Task]:
    """Compile the federated grid into orchestrator tasks.

    Per cell: ``rounds`` layers of client tasks, each round closed by an
    aggregation barrier the next round's clients depend on, plus one
    defense task per arm hanging off the final round's aggregate.
    """
    tasks: List[Task] = []
    for scenario in spec.scenarios():
        fp = scenario.fingerprint()
        for round_index in range(scenario.rounds):
            deps = () if round_index == 0 else (f"feda:{fp}:{round_index - 1}",)
            client_task_ids: List[str] = []
            for client_id in scenario.participants(round_index):
                task_id = f"fedc:{fp}:{round_index}:{client_id}"
                client_task_ids.append(task_id)
                tasks.append(
                    Task(
                        task_id=task_id,
                        kind="fed_client",
                        payload={
                            "scenario": scenario,
                            "round": round_index,
                            "client": client_id,
                        },
                        deps=deps,
                        scenario=fp,
                    )
                )
            tasks.append(
                Task(
                    task_id=f"feda:{fp}:{round_index}",
                    kind="fed_round",
                    payload={"scenario": scenario, "round": round_index},
                    deps=tuple(client_task_ids),
                    scenario=fp,
                )
            )
        final_round = scenario.rounds - 1
        for defense in spec.defenses:
            tasks.append(
                Task(
                    task_id=f"fedd:{fp}:{final_round}:{defense}",
                    kind="fed_defense",
                    payload={
                        "scenario": scenario,
                        "round": final_round,
                        "defense": defense,
                        "defense_kwargs": spec.defense_kwargs.get(defense),
                        "spc": spec.spc,
                    },
                    deps=(f"feda:{fp}:{final_round}",),
                    scenario=fp,
                )
            )
    return tasks


@dataclass
class FederatedCellResult:
    """Assembled outcome of one grid cell."""

    num_clients: int
    malicious_fraction: float
    fingerprint: str
    rounds: List[BackdoorMetrics]
    # Arm name -> final-model metrics; "none" is the undefended global model.
    arms: Dict[str, BackdoorMetrics] = field(default_factory=dict)


@dataclass
class FederatedOrchestrationResult:
    """Outcome of one orchestrated federated grid."""

    spec: FederatedSpec
    cells: List[FederatedCellResult]
    run_dir: str
    ledger_path: str
    counts: Dict[str, int]
    failed_cells: List[str] = field(default_factory=list)
    reused: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failed_cells

    def table_text(self) -> str:
        """tableF in the repo's fixed-width table style."""
        arm_names = ("none",) + tuple(self.spec.defenses)
        lines = [self.spec.title, ""]
        header = f"{'clients':>8} {'mal_frac':>9} {'arm':<12} {'ACC':>6} {'ASR':>6} {'RA':>6}"
        lines.append(header)
        lines.append("-" * len(header))
        for cell in self.cells:
            for arm in arm_names:
                metrics = cell.arms.get(arm)
                if metrics is None:
                    lines.append(
                        f"{cell.num_clients:>8} {cell.malicious_fraction:>9.3f} "
                        f"{arm:<12} {'—':>6} {'—':>6} {'—':>6}"
                    )
                    continue
                lines.append(
                    f"{cell.num_clients:>8} {cell.malicious_fraction:>9.3f} "
                    f"{arm:<12} {metrics.acc:>6.3f} {metrics.asr:>6.3f} {metrics.ra:>6.3f}"
                )
        return "\n".join(lines)

    def summary(self) -> str:
        parts = [f"{status}={count}" for status, count in sorted(self.counts.items())]
        line = (
            f"orchestrate[{self.spec.experiment_id}]: {' '.join(parts)} "
            f"reused={self.reused} elapsed={self.elapsed:.1f}s ledger={self.ledger_path}"
        )
        if self.failed_cells:
            line += "\nfailed cells:\n" + "\n".join(f"  - {cell}" for cell in self.failed_cells)
        return line


class FederatedOrchestrator:
    """Fault-tolerant, parallel, resumable federated grid executor.

    Reuses the experiment orchestrator's ledgered-graph engine
    (:func:`~repro.orchestrator.orchestrator.run_ledgered_graph`); only the
    DAG shape, the executors, and the assembly differ.
    """

    def __init__(self, config=None) -> None:
        # Imported here: repro.orchestrator.orchestrator imports the eval
        # layer, which this module must not pull in at import time.
        from ..orchestrator.orchestrator import OrchestratorConfig

        self.config = config or OrchestratorConfig()

    def run(self, spec: FederatedSpec) -> FederatedOrchestrationResult:
        from ..orchestrator.orchestrator import _default_run_dir, run_ledgered_graph
        from .tasks import execute_federated_task

        cfg = self.config
        graph = TaskGraph(build_federated_dag(spec))
        grid_hash = content_hash(sorted(graph.tasks))
        run_dir = cfg.run_dir or _default_run_dir(spec, grid_hash)
        artifact_dir = os.path.join(run_dir, "artifacts")
        store = ArtifactStore(artifact_dir)

        def preload(task: Task, record: TaskRecord) -> bool:
            # A ledger "done" is only honoured while the artifact the rest
            # of the DAG reads still exists (and passes its checksum) —
            # otherwise the task re-executes and re-publishes it.
            payload = task.payload
            fp = payload["scenario"].fingerprint()
            if task.kind == "fed_client":
                return (
                    store.get_state(update_key(fp, payload["round"], payload["client"]))
                    is not None
                    or store.get_state(state_key(fp, payload["round"])) is not None
                )
            if task.kind == "fed_round":
                return store.get_state(state_key(fp, payload["round"])) is not None
            return True

        assembled: Dict = {}

        def finish_fields(values: Dict[str, Dict]) -> Dict:
            assembled.update(_assemble(spec, values))
            return {"failed": len(assembled["failed_cells"])}

        outcome = run_ledgered_graph(
            graph,
            execute_federated_task,
            {"artifact_dir": artifact_dir, "verbose": False},
            cfg=cfg,
            run_dir=run_dir,
            grid_hash=grid_hash,
            run_meta={
                "experiment": spec.experiment_id,
                "profile": spec.profile_name,
                "clients": list(spec.client_counts),
                "malicious_fractions": list(spec.malicious_fractions),
                "defenses": list(spec.defenses),
            },
            preload=preload,
            finish_fields=finish_fields,
            source="federated",
        )
        return FederatedOrchestrationResult(
            spec=spec,
            cells=assembled["cells"],
            run_dir=outcome.run_dir,
            ledger_path=outcome.ledger_path,
            counts=outcome.counts,
            failed_cells=assembled["failed_cells"],
            reused=outcome.reused,
            elapsed=outcome.elapsed,
        )


def _assemble(spec: FederatedSpec, values: Dict[str, Dict]) -> Dict:
    """Fold task results into per-cell trajectories and defense arms."""
    cells: List[FederatedCellResult] = []
    failed: List[str] = []
    for scenario in spec.scenarios():
        fp = scenario.fingerprint()
        label = f"clients={scenario.num_clients}/frac={scenario.malicious_fraction}"
        rounds: List[BackdoorMetrics] = []
        for round_index in range(scenario.rounds):
            value = values.get(f"feda:{fp}:{round_index}")
            if value is None:
                failed.append(f"{label}: round {round_index} aggregation missing")
                break
            rounds.append(BackdoorMetrics(**value["metrics"]))
        cell = FederatedCellResult(
            num_clients=scenario.num_clients,
            malicious_fraction=scenario.malicious_fraction,
            fingerprint=fp,
            rounds=rounds,
        )
        if len(rounds) == scenario.rounds:
            cell.arms["none"] = rounds[-1]
        final_round = scenario.rounds - 1
        for defense in spec.defenses:
            value = values.get(f"fedd:{fp}:{final_round}:{defense}")
            if value is None:
                failed.append(f"{label}/{defense}")
                continue
            cell.arms[defense] = BackdoorMetrics(**value["metrics"])
        cells.append(cell)
    return {"cells": cells, "failed_cells": failed}
