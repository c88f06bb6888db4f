"""Compile an experiment spec into a task DAG and run it fault-tolerantly.

``Orchestrator.run`` is the one runner for the paper's experiment grids
(``repro experiment`` / ``repro orchestrate``):

- the grid is compiled by :func:`scenario_configs` / :func:`budget_trials`,
  so task identities (scenario fingerprints, trial-cache keys) — and
  therefore all cached artifacts — depend only on the grid;
- every task state change is appended to a JSONL run ledger; ``--resume``
  replays the ledger and re-runs only tasks not recorded as done;
- tasks run inline (``workers=0``, the default) or on a retrying worker
  pool with per-task timeouts; a permanently failed cell is reported and
  skipped, never fatal.

The aggregates do not depend on the schedule: training and defense trials
are deterministic functions of their seeds, so inline, pooled and resumed
runs produce bitwise-identical numbers.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..eval.budget import budget_trials
from ..eval.experiments import ExperimentResult, ExperimentSpec, scenario_configs
from ..eval.metrics import BackdoorMetrics
from ..eval.runner import AggregateResult, TrialCache
from ..telemetry import TELEMETRY_DIR_ENV, bus, release_env_sink
from ..utils.logging import get_logger, log_event
from .artifacts import cache_root, content_hash
from .dag import Task, TaskGraph
from .ledger import RunLedger, TaskRecord
from .pool import run_tasks
from .runtime import execute_task

__all__ = [
    "OrchestratorConfig",
    "OrchestrationResult",
    "Orchestrator",
    "build_experiment_dag",
    "GraphRunResult",
    "run_ledgered_graph",
]

_LOG = get_logger("repro.orchestrator")

_SOURCE = "orchestrator"


def build_experiment_dag(
    spec: ExperimentSpec,
    attacks: Optional[Tuple[str, ...]] = None,
    models: Optional[Tuple[str, ...]] = None,
    root_seed: int = 0,
) -> List[Task]:
    """Compile (a slice of) an experiment grid into tasks.

    Layers: one ``train`` task per scenario, one ``trial`` task per
    (defense, SPC, trial) cell depending on it, and one ``aggregate`` task
    per (defense, SPC) cell depending on its trials.
    """
    prof = spec.profile
    tasks: List[Task] = []
    for model, attack, config in scenario_configs(spec, attacks, models, root_seed):
        fingerprint = config.fingerprint()
        train_id = f"train:{fingerprint}"
        tasks.append(
            Task(task_id=train_id, kind="train", payload={"config": config},
                 scenario=fingerprint)
        )
        for spc in prof.spc_values:
            for defense in spec.defenses:
                defense_kwargs = prof.defense_kwargs.get(defense)
                trial_ids: List[str] = []
                trial_entries: List[Dict] = []
                for budget in budget_trials(spc, prof.num_trials, root_seed):
                    key = TrialCache.key(config, defense, defense_kwargs, spc, budget.seed)
                    trial_id = f"trial:{key}"
                    trial_ids.append(trial_id)
                    trial_entries.append({"trial": budget.trial, "seed": budget.seed, "key": key})
                    tasks.append(
                        Task(
                            task_id=trial_id,
                            kind="trial",
                            payload={
                                "config": config,
                                "defense": defense,
                                "defense_kwargs": defense_kwargs,
                                "spc": spc,
                                "trial": budget.trial,
                                "seed": budget.seed,
                                "key": key,
                            },
                            deps=(train_id,),
                            scenario=fingerprint,
                        )
                    )
                tasks.append(
                    Task(
                        task_id=f"agg:{fingerprint}:{defense}:{spc}",
                        kind="aggregate",
                        payload={"defense": defense, "spc": spc, "trials": trial_entries},
                        deps=tuple(trial_ids),
                        scenario=fingerprint,
                    )
                )
    return tasks


@dataclass
class OrchestratorConfig:
    """Execution knobs for one orchestrated run."""

    workers: int = 0  # 0 = inline (no subprocesses); N >= 1 = N worker processes
    task_timeout: Optional[float] = None
    max_retries: int = 2
    retry_backoff: float = 0.5
    run_dir: Optional[str] = None
    resume: bool = False
    model_cache_dir: Optional[str] = None
    trial_cache_dir: Optional[str] = None
    verbose: bool = True
    # Export REPRO_TELEMETRY_DIR=<run_dir> for the run so this process and
    # every forked worker stream events to per-pid JSONL files that
    # ``repro watch <run_dir>`` tails alongside the ledger.
    telemetry: bool = True


@dataclass
class OrchestrationResult:
    """Outcome of one orchestrated run: results plus execution telemetry."""

    experiment: ExperimentResult
    run_dir: str
    ledger_path: str
    counts: Dict[str, int]
    failed_cells: List[str] = field(default_factory=list)
    reused: int = 0  # tasks served from the ledger (resume)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failed_cells

    def table_text(self) -> str:
        """Paper-style tables for every cell that completed."""
        return self.experiment.table_text()

    def summary(self) -> str:
        parts = [f"{status}={count}" for status, count in sorted(self.counts.items())]
        line = (
            f"orchestrate: {' '.join(parts)} reused={self.reused} "
            f"elapsed={self.elapsed:.1f}s ledger={self.ledger_path}"
        )
        if self.failed_cells:
            line += "\nfailed cells:\n" + "\n".join(f"  - {cell}" for cell in self.failed_cells)
        return line


def _default_run_dir(spec, grid_hash: str) -> str:
    """``<cache dir>/runs/<experiment>-<grid hash>`` for any grid spec."""
    return os.path.join(cache_root(), "runs", f"{spec.experiment_id}-{grid_hash[:12]}")


@dataclass
class GraphRunResult:
    """Raw outcome of one ledgered graph execution (pre-assembly)."""

    values: Dict[str, Dict]
    counts: Dict[str, int]
    reused: int
    elapsed: float
    run_dir: str
    ledger_path: str


def run_ledgered_graph(
    graph: TaskGraph,
    executor: Callable[[Dict, Task, int], Dict],
    ctx: Dict,
    *,
    cfg: OrchestratorConfig,
    run_dir: str,
    grid_hash: str,
    run_meta: Dict,
    preload: Optional[Callable[[Task, TaskRecord], bool]] = None,
    finish_fields: Optional[Callable[[Dict[str, Dict]], Dict]] = None,
    source: str = _SOURCE,
) -> GraphRunResult:
    """Execute a task graph with the full ledger/resume/telemetry plumbing.

    This is the engine under both the experiment-grid :class:`Orchestrator`
    and the federated round scheduler: resume replay with a grid-hash guard,
    ``run_meta``/``queued`` ledger appends, telemetry-dir export for forked
    workers, a ledger line per task event (logged too in verbose mode),
    ``run_started``/``run_finished`` on the bus, and finally
    :func:`run_tasks` over the pool.

    Parameters
    ----------
    preload:
        Called for each ledger record whose status is ``done`` during
        resume; return True to accept the cached result (and optionally
        self-heal derived caches), False to force re-execution.  ``None``
        accepts everything.
    finish_fields:
        Called with the merged ``{task_id: result}`` map after the run;
        its return value is folded into the ``run_finished`` event (lets
        callers report assembly-level outcomes without re-emitting).
    """
    start = time.perf_counter()
    ledger = RunLedger(run_dir)

    preloaded: Dict[str, Dict] = {}
    if cfg.resume:
        meta, records = ledger.replay()
        if meta and meta.get("grid") != grid_hash:
            backup = ledger.rotate()
            _LOG.warning(
                "ledger at %s was written by a different grid (%s != %s); "
                "rotated to %s and starting fresh",
                ledger.path, meta.get("grid"), grid_hash, backup,
            )
        else:
            for task_id, record in records.items():
                if record.status != "done" or record.result is None:
                    continue
                task = graph.tasks.get(task_id)
                if task is None:
                    continue
                if preload is not None and not preload(task, record):
                    continue
                graph.mark_done(task_id)
                preloaded[task_id] = record.result
    else:
        ledger.rotate()

    ledger.append(
        "run_meta",
        grid=grid_hash,
        tasks=len(graph),
        workers=cfg.workers,
        resumed=bool(cfg.resume),
        preloaded=len(preloaded),
        **run_meta,
    )
    for task in graph.tasks.values():
        if task.task_id not in preloaded:
            ledger.append(
                "queued", task=task.task_id, kind=task.kind, scenario=task.scenario
            )
    # Light up the telemetry bus for this run.  The env export happens
    # BEFORE first bus() use so this process attaches its own per-pid
    # JSONL sink, and forked workers (which reset their bus post-fork)
    # attach theirs — all under run_dir, next to the ledger.
    env_exported = False
    if cfg.telemetry and not os.environ.get(TELEMETRY_DIR_ENV):
        os.environ[TELEMETRY_DIR_ENV] = run_dir
        env_exported = True
    run_bus = bus()

    def announce(event: str, **fields) -> None:
        run_bus.emit(event, source, **fields)
        if cfg.verbose:
            log_event(_LOG, event, **fields)

    def on_event(event: str, task: Task, **fields) -> None:
        # The ledger is the one record of task lifecycle; the bus carries
        # only run-level and hot-loop events, so nothing is counted twice.
        ledger.append(event, task=task.task_id, kind=task.kind,
                      scenario=task.scenario, **fields)
        if cfg.verbose:
            fields.pop("result", None)  # durable in the ledger; keep the console greppable
            log_event(_LOG, event, task=task.task_id, kind=task.kind, **fields)

    try:
        announce(
            "run_started",
            tasks=len(graph), preloaded=len(preloaded),
            workers=cfg.workers, run_dir=run_dir,
            **{k: run_meta[k] for k in ("experiment",) if k in run_meta},
        )
        outcomes = run_tasks(
            graph,
            executor,
            ctx,
            workers=cfg.workers,
            task_timeout=cfg.task_timeout,
            max_retries=cfg.max_retries,
            retry_backoff=cfg.retry_backoff,
            on_event=on_event,
        )

        values: Dict[str, Dict] = dict(preloaded)
        for task_id, outcome in outcomes.items():
            if outcome.ok and outcome.value is not None:
                values[task_id] = outcome.value

        counts = graph.counts()
        elapsed = time.perf_counter() - start
        extra = finish_fields(values) if finish_fields is not None else {}
        announce(
            "run_finished",
            elapsed=elapsed, reused=len(preloaded),
            **{f"tasks_{k}": v for k, v in counts.items()},
            **extra,
        )
        return GraphRunResult(
            values=values,
            counts=counts,
            reused=len(preloaded),
            elapsed=elapsed,
            run_dir=run_dir,
            ledger_path=ledger.path,
        )
    finally:
        if env_exported:
            os.environ.pop(TELEMETRY_DIR_ENV, None)
            release_env_sink()


class Orchestrator:
    """Fault-tolerant, parallel, resumable experiment grid executor."""

    def __init__(self, config: Optional[OrchestratorConfig] = None) -> None:
        self.config = config or OrchestratorConfig()

    # ------------------------------------------------------------------
    def run(
        self,
        spec: ExperimentSpec,
        attacks: Optional[Tuple[str, ...]] = None,
        models: Optional[Tuple[str, ...]] = None,
        root_seed: int = 0,
    ) -> OrchestrationResult:
        cfg = self.config
        tasks = build_experiment_dag(spec, attacks, models, root_seed)
        graph = TaskGraph(tasks)
        # Grid identity: the sorted task ids hash every config/defense/seed
        # in the grid, so a ledger can only ever be resumed against the
        # exact grid that produced it.
        grid_hash = content_hash(sorted(graph.tasks))
        run_dir = cfg.run_dir or _default_run_dir(spec, grid_hash)

        trial_cache = TrialCache(cfg.trial_cache_dir)

        def preload(task: Task, record: TaskRecord) -> bool:
            # Self-heal: an aggregate task reads trial metrics from the
            # artifact store, which may have been cleaned since the trial
            # ran — re-seed it from the ledger result.
            if task.kind == "trial":
                key = record.result.get("key", task.payload["key"])
                if trial_cache.load(key) is None:
                    trial_cache.store(key, BackdoorMetrics(**record.result["metrics"]))
            return True

        assembled: Dict = {}

        def finish_fields(values: Dict[str, Dict]) -> Dict:
            assembled.update(self._assemble(spec, attacks, models, root_seed, values))
            return {"failed": len(assembled["failed_cells"])}

        outcome = run_ledgered_graph(
            graph,
            execute_task,
            {
                "model_dir": cfg.model_cache_dir,
                "trial_dir": cfg.trial_cache_dir,
                "verbose": False,
            },
            cfg=cfg,
            run_dir=run_dir,
            grid_hash=grid_hash,
            run_meta={
                "experiment": spec.experiment_id,
                "profile": spec.profile.name,
                "root_seed": root_seed,
            },
            preload=preload,
            finish_fields=finish_fields,
        )
        return OrchestrationResult(
            experiment=assembled["experiment"],
            run_dir=outcome.run_dir,
            ledger_path=outcome.ledger_path,
            counts=outcome.counts,
            failed_cells=assembled["failed_cells"],
            reused=outcome.reused,
            elapsed=outcome.elapsed,
        )

    # ------------------------------------------------------------------
    def _assemble(
        self,
        spec: ExperimentSpec,
        attacks: Optional[Tuple[str, ...]],
        models: Optional[Tuple[str, ...]],
        root_seed: int,
        values: Dict[str, Dict],
    ) -> Dict:
        """Fold task results into an :class:`ExperimentResult`."""
        prof = spec.profile
        results: Dict[str, Dict[str, List[AggregateResult]]] = {}
        baselines: Dict[str, Dict[str, BackdoorMetrics]] = {}
        failed_cells: List[str] = []
        for model, attack, config in scenario_configs(spec, attacks, models, root_seed):
            fingerprint = config.fingerprint()
            results.setdefault(model, {})
            baselines.setdefault(model, {})
            train_value = values.get(f"train:{fingerprint}")
            if train_value is None:
                failed_cells.append(f"{model}/{attack}: backdoor training failed")
                continue
            baselines[model][attack] = BackdoorMetrics(**train_value["baseline"])
            aggregates: List[AggregateResult] = []
            # SPC-major cell order, as in the DAG.
            for spc in prof.spc_values:
                for defense in spec.defenses:
                    value = values.get(f"agg:{fingerprint}:{defense}:{spc}")
                    if value is None:
                        failed_cells.append(f"{model}/{attack}/{defense}/spc={spc}")
                        continue
                    aggregates.append(AggregateResult(**value))
            results[model][attack] = aggregates
        experiment = ExperimentResult(spec=spec, results=results, baselines=baselines)
        return {"experiment": experiment, "failed_cells": failed_cells}
