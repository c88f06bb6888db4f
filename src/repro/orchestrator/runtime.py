"""Task executors that run inside orchestrator workers.

Each worker process keeps one :class:`BenchmarkRunner` (backed by the
shared on-disk artifact store) plus a small LRU of prepared scenarios, so
the many trial tasks of one scenario pay the scenario set-up (a restore
from the artifact store, or a build on a miss) once per worker instead of
once per task.  All heavy state lives in
process-local globals — nothing here is shared across processes except the
artifact files themselves, whose writes are atomic.

Executors return small JSON-compatible dicts; the orchestrator records
them verbatim in the run ledger, which is what makes ``--resume`` able to
reuse a finished task without touching the artifact store.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..eval.budget import DefenderBudget
from ..eval.metrics import BackdoorMetrics
from ..eval.runner import (
    AggregateResult,
    BenchmarkRunner,
    ScenarioCache,
    ScenarioData,
    TrialCache,
    TrialResult,
)
from .dag import Task

__all__ = ["execute_task"]

_RUNNER: Optional[BenchmarkRunner] = None
_RUNNER_KEY: Optional[Tuple] = None
_SCENARIOS: Dict[str, ScenarioData] = {}

# Prepared scenarios held per worker; oldest evicted beyond this to bound
# memory on 100+ scenario grids.
_MAX_CACHED_SCENARIOS = 4


def _runner(ctx: Dict) -> BenchmarkRunner:
    global _RUNNER, _RUNNER_KEY
    key = (ctx.get("model_dir"), ctx.get("trial_dir"))
    if _RUNNER is None or _RUNNER_KEY != key:
        _RUNNER = BenchmarkRunner(
            cache=ScenarioCache(ctx.get("model_dir")),
            trial_cache=TrialCache(ctx.get("trial_dir")),
            verbose=bool(ctx.get("verbose", False)),
        )
        _RUNNER_KEY = key
        _SCENARIOS.clear()
    return _RUNNER


def _scenario(ctx: Dict, config) -> ScenarioData:
    # Resolve the runner first: a new model/trial dir clears the memo, so a
    # scenario prepared against another cache is never served from it.
    runner = _runner(ctx)
    fingerprint = config.fingerprint()
    if fingerprint not in _SCENARIOS:
        _SCENARIOS[fingerprint] = runner.prepare(config)
        while len(_SCENARIOS) > _MAX_CACHED_SCENARIOS:
            _SCENARIOS.pop(next(iter(_SCENARIOS)))
    return _SCENARIOS[fingerprint]


def _metrics_dict(metrics: BackdoorMetrics) -> Dict[str, float]:
    return {"acc": float(metrics.acc), "asr": float(metrics.asr), "ra": float(metrics.ra)}


def _execute_train(ctx: Dict, task: Task) -> Dict:
    config = task.payload["config"]
    scenario = _scenario(ctx, config)
    return {
        "fingerprint": config.fingerprint(),
        "baseline": _metrics_dict(scenario.baseline),
    }


def _execute_trial(ctx: Dict, task: Task) -> Dict:
    payload = task.payload
    scenario = _scenario(ctx, payload["config"])
    budget = DefenderBudget(spc=payload["spc"], trial=payload["trial"], seed=payload["seed"])
    result = _runner(ctx).run_defense_trial(
        scenario, payload["defense"], budget, payload.get("defense_kwargs")
    )
    return {
        "key": payload["key"],
        "metrics": _metrics_dict(result.metrics),
        "cached": bool(result.details.get("cached")),
    }


def _execute_aggregate(ctx: Dict, task: Task) -> Dict:
    payload = task.payload
    trial_cache = _runner(ctx).trial_cache
    trials = []
    for entry in payload["trials"]:
        metrics = trial_cache.load(entry["key"])
        if metrics is None:
            raise RuntimeError(
                f"trial metrics missing from artifact store: {entry['key']} "
                f"({payload['defense']} spc={payload['spc']} trial={entry['trial']})"
            )
        trials.append(
            TrialResult(
                defense=payload["defense"],
                spc=payload["spc"],
                trial=entry["trial"],
                metrics=metrics,
            )
        )
    aggregate = AggregateResult.from_trials(trials)
    return {
        "defense": aggregate.defense,
        "spc": aggregate.spc,
        "acc_mean": aggregate.acc_mean,
        "acc_std": aggregate.acc_std,
        "asr_mean": aggregate.asr_mean,
        "asr_std": aggregate.asr_std,
        "ra_mean": aggregate.ra_mean,
        "ra_std": aggregate.ra_std,
        "num_trials": aggregate.num_trials,
    }


_EXECUTORS = {
    "train": _execute_train,
    "trial": _execute_trial,
    "aggregate": _execute_aggregate,
}


def execute_task(ctx: Dict, task: Task, attempt: int) -> Dict:
    """Pool entry point: dispatch one task to its kind-specific executor."""
    try:
        executor = _EXECUTORS[task.kind]
    except KeyError:
        raise ValueError(f"unknown task kind {task.kind!r} for {task.task_id}") from None
    return executor(ctx, task)
