"""Orchestrator microbenchmark: inline (``workers=0``) vs ``--workers 2``.

Runs the same quick-profile Table I slice twice from cold caches — once
inline, the default for ``repro experiment`` / ``repro orchestrate``, and
once on a two-worker pool — checks the baselines and aggregates are
bitwise identical, and records both wall-clock times with the host block
(cores, BLAS, thread env) in ``benchmarks/out/BENCH_orchestrator.json``.

Read the ratio together with the host block: threaded BLAS already keeps
every core busy inside one task, so on a small host the pool buys per-task
timeouts and worker-death recovery, not speed.
"""

import dataclasses
import json
import os

import pytest
from conftest import OUT_DIR, host_info

from repro.eval.experiments import QUICK_PROFILE, ExperimentSpec
from repro.orchestrator import Orchestrator, OrchestratorConfig
from repro.orchestrator.orchestrator import build_experiment_dag
from repro.utils import Timer
from repro.utils.timing import hard_timeout

pytestmark = pytest.mark.bench

WORKERS = 2
GUARD_SECONDS = 1800.0


@pytest.fixture(autouse=True)
def _bench_guard():
    """Wall-clock ceiling: a wedged worker pool fails loudly, not as a hang."""
    with hard_timeout(GUARD_SECONDS, "orchestrator microbench wedged"):
        yield


def _slice_spec():
    profile = dataclasses.replace(
        QUICK_PROFILE,
        name="quick-slice",
        n_train=500,
        n_test=150,
        n_reservoir=300,
        train_epochs=3,
        spc_values=(2,),
        num_trials=2,
    )
    return ExperimentSpec(
        "table1", "Table I slice (orchestrator microbench)",
        "synth_cifar", ("preact_resnet18",), ("badnets",), ("clp", "ft"), profile,
    )


def _timed_run(spec, tmp_path, name, workers):
    orchestrator = Orchestrator(
        OrchestratorConfig(
            workers=workers,
            run_dir=str(tmp_path / f"{name}_run"),
            model_cache_dir=str(tmp_path / f"{name}_models"),
            trial_cache_dir=str(tmp_path / f"{name}_trials"),
            verbose=False,
        )
    )
    with Timer() as timer:
        result = orchestrator.run(spec)
    assert result.ok, result.summary()
    return result.experiment, timer.elapsed


def test_inline_vs_workers(tmp_path):
    spec = _slice_spec()
    inline, inline_s = _timed_run(spec, tmp_path, "inline", 0)
    pooled, pooled_s = _timed_run(spec, tmp_path, "pooled", WORKERS)

    model, attack = "preact_resnet18", "badnets"
    assert pooled.baselines[model][attack] == inline.baselines[model][attack]
    assert pooled.results[model][attack] == inline.results[model][attack]

    payload = {
        "host": host_info(),
        "experiment": spec.experiment_id,
        "profile": spec.profile.name,
        "tasks": len(build_experiment_dag(spec)),
        "workers": WORKERS,
        "inline_s": round(inline_s, 3),
        "workers_s": round(pooled_s, 3),
        "speedup": round(inline_s / pooled_s, 3),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "BENCH_orchestrator.json"), "w") as handle:
        json.dump(payload, handle, indent=2)
    assert payload["speedup"] > 0
