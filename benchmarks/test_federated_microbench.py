"""Federated scheduler microbenchmark: inline vs ``--workers 2`` rounds.

Runs one 64-client Dirichlet tableF cell twice from cold run dirs — once
inline (``workers=0``) and once through the worker pool — checks the final
global models are bitwise identical, and records both wall-clock times
with the host block (cores, BLAS, thread env) in
``benchmarks/out/BENCH_federated.json``.

Read the speedup together with the host block: per-round client tasks
parallelize, but each aggregation is a barrier, so the scale-out is
bounded by the round structure, and threaded BLAS already spreads one
client's training over the cores.
"""

import json
import os

import numpy as np
import pytest
from conftest import OUT_DIR, host_info

from repro.federated import FederatedOrchestrator, build_federated_dag, federated_spec
from repro.federated.scheduler import state_key
from repro.orchestrator.artifacts import ArtifactStore
from repro.orchestrator.orchestrator import OrchestratorConfig
from repro.utils import Timer
from repro.utils.timing import hard_timeout

pytestmark = pytest.mark.bench

WORKERS = 2
GUARD_SECONDS = 1800.0


@pytest.fixture(autouse=True)
def _bench_guard():
    """Wall-clock ceiling: a wedged worker pool fails loudly, not as a hang."""
    with hard_timeout(GUARD_SECONDS, "federated microbench wedged"):
        yield


def _cell_spec():
    return federated_spec(
        "quick",
        client_counts=(64,),
        malicious_fractions=(0.125,),
        rounds=2,
        partition="dirichlet",
        n_train=640,
        n_test=150,
        n_reservoir=300,
        num_classes=3,
        defenses=("fed_unlearn",),
        spc=10,
    )


def test_federated_inline_vs_workers(tmp_path):
    spec = _cell_spec()
    fp = spec.scenarios()[0].fingerprint()

    inline = FederatedOrchestrator(
        OrchestratorConfig(workers=0, run_dir=str(tmp_path / "inline"), verbose=False)
    )
    with Timer() as inline_timer:
        inline_result = inline.run(spec)
    inline_s = inline_timer.elapsed

    pooled = FederatedOrchestrator(
        OrchestratorConfig(
            workers=WORKERS, run_dir=str(tmp_path / "pooled"), verbose=False
        )
    )
    with Timer() as pooled_timer:
        pooled_result = pooled.run(spec)
    pooled_s = pooled_timer.elapsed

    assert inline_result.ok and pooled_result.ok
    inline_state = ArtifactStore(
        os.path.join(inline_result.run_dir, "artifacts")
    ).get_state(state_key(fp, 1))
    pooled_state = ArtifactStore(
        os.path.join(pooled_result.run_dir, "artifacts")
    ).get_state(state_key(fp, 1))
    assert inline_state is not None and pooled_state is not None
    assert all(np.array_equal(inline_state[k], pooled_state[k]) for k in inline_state)

    (cell,) = inline_result.cells
    payload = {
        "host": host_info(),
        "experiment": spec.experiment_id,
        "clients": 64,
        "rounds": 2,
        "tasks": len(build_federated_dag(spec)),
        "workers": WORKERS,
        "inline_s": round(inline_s, 3),
        "workers_s": round(pooled_s, 3),
        "speedup": round(inline_s / pooled_s, 3),
        "final_asr": cell.arms["none"].asr,
        "fed_unlearn_asr": cell.arms["fed_unlearn"].asr,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "BENCH_federated.json"), "w") as handle:
        json.dump(payload, handle, indent=2)
    assert payload["speedup"] > 0
