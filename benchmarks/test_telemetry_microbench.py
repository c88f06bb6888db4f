"""Telemetry overhead microbenchmark: the event bus must be ~free.

Two claims, recorded in ``benchmarks/out/BENCH_telemetry.json`` (registered
next to ``BENCH_engine.json`` / ``BENCH_orchestrator.json``):

1. **Inactive fast path** — with no sinks attached, ``emit`` is a guarded
   no-op costing nanoseconds, so instrumented hot loops (pruner rounds,
   tuner epochs, batcher flushes) pay nothing in the default configuration.
2. **Instrumented pruning round** — a full Grad-Prune round with a JSONL
   sink attached runs within 5% of the same round with telemetry disabled.
   The two arms alternate over ``PAIRS`` pairs, and each pair swaps which
   arm runs first, so drift and run order land on both arms alike.  Each
   arm's minimum is the robust estimator against scheduler noise; every
   run's time is recorded next to it.
"""

import json
import os
import time

import numpy as np
import pytest
from conftest import OUT_DIR, host_info

from repro.core import GradientPruner
from repro.data import ImageDataset
from repro.models import build_model
from repro.telemetry import JsonlSink, TelemetryBus, set_bus
from repro.utils.timing import hard_timeout

pytestmark = pytest.mark.bench

GUARD_SECONDS = 900.0
OVERHEAD_LIMIT_PCT = 5.0
PAIRS = 5
NOOP_EMITS = 200_000
SINK_EMITS = 20_000

_RESULTS = {}


@pytest.fixture(autouse=True)
def _bench_guard():
    with hard_timeout(GUARD_SECONDS, "telemetry microbench wedged"):
        yield


def test_noop_emit_cost():
    """emit() on a bus with no sinks: the price every hot loop always pays."""
    bus = TelemetryBus()
    assert not bus.active
    start = time.perf_counter()
    for i in range(NOOP_EMITS):
        bus.emit("prune_round", "bench", round=i, val_loss=0.5)
    noop_ns = (time.perf_counter() - start) / NOOP_EMITS * 1e9
    _RESULTS["noop_emit_ns"] = round(noop_ns, 1)
    # "Nanoseconds" with slack for slow CI boxes; a regression to real work
    # (dict building, sanitize, I/O) lands in the microseconds and fails.
    assert noop_ns < 5_000, f"inactive emit costs {noop_ns:.0f}ns — fast path broken"


def test_active_jsonl_emit_cost(tmp_path):
    """emit() fanned out to a JSONL sink: sanitize + serialize + buffered write."""
    bus = TelemetryBus()
    bus.attach(JsonlSink(str(tmp_path / "t.jsonl")))
    start = time.perf_counter()
    for i in range(SINK_EMITS):
        bus.emit(
            "prune_round", "bench",
            round=i, layer="conv1", val_loss=0.5, val_acc=0.9, num_pruned=i,
        )
    active_us = (time.perf_counter() - start) / SINK_EMITS * 1e6
    bus.close()
    _RESULTS["active_jsonl_emit_us"] = round(active_us, 2)
    assert active_us < 1_000, f"sinked emit costs {active_us:.0f}us per event"


def _pruning_round(seed=7):
    rng = np.random.default_rng(seed)

    def dataset(n):
        return ImageDataset(
            rng.uniform(0, 1, (n, 3, 32, 32)).astype(np.float32),
            rng.integers(0, 10, n),
        )

    backdoor_train, clean_val, backdoor_val = dataset(32), dataset(128), dataset(128)

    def one_round():
        model = build_model("preact_resnet18")
        pruner = GradientPruner(alpha=0.0, patience=100, max_rounds=1, batch_size=64)
        return pruner.prune(model, backdoor_train, clean_val, backdoor_val)

    return one_round


def test_instrumented_pruning_round_overhead(tmp_path):
    """The acceptance bound: <5% wall-clock cost for full instrumentation."""
    one_round = _pruning_round()
    one_round()  # warm BLAS pools / arenas before either arm is timed

    disabled_bus = TelemetryBus()  # no sinks: every emit takes the no-op path
    instrumented_bus = TelemetryBus()
    sink = JsonlSink(str(tmp_path / "round.jsonl"))
    instrumented_bus.attach(sink)

    arms = [(disabled_bus, []), (instrumented_bus, [])]
    previous = set_bus(disabled_bus)
    try:
        for pair in range(PAIRS):
            for bus, runs in arms if pair % 2 == 0 else arms[::-1]:
                set_bus(bus)
                start = time.perf_counter()
                one_round()
                runs.append(time.perf_counter() - start)
    finally:
        set_bus(previous)
    instrumented_bus.close()

    (_, baseline_runs), (_, instrumented_runs) = arms
    baseline_s, instrumented_s = min(baseline_runs), min(instrumented_runs)
    events = instrumented_bus.snapshot()["bus"]["events_emitted"]
    overhead_pct = (instrumented_s - baseline_s) / baseline_s * 100.0
    _RESULTS["pruning_round"] = {
        "baseline_s": round(baseline_s, 4),
        "instrumented_s": round(instrumented_s, 4),
        "overhead_pct": round(overhead_pct, 2),
        "events_per_timed_arm": events,
        "limit_pct": OVERHEAD_LIMIT_PCT,
        "pairs": PAIRS,
        "baseline_runs_s": [round(t, 4) for t in baseline_runs],
        "instrumented_runs_s": [round(t, 4) for t in instrumented_runs],
    }
    assert events > 0, "the pruner must actually stream events when a sink is live"
    assert (tmp_path / "round.jsonl").exists()
    assert overhead_pct < OVERHEAD_LIMIT_PCT, (
        f"instrumented round {instrumented_s:.3f}s vs {baseline_s:.3f}s disabled "
        f"({overhead_pct:+.1f}% > {OVERHEAD_LIMIT_PCT}% budget)"
    )


def test_emit_bench_telemetry_json():
    assert {"noop_emit_ns", "active_jsonl_emit_us", "pruning_round"} <= set(_RESULTS), (
        "overhead probes must run before the JSON is emitted"
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    payload = {
        "bench": "telemetry_overhead",
        "host": host_info(),
        **_RESULTS,
    }
    path = os.path.join(OUT_DIR, "BENCH_telemetry.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
    with open(path) as handle:
        written = json.load(handle)
    assert written["pruning_round"]["overhead_pct"] < OVERHEAD_LIMIT_PCT
