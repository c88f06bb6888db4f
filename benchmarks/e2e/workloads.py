"""Workloads of the end-to-end benchmark, one per process.

``run.py`` starts this file; it is not meant to be called by hand::

    python benchmarks/e2e/workloads.py prepare [--toy]
    python benchmarks/e2e/workloads.py WORKLOAD --seed N --seconds S --trace 0|1 [--toy]
    python benchmarks/e2e/workloads.py WORKLOAD --seed N --setup-only [--toy]

and reads the JSON object printed as the last stdout line.  A workload
uses only the library's public API.  It has four steps:

``setup``
    everything the program does before it can serve the first operation,
    timed from the first line of this file, library import included;
``run(op_seed)``
    one operation, the timed unit;
``check(state)``
    untimed correctness checks on what ``run`` returned;
``close``
    stops what ``setup`` started (gateway threads, the engine's tile pool).

The workload seed only draws the inputs of each operation (defender
budgets, the grid's ``root_seed``, traffic), from
``SeedSequence([seed, op_index])``.  The backdoored checkpoints those
inputs are applied to come from ``prepare`` and are the same for every
seed.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts the library import

import argparse  # noqa: E402
import copy  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

# The library surface every workload drives, imported here so that its
# import counts as set-up rather than as part of the first operation.
from repro.core.defense import GradPruneConfig, GradPruneDefense  # noqa: E402
from repro.core.pruner import GradientPruner  # noqa: E402
from repro.eval import metrics as eval_metrics  # noqa: E402  (patched when traced)
from repro.eval.budget import DefenderBudget  # noqa: E402
from repro.eval.experiments import (  # noqa: E402
    ExperimentProfile, ExperimentSpec, experiment_spec, scenario_configs,
)
from repro.eval.runner import BenchmarkRunner, ScenarioCache  # noqa: E402
from repro.nn import Tensor, no_grad  # noqa: E402
from repro.nn.engine import engine, reset_engine  # noqa: E402
from repro.orchestrator import Orchestrator, OrchestratorConfig, RunLedger  # noqa: E402
from repro.serving import ModelRegistry, ServeConfig, ServingGateway  # noqa: E402

from loadgen import closed_loop, open_loop  # noqa: E402
from tracing import Tracer  # noqa: E402

CACHE_ROOT = os.path.join(ROOT, ".bench_build", "e2e")
SERVE_ALIAS = "e2e"


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is what the benchmark measures; ``TOY`` only
    checks that every workload runs and reports (``run.py --smoke``)."""

    name: str
    checkpoint: Dict  # ScenarioConfig overrides of the prepared checkpoints
    defense_spc: int
    defense_rounds: int
    defense_epochs: int
    defense_test: int  # test images each defense is scored on
    prune_spc: int
    prune_rounds: int
    grid: Dict  # ExperimentProfile fields of the grid slice
    min_asr: float  # baseline ASR a backdoored checkpoint must reach
    serve_pool: int
    serve_rate: float
    serve_pass: int
    serve_outstanding: int

    @property
    def cache(self) -> str:
        return os.path.join(CACHE_ROOT, self.name)


# Sized so one operation takes about 1-6 s on a 2-core host in the default
# environment: a 12 s run then holds 2-12 operations, and the whole set of
# runs fits the time the benchmark is allowed.
FULL = Scale(
    name="full",
    checkpoint={"n_test": 100},
    defense_spc=2,
    defense_rounds=1,
    defense_epochs=2,
    defense_test=40,
    prune_spc=4,
    prune_rounds=3,
    grid=dict(n_train=64, n_test=40, n_reservoir=40, train_epochs=1, num_classes_cifar=4),
    min_asr=0.9,
    serve_pool=200,
    serve_rate=50.0,
    serve_pass=256,
    serve_outstanding=128,
)

TOY = Scale(
    name="toy",
    checkpoint={"n_train": 120, "n_test": 40, "n_reservoir": 60, "train_epochs": 1},
    defense_spc=2,
    defense_rounds=1,
    defense_epochs=1,
    defense_test=20,
    prune_spc=2,
    prune_rounds=1,
    grid=dict(n_train=60, n_test=30, n_reservoir=30, train_epochs=1, num_classes_cifar=3),
    min_asr=0.0,
    serve_pool=16,
    serve_rate=100.0,
    serve_pass=32,
    serve_outstanding=16,
)


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


# ----------------------------------------------------------------------
# Prepared inputs
# ----------------------------------------------------------------------
def checkpoint_configs(scale: Scale) -> Dict:
    """The quick-profile Table I and Figure 2 BadNets cells."""
    table1 = scenario_configs(experiment_spec("table1", "quick"), attacks=("badnets",))[0][2]
    figure2 = scenario_configs(
        experiment_spec("figure2", "quick"),
        attacks=("badnets",), models=("mobilenet_v3_large",),
    )[0][2]
    return {
        "table1": dataclasses.replace(table1, **scale.checkpoint),
        "figure2": dataclasses.replace(figure2, **scale.checkpoint),
    }


def _runner(scale: Scale):
    return BenchmarkRunner(
        cache=ScenarioCache(os.path.join(scale.cache, "models")), trial_cache=None, verbose=False
    )


def load_scenario(scale: Scale, config):
    """``BenchmarkRunner.prepare`` on a checkpoint ``prepare`` has stored."""
    runner = _runner(scale)
    if not runner.cache.artifacts.has(config.fingerprint(), ".npz"):
        raise RuntimeError(f"checkpoint {config.fingerprint()} missing: run 'run.py prepare'")
    return runner.prepare(config)


def prepare(scale: Scale) -> Dict:
    """Train the checkpoints, publish the Table I one for serving, and
    record the serving pool with reference logits from a plain forward."""
    runner = _runner(scale)
    scenarios = {name: runner.prepare(config) for name, config in checkpoint_configs(scale).items()}
    table1 = scenarios["table1"]
    config = table1.config
    registry = ModelRegistry(os.path.join(scale.cache, "registry"))
    registry.publish(
        table1.backdoored_model, config.model, alias=SERVE_ALIAS,
        factory_kwargs={"num_classes": config.num_classes, "profile": config.model_profile},
        metadata={"image_shape": list(table1.test_set.image_shape)},
    )
    clean = table1.test_set.images[: scale.serve_pool]
    images = np.concatenate([clean, table1.attack.apply(clean)]).astype(np.float32)
    triggered = np.repeat([False, True], len(clean))
    model = table1.backdoored_model
    model.eval()
    with no_grad():
        logits = np.concatenate(
            [model(Tensor(images[i : i + 128])).data for i in range(0, len(images), 128)]
        )
    np.savez(os.path.join(scale.cache, "serve_pool.npz"),
             images=images, triggered=triggered, logits=logits)
    return {
        name: {"fingerprint": s.config.fingerprint(), "acc": s.baseline.acc, "asr": s.baseline.asr}
        for name, s in scenarios.items()
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What ``check`` found for one operation."""

    attempted: int = 1
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    # Values for the traced report: acc/asr, ledger counts, serving samples.
    extra: Dict[str, object] = field(default_factory=dict)
    # Per-request latencies of a serving pass (ms, from due/sent time).
    latency_ms: List[float] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.problems.append(problem)
        self.failed = self.attempted


def check_rounds(history, rounds: int, outcome: Outcome) -> None:
    """A fixed-round pruning run: exact round count, distinct filters,
    finite Eq. 3 scores and losses, no rollback (alpha = 0)."""
    if len(history.rounds) != rounds:
        outcome.fail(f"{len(history.rounds)} prune rounds, expected {rounds}")
    pruned = {(r.pruned.layer, r.pruned.index) for r in history.rounds}
    if len(pruned) != len(history.rounds):
        outcome.fail("a filter was pruned twice")
    if any(r.rolled_back for r in history.rounds):
        outcome.fail("a prune was rolled back at alpha=0")
    values = [history.initial_val_loss, history.initial_val_accuracy]
    for r in history.rounds:
        values += [r.score, r.val_unlearning_loss, r.val_accuracy]
    if not finite(*values):
        outcome.fail("non-finite score or loss in the prune history")


class DefensePreact:
    """Grad-Prune (``GradPruneDefense.apply``) plus ``evaluate_backdoor_metrics``
    on the Table I preact_resnet18/BadNets checkpoint, one budget draw and
    one draw of ``defense_test`` test images per operation.  ``alpha=0`` and
    patience = ``max_rounds`` fix the prune work; ``tune_patience =
    tune_max_epochs`` fixes the fine-tune work."""

    def __init__(self, scale: Scale) -> None:
        self.scale = scale

    def setup(self) -> None:
        self.scenario = load_scenario(self.scale, checkpoint_configs(self.scale)["table1"])
        if self.scenario.baseline.asr < self.scale.min_asr:
            raise RuntimeError(f"checkpoint is not backdoored: {self.scenario.baseline}")

    def run(self, seed: int):
        s = self.scale
        data = DefenderBudget(spc=s.defense_spc, trial=0, seed=seed).draw(
            self.scenario.reservoir, attack=self.scenario.attack
        )
        model = copy.deepcopy(self.scenario.backdoored_model)
        defense = GradPruneDefense(GradPruneConfig(
            alpha=0.0, max_rounds=s.defense_rounds, prune_patience=s.defense_rounds,
            tune_patience=s.defense_epochs, tune_max_epochs=s.defense_epochs, seed=seed,
        ))
        report = defense.apply(model, data)
        test = self.scenario.test_set
        picks = np.random.default_rng(seed).choice(len(test), s.defense_test, replace=False)
        metrics = eval_metrics.evaluate_backdoor_metrics(
            model, test.subset(picks), self.scenario.attack
        )
        return report, metrics

    def check(self, state) -> Outcome:
        report, metrics = state
        outcome = Outcome(extra={"acc": metrics.acc, "asr": metrics.asr})
        check_rounds(report.details["prune_history"], self.scale.defense_rounds, outcome)
        tune = report.details["tune_history"]
        if len(tune.train_losses) != self.scale.defense_epochs:
            outcome.fail(f"{len(tune.train_losses)} fine-tune epochs, "
                         f"expected {self.scale.defense_epochs}")
        if not finite(*tune.train_losses, *tune.val_losses):
            outcome.fail("non-finite fine-tune loss")
        if not (finite(metrics.acc, metrics.asr)
                and 0 <= metrics.acc <= 1 and 0 <= metrics.asr <= 1):
            outcome.fail(f"bad metrics {metrics}")
        return outcome

    def close(self) -> None:
        pass


class PruneMobilenet:
    """``GradientPruner.prune`` alone on the Figure 2 mobilenet_v3_large/BadNets
    checkpoint: ``alpha=0`` and ``max_rounds`` = patience, so exactly
    ``prune_rounds`` Eq. 3 scoring rounds, each followed by a refolded
    validation sweep."""

    def __init__(self, scale: Scale) -> None:
        self.scale = scale

    def setup(self) -> None:
        self.scenario = load_scenario(self.scale, checkpoint_configs(self.scale)["figure2"])

    def run(self, seed: int):
        s = self.scale
        data = DefenderBudget(spc=s.prune_spc, trial=0, seed=seed).draw(
            self.scenario.reservoir, attack=self.scenario.attack
        )
        model = copy.deepcopy(self.scenario.backdoored_model)
        pruner = GradientPruner(alpha=0.0, patience=s.prune_rounds, max_rounds=s.prune_rounds)
        return pruner.prune(model, data.backdoor_train(), data.clean_val, data.backdoor_val())

    def check(self, history) -> Outcome:
        outcome = Outcome()
        check_rounds(history, self.scale.prune_rounds, outcome)
        return outcome

    def close(self) -> None:
        pass


class GridTable1:
    """``Orchestrator(workers=0).run`` of a Table I slice from cold caches:
    badnets x {ft, clp, grad_prune}, SPC 2, one trial, with telemetry on.
    The grid's ``root_seed`` comes from the workload seed, so every
    operation trains a different backdoored model."""

    defenses = ("ft", "clp", "grad_prune")

    def __init__(self, scale: Scale) -> None:
        self.scale = scale

    def setup(self) -> None:
        profile = ExperimentProfile(
            name="e2e", spc_values=(2,), num_trials=1,
            # Fixed work per cell, as in defense-preact.
            defense_kwargs={
                "ft": {"epochs": 2},
                "grad_prune": {"alpha": 0.0, "max_rounds": 2, "prune_patience": 2,
                               "tune_patience": 2, "tune_max_epochs": 2},
            },
            **self.scale.grid,
        )
        self.spec = ExperimentSpec(
            "table1", "Table I slice", "synth_cifar", ("preact_resnet18",), ("badnets",),
            self.defenses, profile,
        )
        self.scratch = os.path.join(self.scale.cache, "grid", str(os.getpid()))
        self.ops = 0

    def run(self, seed: int):
        # A fresh directory per operation: every grid starts from cold
        # model, trial and ledger state.
        self.ops += 1
        workdir = os.path.join(self.scratch, str(self.ops))
        orchestrator = Orchestrator(OrchestratorConfig(
            workers=0, run_dir=os.path.join(workdir, "run"),
            model_cache_dir=os.path.join(workdir, "models"),
            trial_cache_dir=os.path.join(workdir, "trials"),
            verbose=False, telemetry=True,
        ))
        return orchestrator.run(self.spec, root_seed=seed % 100_000), workdir

    def check(self, state) -> Outcome:
        result, workdir = state
        try:
            _, records = RunLedger(result.run_dir).replay()
            outcome = Outcome(attempted=len(records))
            bad = {tid: r.status for tid, r in records.items() if r.status != "done"}
            if bad or not result.ok:
                outcome.failed = max(1, len(bad))
                outcome.problems.append(f"tasks not done: {bad or result.failed_cells}")
            for record in records.values():
                if record.kind == "trial" and (record.result or {}).get("cached"):
                    outcome.fail(f"{record.task_id} was served from TrialCache")
            # The slice's one-epoch attack training is too short to implant a
            # reliable backdoor, so the baseline is checked for sanity only.
            baseline = result.experiment.baselines["preact_resnet18"]["badnets"]
            if not (finite(baseline.acc, baseline.asr) and 0 <= baseline.asr <= 1):
                outcome.fail(f"bad baseline metrics {baseline}")
            for agg in result.experiment.results["preact_resnet18"]["badnets"]:
                if not finite(agg.acc_mean, agg.asr_mean, agg.ra_mean):
                    outcome.fail(f"non-finite aggregate for {agg.defense}")
                if agg.defense == "grad_prune":
                    outcome.extra.update(acc=agg.acc_mean, asr=agg.asr_mean)
            busy: Counter = Counter()
            for record in records.values():
                busy[record.kind] += record.elapsed
            outcome.extra.update(
                {f"tasks.{k}": n for k, n in Counter(r.kind for r in records.values()).items()})
            outcome.extra.update({f"busy_s.{k}": seconds for k, seconds in busy.items()})
            outcome.extra["retried"] = sum(max(0, r.attempts - 1) for r in records.values())
            outcome.extra["overhead_s"] = result.elapsed - sum(busy.values())
            outcome.extra["failed"] = float(len(bad))
            events = 0
            for path in glob.glob(os.path.join(result.run_dir, "telemetry-*.jsonl")):
                with open(path) as handle:
                    events += sum(1 for _ in handle)
            if events == 0:
                outcome.fail("telemetry is on but no events were written")
            outcome.extra["events"] = events
            return outcome
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class _Serve:
    """A ``ServingGateway`` on the published Table I checkpoint.  Requests
    are drawn from a fixed pool of test images, half of its entries
    carrying the BadNets trigger; a request is triggered with probability
    0.25.  Served labels must match a plain ``no_grad()`` forward of the
    same checkpoint, recorded by ``prepare``."""

    trigger_fraction = 0.25

    def __init__(self, scale: Scale) -> None:
        self.scale = scale

    def setup(self) -> None:
        registry = ModelRegistry(os.path.join(self.scale.cache, "registry"))
        self.gateway = ServingGateway(registry, alias=SERVE_ALIAS, config=ServeConfig()).start()

    def load_pool(self) -> None:
        pool = np.load(os.path.join(self.scale.cache, "serve_pool.npz"))
        self.images, self.triggered, self.logits = pool["images"], pool["triggered"], pool["logits"]

    def requests(self, seed: int, count: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        want_trigger = rng.random(count) < self.trigger_fraction
        clean = np.flatnonzero(~self.triggered)
        dirty = np.flatnonzero(self.triggered)
        return np.where(want_trigger, rng.choice(dirty, count), rng.choice(clean, count))

    def check(self, state) -> Outcome:
        picks, load = state
        outcome = Outcome(attempted=len(picks), latency_ms=load.latency_ms)
        wrong = 0
        for pick, verdict in zip(picks, load.verdicts):
            if verdict is None:
                continue
            reference = self.logits[pick]
            # Folded inference reassociates float sums: accept any label whose
            # reference logit ties the maximum within float32 noise.
            if reference[verdict.label] < reference.max() - 1e-3 * (1.0 + abs(reference.max())):
                wrong += 1
        outcome.failed = load.rejected + load.errors + wrong
        if outcome.failed:
            outcome.problems.append(
                f"{load.rejected} rejected, {load.errors} errors, {wrong} wrong labels"
            )
        served = [v for v in load.verdicts if v is not None]
        outcome.extra.update(
            late_ms_max=load.late_ms_max,
            rejected=load.rejected,
            queued_ms=[v.queued_ms for v in served],
            compute_ms=[v.latency_ms - v.queued_ms for v in served],
        )
        return outcome

    def close(self) -> None:
        self.gateway.stop()


class ServeOpen(_Serve):
    """Open loop at a fixed rate for the whole measuring time; latency runs
    from each request's due time."""

    def run(self, seed: int, seconds: float):
        picks = self.requests(seed, max(1, int(self.scale.serve_rate * seconds)))
        return picks, open_loop(self.gateway, self.images[picks], self.scale.serve_rate)


class ServeClosed(_Serve):
    """Closed-loop passes of ``serve_pass`` requests with at most
    ``serve_outstanding`` in flight; one pass is one operation."""

    def run(self, seed: int):
        picks = self.requests(seed, self.scale.serve_pass)
        return picks, closed_loop(self.gateway, self.images[picks], self.scale.serve_outstanding)


WORKLOAD_CLASSES = {
    "defense-preact": DefensePreact,
    "prune-mobilenet": PruneMobilenet,
    "grid-table1": GridTable1,
    "serve-open": ServeOpen,
    "serve-closed": ServeClosed,
}


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: List[float]) -> Dict[str, float]:
    """The highest whole percentile, at most p99, with at least ten samples
    beyond it; the maximum when not even the median has."""
    q = min(99, math.floor(100.0 * (1.0 - 10.0 / len(values)))) if values else 0
    if q < 50:
        return {"q": 100.0, "ms": max(values) if values else 0.0}
    return {"q": float(q), "ms": _percentile(values, q)}


class Measurement:
    """Operations of one kind (traced or not): their walls and outcomes."""

    def __init__(self, workload, name: str, tracer: Optional[Tracer] = None) -> None:
        self.workload = workload
        self.name = name
        self.tracer = tracer
        self.walls: List[float] = []
        self.outcomes: List[Outcome] = []
        # Engine and batcher counter deltas summed over the operations.
        self.deltas: Dict[str, float] = {}

    def _run(self, seed: int, seconds: float):
        if self.name == "serve-open":
            return self.workload.run(seed, seconds)
        return self.workload.run(seed)

    def _counters(self) -> Dict[str, float]:
        counters = {f"engine.{k}": float(v) for k, v in engine().totals.items()}
        if isinstance(self.workload, _Serve):
            stats = self.workload.gateway.stats()["batcher"]
            counters["batcher.batches"] = float(stats["batches"])
            for reason in ("full", "deadline"):
                counters[f"batcher.flush_{reason}"] = float(stats["flush_reasons"].get(reason, 0))
        return counters

    def once(self, seed: int, seconds: float) -> None:
        before = self._counters()
        if self.tracer is None:
            started = time.perf_counter()
            state = self._run(seed, seconds)
            self.walls.append(time.perf_counter() - started)
        else:
            self.tracer.instrument()
            try:
                started = time.perf_counter()
                with self.tracer.span("bench.op"):
                    state = self._run(seed, seconds)
                self.walls.append(time.perf_counter() - started)
            finally:
                self.tracer.restore()
            if isinstance(self.workload, _Serve):
                _record_requests(self.tracer, state[1])
        for key, value in self._counters().items():
            self.deltas[key] = self.deltas.get(key, 0.0) + value - before.get(key, 0.0)
        self.outcomes.append(self.workload.check(state))

    def latency_ms(self) -> float:
        if self.name == "serve-open":
            latencies = [x for o in self.outcomes for x in o.latency_ms]
            return statistics.median(latencies) if latencies else float("inf")
        return statistics.median(self.walls) * 1e3


def measure(workload, name: str, seed: int, seconds: float) -> Measurement:
    """Operations back to back until ``seconds`` have passed (at least one)."""
    measurement = Measurement(workload, name)
    started = time.perf_counter()
    index = 0
    while True:
        measurement.once(op_seed(seed, index), seconds)
        index += 1
        if name == "serve-open" or time.perf_counter() - started >= seconds:
            return measurement


def measure_traced(workload, name: str, seed: int, seconds: float):
    """Pairs of one untraced and one traced operation until ``seconds`` have
    passed; returns both measurements.  The two operations of a pair draw
    different inputs of the same size: the orchestrator keeps trained
    scenarios in memory by fingerprint, so repeating a grid seed in one
    process would skip the attack training."""
    plain = Measurement(workload, name)
    traced = Measurement(workload, name, Tracer())
    started = time.perf_counter()
    index = 0
    while True:
        plain.once(op_seed(seed, 2 * index), seconds / 2.0)
        traced.once(op_seed(seed, 2 * index + 1), seconds / 2.0)
        index += 1
        if name == "serve-open" or time.perf_counter() - started >= seconds:
            return plain, traced


def _record_requests(tracer: Tracer, load) -> None:
    """One span per gateway request, with its queue wait and compute as
    children; all three share the request's id."""
    for i, verdict in enumerate(load.verdicts):
        if verdict is None:
            continue
        sent, done = load.sent_s[i], load.done_s[i]
        parent = tracer.record("serving.request", sent, done, request=i)
        queued_end = done - (verdict.latency_ms - verdict.queued_ms) / 1e3
        tracer.record("serving.queue", sent, queued_end, request=i, parent=parent)
        tracer.record("serving.compute", queued_end, done, request=i, parent=parent)


def top_self(tracer: Tracer, n: int = 12) -> List[Dict]:
    """Spans of real threads ranked by self time (request spans excluded)."""
    rows = [
        {"name": name, **row} for name, row in tracer.summary().items()
        if not name.startswith("serving.")
    ]
    rows.sort(key=lambda row: row["self_s"], reverse=True)
    return rows[:n]


def layer_metrics(traced: Measurement, plain: Measurement, main: int) -> Dict[str, float]:
    """Per-layer numbers per traced operation (see the README's layer map)."""
    tracer = traced.tracer
    ops = max(1, len(traced.walls))
    table = tracer.summary()
    counters = tracer.counters
    deltas = traced.deltas

    def busy(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0) / ops

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0) / ops

    def count(key: str) -> float:
        return counters.get(key, 0.0) / ops

    def extra(key: str) -> float:
        return sum(float(o.extra.get(key, 0.0)) for o in traced.outcomes) / ops

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    def joined(key: str) -> List[float]:
        return [x for o in traced.outcomes for x in o.extra.get(key, [])]

    execute_s = busy("nn.engine.execute") + busy("nn.engine.execute_tn")
    flop = count("nn.engine.execute.flop") + count("nn.engine.execute_tn.flop")
    moved = count("nn.engine.execute.bytes") + count("nn.engine.execute_tn.bytes")
    artifact_calls = sum(calls(f"orchestrator.artifacts.{op}") for op in
                         ("get_state", "put_state", "get_json", "put_json"))
    gets = calls("orchestrator.artifacts.get_state") + calls("orchestrator.artifacts.get_json")
    hits = (count("orchestrator.artifacts.get_state.hits")
            + count("orchestrator.artifacts.get_json.hits"))
    queued, compute = joined("queued_ms"), joined("compute_ms")
    latencies = [x for o in traced.outcomes for x in o.latency_ms]
    request_tail = tail(latencies)
    op_wall = sum(traced.walls)
    main_self = sum(row["self_s"] for row in tracer.summary(main).values())
    metrics = {
        "core.defense.apply_s": busy("core.defense.apply"),
        "core.defense.calls": calls("core.defense.apply"),
        "core.pruner.prune_s": busy("core.pruner.prune"),
        "core.pruner.rounds": count("core.pruner.prune.rounds"),
        "core.pruner.rolled_back": count("core.pruner.prune.rolled_back"),
        "core.scoring.score_s": busy("core.scoring.compute_filter_scores"),
        "core.scoring.calls": calls("core.scoring.compute_filter_scores"),
        "core.unlearning.backward_s": busy("core.unlearning.unlearning_loss_backward"),
        "core.evaluator.eval_s": busy("core.evaluator.evaluate"),
        "core.evaluator.calls": calls("core.evaluator.evaluate"),
        "core.evaluator.images_per_s": rate(
            count("core.pruner.prune.eval_images"), busy("core.evaluator.evaluate")),
        "core.tuner.tune_s": busy("core.tuner.tune"),
        "core.tuner.epochs": count("core.tuner.tune.epochs"),
        "core.tuner.samples_per_s": rate(count("core.tuner.tune.samples"), busy("core.tuner.tune")),
        "nn.module.forward_s": busy("nn.module.forward"),
        "nn.module.calls": calls("nn.module.forward"),
        "nn.tensor.backward_s": busy("nn.tensor.backward"),
        "nn.tensor.calls": calls("nn.tensor.backward"),
        "nn.optim.step_s": busy("nn.optim.step"),
        "nn.optim.calls": calls("nn.optim.step"),
        "nn.inference.compile_s": busy("nn.inference.compile"),
        "nn.inference.forward_s": busy("nn.inference.forward"),
        "nn.inference.images": count("nn.inference.forward.images"),
        "nn.engine.execute_s": busy("nn.engine.execute"),
        "nn.engine.execute_tn_s": busy("nn.engine.execute_tn"),
        "nn.engine.calls": deltas.get("engine.calls", 0.0) / ops,
        "nn.engine.inline_calls": deltas.get("engine.inline_calls", 0.0) / ops,
        "nn.engine.tiled_calls": deltas.get("engine.tiled_calls", 0.0) / ops,
        "nn.engine.tiles": deltas.get("engine.tiles", 0.0) / ops,
        "nn.engine.gflop": flop / 1e9,
        "nn.engine.gbytes": moved / 1e9,
        "nn.engine.gflops": rate(flop / 1e9, execute_s),
        "attacks.poisoner.train_s": busy("attacks.poisoner.train_backdoored_model"),
        "attacks.poisoner.samples_per_s": rate(
            count("attacks.poisoner.train_backdoored_model.samples"),
            busy("attacks.poisoner.train_backdoored_model")),
        "eval.metrics.eval_s": busy("eval.metrics.evaluate_backdoor_metrics"),
        "eval.metrics.acc": extra("acc"),
        "eval.metrics.asr": extra("asr"),
        "orchestrator.tasks.train": extra("tasks.train"),
        "orchestrator.tasks.trial": extra("tasks.trial"),
        "orchestrator.tasks.aggregate": extra("tasks.aggregate"),
        "orchestrator.busy_s.train": extra("busy_s.train"),
        "orchestrator.busy_s.trial": extra("busy_s.trial"),
        "orchestrator.busy_s.aggregate": extra("busy_s.aggregate"),
        "orchestrator.overhead_s": extra("overhead_s"),
        "orchestrator.failed": extra("failed"),
        "orchestrator.retried": extra("retried"),
        "orchestrator.artifacts.calls": artifact_calls,
        "orchestrator.artifacts.s": sum(busy(f"orchestrator.artifacts.{op}") for op in
                                        ("get_state", "put_state", "get_json", "put_json")),
        "orchestrator.artifacts.hit_ratio": rate(hits, gets),
        "serving.batches": deltas.get("batcher.batches", 0.0) / ops,
        "serving.mean_batch": rate(len(queued), deltas.get("batcher.batches", 0.0)),
        "serving.flush_full": deltas.get("batcher.flush_full", 0.0) / ops,
        "serving.flush_deadline": deltas.get("batcher.flush_deadline", 0.0) / ops,
        "serving.queued_ms_p50": _percentile(queued, 50),
        "serving.queued_ms_p99": _percentile(queued, 99),
        "serving.compute_ms_p50": _percentile(compute, 50),
        "serving.compute_ms_p99": _percentile(compute, 99),
        "serving.rejected": extra("rejected"),
        "loadgen.requests": len(latencies) / ops,
        "loadgen.late_ms_max": max(
            (o.extra.get("late_ms_max", 0.0) for o in traced.outcomes), default=0.0),
        "loadgen.latency_tail_ms": request_tail["ms"],
        "loadgen.tail_percentile": request_tail["q"] if latencies else 0.0,
        "telemetry.events": extra("events"),
        "trace.op_s": op_wall / ops,
        "trace.overhead_frac": traced.latency_ms() / plain.latency_ms() - 1.0,
        "trace.coverage": rate(main_self, op_wall),
    }
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("prepare",) + tuple(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    scale = TOY if args.toy else FULL

    if args.workload == "prepare":
        os.makedirs(scale.cache, exist_ok=True)
        summary = prepare(scale)
        print(json.dumps({"prepared": summary}))
        return 0

    workload = WORKLOAD_CLASSES[args.workload](scale)
    workload.setup()
    setup_s = time.perf_counter() - _STARTED
    result: Dict = {"setup_s": setup_s}
    try:
        if not args.setup_only:
            if isinstance(workload, _Serve):
                workload.load_pool()
            if args.trace:
                plain, measurement = measure_traced(
                    workload, args.workload, args.seed, args.seconds)
                result["layers"] = layer_metrics(measurement, plain, threading.get_ident())
                result["top_self"] = top_self(measurement.tracer)
                outcomes = plain.outcomes + measurement.outcomes
            else:
                measurement = measure(workload, args.workload, args.seed, args.seconds)
                outcomes = measurement.outcomes
            result.update(
                latency_ms=measurement.latency_ms(),
                op_walls_s=measurement.walls,
                attempted=sum(o.attempted for o in outcomes),
                failed=sum(o.failed for o in outcomes),
                problems=[p for o in outcomes for p in o.problems],
            )
            latencies = [x for o in measurement.outcomes for x in o.latency_ms]
            if latencies:
                result["request_tail"] = {**tail(latencies), "count": len(latencies)}
    finally:
        workload.close()
        reset_engine()
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
