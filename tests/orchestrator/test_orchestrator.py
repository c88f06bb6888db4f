"""Orchestrator integration: DAG compilation, golden values, fault/resume.

Uses a deliberately tiny grid (150 train samples, 2 epochs, 3 classes) so a
full train → defend → aggregate round trip stays in the seconds range.
"""

import glob
import io
import json
import logging
import os

import pytest

from repro.eval import TrialCache, scenario_configs
from repro.eval.experiments import ExperimentProfile, ExperimentSpec
from repro.orchestrator import FAULT_RATE_ENV, RunLedger
from repro.orchestrator.orchestrator import (
    Orchestrator,
    OrchestratorConfig,
    build_experiment_dag,
)
from repro.telemetry.watch import watch_paths

TINY_PROFILE = ExperimentProfile(
    name="tiny",
    n_train=150,
    n_test=60,
    n_reservoir=120,
    train_epochs=2,
    spc_values=(2,),
    num_trials=2,
    num_classes_cifar=3,
    defense_kwargs={"ft": {"epochs": 1}},
)


# The tiny grid's numbers as the serial ``run_experiment`` runner computed
# them; the orchestrator must reproduce them bit for bit, inline or pooled.
GOLDEN_BASELINE = (0.43333333333333335, 0.125, 0.5)
GOLDEN_AGGREGATES = [
    # (defense, spc, trials, acc mean, acc std, asr mean, asr std, ra mean, ra std)
    ("clp", 2, 2, 0.4166666666666667, 0.0, 0.125, 0.0, 0.5, 0.0),
    ("ft", 2, 2, 0.43333333333333335, 0.0, 0.0875, 0.0375, 0.5, 0.0),
]


def tiny_spec(defenses=("clp", "ft")):
    return ExperimentSpec(
        "tiny", "Tiny grid", "synth_cifar", ("preact_resnet18",), ("badnets",),
        defenses, TINY_PROFILE,
    )


def orchestrator_for(tmp_path, **overrides):
    kwargs = dict(
        workers=0,
        run_dir=str(tmp_path / "run"),
        model_cache_dir=str(tmp_path / "models"),
        trial_cache_dir=str(tmp_path / "trials"),
        retry_backoff=0.01,
        verbose=False,
    )
    kwargs.update(overrides)
    return Orchestrator(OrchestratorConfig(**kwargs))


def ledger_events(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


class TestDagBuilder:
    def test_structure(self):
        spec = tiny_spec()
        tasks = build_experiment_dag(spec)
        kinds = {}
        for task in tasks:
            kinds.setdefault(task.kind, []).append(task)
        # 1 scenario; 1 SPC x 2 defenses x 2 trials; 1 SPC x 2 defenses.
        assert len(kinds["train"]) == 1
        assert len(kinds["trial"]) == 4
        assert len(kinds["aggregate"]) == 2

    def test_ids_embed_fingerprint(self):
        spec = tiny_spec()
        (_, _, config), = scenario_configs(spec)
        fingerprint = config.fingerprint()
        tasks = build_experiment_dag(spec)
        assert all(task.scenario == fingerprint for task in tasks)
        assert any(task.task_id == f"train:{fingerprint}" for task in tasks)

    def test_trial_keys_match_trial_cache(self):
        spec = tiny_spec()
        (_, _, config), = scenario_configs(spec)
        for task in build_experiment_dag(spec):
            if task.kind != "trial":
                continue
            expected = TrialCache.key(
                config, task.payload["defense"], task.payload["defense_kwargs"],
                task.payload["spc"], task.payload["seed"],
            )
            assert task.payload["key"] == expected
            assert task.task_id == f"trial:{expected}"

    def test_dependencies_wired(self):
        spec = tiny_spec()
        tasks = {task.task_id: task for task in build_experiment_dag(spec)}
        for task in tasks.values():
            if task.kind == "trial":
                assert len(task.deps) == 1 and task.deps[0].startswith("train:")
            if task.kind == "aggregate":
                assert len(task.deps) == TINY_PROFILE.num_trials
                assert all(dep.startswith("trial:") for dep in task.deps)


class TestGoldenGrid:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_aggregates_match_golden(self, tmp_path, workers):
        result = orchestrator_for(tmp_path, workers=workers).run(tiny_spec())
        assert result.ok and result.counts == {"done": 7}
        baseline = result.experiment.baselines["preact_resnet18"]["badnets"]
        assert (baseline.acc, baseline.asr, baseline.ra) == GOLDEN_BASELINE
        aggregates = result.experiment.results["preact_resnet18"]["badnets"]
        assert [
            (a.defense, a.spc, a.num_trials, a.acc_mean, a.acc_std,
             a.asr_mean, a.asr_std, a.ra_mean, a.ra_std)
            for a in aggregates
        ] == GOLDEN_AGGREGATES
        assert result.table_text()


class TestScenarioMemo:
    def test_same_seed_fresh_cache_dir_trains_into_it(self, tmp_path):
        """Inline runs share the in-process scenario memo; a run against a
        new model cache must still train (and store) its own checkpoint in
        its train task.  No defenses: the train task is the whole DAG."""
        spec = tiny_spec(defenses=())
        for name in ("first", "second"):
            result = orchestrator_for(tmp_path / name).run(spec)
            assert result.ok and result.counts == {"done": 1}
            stored = [
                filename
                for _, _, files in os.walk(tmp_path / name / "models")
                for filename in files
                if filename.endswith(".npz")
            ]
            assert stored, f"{name} run wrote no checkpoint to its model cache"


class TestFaultInjectionAndResume:
    def test_faulted_run_resumes_without_recompute(self, tmp_path, monkeypatch):
        """Acceptance: REPRO_ORCH_FAULT_RATE>0 retries; --resume finishes the
        grid without re-executing any task the ledger marks done."""
        spec = tiny_spec(defenses=("clp",))
        monkeypatch.setenv(FAULT_RATE_ENV, "0.4")
        first = orchestrator_for(tmp_path, max_retries=2).run(spec)
        events = ledger_events(first.ledger_path)
        assert any(event["event"] == "retried" for event in events)
        done_after_first = {
            event["task"] for event in events if event["event"] == "finished"
        }
        lines_after_first = len(events)

        monkeypatch.setenv(FAULT_RATE_ENV, "0")
        second = orchestrator_for(tmp_path, resume=True).run(spec)
        assert second.ok and not second.failed_cells
        assert second.reused == len(done_after_first)
        appended = ledger_events(second.ledger_path)[lines_after_first:]
        restarted = {
            event["task"] for event in appended if event["event"] == "started"
        }
        assert not (restarted & done_after_first), "resume re-ran finished tasks"

    def test_resume_of_complete_run_is_noop(self, tmp_path):
        spec = tiny_spec(defenses=("clp",))
        first = orchestrator_for(tmp_path).run(spec)
        assert first.ok
        lines = len(ledger_events(first.ledger_path))
        second = orchestrator_for(tmp_path, resume=True).run(spec)
        assert second.ok
        assert second.reused == len(build_experiment_dag(spec))
        appended = ledger_events(second.ledger_path)[lines:]
        assert all(event["event"] == "run_meta" for event in appended)
        # Results are fully reconstructed from the ledger alone.
        assert second.experiment.results["preact_resnet18"]["badnets"]

    def test_resume_against_different_grid_starts_fresh(self, tmp_path):
        first = orchestrator_for(tmp_path).run(tiny_spec(defenses=("clp",)))
        assert first.ok
        second = orchestrator_for(tmp_path, resume=True).run(tiny_spec(defenses=("ft",)))
        assert second.ok
        assert second.reused == 0  # mismatched grid hash → rotated, not reused
        assert os.path.exists(first.ledger_path + ".bak1")


class TestLedgerIsTheTaskRecord:
    """Task lifecycle events go to the ledger only, never onto the bus."""

    def test_watch_folds_each_task_event_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_RATE_ENV, "0.5")
        result = orchestrator_for(tmp_path, max_retries=5).run(tiny_spec(defenses=("clp",)))
        assert glob.glob(os.path.join(result.run_dir, "telemetry-*.jsonl"))
        retried = sum(e["event"] == "retried" for e in ledger_events(result.ledger_path))
        assert retried > 0
        state = watch_paths(result.run_dir, once=True, out=io.StringIO())
        _, records = RunLedger(result.run_dir).replay()
        assert state.retries == retried
        assert {task_id: task.status for task_id, task in state.tasks.items()} == {
            task_id: record.status for task_id, record in records.items()
        }

    def test_verbose_run_logs_task_events_but_not_hot_loop_events(self, tmp_path):
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        root = logging.getLogger("repro")
        root.addHandler(handler)
        try:
            result = orchestrator_for(tmp_path, verbose=True).run(
                tiny_spec(defenses=("grad_prune",))
            )
        finally:
            root.removeHandler(handler)
        assert result.ok
        lines = stream.getvalue().splitlines()
        finished = [
            e["task"] for e in ledger_events(result.ledger_path) if e["event"] == "finished"
        ]
        logged = [
            line.split(" task=")[1].split()[0]
            for line in lines
            if line.startswith("event=finished ")
        ]
        assert sorted(logged) == sorted(finished)
        # The pruner's rounds reach the telemetry files but not the console.
        streamed = [
            json.loads(line)["event"]
            for path in glob.glob(os.path.join(result.run_dir, "telemetry-*.jsonl"))
            for line in open(path)
        ]
        assert "prune_round" in streamed
        assert not [line for line in lines if "prune_round" in line]


class TestGracefulDegradation:
    def test_total_failure_is_reported_not_raised(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_RATE_ENV, "1.0")
        result = orchestrator_for(tmp_path, max_retries=0).run(tiny_spec())
        assert not result.ok
        assert result.counts == {"failed": 1, "skipped": 6}
        assert any("training failed" in cell for cell in result.failed_cells)
        assert result.table_text() == ""
