"""Sharded federated scheduler: DAG shape, orchestrated runs, kill+resume.

Uses a deliberately tiny grid (4 clients, 2 rounds, 120 train samples,
3 classes) so a full client-fan-out -> aggregate -> defend cycle stays in
the seconds range.
"""

import json
import os

import numpy as np
import pytest

from repro.federated import (
    FederatedOrchestrator,
    FederatedScenario,
    build_federated_dag,
    federated_spec,
)
from repro.federated.scheduler import state_key, update_key
from repro.orchestrator import FAULT_RATE_ENV
from repro.orchestrator.artifacts import ArtifactStore
from repro.orchestrator.orchestrator import OrchestratorConfig

TINY = dict(
    client_counts=(4,),
    malicious_fractions=(0.25,),
    rounds=2,
    n_train=120,
    n_test=60,
    n_reservoir=120,
    num_classes=3,
    defenses=("fed_unlearn",),
    defense_kwargs={"fed_unlearn": {"epochs": 2}},
    spc=2,
)


def tiny_spec(**overrides):
    kwargs = dict(TINY)
    kwargs.update(overrides)
    return federated_spec("quick", **kwargs)


def orchestrator_for(tmp_path, **overrides):
    kwargs = dict(
        workers=0,
        run_dir=str(tmp_path / "run"),
        retry_backoff=0.01,
        verbose=False,
    )
    kwargs.update(overrides)
    return FederatedOrchestrator(OrchestratorConfig(**kwargs))


def ledger_events(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


class TestSpec:
    def test_quick_grid_defaults(self):
        spec = federated_spec("quick")
        assert spec.client_counts == (8, 64)
        assert spec.malicious_fractions == (0.125, 0.25)
        assert spec.base.rounds == 3
        assert spec.defenses == ("grad_prune", "fed_unlearn")
        assert len(spec.scenarios()) == 4

    def test_overrides_route_to_spec_or_scenario(self):
        spec = tiny_spec(alpha=0.1, partition="iid")
        assert spec.client_counts == (4,)
        assert spec.base.alpha == 0.1
        assert spec.base.partition == "iid"
        with pytest.raises(TypeError):
            federated_spec("quick", gradient_clipping=True)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            FederatedScenario(num_clients=0)
        with pytest.raises(ValueError):
            FederatedScenario(partition="sorted")
        with pytest.raises(ValueError):
            FederatedScenario(client_fraction=0.0)
        # Refused at construction, before any client task could run.
        with pytest.raises(ValueError, match="aggregation"):
            FederatedScenario(aggregation="median_of_means")
        with pytest.raises(ValueError, match="malicious_fraction"):
            FederatedScenario(malicious_fraction=1.5)
        with pytest.raises(ValueError, match="malicious_fraction"):
            federated_spec("quick", malicious_fractions=(1.5,)).scenarios()

    def test_fingerprint_sensitivity(self):
        a = FederatedScenario()
        assert a.fingerprint() == FederatedScenario().fingerprint()
        assert a.fingerprint() != FederatedScenario(alpha=0.1).fingerprint()

    def test_participants_deterministic_and_sorted(self):
        scenario = FederatedScenario(num_clients=10, client_fraction=0.4)
        first = scenario.participants(1)
        assert first == scenario.participants(1)
        assert first == sorted(first)
        assert len(first) == 4
        assert first != scenario.participants(2) or len(set(first)) == 10
        full = FederatedScenario(num_clients=5)
        assert full.participants(0) == [0, 1, 2, 3, 4]


class TestDagBuilder:
    def test_structure(self):
        spec = tiny_spec(defenses=("grad_prune", "fed_unlearn"))
        tasks = build_federated_dag(spec)
        kinds = {}
        for task in tasks:
            kinds.setdefault(task.kind, []).append(task)
        # 1 cell: 2 rounds x 4 clients, 2 aggregations, 2 defense arms.
        assert len(kinds["fed_client"]) == 8
        assert len(kinds["fed_round"]) == 2
        assert len(kinds["fed_defense"]) == 2

    def test_dependencies_wired(self):
        spec = tiny_spec()
        fp = spec.scenarios()[0].fingerprint()
        tasks = {task.task_id: task for task in build_federated_dag(spec)}
        for task in tasks.values():
            assert task.scenario == fp
        # Round 0 clients are roots; round 1 clients wait on the round-0 barrier.
        assert tasks[f"fedc:{fp}:0:0"].deps == ()
        assert tasks[f"fedc:{fp}:1:0"].deps == (f"feda:{fp}:0",)
        # Each barrier waits on exactly its round's client tasks.
        assert set(tasks[f"feda:{fp}:1"].deps) == {
            f"fedc:{fp}:1:{cid}" for cid in range(4)
        }
        # Defense hangs off the final aggregate only.
        assert tasks[f"fedd:{fp}:1:fed_unlearn"].deps == (f"feda:{fp}:1",)


class TestOrchestratedRun:
    def test_runs_and_defense_cuts_asr(self, tmp_path):
        """Acceptance core: tableF cell through the pool; the no-defense arm
        keeps a high ASR while the unlearning arm cuts it."""
        result = orchestrator_for(tmp_path).run(tiny_spec())
        assert result.ok
        assert result.counts == {"done": 11}
        (cell,) = result.cells
        assert len(cell.rounds) == 2
        none_arm = cell.arms["none"]
        defended = cell.arms["fed_unlearn"]
        assert none_arm.asr > 0.6
        assert defended.asr < none_arm.asr
        assert "fed_unlearn" in result.table_text()
        assert "done=11" in result.summary()

    def test_workers_match_serial_bitwise(self, tmp_path):
        spec = tiny_spec()
        fp = spec.scenarios()[0].fingerprint()
        serial = orchestrator_for(tmp_path / "serial").run(spec)
        pooled = orchestrator_for(tmp_path / "pooled", workers=2).run(spec)
        assert serial.ok and pooled.ok
        a = ArtifactStore(os.path.join(serial.run_dir, "artifacts"))
        b = ArtifactStore(os.path.join(pooled.run_dir, "artifacts"))
        sa = a.get_state(state_key(fp, 1))
        sb = b.get_state(state_key(fp, 1))
        assert sa is not None and sb is not None
        assert sa.keys() == sb.keys()
        assert all(np.array_equal(sa[k], sb[k]) for k in sa)


class TestKillAndResume:
    def test_faulted_run_resumes_bitwise_identical(self, tmp_path, monkeypatch):
        """Acceptance: kill mid-run (fault injection), resume, and the final
        aggregate is bitwise identical to an uninterrupted run."""
        spec = tiny_spec()
        fp = spec.scenarios()[0].fingerprint()
        reference = orchestrator_for(tmp_path / "ref").run(spec)
        assert reference.ok

        monkeypatch.setenv(FAULT_RATE_ENV, "0.4")
        first = orchestrator_for(tmp_path, max_retries=0).run(spec)
        assert not first.ok  # at least one task died with retries disabled
        events = ledger_events(first.ledger_path)
        done_after_first = {
            event["task"] for event in events if event["event"] == "finished"
        }
        lines_after_first = len(events)

        monkeypatch.setenv(FAULT_RATE_ENV, "0")
        second = orchestrator_for(tmp_path, resume=True).run(spec)
        assert second.ok
        appended = ledger_events(second.ledger_path)[lines_after_first:]
        restarted = {
            event["task"] for event in appended if event["event"] == "started"
        }
        assert not (restarted & done_after_first), "resume re-ran finished tasks"

        ref_store = ArtifactStore(os.path.join(reference.run_dir, "artifacts"))
        res_store = ArtifactStore(os.path.join(second.run_dir, "artifacts"))
        ref_state = ref_store.get_state(state_key(fp, 1))
        res_state = res_store.get_state(state_key(fp, 1))
        assert ref_state is not None and res_state is not None
        assert all(np.array_equal(ref_state[k], res_state[k]) for k in ref_state)
        (ref_cell,) = reference.cells
        (res_cell,) = second.cells
        assert [(m.acc, m.asr, m.ra) for m in res_cell.rounds] == [
            (m.acc, m.asr, m.ra) for m in ref_cell.rounds
        ]

    def test_resume_distrusts_missing_artifacts(self, tmp_path):
        """A ledger 'done' without its artifact re-executes instead of
        poisoning the resumed run."""
        spec = tiny_spec()
        fp = spec.scenarios()[0].fingerprint()
        first = orchestrator_for(tmp_path).run(spec)
        assert first.ok
        store = ArtifactStore(os.path.join(first.run_dir, "artifacts"))
        os.remove(store.path(state_key(fp, 1), ".npz"))
        second = orchestrator_for(tmp_path, resume=True).run(spec)
        assert second.ok
        # The final aggregation (and its dependants are preloaded) re-ran.
        assert second.reused < len(build_federated_dag(spec))
        assert store.get_state(state_key(fp, 1)) is not None

    def test_client_update_artifacts_written(self, tmp_path):
        spec = tiny_spec()
        fp = spec.scenarios()[0].fingerprint()
        result = orchestrator_for(tmp_path).run(spec)
        assert result.ok
        store = ArtifactStore(os.path.join(result.run_dir, "artifacts"))
        for round_index in range(2):
            for client_id in range(4):
                assert store.get_state(update_key(fp, round_index, client_id)) is not None
