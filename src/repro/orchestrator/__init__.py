"""Fault-tolerant parallel experiment orchestration.

Layers (each usable on its own):

- :mod:`~repro.orchestrator.artifacts` — content-addressed artifact store
  (atomic writes, checksummed loads) backing the model/trial caches.
- :mod:`~repro.orchestrator.ledger` — append-only JSONL run ledger.
- :mod:`~repro.orchestrator.dag` — task DAG + readiness scheduling.
- :mod:`~repro.orchestrator.pool` — retrying worker pool with per-task
  timeouts and deterministic fault injection.
- :mod:`~repro.orchestrator.orchestrator` — compiles an experiment spec
  into the DAG and runs it (``repro experiment`` / ``repro orchestrate``).

Names resolve on first use: the evaluation layer imports the artifact
store from this package, and the orchestrator module imports the
evaluation layer, so neither import runs the other's whole package.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "artifacts": ("ArtifactStore", "content_hash"),
    "dag": ("Task", "TaskGraph"),
    "ledger": ("RunLedger", "TaskRecord"),
    "pool": (
        "TaskOutcome", "FaultInjected", "FAULT_RATE_ENV", "FAULT_KILL_ENV", "fault_roll",
        "maybe_inject_fault", "run_tasks",
    ),
    "orchestrator": (
        "Orchestrator", "OrchestratorConfig", "OrchestrationResult", "build_experiment_dag",
        "GraphRunResult", "run_ledgered_graph",
    ),
})
