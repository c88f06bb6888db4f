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

``Orchestrator`` / ``OrchestratorConfig`` / ``build_experiment_dag`` are
re-exported lazily: the evaluation layer imports the artifact store from
this package, so eagerly importing the orchestrator module here (which
itself imports the evaluation layer) would create an import cycle.
"""

from .artifacts import ArtifactStore, content_hash
from .dag import Task, TaskGraph
from .ledger import RunLedger, TaskRecord
from .pool import (
    FAULT_KILL_ENV,
    FAULT_RATE_ENV,
    FaultInjected,
    TaskOutcome,
    fault_roll,
    maybe_inject_fault,
    run_tasks,
)

__all__ = [
    "ArtifactStore",
    "content_hash",
    "Task",
    "TaskGraph",
    "RunLedger",
    "TaskRecord",
    "TaskOutcome",
    "FaultInjected",
    "FAULT_RATE_ENV",
    "FAULT_KILL_ENV",
    "fault_roll",
    "maybe_inject_fault",
    "run_tasks",
    "Orchestrator",
    "OrchestratorConfig",
    "OrchestrationResult",
    "build_experiment_dag",
    "GraphRunResult",
    "run_ledgered_graph",
]

_LAZY = {
    "Orchestrator",
    "OrchestratorConfig",
    "OrchestrationResult",
    "build_experiment_dag",
    "GraphRunResult",
    "run_ledgered_graph",
}


def __getattr__(name: str):
    if name in _LAZY:
        from . import orchestrator as _orchestrator

        return getattr(_orchestrator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
