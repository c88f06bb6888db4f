"""Append-only JSONL run ledger: durable progress for resumable grids.

Every task state change is one JSON line appended (and fsynced) to
``ledger.jsonl`` in the run directory::

    {"ts": ..., "event": "run_meta", "experiment": "table1", "grid": "ab12..", ...}
    {"ts": ..., "event": "queued",   "task": "train:3f..", "kind": "train", "scenario": "3f.."}
    {"ts": ..., "event": "started",  "task": "trial:9c..", "attempt": 1, "worker": 2}
    {"ts": ..., "event": "finished", "task": "trial:9c..", "attempt": 1, "worker": 2,
     "elapsed": 12.3, "result": {"metrics": {...}}}
    {"ts": ..., "event": "failed",   "task": "...", "attempt": 1, "error": "..."}
    {"ts": ..., "event": "retried",  "task": "...", "attempt": 2, "delay": 0.5}
    {"ts": ..., "event": "skipped",  "task": "...", "reason": "dep_failed:train:3f.."}

Task ids embed ``ScenarioConfig.fingerprint()`` (and trial-cache keys, which
hash the fingerprint plus defense parameters), so a ledger written by one
process maps exactly onto the task DAG a later ``--resume`` invocation
rebuilds from the same experiment spec.  :meth:`RunLedger.replay` folds the
event stream into per-task records; tasks whose final state is ``done``
carry their (small) result payload inline and are never re-executed.

A crash can truncate at most the final line; replay skips unparsable lines.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = ["RunLedger", "TaskRecord"]

# Event → resulting task status (replay fold).
_STATUS_FOR_EVENT = {
    "queued": "queued",
    "started": "running",
    "finished": "done",
    "failed": "failed",
    "retried": "queued",
    "skipped": "skipped",
}


@dataclass
class TaskRecord:
    """Folded state of one task after ledger replay."""

    task_id: str
    status: str = "queued"  # queued | running | done | failed | skipped
    kind: str = ""
    scenario: str = ""
    attempts: int = 0
    result: Optional[Dict] = None
    error: Optional[str] = None
    elapsed: float = 0.0
    events: int = field(default=0, repr=False)


class RunLedger:
    """Append-only JSONL ledger for one logical run directory."""

    FILENAME = "ledger.jsonl"

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        os.makedirs(run_dir, exist_ok=True)
        self.path = os.path.join(run_dir, self.FILENAME)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, event: str, **fields) -> None:
        """Append one event line; flushed and fsynced for crash durability."""
        record = {"ts": round(time.time(), 3), "event": event}
        record.update(fields)
        line = json.dumps(record, sort_keys=True, default=str)
        with open(self.path, "a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def rotate(self) -> Optional[str]:
        """Move an existing ledger aside (fresh, non-resume runs); returns new name."""
        if not os.path.exists(self.path):
            return None
        index = 1
        while os.path.exists(f"{self.path}.bak{index}"):
            index += 1
        backup = f"{self.path}.bak{index}"
        os.replace(self.path, backup)
        return backup

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self) -> Tuple[Dict, Dict[str, TaskRecord]]:
        """Fold the event stream into ``(run_meta, {task_id: TaskRecord})``.

        Malformed lines (a crash can truncate the tail) are skipped.
        """
        meta: Dict = {}
        records: Dict[str, TaskRecord] = {}
        if not os.path.exists(self.path):
            return meta, records
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue
                event = entry.get("event")
                if event == "run_meta":
                    meta = entry
                    continue
                task_id = entry.get("task")
                if not task_id or event not in _STATUS_FOR_EVENT:
                    continue
                record = records.setdefault(task_id, TaskRecord(task_id=task_id))
                record.events += 1
                record.status = _STATUS_FOR_EVENT[event]
                if entry.get("kind"):
                    record.kind = entry["kind"]
                if entry.get("scenario"):
                    record.scenario = entry["scenario"]
                if event == "started":
                    record.attempts = max(record.attempts, int(entry.get("attempt", 1)))
                if event == "finished":
                    record.result = entry.get("result")
                    record.elapsed = float(entry.get("elapsed", 0.0))
                if event == "failed":
                    record.error = entry.get("error")
        return meta, records
