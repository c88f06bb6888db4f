"""Worker pool: retries, fault injection, timeouts, worker-death recovery.

Executor functions are module-level so forked workers can run them; they
coordinate across processes through marker files in the test's tmp dir.
"""

import json
import os
import time

import pytest

from repro.orchestrator.dag import Task, TaskGraph
from repro.telemetry import TELEMETRY_DIR_ENV, emit
from repro.orchestrator.pool import (
    FAULT_RATE_ENV,
    FaultInjected,
    fault_roll,
    maybe_inject_fault,
    run_tasks,
)


def ok_executor(ctx, task, attempt):
    return {"task": task.task_id, "attempt": attempt}


def flaky_executor(ctx, task, attempt):
    """Fail (or die) on the first attempt of tasks listed in ctx."""
    if task.task_id in ctx.get("flaky", ()) and attempt == 1:
        if ctx.get("kill"):
            os._exit(17)
        raise RuntimeError(f"flaky {task.task_id}")
    return {"task": task.task_id, "attempt": attempt}


def always_fail_executor(ctx, task, attempt):
    if task.task_id in ctx.get("broken", ()):
        raise RuntimeError("permanently broken")
    return {"task": task.task_id}


def emitting_executor(ctx, task, attempt):
    emit("worker.probe", "pool-test", task=task.task_id)
    return {"task": task.task_id}


def slow_first_attempt_executor(ctx, task, attempt):
    if task.task_id in ctx.get("slow", ()) and attempt == 1:
        time.sleep(30)
    return {"task": task.task_id, "attempt": attempt}


def chain():
    return [
        Task("a", "train"),
        Task("b", "trial", deps=("a",)),
        Task("c", "trial", deps=("a",)),
        Task("d", "aggregate", deps=("b", "c")),
    ]


class Events:
    def __init__(self):
        self.log = []

    def __call__(self, event, task, **fields):
        self.log.append((event, task.task_id, fields))

    def of(self, event):
        return [entry for entry in self.log if entry[0] == event]


class TestInline:
    def test_runs_to_completion(self):
        events = Events()
        outcomes = run_tasks(TaskGraph(chain()), ok_executor, on_event=events)
        assert set(outcomes) == {"a", "b", "c", "d"}
        assert all(outcome.ok for outcome in outcomes.values())
        # Dependencies respected: a started before b/c, d last.
        started = [task_id for event, task_id, _ in events.log if event == "started"]
        assert started[0] == "a" and started[-1] == "d"

    def test_retry_then_success(self):
        events = Events()
        outcomes = run_tasks(
            TaskGraph(chain()), flaky_executor, {"flaky": ("b",)},
            retry_backoff=0.01, on_event=events,
        )
        assert outcomes["b"].ok
        assert outcomes["b"].attempts == 2
        assert len(events.of("retried")) == 1
        assert len(events.of("failed")) == 1

    def test_permanent_failure_cascades(self):
        events = Events()
        outcomes = run_tasks(
            TaskGraph(chain()), always_fail_executor, {"broken": ("b",)},
            max_retries=1, retry_backoff=0.01, on_event=events,
        )
        assert not outcomes["b"].ok
        assert outcomes["b"].error.endswith("permanently broken")
        assert not outcomes["d"].ok and outcomes["d"].error == "dep_failed:b"
        assert outcomes["a"].ok and outcomes["c"].ok  # siblings unharmed
        assert [task_id for _, task_id, _ in events.of("skipped")] == ["d"]

    def test_task_timeout_is_refused(self):
        # Nothing can preempt an inline task, so a timeout would be ignored.
        events = Events()
        with pytest.raises(ValueError, match="workers >= 1"):
            run_tasks(TaskGraph(chain()), ok_executor, task_timeout=5.0, on_event=events)
        assert events.log == []  # refused before any task started


class TestFaultInjection:
    def test_roll_deterministic(self):
        assert fault_roll("t1", 1) == fault_roll("t1", 1)
        assert 0.0 <= fault_roll("t1", 1) < 1.0
        assert fault_roll("t1", 1) != fault_roll("t1", 2)

    def test_rate_one_always_faults(self, monkeypatch):
        monkeypatch.setenv(FAULT_RATE_ENV, "1.0")
        with pytest.raises(FaultInjected):
            maybe_inject_fault("any-task", 1, allow_kill=False)

    def test_rate_zero_never_faults(self, monkeypatch):
        monkeypatch.setenv(FAULT_RATE_ENV, "0")
        maybe_inject_fault("any-task", 1, allow_kill=False)

    def test_injected_faults_are_retried(self, monkeypatch):
        monkeypatch.setenv(FAULT_RATE_ENV, "0.5")
        events = Events()
        outcomes = run_tasks(
            TaskGraph(chain()), ok_executor,
            max_retries=8, retry_backoff=0.01, on_event=events,
        )
        # With a 0.5 rate and 9 attempts, all four tasks complete
        # (deterministic rolls; p(all fail) ~ 2^-9 per task would surface as
        # a failed outcome and break the assertion below).
        assert all(outcome.ok for outcome in outcomes.values())
        assert len(events.of("failed")) >= 1  # injection actually fired


class TestPooled:
    def test_runs_to_completion(self):
        outcomes = run_tasks(TaskGraph(chain()), ok_executor, workers=2)
        assert set(outcomes) == {"a", "b", "c", "d"}
        assert all(outcome.ok for outcome in outcomes.values())

    def test_worker_death_is_recovered(self):
        events = Events()
        outcomes = run_tasks(
            TaskGraph(chain()), flaky_executor, {"flaky": ("b",), "kill": True},
            workers=2, retry_backoff=0.01, on_event=events,
        )
        assert all(outcome.ok for outcome in outcomes.values())
        assert outcomes["b"].attempts == 2
        failed = events.of("failed")
        assert any("died" in fields.get("error", "") for _, _, fields in failed)

    def test_worker_telemetry_lands_on_disk(self, tmp_path, monkeypatch):
        # Workers exit via os._exit, which skips interpreter shutdown: only
        # the per-task flush in _worker_main makes their emits durable.
        monkeypatch.setenv(TELEMETRY_DIR_ENV, str(tmp_path))
        outcomes = run_tasks(TaskGraph(chain()), emitting_executor, workers=2)
        assert all(outcome.ok for outcome in outcomes.values())
        lines = [
            line
            for path in tmp_path.glob("telemetry-*.jsonl")
            for line in path.read_text().splitlines()
        ]
        probed = {json.loads(line)["task"] for line in lines
                  if json.loads(line)["event"] == "worker.probe"}
        assert probed == {"a", "b", "c", "d"}

    def test_timeout_kills_and_retries(self):
        events = Events()
        outcomes = run_tasks(
            TaskGraph([Task("a", "train"), Task("b", "trial", deps=("a",))]),
            slow_first_attempt_executor, {"slow": ("a",)},
            workers=1, task_timeout=1.0, retry_backoff=0.01, on_event=events,
        )
        assert outcomes["a"].ok and outcomes["a"].attempts == 2
        assert outcomes["b"].ok
        failed = events.of("failed")
        assert any("timeout" in fields.get("error", "") for _, _, fields in failed)
