"""Fault-tolerant task execution: inline or on a multiprocessing pool.

Execution model
---------------
``run_tasks`` drains a :class:`~repro.orchestrator.dag.TaskGraph`:

- ``workers == 0`` runs every task inline in the calling process, with
  identical retry/backoff/fault-injection semantics.  Nothing can preempt
  an inline task, so a ``task_timeout`` is refused (``ValueError``).
- ``workers >= 1`` forks that many worker processes, each connected to the
  parent by its own duplex pipe.  The parent therefore always knows which
  task a worker is running and since when, which makes per-task timeouts
  enforceable: an overrunning worker is terminated and replaced, and the
  task goes through the normal failure path.

Failures (exceptions, worker death, timeouts) are retried up to
``max_retries`` times with exponential backoff; a task that exhausts its
retries is marked failed and its transitive dependents are skipped — the
rest of the grid keeps running.

Fault injection
---------------
Setting ``REPRO_ORCH_FAULT_RATE=<p>`` makes a deterministic fraction of
(task, attempt) pairs fail before executing (hash-based, so a given
attempt either always faults or never does — reruns are reproducible and a
retry of a faulted attempt can genuinely succeed).  With
``REPRO_ORCH_FAULT_KILL=1`` an injected fault in a subprocess hard-kills
the worker (``os._exit``) instead of raising, exercising the
worker-death/EOF recovery path.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..telemetry import bus
from ..utils.logging import get_logger
from .dag import Task, TaskGraph

__all__ = [
    "FAULT_RATE_ENV",
    "FAULT_KILL_ENV",
    "FaultInjected",
    "TaskOutcome",
    "fault_roll",
    "maybe_inject_fault",
    "run_tasks",
]

FAULT_RATE_ENV = "REPRO_ORCH_FAULT_RATE"
FAULT_KILL_ENV = "REPRO_ORCH_FAULT_KILL"

_LOG = get_logger("repro.orchestrator.pool")

# executor(ctx, task, attempt) -> result dict
Executor = Callable[[Dict, Task, int], Dict]


class FaultInjected(RuntimeError):
    """Deterministic injected failure (see ``REPRO_ORCH_FAULT_RATE``)."""


@dataclass
class TaskOutcome:
    """Terminal result of one task after all retries."""

    task_id: str
    ok: bool
    value: Optional[Dict]
    error: Optional[str]
    elapsed: float
    worker: int
    attempts: int


def fault_roll(task_id: str, attempt: int) -> float:
    """Deterministic uniform [0, 1) roll for one (task, attempt) pair."""
    digest = hashlib.sha256(f"{task_id}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def maybe_inject_fault(task_id: str, attempt: int, allow_kill: bool) -> None:
    """Raise (or hard-exit) if the fault-injection roll trips."""
    rate = float(os.environ.get(FAULT_RATE_ENV, "0") or 0.0)
    if rate <= 0.0 or fault_roll(task_id, attempt) >= rate:
        return
    if allow_kill and os.environ.get(FAULT_KILL_ENV, "") not in ("", "0"):
        os._exit(17)  # simulate SIGKILL'd worker: no cleanup, no exception
    raise FaultInjected(f"injected fault: task={task_id} attempt={attempt}")


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
def _worker_main(conn, executor: Executor, ctx: Dict, worker_id: int) -> None:
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            break
        if item is None:
            break
        task, attempt = item
        start = time.perf_counter()
        try:
            maybe_inject_fault(task.task_id, attempt, allow_kill=True)
            value = executor(ctx, task, attempt)
            message = (task.task_id, attempt, True, value, None, time.perf_counter() - start)
        except BaseException as exc:  # noqa: BLE001 — workers must not die on task errors
            error = f"{type(exc).__name__}: {exc}"
            message = (task.task_id, attempt, False, None, error, time.perf_counter() - start)
        # Workers exit via os._exit (multiprocessing bootstrap skips
        # interpreter shutdown), so buffered sink output must be pushed to
        # disk per task or the per-pid telemetry files stay empty.
        bus().flush()
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class _WorkerHandle:
    def __init__(self, mp_ctx, executor: Executor, ctx: Dict, worker_id: int) -> None:
        self.worker_id = worker_id
        self.conn, child_conn = mp_ctx.Pipe(duplex=True)
        self.proc = mp_ctx.Process(
            target=_worker_main,
            args=(child_conn, executor, ctx, worker_id),
            daemon=True,
            name=f"repro-orch-worker-{worker_id}",
        )
        self.proc.start()
        child_conn.close()  # parent keeps only its end → EOF is detectable

    def stop(self, grace: float = 1.0) -> None:
        try:
            if self.proc.is_alive():
                self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(grace)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(grace)
        self.conn.close()

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(1.0)
        self.conn.close()


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
class _Driver:
    """Shared retry/outcome bookkeeping for the inline and pooled modes."""

    def __init__(self, graph, max_retries, retry_backoff, on_event):
        self.graph = graph
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.on_event = on_event or (lambda event, task, **fields: None)
        self.outcomes: Dict[str, TaskOutcome] = {}
        self.attempts: Dict[str, int] = {}
        self.not_before: Dict[str, float] = {}

    def dispatchable(self, now: float) -> List[Task]:
        return [
            task
            for task in self.graph.ready_tasks()
            if self.not_before.get(task.task_id, 0.0) <= now
        ]

    def next_retry_delay(self, now: float) -> Optional[float]:
        """Seconds until the earliest backoff expiry among pending tasks."""
        pending = [
            due
            for tid, due in self.not_before.items()
            if self.graph.state.get(tid) == "pending" and due > now
        ]
        return (min(pending) - now) if pending else None

    def begin(self, task: Task, worker: int) -> int:
        attempt = self.attempts.get(task.task_id, 0) + 1
        self.attempts[task.task_id] = attempt
        self.graph.mark_running(task.task_id)
        self.on_event("started", task, attempt=attempt, worker=worker)
        return attempt

    def succeed(self, task: Task, attempt: int, value: Dict, elapsed: float, worker: int) -> None:
        self.graph.mark_done(task.task_id)
        self.outcomes[task.task_id] = TaskOutcome(
            task_id=task.task_id, ok=True, value=value, error=None,
            elapsed=elapsed, worker=worker, attempts=attempt,
        )
        self.on_event(
            "finished", task, attempt=attempt, worker=worker, elapsed=elapsed, result=value
        )

    def fail(self, task: Task, attempt: int, error: str, elapsed: float, worker: int) -> None:
        self.on_event(
            "failed", task, attempt=attempt, worker=worker, elapsed=elapsed, error=error
        )
        if attempt <= self.max_retries:
            delay = self.retry_backoff * (2.0 ** (attempt - 1))
            self.not_before[task.task_id] = time.monotonic() + delay
            self.graph.requeue(task.task_id)
            self.on_event("retried", task, attempt=attempt + 1, delay=delay)
            return
        skipped = self.graph.mark_failed(task.task_id)
        self.outcomes[task.task_id] = TaskOutcome(
            task_id=task.task_id, ok=False, value=None, error=error,
            elapsed=elapsed, worker=worker, attempts=attempt,
        )
        for sid in skipped:
            dep_task = self.graph.tasks[sid]
            self.outcomes[sid] = TaskOutcome(
                task_id=sid, ok=False, value=None,
                error=f"dep_failed:{task.task_id}", elapsed=0.0, worker=-1, attempts=0,
            )
            self.on_event("skipped", dep_task, reason=f"dep_failed:{task.task_id}")


def _run_inline(driver: _Driver, executor: Executor, ctx: Dict) -> None:
    graph = driver.graph
    while not graph.is_complete():
        now = time.monotonic()
        ready = driver.dispatchable(now)
        if not ready:
            delay = driver.next_retry_delay(now)
            if delay is None:
                break  # nothing runnable and no retries pending
            time.sleep(min(delay, 1.0))
            continue
        task = ready[0]
        attempt = driver.begin(task, worker=0)
        start = time.perf_counter()
        try:
            maybe_inject_fault(task.task_id, attempt, allow_kill=False)
            value = executor(ctx, task, attempt)
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # noqa: BLE001 — degrade, don't abort the grid
            driver.fail(
                task, attempt, f"{type(exc).__name__}: {exc}",
                time.perf_counter() - start, worker=0,
            )
            continue
        driver.succeed(task, attempt, value, time.perf_counter() - start, worker=0)


def _run_pooled(
    driver: _Driver,
    executor: Executor,
    ctx: Dict,
    workers: int,
    task_timeout: Optional[float],
) -> None:
    graph = driver.graph
    mp_ctx = _mp_context()
    handles: Dict[int, _WorkerHandle] = {}
    idle: List[int] = []
    # wid -> (task, attempt, started_monotonic)
    inflight: Dict[int, Tuple[Task, int, float]] = {}
    next_wid = 0

    def spawn() -> int:
        nonlocal next_wid
        wid = next_wid
        next_wid += 1
        handles[wid] = _WorkerHandle(mp_ctx, executor, ctx, wid)
        return wid

    def replace(wid: int, *, hard: bool) -> None:
        handle = handles.pop(wid)
        (handle.kill if hard else handle.stop)()
        idle.append(spawn())

    for _ in range(workers):
        idle.append(spawn())

    try:
        while not graph.is_complete():
            now = time.monotonic()
            # Dispatch ready work onto idle workers.
            for task in driver.dispatchable(now):
                if not idle:
                    break
                wid = idle.pop()
                attempt = driver.begin(task, worker=wid)
                try:
                    handles[wid].conn.send((task, attempt))
                except (BrokenPipeError, OSError):
                    replace(wid, hard=True)
                    driver.fail(task, attempt, "worker pipe broken on dispatch", 0.0, wid)
                    continue
                inflight[wid] = (task, attempt, time.monotonic())
            if graph.is_complete():
                break
            if not inflight:
                delay = driver.next_retry_delay(time.monotonic())
                if delay is None:
                    break
                time.sleep(min(delay, 1.0))
                continue
            # Wait for results, a worker death, or the next deadline.
            wait_timeout = 0.25
            if task_timeout is not None:
                oldest = min(start for _, _, start in inflight.values())
                wait_timeout = max(0.01, min(wait_timeout, oldest + task_timeout - now))
            by_conn = {handles[wid].conn: wid for wid in inflight}
            ready_conns = multiprocessing.connection.wait(list(by_conn), timeout=wait_timeout)
            for conn in ready_conns:
                wid = by_conn[conn]
                task, attempt, started = inflight.pop(wid)
                try:
                    _, _, ok, value, error, elapsed = conn.recv()
                except (EOFError, OSError):
                    replace(wid, hard=True)
                    driver.fail(
                        task, attempt, "worker died (killed or crashed)",
                        time.monotonic() - started, wid,
                    )
                    continue
                idle.append(wid)
                if ok:
                    driver.succeed(task, attempt, value, elapsed, wid)
                else:
                    driver.fail(task, attempt, error, elapsed, wid)
            # Enforce per-task deadlines.
            if task_timeout is not None:
                now = time.monotonic()
                for wid in list(inflight):
                    task, attempt, started = inflight[wid]
                    if now - started > task_timeout:
                        del inflight[wid]
                        replace(wid, hard=True)
                        driver.fail(
                            task, attempt,
                            f"timeout after {task_timeout:.1f}s", now - started, wid,
                        )
    finally:
        for handle in handles.values():
            handle.stop()


def run_tasks(
    graph: TaskGraph,
    executor: Executor,
    ctx: Optional[Dict] = None,
    *,
    workers: int = 0,
    task_timeout: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff: float = 0.5,
    on_event: Optional[Callable] = None,
) -> Dict[str, TaskOutcome]:
    """Execute ``graph`` to completion; returns terminal outcomes by task id.

    ``on_event(event, task, **fields)`` is invoked in the parent process for
    every state change (``started`` / ``finished`` / ``failed`` / ``retried``
    / ``skipped``) — the orchestrator uses it to write the run ledger.
    """
    if workers <= 0 and task_timeout is not None:
        raise ValueError("task_timeout needs workers >= 1: an inline task cannot be preempted")
    ctx = ctx or {}
    driver = _Driver(graph, max_retries, retry_backoff, on_event)
    if workers <= 0:
        _run_inline(driver, executor, ctx)
    else:
        _run_pooled(driver, executor, ctx, workers, task_timeout)
    return driver.outcomes
