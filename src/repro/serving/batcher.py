"""Dynamic micro-batching request queue for the serving gateway.

Single-image requests are the natural unit for callers, but the worst
possible unit for the numpy substrate: a batch-1 forward pays the full
Python/layer dispatch overhead per image.  The :class:`MicroBatcher` turns
an open stream of requests into batches, and it never holds a request back
to wait for company.  The drain loop is *work-conserving*: whenever the
drain thread is free, it takes everything already queued (up to
``max_batch``) and runs it at once.

- A lone request at low load runs the moment it arrives (flush reason
  ``idle``: the queue ran dry before the batch filled).
- Under load, the requests that arrived while the previous batch ran form
  the next batch, so batch size follows the backlog (reason ``full`` once
  ``max_batch`` are waiting).

There is no deadline knob: holding a request back only pays when more
traffic arrives within the wait, and the backlog already gathers exactly
that traffic while the model is busy.

One daemon drain thread owns batch assembly and the downstream
``process_batch`` callback, so the model only ever runs on one thread and
needs no internal locking.  ``submit`` is thread-safe and wait-free (a
``queue.Queue`` put) and returns a :class:`concurrent.futures.Future`.

Shutdown is *drain-by-default*: ``close()`` refuses new submissions, lets
the drain thread flush everything already accepted (the sentinel is
enqueued strictly after every accepted request; a partial batch that ends
at the sentinel has reason ``drain``), and joins the thread — no request
accepted before ``close()`` is ever dropped.  If ``process_batch`` raises,
the exception is delivered to each affected request's future instead of
killing the drain loop.

Admission control: with ``max_queue`` set, a submit that would exceed the
bound of accepted-but-unresolved requests is rejected immediately with
:class:`QueueFullError` carrying a drain-time estimate (``retry_after_s``,
from the measured mean batch time) — the HTTP front turns that into
``503`` + ``Retry-After`` instead of letting latency grow without bound
under overload.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import Counter
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..telemetry import emit
from ..utils.logging import get_logger

__all__ = ["MicroBatcher", "BatchRequest", "BatcherStats", "QueueFullError"]

_SOURCE = "serving.batcher"


class QueueFullError(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` when admission control rejects.

    ``retry_after_s`` estimates when the queue should have drained enough
    to accept work again (what the HTTP layer advertises as
    ``Retry-After``).
    """

    def __init__(self, name: str, depth: int, limit: int, retry_after_s: float) -> None:
        super().__init__(f"{name} queue full ({depth}/{limit} requests pending)")
        self.depth = depth
        self.limit = limit
        self.retry_after_s = retry_after_s

_LOG = get_logger("repro.serving.batcher")

_STOP = object()


@dataclass
class BatchRequest:
    """One queued request: the payload plus its future and queue timestamps."""

    payload: Any
    future: Future
    enqueued_at: float
    started_at: Optional[float] = None

    @property
    def queued_ms(self) -> float:
        start = self.started_at if self.started_at is not None else time.perf_counter()
        return (start - self.enqueued_at) * 1e3


@dataclass
class BatcherStats:
    """Counters the drain thread maintains (snapshot via :meth:`MicroBatcher.stats`)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0  # admission-control rejections (QueueFullError)
    batches: int = 0
    busy_s: float = 0.0  # wall time spent inside process_batch
    batch_size_histogram: Dict[int, int] = field(default_factory=Counter)
    flush_reasons: Dict[str, int] = field(default_factory=Counter)


class MicroBatcher:
    """Queue single requests, deliver micro-batches to ``process_batch``.

    Parameters
    ----------
    process_batch:
        ``process_batch(requests: List[BatchRequest]) -> None``; must
        resolve every request's future (the batcher resolves them with the
        callback's exception if it raises).
    max_batch:
        Largest batch handed to ``process_batch``.
    max_queue:
        Bound on accepted-but-unresolved requests; ``None`` disables
        admission control.  A submit over the bound raises
        :class:`QueueFullError` instead of queueing.
    """

    def __init__(
        self,
        process_batch: Callable[[List[BatchRequest]], None],
        max_batch: int = 32,
        max_queue: Optional[int] = None,
        name: str = "microbatcher",
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1 or None, got {max_queue}")
        self.process_batch = process_batch
        self.max_batch = int(max_batch)
        self.max_queue = max_queue
        self.name = name
        self._queue: "queue.Queue" = queue.Queue()
        self._submit_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._stats = BatcherStats()
        self._inflight = 0  # accepted and not yet resolved (under _submit_lock)
        self._closed = False
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        if self._thread is not None:
            raise RuntimeError("batcher already started")
        self._thread = threading.Thread(target=self._drain_loop, name=self.name, daemon=True)
        self._thread.start()
        return self

    def close(self, timeout: Optional[float] = None) -> None:
        """Refuse new work, drain everything accepted, join the thread."""
        with self._submit_lock:
            if self._closed:
                thread = self._thread
                if thread is not None:
                    thread.join(timeout)
                return
            self._closed = True
            # Under the lock no submit can interleave: the sentinel lands
            # strictly after every accepted request.
            self._queue.put(_STOP)
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise TimeoutError(f"{self.name} failed to drain within {timeout}s")

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> "Future":
        """Enqueue one request; resolves when its micro-batch is processed.

        Raises :class:`QueueFullError` when ``max_queue`` is set and that
        many accepted requests are still unresolved.
        """
        future: Future = Future()
        request = BatchRequest(payload=payload, future=future, enqueued_at=time.perf_counter())
        with self._submit_lock:
            if self._closed:
                raise RuntimeError(f"{self.name} is closed")
            depth = self._inflight
            if self.max_queue is not None and depth >= self.max_queue:
                overloaded = True
            else:
                overloaded = False
                self._inflight = depth + 1
                self._queue.put(request)
        if overloaded:
            # Drain estimate: the batches ahead of us, each taking the mean
            # batch time measured so far (floored for a cold batcher).
            batches_ahead = max(1, -(-depth // self.max_batch))
            with self._stats_lock:
                self._stats.rejected += 1
                batches, busy_s = self._stats.batches, self._stats.busy_s
            mean_batch_s = busy_s / batches if batches else 0.0
            retry_after = max(0.05, batches_ahead * mean_batch_s)
            emit(
                "overload_rejected", _SOURCE,
                batcher=self.name, depth=depth, limit=self.max_queue,
                retry_after_s=retry_after,
            )
            raise QueueFullError(self.name, depth, self.max_queue, retry_after)
        with self._stats_lock:
            self._stats.submitted += 1
        return future

    def queue_depth(self) -> int:
        """Accepted requests not yet resolved (the admission-control gauge)."""
        with self._submit_lock:
            return self._inflight

    # ------------------------------------------------------------------
    # Drain thread
    # ------------------------------------------------------------------
    def _drain_loop(self) -> None:
        while True:
            first = self._queue.get()  # idle: block until work arrives
            if first is _STOP:
                return
            # Work-conserving: run everything already queued, now.  What
            # arrives while this batch runs forms the next one.
            batch: List[BatchRequest] = [first]
            stopping = False
            while len(batch) < self.max_batch:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _STOP:
                    stopping = True  # sentinel is strictly last (see close())
                    break
                batch.append(item)
            if len(batch) >= self.max_batch:
                reason = "full"
            else:
                reason = "drain" if stopping else "idle"
            self._flush(batch, reason)
            if stopping:
                return

    def _flush(self, batch: List[BatchRequest], reason: str) -> None:
        now = time.perf_counter()
        for request in batch:
            request.started_at = now
        try:
            self.process_batch(batch)
            failed = 0
        except Exception as exc:  # noqa: BLE001 — delivered to the futures
            failed = 0
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
                    failed += 1
            _LOG.warning("batch of %d failed: %s", len(batch), exc)
        busy_s = time.perf_counter() - now
        unresolved = [r for r in batch if not r.future.done()]
        for request in unresolved:
            request.future.set_exception(
                RuntimeError("process_batch returned without resolving this request")
            )
        with self._stats_lock:
            self._stats.batches += 1
            self._stats.busy_s += busy_s
            self._stats.batch_size_histogram[len(batch)] += 1
            self._stats.flush_reasons[reason] += 1
            self._stats.failed += failed + len(unresolved)
            self._stats.completed += len(batch) - failed - len(unresolved)
        with self._submit_lock:
            self._inflight -= len(batch)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._stats_lock:
            snapshot = {
                "submitted": self._stats.submitted,
                "completed": self._stats.completed,
                "failed": self._stats.failed,
                "rejected": self._stats.rejected,
                "batches": self._stats.batches,
                "batch_size_histogram": dict(self._stats.batch_size_histogram),
                "flush_reasons": dict(self._stats.flush_reasons),
            }
        snapshot["queue_depth"] = self.queue_depth()
        return snapshot
