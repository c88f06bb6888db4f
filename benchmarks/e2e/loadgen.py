"""Open- and closed-loop request generators for the serving gateway.

``open_loop`` models independent users: request ``i`` is due at
``start + i / rate`` whatever happened to earlier requests, and its latency
runs from that due time, so a stall that delays later submissions is
charged to them.  How late the generator itself ran is reported as
``late_ms_max``.  (The library's ``TrafficGenerator.run`` instead sleeps
``1 / rate`` after each submit, which drifts below the nominal rate and
hides generator-side waiting.)

``closed_loop`` models callers that wait for replies: at most
``outstanding`` requests are in flight, and each completion admits the next.

A request the gateway refuses with ``QueueFullError`` is a failure and
misses any latency limit: its latency is ``inf``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.serving.batcher import QueueFullError

__all__ = ["LoadResult", "open_loop", "closed_loop"]


@dataclass
class LoadResult:
    """Per-request outcomes of one load pass, in submission order."""

    latency_ms: List[float] = field(default_factory=list)
    verdicts: List[Optional[object]] = field(default_factory=list)
    # perf_counter stamps: when each request was due (open loop) or sent
    # (closed loop), and when its reply arrived.
    sent_s: List[float] = field(default_factory=list)
    done_s: List[float] = field(default_factory=list)
    rejected: int = 0
    errors: int = 0
    late_ms_max: float = 0.0


class _Completions:
    """Completion times written by future callbacks on the drain thread.

    ``Future.result`` can return before the done-callbacks have run, so the
    reader waits for every callback instead of racing them.
    """

    def __init__(self, n: int, on_done=None) -> None:
        self.at = [0.0] * n
        self._count = 0
        self._cond = threading.Condition()
        self._on_done = on_done

    def callback(self, i: int):
        def _mark(_future) -> None:
            self.at[i] = time.perf_counter()
            with self._cond:
                self._count += 1
                self._cond.notify_all()
            if self._on_done is not None:
                self._on_done()

        return _mark

    def wait(self, count: int, timeout_s: float) -> None:
        with self._cond:
            if not self._cond.wait_for(lambda: self._count >= count, timeout=timeout_s):
                raise TimeoutError(f"{count - self._count} requests unresolved after {timeout_s}s")


def _collect(result: LoadResult, futures, sent_at, done: _Completions, timeout_s: float) -> None:
    done.wait(sum(f is not None for f in futures), timeout_s)
    for i, future in enumerate(futures):
        verdict = None
        if future is not None and future.exception() is None:
            verdict = future.result()
        elif future is not None:
            result.errors += 1
        result.verdicts.append(verdict)
        result.sent_s.append(sent_at[i])
        result.done_s.append(done.at[i] if verdict is not None else sent_at[i])
        result.latency_ms.append(
            float("inf") if verdict is None else (done.at[i] - sent_at[i]) * 1e3
        )


def open_loop(gateway, images: np.ndarray, rate: float, timeout_s: float = 60.0) -> LoadResult:
    """Send ``images`` on a fixed schedule of ``rate`` requests per second."""
    n = len(images)
    futures: List = [None] * n
    done = _Completions(n)
    result = LoadResult()
    start = time.perf_counter()
    due = [start + i / rate for i in range(n)]
    for i in range(n):
        delay = due[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        result.late_ms_max = max(result.late_ms_max, (time.perf_counter() - due[i]) * 1e3)
        try:
            futures[i] = gateway.submit(images[i])
        except QueueFullError:
            result.rejected += 1
            continue
        futures[i].add_done_callback(done.callback(i))
    _collect(result, futures, due, done, timeout_s)
    return result


def closed_loop(gateway, images: np.ndarray, outstanding: int,
                timeout_s: float = 60.0) -> LoadResult:
    """Send ``images`` keeping at most ``outstanding`` requests in flight."""
    n = len(images)
    futures: List = [None] * n
    sent_at = [0.0] * n
    slots = threading.Semaphore(outstanding)
    done = _Completions(n, on_done=slots.release)
    result = LoadResult()
    for i in range(n):
        if not slots.acquire(timeout=timeout_s):
            raise TimeoutError(f"no reply within {timeout_s}s with {outstanding} in flight")
        sent_at[i] = time.perf_counter()
        try:
            futures[i] = gateway.submit(images[i])
        except QueueFullError:
            result.rejected += 1
            slots.release()
            continue
        futures[i].add_done_callback(done.callback(i))
    _collect(result, futures, sent_at, done, timeout_s)
    return result
