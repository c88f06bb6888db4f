"""Telemetry sinks: where the event stream lands.

A sink is anything with ``write(event)`` and ``close()``.  The bus fans
every emitted :class:`~repro.telemetry.events.TelemetryEvent` out to all
attached sinks; a sink that raises is detached-on-error by the bus (one
broken disk must not take down the pruning loop it observes).

- :class:`JsonlSink` — one JSON object per line, size-based rotation
  (``telemetry.jsonl`` → ``telemetry.jsonl.1`` …), the durable per-run
  stream that ``repro watch`` tails.
- :class:`MemorySink` — bounded in-process ring buffer, the test/debug
  sink and the backing store for dashboards embedded in the same process.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import List, Optional

from .events import TelemetryEvent

__all__ = ["Sink", "JsonlSink", "MemorySink"]


class Sink:
    """Interface: override :meth:`write`; :meth:`flush`/:meth:`close` are optional."""

    def write(self, event: TelemetryEvent) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink(Sink):
    """Ring buffer of the most recent events (thread-safe)."""

    def __init__(self, capacity: int = 4096) -> None:
        self._events: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def write(self, event: TelemetryEvent) -> None:
        with self._lock:
            self._events.append(event)

    @property
    def events(self) -> List[TelemetryEvent]:
        with self._lock:
            return list(self._events)

    def named(self, event_name: str) -> List[TelemetryEvent]:
        return [e for e in self.events if e.event == event_name]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()


class JsonlSink(Sink):
    """Append JSON lines to a file, rotating when it grows past ``max_bytes``.

    Rotation shifts ``path`` → ``path.1`` → … → ``path.<backups>`` (oldest
    dropped), so a soak run is bounded at roughly
    ``max_bytes * (backups + 1)`` on disk.  Writes are line-buffered, not
    fsynced — durability for *decisions* belongs to the orchestrator's run
    ledger; this stream is observability, where throughput wins.
    """

    def __init__(
        self,
        path: str,
        max_bytes: Optional[int] = 16 * 1024 * 1024,
        backups: int = 3,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive or None, got {max_bytes}")
        if backups < 0:
            raise ValueError(f"backups must be >= 0, got {backups}")
        self.path = path
        self.max_bytes = max_bytes
        self.backups = backups
        self._lock = threading.Lock()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a")
        self._size = self._handle.tell()

    def write(self, event: TelemetryEvent) -> None:
        line = json.dumps(event.to_json(), sort_keys=True, allow_nan=False) + "\n"
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(line)
            self._size += len(line)
            if self.max_bytes is not None and self._size >= self.max_bytes:
                self._rotate_locked()

    def _rotate_locked(self) -> None:
        self._handle.flush()
        self._handle.close()
        if self.backups == 0:
            os.replace(self.path, self.path + ".old")
            os.remove(self.path + ".old")
        else:
            for index in range(self.backups, 0, -1):
                older = f"{self.path}.{index}"
                newer = self.path if index == 1 else f"{self.path}.{index - 1}"
                if os.path.exists(older) and index == self.backups:
                    os.remove(older)
                if os.path.exists(newer):
                    os.replace(newer, older)
        self._handle = open(self.path, "a")
        self._size = 0

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                self._handle.close()
                self._handle = None

