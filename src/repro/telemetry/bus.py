"""The in-process telemetry event bus.

One :class:`TelemetryBus` per process stamps typed events and fans them
out to attached sinks (JSONL files, ring buffers, loggers).  Instrumented
code calls :func:`emit` unconditionally; when nothing is attached the call
is a single attribute check and an immediate return, which is what keeps
the instrumented pruning round within the <5% overhead budget recorded in
``BENCH_telemetry.json`` even with telemetry compiled into every hot loop.

Process-global wiring
---------------------

``bus()`` returns the process-wide default bus.  When the
``REPRO_TELEMETRY_DIR`` environment variable is set, the default bus
lazily attaches ``<dir>/telemetry-<pid>.jsonl`` on first use.  The
orchestrator exports it for the run directory before spawning workers, so
events emitted *inside worker processes* (per-round pruning signals) land
in per-pid files next to the run ledger, where ``repro watch`` picks them
all up.

Sink exceptions never propagate into the instrumented code: they are
counted in :attr:`TelemetryBus.dropped`, the offending sink is detached
after repeated failures, and the emit returns normally.
"""

from __future__ import annotations

import os
import threading
from typing import List, Optional

from ..utils.logging import get_logger
from .events import TelemetryEvent
from .sinks import JsonlSink, Sink

__all__ = [
    "TelemetryBus",
    "bus",
    "set_bus",
    "reset_bus",
    "release_env_sink",
    "emit",
    "TELEMETRY_DIR_ENV",
]

_LOG = get_logger("repro.telemetry")

TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"

# A sink is detached after this many consecutive failures.
_MAX_FAILURES = 3


class TelemetryBus:
    """Thread-safe fan-out of stamped events to the attached sinks."""

    def __init__(self) -> None:
        self._sinks: List[Sink] = []
        self._failures: dict = {}
        # Sink writes that raised, over the bus's lifetime.
        self.dropped = 0
        self._lock = threading.Lock()
        self._seq = 0
        # Fast-path flag: emit() bails immediately while nothing listens.
        self._active = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when at least one sink is attached."""
        return self._active

    def _refresh_active(self) -> None:
        self._active = bool(self._sinks)

    def attach(self, sink: Sink) -> Sink:
        """Attach a sink; returns it (for later :meth:`detach`)."""
        with self._lock:
            if sink not in self._sinks:
                self._sinks.append(sink)
            self._refresh_active()
        return sink

    def detach(self, sink: Sink, close: bool = False) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)
            self._failures.pop(id(sink), None)
            self._refresh_active()
        if close:
            sink.close()

    def flush(self) -> None:
        """Flush every attached sink's buffered output to durable storage.

        Pool workers exit through ``os._exit`` (multiprocessing bootstrap),
        which skips interpreter shutdown — anything still sitting in a
        sink's userspace buffer is lost.  Workers call this after each task
        so live watchers see their events promptly.
        """
        with self._lock:
            sinks = list(self._sinks)
        for sink in sinks:
            try:
                sink.flush()
            except Exception:  # noqa: BLE001 — observability must not kill work
                pass

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, event: str, source: str = "", **fields) -> Optional[TelemetryEvent]:
        """Publish one event; returns it, or None on the disabled fast path."""
        if not self._active:
            return None
        with self._lock:
            self._seq += 1
            record = TelemetryEvent(event=event, source=source, seq=self._seq, fields=fields)
            sinks = list(self._sinks)
        for sink in sinks:
            self._deliver(sink, record)
        return record

    def _deliver(self, sink: Sink, record: TelemetryEvent) -> None:
        try:
            sink.write(record)
            self._failures.pop(id(sink), None)
        except Exception as exc:  # noqa: BLE001 — observers must not kill the loop
            with self._lock:
                self.dropped += 1
                failures = self._failures.get(id(sink), 0) + 1
                self._failures[id(sink)] = failures
            _LOG.warning(
                "telemetry sink failed on %s (%d/%d): %s",
                record.event, failures, _MAX_FAILURES, exc,
            )
            if failures >= _MAX_FAILURES:
                self.detach(sink)
                _LOG.warning("detached failing telemetry sink")

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Bus wiring facts and delivery counts (JSON-clean)."""
        return {
            "bus": {
                "events_emitted": self._seq,
                "sinks": len(self._sinks),
                "dropped": self.dropped,
            }
        }

    def close(self) -> None:
        """Detach and close every sink; the counts survive."""
        with self._lock:
            sinks, self._sinks = self._sinks, []
            self._failures.clear()
            self._refresh_active()
        for sink in sinks:
            try:
                sink.close()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass


# ----------------------------------------------------------------------
# Process-global default bus
# ----------------------------------------------------------------------
_BUS = TelemetryBus()
_ENV_SINK_CHECKED = False
_ENV_SINK: Optional[JsonlSink] = None
_ENV_LOCK = threading.Lock()


def _ensure_env_sink() -> None:
    """Attach the ``REPRO_TELEMETRY_DIR`` JSONL sink once per process."""
    global _ENV_SINK_CHECKED, _ENV_SINK
    if _ENV_SINK_CHECKED:
        return
    with _ENV_LOCK:
        if _ENV_SINK_CHECKED:
            return
        _ENV_SINK_CHECKED = True
        directory = os.environ.get(TELEMETRY_DIR_ENV, "").strip()
        if not directory:
            return
        try:
            _ENV_SINK = JsonlSink(os.path.join(directory, f"telemetry-{os.getpid()}.jsonl"))
        except OSError as exc:
            _LOG.warning("cannot open telemetry sink under %s: %s", directory, exc)
            return
        _BUS.attach(_ENV_SINK)


def release_env_sink() -> None:
    """Detach/close the env-attached sink and re-arm the check.

    Called by run owners (e.g. the orchestrator) that exported
    ``REPRO_TELEMETRY_DIR`` for one run, so a later run in the same
    process binds a fresh sink to its own directory.
    """
    global _ENV_SINK_CHECKED, _ENV_SINK
    with _ENV_LOCK:
        sink, _ENV_SINK = _ENV_SINK, None
        _ENV_SINK_CHECKED = False
    if sink is not None:
        _BUS.detach(sink, close=True)


def _fork_reset() -> None:
    """Give a forked child a pristine bus.

    The child must not inherit the parent's sinks: a JSONL sink's file
    handle and userspace buffer are duplicated by fork, and a child-side
    flush/close would interleave (or replay) the parent's buffered lines.
    The inherited bus is abandoned, not closed, and the env-sink check is
    re-armed so the child attaches its own ``telemetry-<pid>.jsonl`` when
    ``REPRO_TELEMETRY_DIR`` is exported — this is how orchestrator worker
    processes get per-pid telemetry files.
    """
    global _BUS, _ENV_SINK_CHECKED, _ENV_SINK
    _BUS = TelemetryBus()
    _ENV_SINK_CHECKED = False
    _ENV_SINK = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fork_reset)


def bus() -> TelemetryBus:
    """The process-wide default bus (env sink attached lazily)."""
    _ensure_env_sink()
    return _BUS


def set_bus(new_bus: TelemetryBus) -> TelemetryBus:
    """Swap the default bus (tests); returns the previous one."""
    global _BUS
    previous, _BUS = _BUS, new_bus
    return previous


def reset_bus() -> None:
    """Fresh default bus; re-arms the env-sink check (tests, fork hooks)."""
    global _BUS, _ENV_SINK_CHECKED, _ENV_SINK
    _BUS.close()
    _BUS = TelemetryBus()
    _ENV_SINK_CHECKED = False
    _ENV_SINK = None


def emit(event: str, source: str = "", **fields) -> Optional[TelemetryEvent]:
    """Module-level convenience for ``bus().emit(...)``.

    The disabled path costs one global read plus the in-method active
    check — cheap enough to leave in every hot loop unconditionally.
    """
    if not _ENV_SINK_CHECKED:
        _ensure_env_sink()
    return _BUS.emit(event, source, **fields)

