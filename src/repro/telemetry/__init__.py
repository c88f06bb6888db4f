"""Structured telemetry for unlearning runs.

One process-wide :class:`TelemetryBus` stamps typed events and fans them
out to sinks (JSONL files with rotation, in-memory buffers, the stdlib
logger).  The module-level :func:`emit` is the single emission path used
by the hot loops (``core.pruner``, ``core.tuner``, orchestrator,
serving); with nothing attached it reduces to one boolean check, so
instrumentation stays in place at zero practical cost (bounded by the
``BENCH_telemetry.json`` microbenchmark).

Set ``REPRO_TELEMETRY_DIR`` to make every process — including forked
orchestrator workers — lazily attach a ``telemetry-<pid>.jsonl`` sink in
that directory on first emit.  ``repro watch`` tails those files plus
the run ledger into a live dashboard (:mod:`repro.telemetry.watch`).
"""

from .bus import (
    TELEMETRY_DIR_ENV,
    TelemetryBus,
    bus,
    emit,
    release_env_sink,
    reset_bus,
    set_bus,
)
from .events import RESERVED_KEYS, TelemetryEvent, sanitize_value
from .sinks import JsonlSink, LoggerSink, MemorySink, Sink

__all__ = [
    "TELEMETRY_DIR_ENV",
    "TelemetryBus",
    "bus",
    "emit",
    "release_env_sink",
    "reset_bus",
    "set_bus",
    "TelemetryEvent",
    "sanitize_value",
    "RESERVED_KEYS",
    "Sink",
    "MemorySink",
    "JsonlSink",
    "LoggerSink",
]
