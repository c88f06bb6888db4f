"""Telemetry soak: sustained emission under rotation stays bounded and lossless.

Marked ``bench`` so tier-1 runs (``-m 'not bench'``) deselect it; run with
``pytest tests/telemetry/test_soak.py -m bench``.  Wrapped in
``hard_timeout`` like every other bench-marked workload (see
tests/test_bench_lint.py for the rule).
"""

import json
import os

import pytest

from repro.telemetry import JsonlSink, TelemetryBus
from repro.utils.timing import hard_timeout

pytestmark = pytest.mark.bench

GUARD_SECONDS = 120.0
EVENTS = 20_000
MAX_BYTES = 64 * 1024
BACKUPS = 3


def test_sustained_emission_rotates_and_bounds_disk(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    bus = TelemetryBus()
    sink = bus.attach(JsonlSink(str(path), max_bytes=MAX_BYTES, backups=BACKUPS))
    with hard_timeout(GUARD_SECONDS, "telemetry soak wedged"):
        for i in range(EVENTS):
            bus.emit(
                "prune_round", "soak",
                round=i, layer=f"conv{i % 7}", val_loss=1.0 / (i + 1),
                val_acc=0.9, num_pruned=i,
            )
        bus.close()

    # The sink never dropped or detached: every emit was delivered.
    assert bus.dropped == 0
    assert bus.snapshot()["bus"]["events_emitted"] == EVENTS

    # Disk usage is bounded by the rotation budget (live file + backups),
    # with slack for the final partially-filled live file.
    files = [path] + [tmp_path / f"telemetry.jsonl.{i}" for i in range(1, BACKUPS + 1)]
    existing = [f for f in files if f.exists()]
    assert path.exists()
    assert len(existing) == BACKUPS + 1, "soak volume must have filled every backup slot"
    assert not (tmp_path / f"telemetry.jsonl.{BACKUPS + 1}").exists()
    total = sum(os.path.getsize(f) for f in existing)
    assert total <= (BACKUPS + 2) * MAX_BYTES

    # Rotation never tears a line: every surviving record parses, and the
    # sequence numbers on the live tail are the newest ones.
    seqs = []
    for candidate in existing:
        for line in candidate.read_text().splitlines():
            seqs.append(json.loads(line)["seq"])
    assert seqs, "soak left no readable records"
    assert max(seqs) == EVENTS
