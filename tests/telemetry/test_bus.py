"""TelemetryBus wiring: emit, sinks, failure isolation, snapshot."""

import json
import os

import pytest

from repro.telemetry import (
    TELEMETRY_DIR_ENV,
    JsonlSink,
    MemorySink,
    TelemetryBus,
    TelemetryEvent,
)
from repro.telemetry.bus import _MAX_FAILURES


@pytest.fixture
def fresh_bus():
    return TelemetryBus()


class FailingSink(MemorySink):
    def write(self, event):
        raise OSError("disk gone")


class TestFastPath:
    def test_inactive_emit_returns_none(self, fresh_bus):
        assert fresh_bus.active is False
        assert fresh_bus.emit("e", "s", x=1) is None

    def test_inactive_emit_does_not_advance_seq(self, fresh_bus):
        fresh_bus.emit("e")
        sink = fresh_bus.attach(MemorySink())
        fresh_bus.emit("e2")
        assert sink.events[0].seq == 1

    def test_attach_detach_toggles_active(self, fresh_bus):
        sink = fresh_bus.attach(MemorySink())
        assert fresh_bus.active is True
        fresh_bus.detach(sink)
        assert fresh_bus.active is False


class TestDelivery:
    def test_sink_receives_event_with_fields(self, fresh_bus):
        sink = fresh_bus.attach(MemorySink())
        record = fresh_bus.emit("prune_round", "core.pruner", round=3, loss=0.5)
        assert isinstance(record, TelemetryEvent)
        assert sink.events[0].fields == {"round": 3, "loss": 0.5}
        assert sink.events[0].source == "core.pruner"

    def test_seq_monotonic_across_emits(self, fresh_bus):
        sink = fresh_bus.attach(MemorySink())
        for _ in range(5):
            fresh_bus.emit("e")
        assert [e.seq for e in sink.events] == [1, 2, 3, 4, 5]

    def test_fan_out_to_multiple_sinks(self, fresh_bus):
        first, second = fresh_bus.attach(MemorySink()), fresh_bus.attach(MemorySink())
        fresh_bus.emit("e")
        assert len(first.events) == len(second.events) == 1

    def test_memory_sink_named_filter(self, fresh_bus):
        sink = fresh_bus.attach(MemorySink())
        fresh_bus.emit("a")
        fresh_bus.emit("b")
        fresh_bus.emit("a")
        assert len(sink.named("a")) == 2


class TestFailureIsolation:
    def test_failing_subscriber_never_raises_into_emitter(self, fresh_bus):
        fresh_bus.attach(FailingSink())
        fresh_bus.emit("e")  # must not raise

    def test_failing_sink_detached_after_max_failures(self, fresh_bus):
        good = fresh_bus.attach(MemorySink())
        fresh_bus.attach(FailingSink())
        for _ in range(_MAX_FAILURES + 2):
            fresh_bus.emit("e")
        # Good sink saw everything; the bad one is gone and the bus settles.
        assert len(good.events) == _MAX_FAILURES + 2
        assert fresh_bus.snapshot()["bus"]["sinks"] == 1

    def test_dropped_counter_increments(self, fresh_bus):
        fresh_bus.attach(FailingSink())
        fresh_bus.emit("e")
        assert fresh_bus.dropped == 1


class TestMetricsSnapshot:
    def test_snapshot_shape(self, fresh_bus):
        assert fresh_bus.snapshot() == {"bus": {"events_emitted": 0, "sinks": 0, "dropped": 0}}
        fresh_bus.attach(MemorySink())
        fresh_bus.attach(FailingSink())
        fresh_bus.emit("e")
        fresh_bus.emit("e")
        assert fresh_bus.snapshot()["bus"] == {"events_emitted": 2, "sinks": 2, "dropped": 2}

    def test_snapshot_is_json_clean(self, fresh_bus):
        fresh_bus.attach(FailingSink())
        fresh_bus.emit("e")
        snap = fresh_bus.snapshot()
        assert json.loads(json.dumps(snap, allow_nan=False)) == snap
        assert snap["bus"]["dropped"] == 1


class TestJsonlSinkRotation:
    def test_writes_valid_jsonl(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.write(TelemetryEvent(event="e", seq=1, fields={"loss": float("nan")}))
        sink.close()
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["loss"] == "nan"

    def test_rotation_shifts_backups(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(str(path), max_bytes=200, backups=2)
        for i in range(50):
            sink.write(TelemetryEvent(event="e", seq=i, fields={"pad": "x" * 40}))
        sink.close()
        assert path.exists()
        assert (tmp_path / "t.jsonl.1").exists()
        assert (tmp_path / "t.jsonl.2").exists()
        assert not (tmp_path / "t.jsonl.3").exists()
        # Every surviving line is intact JSON (rotation never tears a line).
        for candidate in (path, tmp_path / "t.jsonl.1", tmp_path / "t.jsonl.2"):
            for line in candidate.read_text().splitlines():
                json.loads(line)

    def test_write_after_close_is_noop(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.write(TelemetryEvent(event="e"))  # must not raise

    def test_creates_parent_directory(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "deep" / "er" / "t.jsonl"))
        sink.write(TelemetryEvent(event="e"))
        sink.close()
        assert (tmp_path / "deep" / "er" / "t.jsonl").exists()


class TestRunContext:
    def test_env_dir_attaches_per_pid_sink(self, tmp_path, monkeypatch):
        from repro.telemetry import bus as bus_accessor
        from repro.telemetry import emit, reset_bus

        monkeypatch.setenv(TELEMETRY_DIR_ENV, str(tmp_path))
        reset_bus()
        try:
            emit("env_event", "test", x=2)
            bus_accessor().close()
            expected = tmp_path / f"telemetry-{os.getpid()}.jsonl"
            assert expected.exists()
            assert json.loads(expected.read_text().splitlines()[0])["x"] == 2
        finally:
            monkeypatch.delenv(TELEMETRY_DIR_ENV)
            reset_bus()

    def test_close_detaches_everything(self, fresh_bus):
        fresh_bus.attach(MemorySink())
        fresh_bus.attach(MemorySink())
        fresh_bus.close()
        assert not fresh_bus.active
        assert fresh_bus.snapshot()["bus"]["sinks"] == 0
