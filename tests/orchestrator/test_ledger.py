"""RunLedger: append/replay fold, crash tolerance, rotation."""

import json
import os

from repro.orchestrator.ledger import RunLedger


class TestReplay:
    def test_empty(self, tmp_path):
        meta, records = RunLedger(str(tmp_path)).replay()
        assert meta == {} and records == {}

    def test_lifecycle_fold(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.append("run_meta", experiment="table1", grid="abc")
        ledger.append("queued", task="t1", kind="train", scenario="fp1")
        ledger.append("started", task="t1", attempt=1, worker=0)
        ledger.append("finished", task="t1", attempt=1, worker=0, elapsed=2.5,
                      result={"baseline": {"acc": 0.9}})
        meta, records = ledger.replay()
        assert meta["experiment"] == "table1"
        assert records["t1"].status == "done"
        assert records["t1"].kind == "train"
        assert records["t1"].scenario == "fp1"
        assert records["t1"].result == {"baseline": {"acc": 0.9}}
        assert records["t1"].attempts == 1
        assert records["t1"].elapsed == 2.5

    def test_retry_then_success(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.append("queued", task="t1", kind="trial")
        ledger.append("started", task="t1", attempt=1)
        ledger.append("failed", task="t1", attempt=1, error="boom")
        ledger.append("retried", task="t1", attempt=2, delay=0.5)
        ledger.append("started", task="t1", attempt=2)
        ledger.append("finished", task="t1", attempt=2, result={"m": 1})
        _, records = ledger.replay()
        assert records["t1"].status == "done"
        assert records["t1"].attempts == 2
        assert records["t1"].error == "boom"  # last failure is preserved

    def test_permanent_failure_and_skip(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.append("started", task="t1", attempt=1)
        ledger.append("failed", task="t1", attempt=1, error="dead")
        ledger.append("skipped", task="t2", reason="dep_failed:t1")
        _, records = ledger.replay()
        assert records["t1"].status == "failed"
        assert records["t2"].status == "skipped"

    def test_truncated_tail_tolerated(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.append("finished", task="t1", result={"v": 1})
        with open(ledger.path, "a") as handle:
            handle.write('{"event": "finished", "task": "t2", "resu')  # crash mid-line
        _, records = ledger.replay()
        assert records["t1"].status == "done"
        assert "t2" not in records


class TestRotation:
    def test_rotate_moves_ledger_aside(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.append("queued", task="t1")
        backup = ledger.rotate()
        assert backup and os.path.exists(backup)
        assert not os.path.exists(ledger.path)
        # A second rotation with a fresh file picks the next free suffix.
        ledger.append("queued", task="t2")
        backup2 = ledger.rotate()
        assert backup2 != backup

    def test_rotate_without_ledger_is_noop(self, tmp_path):
        assert RunLedger(str(tmp_path)).rotate() is None


class TestDurability:
    def test_lines_are_valid_json(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.append("queued", task="t1", kind="train")
        ledger.append("finished", task="t1", result={"metrics": {"acc": 1.0}})
        with open(ledger.path) as handle:
            lines = [json.loads(line) for line in handle]
        assert all("ts" in line and "event" in line for line in lines)
