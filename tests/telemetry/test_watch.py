"""JsonlTail incremental reading and WatchState folding/rendering."""

import io
import json

import pytest

from repro.telemetry.watch import (
    JsonlTail,
    WatchState,
    discover_streams,
    render_dashboard,
    sparkline,
    watch_paths,
)


def _write(path, records, mode="a"):
    with open(path, mode) as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


class TestJsonlTail:
    def test_missing_file_returns_empty(self, tmp_path):
        assert JsonlTail(str(tmp_path / "nope.jsonl")).poll() == []

    def test_incremental_reads(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        tail = JsonlTail(path)
        _write(path, [{"event": "a"}])
        assert [r["event"] for r in tail.poll()] == ["a"]
        assert tail.poll() == []
        _write(path, [{"event": "b"}, {"event": "c"}])
        assert [r["event"] for r in tail.poll()] == ["b", "c"]

    def test_partial_trailing_line_buffered(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        tail = JsonlTail(path)
        full = json.dumps({"event": "whole"}) + "\n"
        half = json.dumps({"event": "split"})
        with open(path, "w") as handle:
            handle.write(full + half[:7])
        assert [r["event"] for r in tail.poll()] == ["whole"]
        with open(path, "a") as handle:
            handle.write(half[7:] + "\n")
        assert [r["event"] for r in tail.poll()] == ["split"]

    def test_garbage_lines_skipped(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        with open(path, "w") as handle:
            handle.write('{"event": "ok"}\nnot json at all\n[1, 2]\n')
        events = JsonlTail(path).poll()
        assert [r.get("event") for r in events] == ["ok"]

    def test_truncation_resets_offset(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        tail = JsonlTail(path)
        _write(path, [{"event": "old-%d" % i, "pad": "x" * 50} for i in range(5)])
        tail.poll()
        _write(path, [{"event": "fresh"}], mode="w")  # rotation/truncate
        assert [r["event"] for r in tail.poll()] == ["fresh"]


class TestDiscoverStreams:
    def test_single_file_target(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("")
        assert discover_streams(str(path)) == [str(path)]

    def test_run_dir_globs_ledger_and_telemetry(self, tmp_path):
        (tmp_path / "ledger.jsonl").write_text("")
        (tmp_path / "telemetry-123.jsonl").write_text("")
        (tmp_path / "telemetry-456.jsonl").write_text("")
        (tmp_path / "unrelated.log").write_text("")
        found = discover_streams(str(tmp_path))
        assert len(found) == 3
        assert all("unrelated" not in p for p in found)


class TestWatchStateFolding:
    def test_task_lifecycle_counts(self):
        state = WatchState()
        for record in [
            {"event": "queued", "task": "t1", "kind": "train"},
            {"event": "queued", "task": "t2", "kind": "trial"},
            {"event": "started", "task": "t1"},
            {"event": "finished", "task": "t1", "ts": 10.0, "elapsed": 1.0},
            {"event": "started", "task": "t2"},
            {"event": "failed", "task": "t2", "error": "boom"},
            {"event": "retried", "task": "t2"},
        ]:
            state.apply(record)
        counts = state.task_counts()
        assert counts["done"] == 1
        assert counts["queued"] == 1  # retried re-queues
        assert state.retries == 1

    def test_trial_metrics_folded_from_finished_results(self):
        state = WatchState()
        state.apply(
            {
                "event": "finished",
                "task": "trial:x",
                "ts": 1.0,
                "result": {"key": "x", "metrics": {"acc": 0.9, "asr": 0.05, "ra": 0.8}},
            }
        )
        assert state.trial_metrics == [{"acc": 0.9, "asr": 0.05, "ra": 0.8}]

    def test_prune_rounds_folded(self):
        state = WatchState()
        state.apply({"event": "prune_started", "patience": 3})
        for i, loss in enumerate([0.9, 1.0, 1.1]):
            state.apply(
                {
                    "event": "prune_round",
                    "round": i,
                    "layer": "conv1",
                    "val_loss": loss,
                    "val_acc": 0.9,
                    "num_pruned": i + 1,
                    "best_loss": 0.9,
                    "since_improvement": i,
                }
            )
        reason = "unlearning loss did not improve for 3 rounds"
        state.apply({"event": "prune_finished", "stop_reason": reason})
        assert state.prune_rounds == 3
        assert state.num_pruned == 3
        assert state.per_layer["conv1"] == 3
        assert state.prune_patience == 3
        assert state.prune_stall == 2
        assert state.prune_stop_reason == reason

    def test_new_prune_run_resets_trajectories(self):
        state = WatchState()
        state.apply({"event": "prune_round", "round": 0, "val_loss": 1.0, "layer": "a"})
        state.apply({"event": "prune_started", "patience": 5})
        assert state.prune_rounds == 0
        assert len(state.prune_losses) == 0

    def test_rolled_back_round_not_counted_per_layer(self):
        state = WatchState()
        state.apply(
            {"event": "prune_round", "round": 0, "layer": "a", "rolled_back": True}
        )
        assert state.per_layer == {}

    def test_eta_from_completion_rate(self):
        state = WatchState()
        for i in range(4):
            state.apply({"event": "queued", "task": f"t{i}"})
        # 2 done, 1 second apart -> 1 task/s -> 2 remaining ~ 2 s.
        state.apply({"event": "finished", "task": "t0", "ts": 100.0})
        state.apply({"event": "finished", "task": "t1", "ts": 101.0})
        eta = state.eta_seconds(now=101.0)
        assert eta is not None and 1.0 < eta < 3.0

    def test_eta_none_without_enough_signal(self):
        state = WatchState()
        state.apply({"event": "queued", "task": "t0"})
        assert state.eta_seconds() is None

    def test_non_dict_safe(self):
        state = WatchState()
        state.apply({"no_event_key": 1})
        state.apply({"event": 42})
        assert state.events == 0

    def test_federated_rounds_folded(self):
        state = WatchState()
        for i in range(3):
            state.apply(
                {
                    "event": "federated.round",
                    "round": i,
                    "rounds": 5,
                    "clients": 64,
                    "acc": 0.5 + 0.1 * i,
                    "asr": 0.9 - 0.1 * i,
                    "agg_norm": 2.0,
                }
            )
        assert state.fed_rounds == 3
        assert state.fed_total_rounds == 5
        assert state.fed_clients == 64
        assert list(state.fed_asrs) == pytest.approx([0.9, 0.8, 0.7])
        assert state.fed_agg_norm == 2.0
        # Hot event: kept out of the recent-events footer.
        assert not any("federated.round" in entry for entry in state.recent)

    def test_federated_defense_latest_per_arm(self):
        state = WatchState()
        state.apply({"event": "federated.defense", "defense": "fed_unlearn",
                     "asr": 0.5, "acc": 0.6})
        state.apply({"event": "federated.defense", "defense": "fed_unlearn",
                     "asr": 0.2, "acc": 0.7})
        state.apply({"event": "federated.defense", "defense": "grad_prune",
                     "asr": 0.1, "acc": 0.8})
        assert state.fed_defenses["fed_unlearn"] == {"asr": 0.2, "acc": 0.7}
        assert set(state.fed_defenses) == {"fed_unlearn", "grad_prune"}


class TestRender:
    def _folded_state(self):
        state = WatchState()
        state.apply({"event": "run_meta", "experiment": "table1", "workers": 4})
        state.apply({"event": "queued", "task": "t0", "kind": "train"})
        state.apply({"event": "finished", "task": "t0", "ts": 1.0,
                     "result": {"metrics": {"acc": 0.91, "asr": 0.04, "ra": 0.8}}})
        state.apply({"event": "prune_started", "patience": 5})
        state.apply({"event": "prune_round", "round": 0, "layer": "conv2",
                     "val_loss": 0.7, "val_acc": 0.88, "num_pruned": 1,
                     "best_loss": 0.6, "since_improvement": 1})
        return state

    def test_render_contains_key_sections(self):
        frame = render_dashboard(self._folded_state(), width=78, now=2.0)
        assert "table1" in frame
        assert "tasks" in frame
        assert "ASR" in frame and "ACC" in frame
        assert "prune" in frame
        assert "stall 1/5" in frame

    def test_render_federated_section(self):
        state = self._folded_state()
        state.apply({"event": "federated.round", "round": 1, "rounds": 3,
                     "clients": 64, "acc": 0.6, "asr": 0.8, "agg_norm": 1.25})
        state.apply({"event": "federated.defense", "defense": "fed_unlearn",
                     "asr": 0.3, "acc": 0.62})
        frame = render_dashboard(state, width=78, now=2.0)
        assert "fed" in frame
        assert "round 2/3" in frame
        assert "clients=64" in frame
        assert "fed_unlearn" in frame

    def test_render_respects_width(self):
        frame = render_dashboard(self._folded_state(), width=60, now=2.0)
        assert all(len(line) <= 60 for line in frame.splitlines())

    def test_sparkline_monotone_series(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] < line[-1]

    def test_sparkline_flat_and_empty(self):
        assert sparkline([]) == ""
        assert len(set(sparkline([2.0, 2.0, 2.0]))) == 1

    def test_sparkline_truncates_to_width(self):
        assert len(sparkline(range(100), width=10)) == 10


class TestWatchPaths:
    def test_once_renders_current_contents(self, tmp_path):
        _write(str(tmp_path / "ledger.jsonl"), [
            {"event": "run_meta", "experiment": "exp9"},
            {"event": "queued", "task": "t0"},
            {"event": "finished", "task": "t0", "ts": 1.0},
        ])
        out = io.StringIO()
        state = watch_paths(str(tmp_path), once=True, out=out)
        assert state.events == 3
        assert "exp9" in out.getvalue()

    def test_once_merges_multiple_streams(self, tmp_path):
        _write(str(tmp_path / "ledger.jsonl"), [{"event": "queued", "task": "t0"}])
        _write(str(tmp_path / "telemetry-1.jsonl"),
               [{"event": "prune_round", "round": 0, "val_loss": 1.0}])
        state = watch_paths(str(tmp_path), once=True, out=io.StringIO())
        assert state.events == 2
        assert state.prune_rounds == 1
