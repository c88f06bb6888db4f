"""MicroBatcher: work-conserving flushes, drain semantics, admission control."""

import threading
import time

import pytest

from repro.serving import MicroBatcher, QueueFullError
from repro.telemetry import MemorySink, TelemetryBus, set_bus
from repro.utils.timing import hard_timeout

from tests.serving.conftest import DrainGate


def _collecting_batcher(max_batch=4):
    batches = []

    def process(requests):
        batches.append([r.payload for r in requests])
        for r in requests:
            r.future.set_result(r.payload)

    return MicroBatcher(process, max_batch=max_batch), batches


class TestFlushTriggers:
    def test_flush_on_full_batch(self, guard):
        batcher, batches = _collecting_batcher(max_batch=3)
        batcher.start()
        gate = DrainGate(batcher)
        gate.hold("hold")
        futures = [batcher.submit(i) for i in range(3)]
        gate.open()
        assert [f.result(timeout=30) for f in futures] == [0, 1, 2]
        batcher.close(timeout=30)
        assert batches == [["hold"], [0, 1, 2]]
        assert batcher.stats()["flush_reasons"] == {"idle": 1, "full": 1}

    def test_partial_batch_runs_when_queue_runs_dry(self, guard):
        # Far below max_batch and no further traffic: the request runs as
        # soon as the drain thread is free, without waiting for company.
        batcher, batches = _collecting_batcher(max_batch=64)
        batcher.start()
        assert batcher.submit("alone").result(timeout=30) == "alone"
        batcher.close(timeout=30)  # joins the drain thread: stats are final
        assert batches == [["alone"]]
        assert batcher.stats()["flush_reasons"] == {"idle": 1}

    def test_backlog_coalesces_instead_of_dribbling(self, guard):
        # Requests that queue while a batch is processing must come out as
        # one follow-up batch, not one per flush.
        batcher, batches = _collecting_batcher(max_batch=8)
        batcher.start()
        gate = DrainGate(batcher)
        first = gate.hold("head")
        backlog = [batcher.submit(i) for i in range(5)]
        gate.open()
        first.result(timeout=30)
        for f in backlog:
            f.result(timeout=30)
        batcher.close(timeout=30)
        assert batches == [["head"], [0, 1, 2, 3, 4]]

    def test_max_batch_caps_flush_size(self, guard):
        batcher, batches = _collecting_batcher(max_batch=4)
        batcher.start()
        gate = DrainGate(batcher)
        gate.hold("hold")
        futures = [batcher.submit(i) for i in range(10)]
        gate.open()
        for f in futures:
            f.result(timeout=30)
        batcher.close(timeout=30)
        assert batches == [["hold"], [0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert batcher.stats()["flush_reasons"] == {"idle": 2, "full": 2}


class TestLifecycle:
    def test_close_drains_accepted_requests(self, guard):
        batcher, batches = _collecting_batcher(max_batch=64)
        batcher.start()
        gate = DrainGate(batcher)
        gate.hold("hold")
        futures = [batcher.submit(i) for i in range(7)]
        gate.close_behind(lambda: batcher.close(timeout=30))
        assert [f.result(timeout=1) for f in futures] == list(range(7))
        assert batches == [["hold"], list(range(7))]
        stats = batcher.stats()
        assert stats["completed"] == 8 and stats["failed"] == 0
        assert stats["flush_reasons"] == {"idle": 1, "drain": 1}

    def test_submit_after_close_rejected(self, guard):
        batcher, _ = _collecting_batcher()
        batcher.start()
        batcher.close(timeout=30)
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(1)

    def test_double_close_is_idempotent(self, guard):
        batcher, _ = _collecting_batcher()
        batcher.start()
        batcher.close(timeout=30)
        batcher.close(timeout=30)

    def test_concurrent_submitters_lose_nothing(self, guard):
        batcher, batches = _collecting_batcher(max_batch=16)
        batcher.start()
        results = []
        lock = threading.Lock()

        def feed(base):
            futures = [batcher.submit(base + i) for i in range(25)]
            resolved = [f.result(timeout=30) for f in futures]
            with lock:
                results.extend(resolved)

        threads = [threading.Thread(target=feed, args=(100 * t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        batcher.close(timeout=30)
        assert sorted(results) == sorted(100 * t + i for t in range(4) for i in range(25))
        assert batcher.stats()["completed"] == 100


class TestFailureDelivery:
    def test_process_exception_resolves_futures(self, guard):
        def explode(requests):
            raise ValueError("model fell over")

        batcher = MicroBatcher(explode, max_batch=2)
        batcher.start()
        futures = [batcher.submit(i) for i in range(2)]
        for f in futures:
            with pytest.raises(ValueError, match="fell over"):
                f.result(timeout=30)
        # The drain thread survived the exception and keeps serving.
        more = batcher.submit(3)
        with pytest.raises(ValueError):
            more.result(timeout=30)
        batcher.close(timeout=30)
        assert batcher.stats()["failed"] == 3

    def test_unresolved_requests_get_errors(self, guard):
        def forgets_some(requests):
            requests[0].future.set_result("ok")  # leaves the rest dangling

        batcher = MicroBatcher(forgets_some, max_batch=2)
        batcher.start()
        gate = DrainGate(batcher)
        held = gate.hold("hold")
        first, second = batcher.submit("a"), batcher.submit("b")
        gate.open()
        assert held.result(timeout=30) == "ok"
        assert first.result(timeout=30) == "ok"
        with pytest.raises(RuntimeError, match="without resolving"):
            second.result(timeout=30)
        batcher.close(timeout=30)


class TestAdmissionControl:
    def _wedged_batcher(self, max_queue=2):
        """A batcher whose process callback blocks until released."""
        release = threading.Event()

        def process(requests):
            release.wait(20.0)
            for r in requests:
                r.future.set_result(r.payload)

        batcher = MicroBatcher(process, max_batch=1, max_queue=max_queue)
        return batcher, release

    def test_no_limit_by_default(self, guard):
        batcher, _ = _collecting_batcher()
        assert batcher.max_queue is None

    def test_queue_full_raises_with_metadata(self, guard):
        batcher, release = self._wedged_batcher(max_queue=2)
        batcher.start()
        accepted = [batcher.submit(i) for i in range(2)]
        assert batcher.queue_depth() == 2
        with pytest.raises(QueueFullError, match="queue full") as excinfo:
            batcher.submit(99)
        assert excinfo.value.depth == 2
        assert excinfo.value.limit == 2
        assert excinfo.value.retry_after_s >= 0.05
        release.set()
        # Accepted requests were untouched by the rejection.
        assert [f.result(timeout=30) for f in accepted] == [0, 1]
        batcher.close(timeout=30)
        stats = batcher.stats()
        assert stats["rejected"] == 1
        assert stats["submitted"] == 2
        assert stats["completed"] == 2
        assert stats["queue_depth"] == 0

    def test_retry_after_follows_measured_batch_time(self, guard):
        release = threading.Event()

        def process(requests):
            if requests[0].payload == "slow":
                time.sleep(0.2)
            else:
                release.wait(20.0)
            for r in requests:
                r.future.set_result(r.payload)

        batcher = MicroBatcher(process, max_batch=1, max_queue=2)
        batcher.start()
        assert batcher.submit("slow").result(timeout=30) == "slow"
        while batcher.queue_depth():  # the slow batch's time is recorded
            time.sleep(0.001)
        held = [batcher.submit("a"), batcher.submit("b")]
        with pytest.raises(QueueFullError) as excinfo:
            batcher.submit("c")
        # Two batches ahead, each costing the one batch measured (>= 0.2 s).
        assert excinfo.value.retry_after_s >= 2 * 0.2
        release.set()
        assert [f.result(timeout=30) for f in held] == ["a", "b"]
        batcher.close(timeout=30)

    def test_depth_recovers_after_drain(self, guard):
        batcher, release = self._wedged_batcher(max_queue=1)
        batcher.start()
        first = batcher.submit("a")
        with pytest.raises(QueueFullError):
            batcher.submit("b")
        release.set()
        first.result(timeout=30)
        # Once the wedge clears, admission control lets traffic back in.
        with hard_timeout(30.0, "post-drain resubmit wedged"):
            while True:
                try:
                    again = batcher.submit("c")
                    break
                except QueueFullError:
                    time.sleep(0.005)
        assert again.result(timeout=30) == "c"
        batcher.close(timeout=30)

    def test_rejection_emits_overload_event_and_counter(self, guard):
        sink = MemorySink()
        fresh = TelemetryBus()
        fresh.attach(sink)
        previous = set_bus(fresh)
        try:
            batcher, release = self._wedged_batcher(max_queue=1)
            batcher.start()
            held = batcher.submit("x")
            with pytest.raises(QueueFullError):
                batcher.submit("y")
            release.set()
            held.result(timeout=30)
            batcher.close(timeout=30)
            events = sink.named("overload_rejected")
            assert len(events) == 1
            assert events[0].fields["depth"] == 1
            assert events[0].fields["limit"] == 1
            assert events[0].fields["retry_after_s"] > 0
            assert batcher.stats()["rejected"] == 1
        finally:
            set_bus(previous)


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda b: None, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda b: None, max_queue=0)

    def test_double_start_rejected(self, guard):
        batcher, _ = _collecting_batcher()
        batcher.start()
        with pytest.raises(RuntimeError, match="started"):
            batcher.start()
        batcher.close(timeout=30)

    def test_close_timeout_surfaces(self):
        release = threading.Event()

        def wedge(requests):
            release.wait(20.0)
            for r in requests:
                r.future.set_result(None)

        batcher = MicroBatcher(wedge, max_batch=1)
        batcher.start()
        with hard_timeout(30.0, "close-timeout test wedged"):
            future = batcher.submit(1)
            with pytest.raises(TimeoutError):
                batcher.close(timeout=0.2)
            release.set()
            future.result(timeout=30)
            batcher.close(timeout=30)
