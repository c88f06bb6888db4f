"""ServingGateway: correctness, hot-swap under load, STRIP verdicts, drain."""

import threading
import time

import numpy as np
import pytest

from repro.nn import Module, Tensor, is_grad_enabled, no_grad
from repro.serving import CLEAN, FILTERED, ModelRegistry, ServeConfig, ServingGateway

from tests.conftest import make_tiny_dataset
from tests.serving.conftest import GUARD_SECONDS, DrainGate, publish_tiny


class TestBasicServing:
    def test_verdicts_match_direct_forward(self, gateway, registry, guard):
        images = make_tiny_dataset(10, seed=4).images
        reference = registry.load(gateway.active_key).model
        with no_grad():
            expected = reference(Tensor(images)).data.argmax(axis=-1)
        verdicts = [gateway.classify(img, timeout=30) for img in images]
        assert [v.label for v in verdicts] == list(expected)
        assert all(v.verdict == CLEAN for v in verdicts)  # strip off
        assert all(v.entropy is None for v in verdicts)
        assert all(v.model_key == gateway.active_key for v in verdicts)

    def test_micro_batching_aggregates_concurrent_requests(self, gateway, guard):
        images = make_tiny_dataset(16, seed=5).images
        # Requests that queue while the drain thread is busy share batches.
        gate = DrainGate(gateway._batcher, submit=gateway.submit)
        gate.hold(images[0])
        futures = [gateway.submit(img) for img in images]
        gate.open()
        verdicts = [f.result(timeout=30) for f in futures]
        assert len(verdicts) == 16
        assert [v.batch_size for v in verdicts] == [8] * 16  # max_batch=8

    def test_input_validation(self, gateway, guard):
        with pytest.raises(ValueError, match="one \\(C, H, W\\) image"):
            gateway.submit(np.zeros((4, 3, 8, 8), dtype=np.float32))
        # A singleton batch dimension is forgiven.
        verdict = gateway.classify(np.zeros((1, 3, 8, 8), dtype=np.float32), timeout=30)
        assert verdict.verdict == CLEAN

    def test_off_shape_image_rejected_without_failing_its_batch(self, gateway, guard):
        # Requests share batches: an image of another shape must be refused
        # at submit, or stacking it would fail every request batched with it.
        images = make_tiny_dataset(4, seed=35).images
        gate = DrainGate(gateway._batcher, submit=gateway.submit)
        gate.hold(images[0])
        valid = [gateway.submit(img) for img in images[:3]]
        try:
            with pytest.raises(ValueError, match=r"\(3, 8, 8\).*\(3, 4, 4\)"):
                gateway.submit(np.zeros((3, 4, 4), dtype=np.float32))
        finally:
            valid.append(gateway.submit(images[3]))
            gate.open()
        verdicts = [f.result(timeout=30) for f in valid]
        assert [v.batch_size for v in verdicts] == [4] * 4

    def test_submit_before_start_rejected(self, registry, clean_pool):
        publish_tiny(registry)
        gateway = ServingGateway(registry, clean_pool=clean_pool)
        with pytest.raises(RuntimeError, match="not started"):
            gateway.submit(np.zeros((3, 8, 8), dtype=np.float32))

    def test_start_requires_alias(self, registry, clean_pool):
        gateway = ServingGateway(registry, alias="empty", clean_pool=clean_pool)
        with pytest.raises(KeyError, match="empty"):
            gateway.start()

    def test_stats_shape(self, gateway, guard):
        gateway.classify(make_tiny_dataset(1, seed=6).images[0], timeout=30)
        stats = gateway.stats()
        assert stats["served"] >= 1
        assert stats["model_key"] == gateway.active_key
        assert stats["latency_ms"]["count"] >= 1
        assert "p99" in stats["latency_ms"]
        assert stats["batcher"]["submitted"] >= 1
        assert set(stats["engine_totals"]) == {"calls", "inline_calls"}


class TestHotSwap:
    def test_swap_changes_served_model(self, gateway, registry, guard):
        images = make_tiny_dataset(8, seed=7).images
        old_key = gateway.active_key
        new_key = publish_tiny(registry, seed=9)  # advances the alias
        assert gateway.swap() is True
        assert gateway.active_key == new_key != old_key
        reference = registry.load(new_key).model
        with no_grad():
            expected = reference(Tensor(images)).data.argmax(axis=-1)
        verdicts = [gateway.classify(img, timeout=30) for img in images]
        assert [v.label for v in verdicts] == list(expected)
        assert all(v.model_key == new_key for v in verdicts)

    def test_swap_same_key_is_noop(self, gateway, guard):
        assert gateway.swap() is False
        assert gateway.stats()["swaps"] == 0

    def test_swap_under_load_drops_nothing(self, gateway, registry, guard):
        """The acceptance-criteria swap test: continuous traffic across a
        checkpoint swap; every request resolves, every verdict is attributed
        to exactly the old or the new checkpoint, and both sides appear."""
        images = make_tiny_dataset(40, seed=8).images
        old_key = gateway.active_key
        futures = []
        feeder_done = threading.Event()

        def feed():
            for img in images:
                futures.append(gateway.submit(img))
                time.sleep(0.002)  # keep traffic in flight across the swap
            feeder_done.set()

        feeder = threading.Thread(target=feed)
        feeder.start()
        while len(futures) < 8:  # let traffic establish
            time.sleep(0.001)
        new_key = publish_tiny(registry, seed=13)
        assert gateway.swap() is True
        feeder_done.wait(timeout=30)
        feeder.join(timeout=30)
        verdicts = [f.result(timeout=30) for f in futures]

        assert len(verdicts) == len(images)  # zero dropped requests
        keys = {v.model_key for v in verdicts}
        assert keys <= {old_key, new_key}  # never a third/partial model
        assert new_key in keys  # the swap actually took over
        # Post-swap requests are never misrouted back to the old model.
        switch = next(i for i, v in enumerate(verdicts) if v.model_key == new_key)
        assert all(v.model_key == new_key for v in verdicts[switch:])
        assert gateway.stats()["swaps"] == 1

    def test_swapped_model_serves_folded_outputs(self, gateway, registry, guard):
        # The new checkpoint's conv-BN folds must reflect ITS weights: folded
        # serving output equals the unfolded reference forward of the new
        # model (stale folded caches from the old entry would diverge).
        publish_tiny(registry, seed=21)
        gateway.swap()
        images = make_tiny_dataset(6, seed=22).images
        reference = registry.load(gateway.active_key).model
        with no_grad():
            expected = reference(Tensor(images)).data.argmax(axis=-1)
        got = [gateway.classify(img, timeout=30).label for img in images]
        assert got == list(expected)


class _ForwardProbe:
    """Shared by every ``_ProbeModel``: holds the drain thread's next forward
    and records any forward that runs on another thread meanwhile."""

    def __init__(self) -> None:
        self.hold_next = False
        self.in_drain = threading.Event()
        self.release = threading.Event()
        self.overlapped = threading.Event()


class _ProbeModel(Module):
    def __init__(self, probe: _ForwardProbe, seed: int = 0) -> None:
        super().__init__()
        self.probe, self.seed = probe, seed

    def forward(self, x):
        probe = self.probe
        if threading.current_thread().name.startswith("serve-") and probe.hold_next:
            probe.hold_next = False
            probe.in_drain.set()
            probe.release.wait(GUARD_SECONDS)
            probe.in_drain.clear()
        elif probe.in_drain.is_set():
            probe.overlapped.set()
        return Tensor(np.zeros((x.data.shape[0], 3), dtype=np.float32))

    def state_dict(self):
        return {"seed": np.full(1, self.seed, dtype=np.float32)}

    def load_state_dict(self, state, strict=True):
        pass


class TestSwapPreparation:
    def test_preparation_waits_for_the_running_batch(self, tmp_path, guard):
        # Preparing a checkpoint runs forwards (fold trace, warmup).  They
        # must not overlap a batch on the drain thread: forwards share the
        # process-global arena stack and no_grad flag.
        probe = _ForwardProbe()
        registry = ModelRegistry(
            str(tmp_path / "probe-registry"),
            factory=lambda arch, **kw: _ProbeModel(probe, **kw),
        )
        registry.publish(_ProbeModel(probe, seed=0), "probe", factory_kwargs={"seed": 0})
        with ServingGateway(registry, config=ServeConfig(max_batch=4)) as gateway:
            probe.hold_next = True
            future = gateway.submit(np.zeros((3, 32, 32), dtype=np.float32))
            assert probe.in_drain.wait(GUARD_SECONDS)
            registry.publish(
                _ProbeModel(probe, seed=1), "probe", alias="default",
                factory_kwargs={"seed": 1},
            )
            swapper = threading.Thread(target=gateway.swap)
            swapper.start()
            try:
                assert not probe.overlapped.wait(0.5)
            finally:
                probe.release.set()
                swapper.join(GUARD_SECONDS)
            assert not swapper.is_alive()
            assert future.result(timeout=30).batch_size == 1
        assert not probe.overlapped.is_set()
        assert is_grad_enabled()


class _PremiseOracle(Module):
    """Model embodying STRIP's premise on the fixture task: any input whose
    bottom-right corner still matches the checker trigger predicts the
    target with high confidence; everything else is maximally uncertain."""

    def forward(self, x):
        data = x.data
        corner = data[:, :, -2:, -2:].mean(axis=1)
        checker = (np.indices((2, 2)).sum(axis=0) % 2).astype(np.float32)
        correlation = (
            (corner - corner.mean(axis=(1, 2), keepdims=True)) * (checker - checker.mean())
        ).sum(axis=(1, 2))
        logits = np.zeros((data.shape[0], 3), dtype=np.float32)
        logits[correlation > 0.1, 0] = 12.0
        return Tensor(logits)

    def state_dict(self):
        return {"marker": np.zeros(1, dtype=np.float32)}

    def load_state_dict(self, state, strict=True):
        pass


class TestStripServing:
    @pytest.fixture()
    def strip_gateway(self, tmp_path, clean_pool, tiny_attack):
        registry = ModelRegistry(
            str(tmp_path / "strip-registry"), factory=lambda arch, **kw: _PremiseOracle()
        )
        registry.publish(_PremiseOracle(), "oracle", factory_kwargs={})
        gateway = ServingGateway(
            registry,
            config=ServeConfig(
                max_batch=8, strip=True,
                strip_overlays=8, strip_fpr=0.1, seed=0,
            ),
            clean_pool=clean_pool,
        )
        gateway.start()
        yield gateway
        gateway.stop()

    def test_verdicts_on_triggered_clean_mix(self, strip_gateway, tiny_attack, guard):
        """Acceptance criteria: STRIP-enabled serving separates a
        triggered/clean mix with per-request verdicts."""
        clean = make_tiny_dataset(20, seed=31).images
        triggered = tiny_attack.apply(make_tiny_dataset(20, seed=32).images)
        clean_verdicts = [strip_gateway.classify(img, timeout=30) for img in clean]
        trig_verdicts = [strip_gateway.classify(img, timeout=30) for img in triggered]
        assert all(v.entropy is not None for v in clean_verdicts + trig_verdicts)
        trig_flag_rate = np.mean([v.verdict == FILTERED for v in trig_verdicts])
        clean_flag_rate = np.mean([v.verdict == FILTERED for v in clean_verdicts])
        assert trig_flag_rate >= 0.9
        assert clean_flag_rate <= 0.3
        assert strip_gateway.stats()["filtered"] >= 18

    def test_strip_requires_clean_pool(self, registry):
        with pytest.raises(ValueError, match="clean_pool"):
            ServingGateway(registry, config=ServeConfig(strip=True))


class TestLifecycle:
    def test_stop_drains_queued_requests(self, registry, clean_pool, guard):
        publish_tiny(registry)
        gateway = ServingGateway(
            registry, config=ServeConfig(max_batch=64), clean_pool=clean_pool
        )
        gateway.start()
        images = make_tiny_dataset(6, seed=33).images
        # Hold the drain thread so the queued requests are still waiting
        # when stop() runs: only the drain path can flush them.
        gate = DrainGate(gateway._batcher, submit=gateway.submit)
        held = gate.hold(images[0])
        futures = [gateway.submit(img) for img in images[1:]]
        gate.close_behind(lambda: gateway.stop(timeout=30))
        verdicts = [f.result(timeout=1) for f in futures]
        assert held.result(timeout=1).batch_size == 1
        assert [v.batch_size for v in verdicts] == [5] * 5
        assert gateway.stats()["batcher"]["flush_reasons"] == {"idle": 1, "drain": 1}

    def test_lone_request_runs_at_once(self, registry, clean_pool, guard):
        publish_tiny(registry)
        gateway = ServingGateway(
            registry, config=ServeConfig(max_batch=64), clean_pool=clean_pool
        )
        with gateway:  # context-manager lifecycle
            # No further traffic and far below max_batch: nothing to wait for.
            verdict = gateway.classify(
                make_tiny_dataset(1, seed=34).images[0], timeout=30
            )
        assert verdict.batch_size == 1
        assert gateway.stats()["batcher"]["flush_reasons"] == {"idle": 1}

    def test_double_start_rejected(self, gateway):
        with pytest.raises(RuntimeError, match="already started"):
            gateway.start()
