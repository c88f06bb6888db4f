"""TrafficGenerator/TrafficReport: determinism, pacing, report math.

Every gateway-driving test here runs under the ``guard`` fixture
(``hard_timeout``) so a wedged queue fails within the wall-clock budget
instead of hanging CI.
"""

import numpy as np
import pytest

from repro.serving import (
    STANDARD_MIXES,
    ServeConfig,
    ServingGateway,
    TrafficGenerator,
    TrafficMix,
    TrafficReport,
)
from repro.serving.gateway import CLEAN, FILTERED, Verdict

from tests.conftest import make_tiny_dataset
from tests.serving.conftest import DrainGate, publish_tiny


def _fake_verdict(batch_size=4, latency_ms=3.0, verdict=CLEAN):
    return Verdict(
        label=0, verdict=verdict, entropy=None, model_key="model-x",
        batch_size=batch_size, queued_ms=1.0, latency_ms=latency_ms,
    )


class TestMixValidation:
    def test_standard_mixes_cover_issue_patterns(self):
        assert [m.name for m in STANDARD_MIXES] == ["steady", "bursty", "adversarial"]
        bursty = STANDARD_MIXES[1]
        assert bursty.burst_size > 1 and bursty.gap_s > 0
        assert STANDARD_MIXES[2].trigger_fraction > 0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            TrafficMix(name="x", num_requests=0)
        with pytest.raises(ValueError):
            TrafficMix(name="x", num_requests=1, trigger_fraction=1.5)
        with pytest.raises(ValueError):
            TrafficMix(name="x", num_requests=1, burst_size=0)


class TestRequestGeneration:
    def test_deterministic_given_seed(self, tiny_attack):
        pool = make_tiny_dataset(12, seed=0).images
        mix = TrafficMix(name="adv", num_requests=20, trigger_fraction=0.3)
        a = TrafficGenerator(pool, attack=tiny_attack, seed=7).requests(mix)
        b = TrafficGenerator(pool, attack=tiny_attack, seed=7).requests(mix)
        for (img_a, trig_a), (img_b, trig_b) in zip(a, b):
            np.testing.assert_array_equal(img_a, img_b)
            assert trig_a == trig_b
        assert any(trig for _, trig in a)

    def test_triggered_requests_carry_the_patch(self, tiny_attack):
        pool = make_tiny_dataset(12, seed=0).images
        mix = TrafficMix(name="adv", num_requests=30, trigger_fraction=0.5)
        requests = TrafficGenerator(pool, attack=tiny_attack, seed=1).requests(mix)
        patch = tiny_attack._patch
        for image, triggered in requests:
            has_patch = np.array_equal(image[:, -2:, -2:], patch)
            assert has_patch == triggered

    def test_trigger_fraction_without_attack_rejected(self):
        pool = make_tiny_dataset(4, seed=0).images
        mix = TrafficMix(name="adv", num_requests=4, trigger_fraction=0.5)
        with pytest.raises(ValueError, match="needs an attack"):
            TrafficGenerator(pool, attack=None, seed=0).requests(mix)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            TrafficGenerator(np.zeros((0, 3, 8, 8), dtype=np.float32))


class TestReportMath:
    def test_throughput_and_histogram(self):
        verdicts = [_fake_verdict(batch_size=4)] * 8 + [_fake_verdict(batch_size=2)] * 2
        report = TrafficReport(
            mix=TrafficMix(name="steady", num_requests=10),
            wall_s=2.0, verdicts=verdicts, triggered=[False] * 10,
        )
        assert report.completed == 10
        assert report.images_per_sec == pytest.approx(5.0)
        assert report.batch_size_histogram() == {4: 8, 2: 2}
        summary = report.summary()
        assert summary["latency_ms"]["count"] == 10
        assert "verdict_confusion" not in summary  # no triggered traffic

    def test_verdict_confusion_counts(self):
        verdicts = [
            _fake_verdict(verdict=FILTERED),  # triggered, flagged (hit)
            _fake_verdict(verdict=CLEAN),     # triggered, passed (miss)
            _fake_verdict(verdict=FILTERED),  # clean, flagged (false positive)
            _fake_verdict(verdict=CLEAN),     # clean, passed
        ]
        report = TrafficReport(
            mix=TrafficMix(name="adv", num_requests=4, trigger_fraction=0.5),
            wall_s=1.0, verdicts=verdicts, triggered=[True, True, False, False],
        )
        assert report.verdict_confusion() == {
            "triggered_flagged": 1, "triggered_passed": 1,
            "clean_flagged": 1, "clean_passed": 1,
        }
        assert "verdict_confusion" in report.summary()


class TestEndToEnd:
    def test_steady_mix_completes_every_request(self, gateway, guard):
        pool = make_tiny_dataset(12, seed=0).images
        mix = TrafficMix(name="steady", num_requests=24)
        report = TrafficGenerator(pool, seed=0).run(gateway, mix)
        assert report.completed == 24
        assert report.images_per_sec > 0
        assert sum(report.batch_size_histogram().values()) == 24
        assert all(v.verdict == CLEAN for v in report.verdicts)

    def test_bursty_mix_triggers_both_flush_paths(self, registry, clean_pool, guard):
        # Bursts of 12 against max_batch=8.  The first burst queues behind a
        # held drain thread and leaves as one full batch plus a 4-request
        # remainder that runs as soon as the queue is dry, not when the
        # next burst arrives (gap_s later).
        publish_tiny(registry)
        gateway = ServingGateway(
            registry, config=ServeConfig(max_batch=8), clean_pool=clean_pool
        )
        pool = make_tiny_dataset(12, seed=0).images
        mix = TrafficMix(name="bursty", num_requests=24, burst_size=12, gap_s=0.15)
        with gateway:
            gate = DrainGate(gateway._batcher, submit=gateway.submit)
            held = gate.hold(pool[0])
            report = TrafficGenerator(pool, seed=0).run(
                _OpenAfter(gateway, gate, mix.burst_size), mix
            )
            held.result(timeout=30)
        reasons = gateway.stats()["batcher"]["flush_reasons"]  # after stop: final
        assert report.completed == 24
        assert [v.batch_size for v in report.verdicts[:12]] == [8] * 8 + [4] * 4
        assert reasons.get("full", 0) >= 1
        assert reasons.get("idle", 0) >= 1


class _OpenAfter:
    """Gateway stand-in for the generator: opens ``gate`` after ``count``
    submissions, so exactly that many requests queue behind the blocker."""

    def __init__(self, gateway, gate, count):
        self.gateway, self.gate, self.count = gateway, gate, count

    def submit(self, image):
        future = self.gateway.submit(image)
        self.count -= 1
        if self.count == 0:
            self.gate.open()
        return future
