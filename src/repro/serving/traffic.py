"""Synthetic traffic generation for the serving gateway.

Three canonical mixes drive ``BENCH_serving.json`` and the soak tests:

- **steady**: an uninterrupted stream of arrivals — requests pile up while
  the drain thread is busy, so the micro-batcher should settle into full
  batches;
- **bursty**: arrivals in bursts separated by idle gaps — inside a burst the
  backlog coalesces into batches larger than one, and at the end of a burst
  the remainder runs at once as a partial (``idle``) batch instead of
  waiting for the next burst;
- **adversarial**: a fraction of requests carry a backdoor trigger
  (``attack.apply``) — with STRIP enabled the report scores the gateway's
  verdicts against ground truth.

The generator is deterministic given its seed: images are drawn (with
replacement) from a fixed clean pool, trigger assignment and arrival
jitter come from one ``default_rng`` stream.  ``rate=0`` means closed-loop
"as fast as accepted", which is what the throughput benches want.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from ..utils.logging import get_logger
from ..utils.timing import latency_summary
from .gateway import FILTERED, ServingGateway, Verdict

__all__ = ["TrafficMix", "TrafficReport", "TrafficGenerator", "STANDARD_MIXES"]

_LOG = get_logger("repro.serving.traffic")


@dataclass(frozen=True)
class TrafficMix:
    """One named traffic pattern.

    ``rate`` is the mean arrival rate in requests/second (0 = closed loop,
    no pacing).  ``burst_size > 1`` groups arrivals into back-to-back
    bursts with ``gap_s`` of silence between them.  ``trigger_fraction``
    of requests carry the attack trigger (requires the generator to be
    built with an attack).
    """

    name: str
    num_requests: int
    rate: float = 0.0
    burst_size: int = 1
    gap_s: float = 0.0
    trigger_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if not 0.0 <= self.trigger_fraction <= 1.0:
            raise ValueError("trigger_fraction must be in [0, 1]")
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")


STANDARD_MIXES: Tuple[TrafficMix, ...] = (
    TrafficMix(name="steady", num_requests=96, rate=0.0),
    TrafficMix(name="bursty", num_requests=96, rate=0.0, burst_size=24, gap_s=0.05),
    TrafficMix(name="adversarial", num_requests=96, rate=0.0, trigger_fraction=0.25),
)


@dataclass
class TrafficReport:
    """Everything a mix run produced, plus derived summaries."""

    mix: TrafficMix
    wall_s: float
    verdicts: List[Verdict] = field(default_factory=list)
    triggered: List[bool] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.verdicts)

    @property
    def images_per_sec(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def latency_ms_summary(self) -> Dict[str, float]:
        return latency_summary([v.latency_ms for v in self.verdicts])

    def batch_size_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for verdict in self.verdicts:
            histogram[verdict.batch_size] = histogram.get(verdict.batch_size, 0) + 1
        return histogram

    def verdict_confusion(self) -> Dict[str, int]:
        """Flagging outcomes vs ground truth (adversarial mixes)."""
        confusion = {"triggered_flagged": 0, "triggered_passed": 0,
                     "clean_flagged": 0, "clean_passed": 0}
        for verdict, was_triggered in zip(self.verdicts, self.triggered):
            flagged = verdict.verdict == FILTERED
            if was_triggered:
                confusion["triggered_flagged" if flagged else "triggered_passed"] += 1
            else:
                confusion["clean_flagged" if flagged else "clean_passed"] += 1
        return confusion

    def summary(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "mix": self.mix.name,
            "requests": self.mix.num_requests,
            "completed": self.completed,
            "wall_s": self.wall_s,
            "images_per_sec": self.images_per_sec,
            "latency_ms": self.latency_ms_summary(),
            "batch_size_histogram": self.batch_size_histogram(),
        }
        if self.mix.trigger_fraction > 0:
            payload["verdict_confusion"] = self.verdict_confusion()
        return payload


class TrafficGenerator:
    """Deterministic request source driving a :class:`ServingGateway`.

    Parameters
    ----------
    clean_images:
        ``(P, C, H, W)`` pool requests are sampled from.
    attack:
        Optional :class:`~repro.attacks.base.BackdoorAttack` supplying the
        trigger for adversarial mixes.
    """

    def __init__(
        self,
        clean_images: np.ndarray,
        attack=None,
        seed: int = 0,
    ) -> None:
        if len(clean_images) == 0:
            raise ValueError("traffic needs a non-empty clean image pool")
        self.clean_images = np.asarray(clean_images, dtype=np.float32)
        self.attack = attack
        self.seed = seed

    def requests(self, mix: TrafficMix) -> List[Tuple[np.ndarray, bool]]:
        """Materialize the request list: ``(image, is_triggered)`` pairs."""
        if mix.trigger_fraction > 0 and self.attack is None:
            raise ValueError(f"mix {mix.name!r} needs an attack for triggered traffic")
        rng = np.random.default_rng(self.seed)
        picks = rng.integers(0, len(self.clean_images), size=mix.num_requests)
        triggered = rng.random(mix.num_requests) < mix.trigger_fraction
        images = self.clean_images[picks]
        if triggered.any():
            images = images.copy()
            images[triggered] = self.attack.apply(images[triggered])
        return [(images[i], bool(triggered[i])) for i in range(mix.num_requests)]

    def run(
        self,
        gateway: ServingGateway,
        mix: TrafficMix,
        result_timeout_s: float = 60.0,
    ) -> TrafficReport:
        """Submit the mix open-loop, wait for every verdict, report.

        Arrival pacing: at ``rate > 0``, inter-arrival sleeps of
        ``1 / rate`` seconds (per burst when ``burst_size > 1``); bursts
        additionally sleep ``gap_s`` between groups.  Every submitted
        future is awaited with a hard per-request timeout so a wedged
        queue surfaces as a test failure, not a hang.
        """
        requests = self.requests(mix)
        futures = []
        start = time.perf_counter()
        for i, (image, _) in enumerate(requests):
            futures.append(gateway.submit(image))
            boundary = (i + 1) % mix.burst_size == 0
            if mix.rate > 0 and boundary:
                time.sleep(mix.burst_size / mix.rate)
            if mix.gap_s > 0 and boundary and i + 1 < len(requests):
                time.sleep(mix.gap_s)
        verdicts = [future.result(timeout=result_timeout_s) for future in futures]
        wall_s = time.perf_counter() - start
        report = TrafficReport(
            mix=mix,
            wall_s=wall_s,
            verdicts=verdicts,
            triggered=[t for _, t in requests],
        )
        _LOG.info(
            "mix %s: %d requests in %.3fs (%.1f img/s)",
            mix.name, report.completed, wall_s, report.images_per_sec,
        )
        return report
