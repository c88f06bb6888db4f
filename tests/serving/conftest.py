"""Serving-gateway fixtures: tiny registries, gateways, a drain gate, and a
wall-clock guard.

Everything here is sized for the 8x8 three-class fixture task so a full
gateway lifecycle (publish -> serve -> swap -> drain) stays sub-second.
All queue-driving tests run under ``hard_timeout`` so a wedged drain
thread fails loudly instead of hanging CI.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serving import ModelRegistry, ServeConfig, ServingGateway
from repro.utils.timing import hard_timeout

from tests.conftest import NUM_CLASSES, TinyConvNet, make_tiny_dataset

# Hard ceiling for any single serving test; generous next to the <1s happy
# path, tiny next to a CI-job hang.
GUARD_SECONDS = 60.0


def tiny_factory(arch: str, **kwargs) -> TinyConvNet:
    """Registry factory for the fixture zoo (arch name is a formality)."""
    assert arch == "tiny_convnet", arch
    return TinyConvNet(num_classes=kwargs.get("num_classes", NUM_CLASSES),
                       seed=kwargs.get("seed", 0))


def publish_tiny(registry: ModelRegistry, seed: int = 0, alias: str = "default") -> str:
    """Publish a freshly initialized TinyConvNet; returns its key."""
    return registry.publish(
        TinyConvNet(seed=seed),
        "tiny_convnet",
        alias=alias,
        factory_kwargs={"num_classes": NUM_CLASSES, "seed": seed},
        metadata={"image_shape": [3, 8, 8], "seed": seed},
    )


@pytest.fixture()
def registry(tmp_path) -> ModelRegistry:
    return ModelRegistry(str(tmp_path / "registry"), factory=tiny_factory)


@pytest.fixture()
def clean_pool():
    return make_tiny_dataset(24, seed=11)


@pytest.fixture()
def gateway(registry, clean_pool):
    """A started gateway serving a published TinyConvNet; stops on teardown."""
    publish_tiny(registry, seed=0)
    gw = ServingGateway(
        registry,
        config=ServeConfig(max_batch=8),
        clean_pool=clean_pool,
    )
    with hard_timeout(GUARD_SECONDS, "gateway fixture wedged"):
        gw.start()
        yield gw
        gw.stop()


class DrainGate:
    """Holds a batcher's drain thread inside its next batch until opened.

    The batcher runs whatever is queued the moment its drain thread is
    free, so tests build a backlog by occupying that thread: :meth:`hold`
    submits a blocker and returns its future once the drain thread is
    running it.  Requests submitted before :meth:`open` queue up behind it
    and leave together, without relying on timing.  ``submit`` defaults to
    the batcher's own (pass ``gateway.submit`` to go through validation).
    """

    def __init__(self, batcher, submit=None) -> None:
        self.batcher = batcher
        self.submit = submit or batcher.submit
        self.entered = threading.Event()
        self.released = threading.Event()
        self._process = batcher.process_batch
        batcher.process_batch = self._gated

    def _gated(self, requests) -> None:
        if not self.entered.is_set():  # drain thread only: no race
            self.entered.set()
            self.released.wait(GUARD_SECONDS)
        self._process(requests)

    def hold(self, payload):
        future = self.submit(payload)
        assert self.entered.wait(GUARD_SECONDS), "drain thread never took the blocker"
        return future

    def open(self) -> None:
        self.released.set()

    def close_behind(self, close) -> None:
        """Run ``close`` (which must enqueue the batcher's stop sentinel) and
        open the gate only once the sentinel sits behind every request
        submitted so far, so the held backlog leaves as a ``drain`` batch."""
        closer = threading.Thread(target=close)
        closer.start()
        while not self.batcher.closed:
            time.sleep(0.001)
        # close() enqueues its sentinel under the submit lock, which
        # queue_depth() also takes: once this returns, the sentinel is queued.
        self.batcher.queue_depth()
        self.open()
        closer.join(GUARD_SECONDS)
        assert not closer.is_alive(), "close did not return"


@pytest.fixture()
def guard():
    """Wall-clock guard context for queue-driving test bodies."""
    with hard_timeout(GUARD_SECONDS, "serving test wedged"):
        yield
