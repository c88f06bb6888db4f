"""Serving-gateway microbenchmark: traffic mixes + micro-batching speedup.

Drives one gateway (preact_resnet18 on synth_cifar images, folded through
``CompiledInference``) with the three standard traffic mixes and records
sustained throughput, latency percentiles (shared :func:`latency_summary`
definition), and the batch-size histogram per mix in
``benchmarks/out/BENCH_serving.json`` — registered next to
``BENCH_engine.json`` and ``BENCH_orchestrator.json``.

The headline number is **micro-batched vs batch-1**: the same request
stream through a ``max_batch=32`` gateway and a ``max_batch=1`` gateway
(every request pays the full batch-1 dispatch overhead).  The measured
ratio is recorded with the host's core count, BLAS and thread env; the
JSON structure is checked.

Soak-style and open-loop, so marked ``bench`` (excluded from tier-1) and
wrapped in ``hard_timeout`` wall-clock guards.
"""

import json
import os

import numpy as np
import pytest
from conftest import OUT_DIR, host_info

from repro.data import make_synth_cifar
from repro.models import build_model
from repro.serving import (
    STANDARD_MIXES,
    ModelRegistry,
    ServeConfig,
    ServingGateway,
    TrafficGenerator,
)
from repro.attacks import BadNetsAttack
from repro.utils.timing import hard_timeout

pytestmark = pytest.mark.bench

GUARD_SECONDS = 600.0
MAX_BATCH = 32
NUM_CLASSES = 10


@pytest.fixture(scope="module")
def pool():
    _, test = make_synth_cifar(n_train=2, n_test=192, num_classes=NUM_CLASSES, seed=0)
    return test


@pytest.fixture(scope="module")
def registry(tmp_path_factory, pool):
    registry = ModelRegistry(str(tmp_path_factory.mktemp("serving-bench-registry")))
    registry.publish(
        build_model("preact_resnet18", num_classes=NUM_CLASSES, seed=0),
        "preact_resnet18",
        factory_kwargs={"num_classes": NUM_CLASSES, "seed": 0},
        metadata={"image_shape": list(pool.images.shape[1:])},
    )
    return registry


def _run_mixes(registry, pool, max_batch, mixes):
    """One gateway per configuration; returns {mix_name: summary}."""
    attack = BadNetsAttack(image_shape=pool.images.shape[1:], seed=0)
    gateway = ServingGateway(
        registry,
        config=ServeConfig(max_batch=max_batch, seed=0),
        clean_pool=pool,
    )
    generator = TrafficGenerator(pool.images, attack=attack, seed=0)
    summaries = {}
    with hard_timeout(GUARD_SECONDS, f"serving bench wedged (max_batch={max_batch})"):
        with gateway:
            for mix in mixes:
                report = generator.run(gateway, mix)
                assert report.completed == mix.num_requests
                summaries[mix.name] = report.summary()
    return summaries


def test_serving_throughput_and_microbatch_speedup(registry, pool):
    per_mix = _run_mixes(registry, pool, MAX_BATCH, STANDARD_MIXES)

    # Batch-1 baseline on the steady stream only (it is the slow case).
    steady = next(m for m in STANDARD_MIXES if m.name == "steady")
    batch1 = _run_mixes(registry, pool, 1, (steady,))["steady"]

    microbatched_ips = per_mix["steady"]["images_per_sec"]
    batch1_ips = batch1["images_per_sec"]
    speedup = microbatched_ips / batch1_ips if batch1_ips > 0 else float("inf")

    payload = {
        "model": "preact_resnet18",
        "image_shape": list(pool.images.shape[1:]),
        "max_batch": MAX_BATCH,
        "host": host_info(),
        "mixes": per_mix,
        "batch1_steady": batch1,
        "microbatch_speedup": round(speedup, 3),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "BENCH_serving.json"), "w") as handle:
        json.dump(payload, handle, indent=2)

    # Structure checks hold on any host.
    for name, summary in per_mix.items():
        assert summary["completed"] == summary["requests"]
        assert summary["images_per_sec"] > 0
        assert {"p50", "p90", "p99"} <= set(summary["latency_ms"])
        assert sum(summary["batch_size_histogram"].values()) == summary["completed"]
    assert "verdict_confusion" in per_mix["adversarial"]
    # The bursty mix must have exercised batches larger than one.
    assert any(int(size) > 1 for size in per_mix["bursty"]["batch_size_histogram"])


def test_strip_serving_overhead(registry, pool):
    """Record what the STRIP pre-filter costs per request (informational).

    The gateway uses one *shared* overlay set per micro-batch (a 1-D
    ``overlay_idx``): each batch gathers ``strip_overlays`` pool images once
    and broadcasts the blend, instead of fancy-indexing ``overlays * batch``
    pool rows per request stack.  ``overlay_mode`` in the JSON records this.
    """
    steady = next(m for m in STANDARD_MIXES if m.name == "steady")
    plain = _run_mixes(registry, pool, MAX_BATCH, (steady,))["steady"]

    gateway = ServingGateway(
        registry,
        config=ServeConfig(
            max_batch=MAX_BATCH, strip=True,
            strip_overlays=8, seed=0,
        ),
        clean_pool=pool,
    )
    generator = TrafficGenerator(pool.images, seed=0)
    with hard_timeout(GUARD_SECONDS, "strip serving bench wedged"):
        with gateway:
            filtered = generator.run(gateway, steady).summary()

    path = os.path.join(OUT_DIR, "BENCH_serving.json")
    with open(path) as handle:
        payload = json.load(handle)
    payload["strip_overhead"] = {
        "overlays": 8,
        "overlay_mode": "shared-per-batch",
        "plain_images_per_sec": plain["images_per_sec"],
        "strip_images_per_sec": filtered["images_per_sec"],
        "slowdown": round(
            plain["images_per_sec"] / filtered["images_per_sec"], 3
        ) if filtered["images_per_sec"] > 0 else None,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)

    assert filtered["completed"] == steady.num_requests
    assert filtered["images_per_sec"] > 0
