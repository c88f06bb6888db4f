"""Training-path microbenchmark: engine-backed backward GEMMs.

Times a full train step (forward + backward + SGD update) on the
engine-backed training path — im2col column reuse into the dW
``execute_tn`` GEMM, planned gradient buffers — against the
``REPRO_DISABLE_FAST_PATH=1`` reference closures, and records both in
``benchmarks/out/BENCH_training.json`` (registered next to
``BENCH_engine.json`` / ``BENCH_serving.json``) with the host's core count,
BLAS and thread env.

Host guarantee: the fast path must stay within ``PARITY_FLOOR`` of the
reference path (it issues the same BLAS calls minus per-layer temporaries,
so parity is the worst case).

Soak-style timing loops, so marked ``bench`` (excluded from tier-1) and
wrapped in ``hard_timeout`` wall-clock guards.
"""

import json
import os

import numpy as np
import pytest
from conftest import OUT_DIR, host_info

from repro.data import ImageDataset
from repro.models import build_model
from repro.nn import SGD, Tensor, cross_entropy
from repro.nn.functional import FAST_PATH_ENV
from repro.telemetry import bus
from repro.training import TrainConfig, train_classifier
from repro.utils.timing import best_of_seconds, hard_timeout

pytestmark = pytest.mark.bench

GUARD_SECONDS = 600.0
BATCH = 32
NUM_CLASSES = 10
PARITY_FLOOR = 0.9  # fast/reference throughput ratio tolerated

RNG = np.random.default_rng(0)

_RESULTS = {}


@pytest.fixture(autouse=True)
def _bench_guard():
    """Wall-clock ceiling for every probe: a wedged timing loop fails loudly."""
    with hard_timeout(GUARD_SECONDS, "training microbench wedged"):
        yield


def _make_step(seed=0, update=True):
    """A self-contained train step closure over a fresh model + fixed batch.

    The batch is drawn from its own seeded RNG so fast/reference timings see
    byte-identical data.  ``update=False`` skips the SGD update, keeping the
    weights fixed across calls (used for the gradient-equivalence check,
    where compounding float drift over several updates would swamp the
    single-step tolerance).
    """
    data_rng = np.random.default_rng(seed + 1234)
    model = build_model("preact_resnet18", num_classes=NUM_CLASSES, seed=seed)
    model.train()
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
    x = Tensor(data_rng.uniform(0, 1, (BATCH, 3, 32, 32)).astype(np.float32))
    labels = data_rng.integers(0, NUM_CLASSES, BATCH)

    def step():
        logits = model(x)
        loss = cross_entropy(logits, labels)
        optimizer.zero_grad(set_to_none=False)
        loss.backward()
        if update:
            optimizer.step()
        return loss

    return model, step


def _grad_snapshot(model):
    return {
        name: p.grad.copy()
        for name, p in model.named_parameters()
        if p.grad is not None
    }


def test_train_step_fastpath_vs_reference():
    """Fast path vs reference: same gradients, no regression."""
    saved_fast = os.environ.pop(FAST_PATH_ENV, None)
    try:
        _, step = _make_step()
        step()  # warm BLAS + arenas before timing
        fast_s = best_of_seconds(step, repeats=3, number=1)
        # Equivalence on a fresh, non-updating model: one backward each, so
        # float drift cannot compound across optimizer updates.
        eq_model, eq_step = _make_step(update=False)
        eq_step()
        fast_grads = _grad_snapshot(eq_model)

        os.environ[FAST_PATH_ENV] = "1"
        _, ref_step = _make_step()
        ref_step()
        reference_s = best_of_seconds(ref_step, repeats=3, number=1)
        ref_eq_model, ref_eq_step = _make_step(update=False)
        ref_eq_step()
        reference_grads = _grad_snapshot(ref_eq_model)
    finally:
        if saved_fast is None:
            os.environ.pop(FAST_PATH_ENV, None)
        else:
            os.environ[FAST_PATH_ENV] = saved_fast

    # Identical seed, identical batch, one backward each.  Per-layer grads
    # through 18 layers of train-mode BN carry ~1e-2 relative float32 noise
    # on BOTH paths (measured against a float64 reference), so elementwise
    # tolerances would flake; bound the relative Frobenius error instead.
    # Layer-level exactness is covered by tests/property/test_property_train_engine.py.
    assert set(fast_grads) == set(reference_grads)
    max_err = 0.0
    for name in reference_grads:
        diff = np.linalg.norm(fast_grads[name] - reference_grads[name])
        scale = max(float(np.linalg.norm(reference_grads[name])), 1e-12)
        rel = float(diff) / scale
        max_err = max(max_err, rel)
        assert rel <= 5e-2, f"{name}: relative grad error {rel:.3e}"

    ratio = reference_s / fast_s
    _RESULTS["train_step_batch32"] = {
        "fast_ms": fast_s * 1e3,
        "reference_ms": reference_s * 1e3,
        "fast_samples_per_sec": BATCH / fast_s,
        "reference_samples_per_sec": BATCH / reference_s,
        "speedup": ratio,
        "max_rel_grad_err": max_err,
        "parity_floor": PARITY_FLOOR,
    }
    assert ratio >= PARITY_FLOOR, (
        f"fast training path regressed: {ratio:.2f}x of reference "
        f"(fast {fast_s * 1e3:.1f}ms vs reference {reference_s * 1e3:.1f}ms)"
    )


def test_training_throughput_gauge_emitted():
    """The wired hot loops publish training.samples_per_sec via telemetry."""
    images = RNG.uniform(0, 1, (64, 3, 32, 32)).astype(np.float32)
    labels = np.arange(64) % NUM_CLASSES
    model = build_model("preact_resnet18", num_classes=NUM_CLASSES, seed=1)
    result = train_classifier(
        model, ImageDataset(images, labels), TrainConfig(epochs=1, batch_size=32)
    )
    assert len(result.losses) == 1
    gauge = bus().metrics.gauge("training.samples_per_sec").value
    assert gauge is not None and gauge > 0
    _RESULTS["telemetry_gauge_samples_per_sec"] = gauge


def test_emit_bench_training_json():
    """Aggregate the training probes into BENCH_training.json."""
    assert "train_step_batch32" in _RESULTS, "probes must run before the JSON is emitted"
    os.makedirs(OUT_DIR, exist_ok=True)
    payload = {
        "bench": "training_engine",
        "workload": f"preact_resnet18 train step, batch {BATCH} (fwd+bwd+SGD)",
        "reference": f"{FAST_PATH_ENV}=1 (reference autograd closures)",
        "host": host_info(),
        "entries": _RESULTS,
    }
    path = os.path.join(OUT_DIR, "BENCH_training.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
    with open(path) as handle:
        written = json.load(handle)
    assert written["host"]["cpu_count"] == os.cpu_count()
    assert written["entries"]["train_step_batch32"]["fast_samples_per_sec"] > 0
