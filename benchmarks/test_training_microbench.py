"""Training-path microbenchmark: engine-backed backward GEMMs.

Times a full train step (forward + backward + SGD update) on the
engine-backed training kernels — the re-unfolded dW ``execute_tn`` GEMM,
the gather or scatter dX, workspace gradient buffers — and a single 3x3
conv forward+backward at stride 1 (gather dX) and stride 2 (scatter dX),
each against the reference closures of ``tests/nn/reference.py``.  Both are
recorded in ``benchmarks/out/BENCH_training.json`` (registered next to
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

from repro.models import build_model
from repro.nn import SGD, Tensor, cross_entropy
from repro.nn import functional as F
from repro.utils.timing import best_of_seconds, hard_timeout
from tests.nn.reference import reference_kernels

pytestmark = pytest.mark.bench

GUARD_SECONDS = 600.0
BATCH = 32
NUM_CLASSES = 10
PARITY_FLOOR = 0.9  # fast/reference throughput ratio tolerated

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
    _, step = _make_step()
    step()  # warm BLAS + workspace before timing
    fast_s = best_of_seconds(step, repeats=3, number=1)
    # Equivalence on a fresh, non-updating model: one backward each, so
    # float drift cannot compound across optimizer updates.
    eq_model, eq_step = _make_step(update=False)
    eq_step()
    fast_grads = _grad_snapshot(eq_model)

    with reference_kernels():
        _, ref_step = _make_step()
        ref_step()
        reference_s = best_of_seconds(ref_step, repeats=3, number=1)
        ref_eq_model, ref_eq_step = _make_step(update=False)
        ref_eq_step()
        reference_grads = _grad_snapshot(ref_eq_model)

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


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_forward_backward_vs_reference(stride):
    """One 3x3 conv forward + backward on (20, 8, 32, 32): dX, dW and db
    against the reference closures, and both timed."""
    rng = np.random.default_rng(stride)
    x = Tensor(rng.standard_normal((20, 8, 32, 32)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((16, 8, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal(16).astype(np.float32), requires_grad=True)

    def step():
        for t in (x, w, b):
            t.zero_grad()
        out = F.conv2d(x, w, b, stride=stride, padding=1)
        (out * out).sum().backward()
        return x.grad.copy(), w.grad.copy(), b.grad.copy()

    fast_s = best_of_seconds(step, repeats=5, number=5)
    fast = step()
    with reference_kernels():
        reference_s = best_of_seconds(step, repeats=5, number=5)
        reference = step()

    errs = [float(np.abs(f - r).max()) for f, r in zip(fast, reference)]
    _RESULTS[f"conv_train_s{stride}"] = {
        "fast_ms": fast_s * 1e3,
        "reference_ms": reference_s * 1e3,
        "speedup": reference_s / fast_s,
        "max_abs_err": max(errs),
        "shape": [20, 8, 32, 32],
        "kernel": 3,
        "stride": stride,
    }
    for name, f, r in zip(("dX", "dW", "db"), fast, reference):
        scale = float(np.abs(r).max())
        np.testing.assert_allclose(f, r, rtol=1e-4, atol=1e-5 * scale, err_msg=name)


def test_emit_bench_training_json():
    """Aggregate the training probes into BENCH_training.json."""
    assert {"train_step_batch32", "conv_train_s1", "conv_train_s2"} <= set(_RESULTS), (
        "probes must run before the JSON is emitted"
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    payload = {
        "bench": "training_engine",
        "workload": f"preact_resnet18 train step, batch {BATCH} (fwd+bwd+SGD)",
        "reference": "tests/nn/reference.py (reference autograd closures)",
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
