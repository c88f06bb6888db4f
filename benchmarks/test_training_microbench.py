"""Training-path microbenchmark: engine-backed backward GEMMs.

Times a full train step (forward + backward + SGD update) on the
engine-backed training kernels — the re-unfolded dW ``execute_tn`` GEMM,
the gather or scatter dX, workspace gradient buffers — and a single 3x3
conv forward+backward at stride 1 (gather dX) and stride 2 (scatter dX),
each against the reference closures of ``tests/nn/reference.py``, plus the
train step's tape and backward peak in MiB.  All are recorded in
``benchmarks/out/BENCH_training.json`` (registered next to
``BENCH_engine.json`` / ``BENCH_serving.json``) with the host's core count,
BLAS and thread env.

Host guarantee: the fast path must stay within ``PARITY_FLOOR`` of the
reference path (it issues the same BLAS calls minus per-layer temporaries,
so parity is the worst case).  The two train-step arms alternate over
``PAIRS`` pairs, each pair swapping which arm runs first, so drift and run
order land on both arms alike; the gate reads the median of the per-pair
reference/fast ratios, and every run's time is recorded next to it.

Soak-style timing loops, so marked ``bench`` (excluded from tier-1) and
wrapped in ``hard_timeout`` wall-clock guards.
"""

import json
import os
import statistics
import time

import numpy as np
import pytest
from conftest import OUT_DIR, host_info

from repro.models import build_model
from repro.nn import SGD, Tensor, cross_entropy
from repro.nn import functional as F
from repro.utils.timing import best_of_seconds, hard_timeout
from tests.nn.reference import reference_kernels
from tests.nn.test_backward_memory import tape_and_backward_peak

pytestmark = pytest.mark.bench

GUARD_SECONDS = 600.0
BATCH = 32
NUM_CLASSES = 10
PARITY_FLOOR = 0.9  # fast/reference throughput ratio tolerated
PAIRS = 11  # alternating train-step pairs behind the parity gate
MIB = 1 << 20

_RESULTS = {}


@pytest.fixture(autouse=True)
def _bench_guard():
    """Wall-clock ceiling for every probe: a wedged timing loop fails loudly."""
    with hard_timeout(GUARD_SECONDS, "training microbench wedged"):
        yield


def _model_and_batch(seed=0):
    """A fresh train-mode model and a fixed batch from its own seeded RNG,
    so every arm sees byte-identical data."""
    data_rng = np.random.default_rng(seed + 1234)
    model = build_model("preact_resnet18", num_classes=NUM_CLASSES, seed=seed)
    model.train()
    x = Tensor(data_rng.uniform(0, 1, (BATCH, 3, 32, 32)).astype(np.float32))
    labels = data_rng.integers(0, NUM_CLASSES, BATCH)
    return model, x, labels


def _make_step(seed=0, update=True):
    """A self-contained train step closure over a fresh model + fixed batch.

    ``update=False`` skips the SGD update, keeping the weights fixed across
    calls (used for the gradient-equivalence check, where compounding float
    drift over several updates would swamp the single-step tolerance).
    """
    model, x, labels = _model_and_batch(seed)
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)

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
    _, fast_step = _make_step()
    _, ref_step = _make_step()

    def reference_step():
        with reference_kernels():
            return ref_step()

    arms = [(fast_step, []), (reference_step, [])]
    for step, _ in arms:
        step()  # warm BLAS + workspace before timing
    for pair in range(PAIRS):
        for step, runs in arms if pair % 2 == 0 else arms[::-1]:
            start = time.perf_counter()
            step()
            runs.append(time.perf_counter() - start)
    (_, fast_runs), (_, reference_runs) = arms
    pair_ratios = [r / f for f, r in zip(fast_runs, reference_runs)]
    fast_s, reference_s = statistics.median(fast_runs), statistics.median(reference_runs)
    # Equivalence on a fresh, non-updating model: one backward each, so
    # float drift cannot compound across optimizer updates.
    eq_model, eq_step = _make_step(update=False)
    eq_step()
    fast_grads = _grad_snapshot(eq_model)

    with reference_kernels():
        ref_eq_model, ref_eq_step = _make_step(update=False)
        ref_eq_step()
        reference_grads = _grad_snapshot(ref_eq_model)

    # Identical seed, identical batch, one backward each.  Per-layer grads
    # through 18 layers of train-mode BN carry ~1e-2 relative float32 noise
    # on BOTH paths (measured against a float64 reference), so elementwise
    # tolerances would flake; bound the relative Frobenius error instead.
    # Layer-level exactness is covered by tests/property/test_property_train_engine.py.
    # Both backwards must reach every parameter: a snapshot that skipped one
    # on both sides would compare nothing and read a vacuous 0.0 error.
    assert set(fast_grads) == {name for name, _ in eq_model.named_parameters()}
    assert set(reference_grads) == {name for name, _ in ref_eq_model.named_parameters()}
    assert set(fast_grads) == set(reference_grads)
    max_err = 0.0
    for name in reference_grads:
        diff = np.linalg.norm(fast_grads[name] - reference_grads[name])
        scale = max(float(np.linalg.norm(reference_grads[name])), 1e-12)
        rel = float(diff) / scale
        max_err = max(max_err, rel)
        assert rel <= 5e-2, f"{name}: relative grad error {rel:.3e}"

    ratio = statistics.median(pair_ratios)
    _RESULTS["train_step_batch32"] = {
        "fast_ms": fast_s * 1e3,
        "reference_ms": reference_s * 1e3,
        "fast_samples_per_sec": BATCH / fast_s,
        "reference_samples_per_sec": BATCH / reference_s,
        "speedup": ratio,  # median of the per-pair reference/fast ratios
        "max_rel_grad_err": max_err,
        "parity_floor": PARITY_FLOOR,
        "pairs": PAIRS,
        "fast_runs_ms": [t * 1e3 for t in fast_runs],
        "reference_runs_ms": [t * 1e3 for t in reference_runs],
        "pair_speedups": pair_ratios,
    }
    assert ratio >= PARITY_FLOOR, (
        f"fast training path regressed: median {ratio:.2f}x of reference over "
        f"{PAIRS} pairs (median fast {fast_s * 1e3:.1f}ms vs reference "
        f"{reference_s * 1e3:.1f}ms)"
    )


def test_train_step_memory():
    """What the batch-32 train step's forward leaves on the tape, and the
    backward's peak above the pre-forward baseline (tracemalloc, after a
    warm-up step).  Recorded, not gated: ``tests/nn/test_backward_memory.py``
    fences the ratio at tier-1 scale."""
    model, x, labels = _model_and_batch()
    tape, peak = tape_and_backward_peak(model, x.data, labels)
    _RESULTS["train_step_batch32_memory"] = {
        "tape_mib": tape / MIB,
        "backward_peak_mib": peak / MIB,
        "peak_over_tape": peak / tape,
    }


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
    probes = {"train_step_batch32", "train_step_batch32_memory", "conv_train_s1", "conv_train_s2"}
    assert probes <= set(_RESULTS), (
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
