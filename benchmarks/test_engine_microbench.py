"""P1: substrate micro-benchmarks — conv forward/backward, BN, train step.

These are honest pytest-benchmark timings (multiple rounds), documenting
the numpy engine's throughput so table-bench runtimes are interpretable.
"""

import numpy as np
import pytest

from repro.data import ImageDataset
from repro.models import build_model
from repro.nn import SGD, Tensor, cross_entropy
from repro.nn import functional as F
from repro.training import TrainConfig, train_classifier
from repro.utils.timing import hard_timeout

pytestmark = pytest.mark.bench

GUARD_SECONDS = 600.0

RNG = np.random.default_rng(0)


@pytest.fixture(autouse=True)
def _bench_guard():
    """Wall-clock ceiling for every probe: a wedged timing loop fails loudly."""
    with hard_timeout(GUARD_SECONDS, "engine microbench wedged"):
        yield


@pytest.fixture(scope="module")
def conv_inputs():
    x = Tensor(RNG.normal(size=(32, 16, 16, 16)).astype(np.float32), requires_grad=True)
    w = Tensor(RNG.normal(size=(32, 16, 3, 3)).astype(np.float32), requires_grad=True)
    return x, w


def test_conv2d_forward(benchmark, conv_inputs):
    x, w = conv_inputs
    out = benchmark(lambda: F.conv2d(x, w, None, stride=1, padding=1))
    assert out.shape == (32, 32, 16, 16)


def test_conv2d_forward_backward(benchmark, conv_inputs):
    x, w = conv_inputs

    def step():
        x.zero_grad()
        w.zero_grad()
        out = F.conv2d(x, w, None, stride=1, padding=1)
        out.sum().backward()
        return out

    benchmark(step)
    assert w.grad is not None


def test_batch_norm_train_mode(benchmark):
    x = Tensor(RNG.normal(size=(64, 32, 16, 16)).astype(np.float32), requires_grad=True)
    weight = Tensor(np.ones(32, dtype=np.float32), requires_grad=True)
    bias = Tensor(np.zeros(32, dtype=np.float32), requires_grad=True)
    out = benchmark(lambda: F.batch_norm2d_train(x, weight, bias, 1e-5)[0])
    assert out.shape == x.shape


def test_model_inference_batch64(benchmark):
    model = build_model("preact_resnet18")
    model.eval()
    x = Tensor(RNG.uniform(0, 1, (64, 3, 32, 32)).astype(np.float32))
    from repro.nn import no_grad

    def infer():
        with no_grad():
            return model(x)

    out = benchmark(infer)
    assert out.shape == (64, 10)


def test_full_train_step(benchmark):
    model = build_model("preact_resnet18")
    model.train()
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
    x = Tensor(RNG.uniform(0, 1, (64, 3, 32, 32)).astype(np.float32))
    labels = RNG.integers(0, 10, 64)

    def step():
        logits = model(x)
        loss = cross_entropy(logits, labels)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return loss

    loss = benchmark(step)
    assert np.isfinite(loss.item())


def test_one_epoch_tiny(benchmark):
    images = RNG.uniform(0, 1, (128, 3, 32, 32)).astype(np.float32)
    labels = np.arange(128) % 10
    dataset = ImageDataset(images, labels)

    def epoch():
        model = build_model("preact_resnet18")
        return train_classifier(model, dataset, TrainConfig(epochs=1, batch_size=64))

    result = benchmark.pedantic(epoch, rounds=2, iterations=1)
    assert len(result.losses) == 1


# ---------------------------------------------------------------------------
# Fast path vs. reference path (emits BENCH_engine.json)
#
# Each probe times the same workload twice — once on the fast inference path
# (single-GEMM conv, workspace arena, conv–BN folding, fused evaluator) and
# once with ``REPRO_DISABLE_FAST_PATH=1`` forcing the reference kernels —
# checks the outputs agree within float32 tolerance, and records ops/sec for
# both so future PRs can track the perf trajectory from the JSON alone.
# ---------------------------------------------------------------------------

import contextlib
import json
import os
import time

from repro.core import GradientPruner
from repro.nn import no_grad
from repro.nn.functional import FAST_PATH_ENV
from repro.nn.inference import compile_for_inference
from repro.utils.timing import best_of_seconds

from conftest import OUT_DIR, host_info

_FASTPATH_RESULTS = {}


@contextlib.contextmanager
def _reference_path():
    previous = os.environ.get(FAST_PATH_ENV)
    os.environ[FAST_PATH_ENV] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(FAST_PATH_ENV, None)
        else:
            os.environ[FAST_PATH_ENV] = previous


# Shared micro-benchmark timing primitive (see repro.utils.timing).
_best_seconds = best_of_seconds


def _record(name, fast_s, reference_s, max_abs_err, **extra):
    entry = {
        "fast_ms": fast_s * 1e3,
        "reference_ms": reference_s * 1e3,
        "fast_ops_per_sec": 1.0 / fast_s,
        "reference_ops_per_sec": 1.0 / reference_s,
        "speedup": reference_s / fast_s,
        "max_abs_err": max_abs_err,
    }
    entry.update(extra)
    _FASTPATH_RESULTS[name] = entry
    return entry


def test_fastpath_conv_forward():
    x = Tensor(RNG.normal(size=(32, 16, 16, 16)).astype(np.float32))
    w = Tensor(RNG.normal(size=(32, 16, 3, 3)).astype(np.float32))

    def forward():
        with no_grad():
            return F.conv2d(x, w, None, stride=1, padding=1)

    fast_s = _best_seconds(forward, number=10)
    fast_out = forward().data
    with _reference_path():
        reference_s = _best_seconds(forward, number=10)
        reference_out = forward().data

    err = float(np.abs(fast_out - reference_out).max())
    entry = _record("conv_forward", fast_s, reference_s, err)
    np.testing.assert_allclose(fast_out, reference_out, rtol=1e-4, atol=1e-5)
    assert entry["speedup"] > 0


def test_fastpath_depthwise_conv_train():
    """Depthwise 3x3 forward+backward: the tap-loop kernel vs the reference
    im2col + einsum + col2im closures, with dX and dW checked."""
    x = Tensor(RNG.normal(size=(32, 32, 16, 16)).astype(np.float32), requires_grad=True)
    w = Tensor(RNG.normal(size=(32, 1, 3, 3)).astype(np.float32), requires_grad=True)

    def step():
        x.zero_grad()
        w.zero_grad()
        out = F.conv2d(x, w, None, padding=1, groups=32)
        (out * out).sum().backward()
        return x.grad.copy(), w.grad.copy()

    fast_s = _best_seconds(step, number=5)
    fast_dx, fast_dw = step()
    with _reference_path():
        reference_s = _best_seconds(step, number=5)
        reference_dx, reference_dw = step()

    err = float(max(np.abs(fast_dx - reference_dx).max(), np.abs(fast_dw - reference_dw).max()))
    entry = _record(
        "depthwise_conv_train", fast_s, reference_s, err, shape=[32, 32, 16, 16], kernel=3
    )
    np.testing.assert_allclose(fast_dx, reference_dx, rtol=1e-4, atol=1e-3)
    np.testing.assert_allclose(fast_dw, reference_dw, rtol=1e-4, atol=1e-2)
    assert entry["speedup"] > 0


def test_fastpath_folded_inference_batch64():
    model = build_model("preact_resnet18")
    model.eval()
    x = Tensor(RNG.uniform(0, 1, (64, 3, 32, 32)).astype(np.float32))

    def plain():
        with no_grad():
            return model(x).data

    with _reference_path():
        reference_s = _best_seconds(plain)
        reference_out = plain()

    compiled = compile_for_inference(model, Tensor(x.data[:1]))
    fast_s = _best_seconds(lambda: compiled(x))
    fast_out = compiled(x).data

    err = float(np.abs(fast_out - reference_out).max())
    entry = _record(
        "folded_inference_batch64",
        fast_s,
        reference_s,
        err,
        batch_size=64,
        fast_images_per_sec=64.0 / fast_s,
        reference_images_per_sec=64.0 / reference_s,
        num_folded=compiled.num_folded,
    )
    np.testing.assert_allclose(fast_out, reference_out, rtol=1e-3, atol=1e-4)
    assert entry["num_folded"] == len(model.blocks)


def test_fastpath_full_pruning_round():
    from repro.data import ImageDataset as _ImageDataset

    rng = np.random.default_rng(7)

    def dataset(n):
        return _ImageDataset(
            rng.uniform(0, 1, (n, 3, 32, 32)).astype(np.float32),
            rng.integers(0, 10, n),
        )

    backdoor_train, clean_val, backdoor_val = dataset(32), dataset(128), dataset(128)

    def one_round(use_fast_path):
        model = build_model("preact_resnet18")
        pruner = GradientPruner(
            alpha=0.0,
            patience=100,
            max_rounds=1,
            batch_size=64,
            use_fast_path=use_fast_path,
        )
        return pruner.prune(model, backdoor_train, clean_val, backdoor_val)

    one_round(True)  # warm caches (BLAS + arena) before either timing
    start = time.perf_counter()
    fast_history = one_round(True)
    fast_s = time.perf_counter() - start
    with _reference_path():
        start = time.perf_counter()
        reference_history = one_round(False)
        reference_s = time.perf_counter() - start

    # Equivalence: both paths must prune the same filter and agree on the
    # stopping-rule statistics for the round.
    assert [r.pruned for r in fast_history.rounds] == [
        r.pruned for r in reference_history.rounds
    ]
    err = float(
        abs(fast_history.rounds[0].val_accuracy - reference_history.rounds[0].val_accuracy)
    )
    _record(
        "full_pruning_round",
        fast_s,
        reference_s,
        err,
        num_folded=fast_history.num_folded_layers,
        fast_score_seconds=fast_history.total_score_seconds,
        fast_eval_seconds=fast_history.total_eval_seconds + fast_history.initial_eval_seconds,
        reference_score_seconds=reference_history.total_score_seconds,
        reference_eval_seconds=reference_history.total_eval_seconds
        + reference_history.initial_eval_seconds,
    )
    assert fast_history.rounds[0].val_accuracy == pytest.approx(
        reference_history.rounds[0].val_accuracy, abs=1e-6
    )
    assert fast_history.rounds[0].val_unlearning_loss == pytest.approx(
        reference_history.rounds[0].val_unlearning_loss, rel=1e-3
    )


def test_emit_bench_engine_json():
    """Aggregate the fast-vs-reference probes into BENCH_engine.json."""
    assert set(_FASTPATH_RESULTS) == {
        "conv_forward",
        "depthwise_conv_train",
        "folded_inference_batch64",
        "full_pruning_round",
    }, "fast-path probes must run before the JSON is emitted"
    os.makedirs(OUT_DIR, exist_ok=True)
    payload = {
        "bench": "engine_fastpath",
        "reference": f"{FAST_PATH_ENV}=1 (reference kernels, two-pass evaluator)",
        "host": host_info(),
        "entries": _FASTPATH_RESULTS,
    }
    path = os.path.join(OUT_DIR, "BENCH_engine.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
    with open(path) as handle:
        written = json.load(handle)
    assert set(written["entries"]) == set(_FASTPATH_RESULTS)
    assert written["host"]["cpu_count"] == os.cpu_count()
