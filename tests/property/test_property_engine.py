"""Property-based equivalence tests for the GEMM engine.

Mirrors ``test_property_fastpath.py`` for the engine-backed fast path:
every hypothesis-drawn conv runs through :meth:`TiledGemmEngine.execute`
and its fused bias/ReLU epilogue, and must agree with the reference kernels
within the PR 2 float32 tolerances.  Direct engine cases draw GEMM shapes
on both sides of 2e6 flops, where an earlier engine switched from inline
BLAS to tiled dispatch.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.pruning_utils import FilterRef, PruningMask
from repro.nn import BatchNorm2d, Conv2d, Linear, Module, ReLU, Tensor, no_grad
from repro.nn.engine import engine
from repro.nn.functional import FAST_PATH_ENV
from repro.nn.inference import compile_for_inference


@contextlib.contextmanager
def reference_path():
    """Force the reference kernels for the duration of the block."""
    previous = os.environ.get(FAST_PATH_ENV)
    os.environ[FAST_PATH_ENV] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(FAST_PATH_ENV, None)
        else:
            os.environ[FAST_PATH_ENV] = previous


conv_cases = st.builds(
    dict,
    n=st.integers(1, 3),
    cin=st.integers(1, 6),
    cout_mult=st.integers(1, 3),
    kernel=st.integers(1, 4),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    size=st.integers(4, 10),
    seed=st.integers(0, 2**16),
    bias=st.booleans(),
)


def _conv_case(case, groups):
    rng = np.random.default_rng(case["seed"])
    cin = case["cin"] * groups
    cout = case["cout_mult"] * groups
    k, s, p = case["kernel"], case["stride"], case["padding"]
    size = max(case["size"], k)  # guarantee a positive output size
    conv = Conv2d(cin, cout, k, stride=s, padding=p, groups=groups, bias=case["bias"], rng=rng)
    x = rng.standard_normal((case["n"], cin, size, size)).astype(np.float32)
    return conv, x


@settings(max_examples=30, deadline=None)
@given(conv_cases)
def test_engine_conv_matches_reference(case):
    conv, x = _conv_case(case, groups=1)
    with no_grad():
        fast = conv(Tensor(x)).data
    with reference_path(), no_grad():
        reference = conv(Tensor(x)).data
    np.testing.assert_allclose(fast, reference, rtol=1e-4, atol=1e-5)


@settings(max_examples=20, deadline=None)
@given(conv_cases, st.integers(2, 4))
def test_grouped_conv_under_engine_matches_reference(case, groups):
    conv, x = _conv_case(case, groups)
    with no_grad():
        fast = conv(Tensor(x)).data
    with reference_path(), no_grad():
        reference = conv(Tensor(x)).data
    np.testing.assert_allclose(fast, reference, rtol=1e-4, atol=1e-5)


@settings(max_examples=25, deadline=None)
@given(conv_cases)
def test_fused_relu_epilogue_matches_separate_relu(case):
    conv, x = _conv_case(case, groups=1)
    conv._fused_activation = "relu"
    try:
        with no_grad():
            fused = conv(Tensor(x)).data
    finally:
        conv._fused_activation = None
    with reference_path(), no_grad():
        reference = conv(Tensor(x)).relu().data
    np.testing.assert_allclose(fused, reference, rtol=1e-4, atol=1e-5)


class _FoldNet(Module):
    def __init__(self, cin, mid, size, seed):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.conv = Conv2d(cin, mid, 3, padding=1, rng=rng)
        self.bn = BatchNorm2d(mid)
        self.relu = ReLU()
        self.fc = Linear(mid * size * size, 4, rng=rng)
        # Non-trivial BN statistics, otherwise folding is an identity map.
        self.bn.running_mean[:] = rng.standard_normal(mid).astype(np.float32)
        self.bn.running_var[:] = (0.5 + rng.uniform(0.1, 2.0, mid)).astype(np.float32)
        self.bn.weight.data[:] = rng.standard_normal(mid).astype(np.float32)
        self.bn.bias.data[:] = rng.standard_normal(mid).astype(np.float32)

    def forward(self, x):
        h = self.relu(self.bn(self.conv(x)))
        return self.fc(h.reshape(h.shape[0], -1))


@settings(max_examples=15, deadline=None)
@given(
    cin=st.integers(1, 4),
    mid=st.integers(1, 6),
    size=st.integers(3, 7),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_folded_fused_model_matches_reference(cin, mid, size, n, seed):
    model = _FoldNet(cin, mid, size, seed)
    model.eval()
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((n, cin, size, size)).astype(np.float32)
    with reference_path(), no_grad():
        reference = model(Tensor(x)).data
    compiled = compile_for_inference(model, Tensor(x[:1]))
    assert compiled.num_folded == 1
    assert compiled.num_fused_activations == 1
    out = compiled(Tensor(x)).data
    np.testing.assert_allclose(out, reference, rtol=1e-3, atol=1e-4)


@settings(max_examples=12, deadline=None)
@given(
    mid=st.integers(2, 6),
    filter_index=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)
def test_pruned_filters_under_engine_match_reference(mid, filter_index, seed):
    model = _FoldNet(3, mid, 5, seed)
    model.eval()
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
    compiled = compile_for_inference(model, Tensor(x[:1]))
    baseline = compiled(Tensor(x)).data.copy()

    mask = PruningMask(model)
    target = FilterRef("conv", filter_index % mid)
    saved = mask.prune(target)
    with reference_path(), no_grad():
        pruned_reference = model(Tensor(x)).data
    pruned = compiled(Tensor(x)).data
    np.testing.assert_allclose(pruned, pruned_reference, rtol=1e-3, atol=1e-4)
    mask.unprune(target, saved)
    restored = compiled(Tensor(x)).data
    np.testing.assert_allclose(restored, baseline, rtol=1e-5, atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 2048),
    k=st.integers(1, 256),
    n=st.integers(1, 64),
    bias=st.booleans(),
    relu=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_execute_epilogue_matches_reference_across_sizes(m, k, n, bias, relu, seed):
    """Shapes from a few flops to ~67 MFLOP, spanning the old 2e6 threshold."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    bias_vec = rng.standard_normal(n).astype(np.float32) if bias else None
    expected = a.astype(np.float64) @ b.astype(np.float64)
    if bias_vec is not None:
        expected = expected + bias_vec
    if relu:
        expected = np.maximum(expected, 0.0)
    out = engine().execute(a, b, bias=bias_vec, activation="relu" if relu else None)
    np.testing.assert_allclose(out, expected.astype(np.float32), rtol=1e-4, atol=1e-4)


def test_conv_runs_through_engine():
    """Sanity guard: the no-grad conv fast path issues its GEMM on the engine."""
    rng = np.random.default_rng(7)
    conv = Conv2d(8, 16, 3, padding=1, rng=rng)
    x = rng.standard_normal((4, 8, 16, 16)).astype(np.float32)
    before = engine().totals["calls"]
    with no_grad():
        conv(Tensor(x))
    assert engine().totals["calls"] == before + 1
