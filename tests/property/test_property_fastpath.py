"""Property-based equivalence tests for the inference fast path.

Each property drives both the fast kernels (single-GEMM conv, workspace
arena, conv–BN folding) and the reference path (forced via
``REPRO_DISABLE_FAST_PATH``) over hypothesis-drawn shapes, strides, and
paddings, and requires agreement within float32 tolerance.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.pruning_utils import FilterRef, PruningMask
from repro.nn import BatchNorm2d, Conv2d, Linear, Module, ReLU, Tensor, no_grad
from repro.nn import functional as F
from repro.nn.functional import FAST_PATH_ENV, conv_output_size
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


def _conv_forward(case, groups):
    rng = np.random.default_rng(case["seed"])
    cin = case["cin"] * groups
    cout = case["cout_mult"] * groups
    k, s, p = case["kernel"], case["stride"], case["padding"]
    size = max(case["size"], k)  # guarantee a positive output size
    conv = Conv2d(cin, cout, k, stride=s, padding=p, groups=groups, bias=case["bias"], rng=rng)
    x = rng.standard_normal((case["n"], cin, size, size)).astype(np.float32)
    with no_grad():
        fast = conv(Tensor(x)).data
    with reference_path():
        with no_grad():
            reference = conv(Tensor(x)).data
    return fast, reference


@settings(max_examples=30, deadline=None)
@given(conv_cases)
def test_single_gemm_conv_matches_reference(case):
    fast, reference = _conv_forward(case, groups=1)
    np.testing.assert_allclose(fast, reference, rtol=1e-4, atol=1e-5)


@settings(max_examples=30, deadline=None)
@given(conv_cases, st.integers(2, 4))
def test_grouped_conv_matches_reference(case, groups):
    fast, reference = _conv_forward(case, groups=groups)
    np.testing.assert_allclose(fast, reference, rtol=1e-4, atol=1e-5)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    channels=st.integers(1, 8),
    multiplier=st.integers(1, 3),
    kernel=st.integers(1, 5),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    size=st.integers(4, 9),
    channels_last=st.booleans(),
    bias=st.booleans(),
    relu=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_depthwise_conv_matches_reference(
    n, channels, multiplier, kernel, stride, padding, size, channels_last, bias, relu, seed
):
    """The no-grad tap-loop kernel against the reference, with channel
    multipliers, NCHW or channels-last input storage (the layout the eval
    path hands over) and the folded bias/fused-ReLU epilogue."""
    rng = np.random.default_rng(seed)
    size = max(size, kernel)
    conv = Conv2d(channels, channels * multiplier, kernel, stride=stride, padding=padding,
                  groups=channels, bias=bias, rng=rng)
    x = rng.standard_normal((n, size, size, channels) if channels_last
                            else (n, channels, size, size)).astype(np.float32)
    if channels_last:
        x = x.transpose(0, 3, 1, 2)
    activation = "relu" if relu else None

    def forward():
        with no_grad():
            return F.conv2d(Tensor(x), conv.weight, conv.bias, stride, padding,
                            groups=channels, activation=activation).data

    fast = forward()
    with reference_path():
        reference = forward()
    np.testing.assert_allclose(fast, reference, rtol=1e-4, atol=1e-5)


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
def test_folded_model_matches_reference(cin, mid, size, n, seed):
    model = _FoldNet(cin, mid, size, seed)
    model.eval()
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((n, cin, size, size)).astype(np.float32)
    with reference_path():
        with no_grad():
            reference = model(Tensor(x)).data
    compiled = compile_for_inference(model, Tensor(x[:1]))
    assert compiled.num_folded == 1
    np.testing.assert_allclose(compiled(Tensor(x)).data, reference, rtol=1e-3, atol=1e-4)


@settings(max_examples=15, deadline=None)
@given(
    mid=st.integers(2, 6),
    filter_index=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)
def test_fold_invalidated_by_prune_unprune_roundtrip(mid, filter_index, seed):
    model = _FoldNet(3, mid, 5, seed)
    model.eval()
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
    compiled = compile_for_inference(model, Tensor(x[:1]))
    baseline = compiled(Tensor(x)).data.copy()

    mask = PruningMask(model)
    target = FilterRef("conv", filter_index % mid)
    saved = mask.prune(target)
    with reference_path():
        with no_grad():
            pruned_reference = model(Tensor(x)).data
    np.testing.assert_allclose(
        compiled(Tensor(x)).data, pruned_reference, rtol=1e-3, atol=1e-4
    )
    mask.unprune(target, saved)
    np.testing.assert_allclose(compiled(Tensor(x)).data, baseline, rtol=1e-5, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    input_size=st.integers(1, 20),
    kernel=st.integers(1, 6),
    stride=st.integers(1, 4),
    padding=st.integers(0, 3),
)
def test_conv_output_size_positive_or_raises(input_size, kernel, stride, padding):
    expected = (input_size + 2 * padding - kernel) // stride + 1
    if expected <= 0:
        try:
            conv_output_size(input_size, kernel, stride, padding)
        except ValueError:
            return
        raise AssertionError("conv_output_size accepted a non-positive output size")
    assert conv_output_size(input_size, kernel, stride, padding) == expected
