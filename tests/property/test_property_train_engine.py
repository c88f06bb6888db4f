"""Property-based gradient-equivalence tests for the training engine path.

The engine-backed training backward (im2col column reuse, ``execute_tn``
dW, planned gradient buffers) must produce the same gradients as the
reference autograd closures within float32 tolerances.  Direct
``execute_tn`` cases draw shapes on both sides of 2e6 flops, where an
earlier engine switched from inline BLAS to a reduction-split dispatch.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.pruning_utils import FilterRef, PruningMask
from repro.nn import Conv2d, ConvTranspose2d, Linear, Tensor
from repro.nn.engine import engine
from repro.nn.engine.training import training_step
from repro.nn.functional import FAST_PATH_ENV

@contextlib.contextmanager
def fast_path():
    """Force the engine-backed fast path for the duration of the block.

    The fast path must win even if the outer environment is bisecting with
    ``REPRO_DISABLE_FAST_PATH=1`` (each case compares against the reference
    explicitly, so the suite stays meaningful under the flag).
    """
    previous = os.environ.pop(FAST_PATH_ENV, None)
    try:
        yield
    finally:
        if previous is not None:
            os.environ[FAST_PATH_ENV] = previous


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


def _loss_backward(layer, x_data, wrap_step=False):
    """Forward + sum-loss backward; returns (loss, x.grad, {param grads})."""
    x = Tensor(x_data.copy(), requires_grad=True)
    ctx = (
        training_step((x_data.shape, x_data.dtype.str))
        if wrap_step
        else contextlib.nullcontext()
    )
    with ctx:
        out = layer(x)
        loss = (out * out).sum()
        loss.backward()
    grads = {name: p.grad.copy() for name, p in layer.named_parameters() if p.grad is not None}
    layer.zero_grad()
    return loss.item(), x.grad.copy(), grads


def _assert_grads_match(layer, x, wrap_step=False):
    with fast_path():
        loss_f, xg_f, grads_f = _loss_backward(layer, x, wrap_step=wrap_step)
    with reference_path():
        loss_r, xg_r, grads_r = _loss_backward(layer, x)
    np.testing.assert_allclose(loss_f, loss_r, rtol=1e-4)
    np.testing.assert_allclose(xg_f, xg_r, rtol=1e-4, atol=1e-5)
    assert set(grads_f) == set(grads_r)
    for name in grads_r:
        np.testing.assert_allclose(
            grads_f[name], grads_r[name], rtol=1e-4, atol=1e-5, err_msg=name
        )


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
    wrap=st.booleans(),
)


def _conv_case(case, groups):
    rng = np.random.default_rng(case["seed"])
    cin = case["cin"] * groups
    cout = case["cout_mult"] * groups
    k, s, p = case["kernel"], case["stride"], case["padding"]
    size = max(case["size"], k)
    conv = Conv2d(cin, cout, k, stride=s, padding=p, groups=groups, bias=case["bias"], rng=rng)
    x = rng.standard_normal((case["n"], cin, size, size)).astype(np.float32)
    return conv, x


@settings(max_examples=30, deadline=None)
@given(conv_cases)
def test_conv2d_backward_matches_reference(case):
    conv, x = _conv_case(case, groups=1)
    _assert_grads_match(conv, x, wrap_step=case["wrap"])


@settings(max_examples=15, deadline=None)
@given(conv_cases, st.integers(2, 4))
def test_grouped_conv_backward_matches_reference(case, groups):
    # Grouped convs stay on the einsum reference closures even with the fast
    # path enabled; this pins the gate so enabling the engine never changes
    # their gradients.
    conv, x = _conv_case(case, groups)
    _assert_grads_match(conv, x, wrap_step=case["wrap"])


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    cin=st.integers(1, 5),
    cout=st.integers(1, 5),
    kernel=st.integers(1, 4),
    stride=st.integers(1, 3),
    size=st.integers(2, 7),
    seed=st.integers(0, 2**16),
    bias=st.booleans(),
    wrap=st.booleans(),
)
def test_conv_transpose2d_backward_matches_reference(
    n, cin, cout, kernel, stride, size, seed, bias, wrap
):
    rng = np.random.default_rng(seed)
    layer = ConvTranspose2d(cin, cout, kernel, stride=stride, bias=bias, rng=rng)
    x = rng.standard_normal((n, cin, size, size)).astype(np.float32)
    _assert_grads_match(layer, x, wrap_step=wrap)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 8),
    fin=st.integers(1, 12),
    fout=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    bias=st.booleans(),
    wrap=st.booleans(),
)
def test_linear_backward_matches_reference(n, fin, fout, seed, bias, wrap):
    rng = np.random.default_rng(seed)
    layer = Linear(fin, fout, bias=bias, rng=rng)
    x = rng.standard_normal((n, fin)).astype(np.float32)
    _assert_grads_match(layer, x, wrap_step=wrap)


@settings(max_examples=12, deadline=None)
@given(
    mid=st.integers(2, 6),
    filter_index=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)
def test_pruned_conv_backward_matches_reference(mid, filter_index, seed):
    # Pruning zeroes rows of the weight in place after the layer was built;
    # the engine path repacks weights at backward time, so a pruned filter
    # must yield identical (zero) gradient rows on both paths.
    rng = np.random.default_rng(seed)
    conv = Conv2d(3, mid, 3, padding=1, rng=rng)
    mask = PruningMask(conv)
    mask.prune(FilterRef("", filter_index % mid))
    x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
    _assert_grads_match(conv, x, wrap_step=True)


@settings(max_examples=20, deadline=None)
@given(
    r=st.integers(2, 40),
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    accumulate=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_execute_tn_matches_reference_product(r, m, n, accumulate, seed):
    _check_execute_tn(r, m, n, accumulate, seed)


@settings(max_examples=20, deadline=None)
@given(
    r=st.integers(64, 8192),
    m=st.integers(1, 96),
    n=st.integers(1, 64),
    accumulate=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_execute_tn_matches_reference_across_threshold(r, m, n, accumulate, seed):
    """Backward dW shapes up to ~100 MFLOP, spanning the old 2e6 threshold.
    float32 rounding grows with the reduction length, hence the sqrt(r) atol."""
    _check_execute_tn(r, m, n, accumulate, seed, atol=1e-5 * np.sqrt(r))


def _check_execute_tn(r, m, n, accumulate, seed, atol=1e-5):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((r, m)).astype(np.float32)
    b = rng.standard_normal((r, n)).astype(np.float32)
    base = rng.standard_normal((m, n)).astype(np.float32)
    expected = a.T.astype(np.float64) @ b.astype(np.float64)
    with fast_path():
        if accumulate:
            out = base.copy()
            engine().execute_tn(a, b, out=out, accumulate=True)
            expected = expected + base
        else:
            out = engine().execute_tn(a, b)
    np.testing.assert_allclose(out, expected.astype(np.float32), rtol=1e-4, atol=atol)


def test_backward_runs_through_engine():
    """Sanity guard: a conv backward issues its dW and dX GEMMs on the engine."""
    rng = np.random.default_rng(11)
    conv = Conv2d(4, 8, 3, padding=1, rng=rng)
    x = rng.standard_normal((2, 4, 12, 12)).astype(np.float32)
    with fast_path():
        out = conv(Tensor(x, requires_grad=True))
        before = engine().totals["calls"]
        (out * out).sum().backward()
        after = engine().totals["calls"]
    assert after - before == 2
    conv.zero_grad()
