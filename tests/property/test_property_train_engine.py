"""Property-based gradient-equivalence tests for the training kernels.

The engine-backed training backward (im2col column reuse, ``execute_tn``
dW, workspace gradient buffers) must produce the same gradients as the
reference autograd closures of ``tests/nn/reference.py`` within float32
tolerances.  Training and inference share one workspace, so the
``interleave`` draw runs a no-grad forward of the same layer on other data
between a forward and its backward; the gradients must not notice.  Direct
``execute_tn`` cases draw shapes on both sides of 2e6 flops, where an
earlier engine switched from inline BLAS to a reduction-split dispatch.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models.pruning_utils import FilterRef, PruningMask
from repro.nn import Conv2d, ConvTranspose2d, Linear, Tensor, no_grad
from repro.nn.engine import engine
from tests.nn.reference import reference_kernels


def _loss_backward(layer, x_data, interleave=False):
    """Forward + sum-loss backward; returns (loss, x.grad, {param grads}, out shape)."""
    x = Tensor(x_data.copy(), requires_grad=True)
    out = layer(x)
    loss = (out * out).sum()
    if interleave:
        # Overwrites every workspace slab the layer's kernels use.
        with no_grad():
            layer(Tensor(x_data[::-1] * 2.0 + 1.0))
    loss.backward()
    grads = {name: p.grad.copy() for name, p in layer.named_parameters() if p.grad is not None}
    layer.zero_grad()
    return loss.item(), x.grad.copy(), grads, out.shape


def _assert_grads_match(layer, x, interleave=False):
    loss_f, xg_f, grads_f, out_shape = _loss_backward(layer, x, interleave=interleave)
    with reference_kernels():
        loss_r, xg_r, grads_r, _ = _loss_backward(layer, x)
    np.testing.assert_allclose(loss_f, loss_r, rtol=1e-4)
    np.testing.assert_allclose(xg_f, xg_r, rtol=1e-4, atol=1e-5)
    assert set(grads_f) == set(grads_r)
    # A weight-gradient entry sums one product per output row (N*out_h*out_w
    # for a conv, N for a linear) or, for a transposed conv, per input pixel
    # (N*H*W).  float32 rounding grows with that count, as in _check_execute_tn.
    rows = x.shape if isinstance(layer, ConvTranspose2d) else out_shape
    terms = int(np.prod(rows)) // rows[1]
    for name in grads_r:
        np.testing.assert_allclose(
            grads_f[name], grads_r[name], rtol=1e-4, atol=1e-5 * np.sqrt(terms), err_msg=name
        )


conv_cases = st.builds(
    dict,
    n=st.integers(1, 3),
    cin=st.integers(1, 6),
    cout_mult=st.integers(1, 3),
    kernel=st.integers(1, 5),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    size=st.integers(4, 10),
    seed=st.integers(0, 2**16),
    bias=st.booleans(),
    interleave=st.booleans(),
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
    _assert_grads_match(conv, x, interleave=case["interleave"])


@settings(max_examples=15, deadline=None)
@given(conv_cases, st.integers(2, 4))
# dW[3, 1, 1, 0] cancels over 243 terms; both kernels are within float32
# accumulation error of a float64 dW, yet 3.4e-5 apart.
@example(
    dict(n=3, cin=6, cout_mult=3, kernel=2, stride=1, padding=1, size=8, seed=1069,
         bias=False, interleave=False),
    2,
)
def test_grouped_conv_backward_matches_reference(case, groups):
    # Depthwise draws (cin == 1 per group) take the tap-loop kernel; the
    # others (C_in / groups > 1) run each group through the groups == 1
    # kernel and concatenate.  Both must match the einsum reference.
    conv, x = _conv_case(case, groups)
    _assert_grads_match(conv, x, interleave=case["interleave"])


@settings(max_examples=40, deadline=None)
@given(conv_cases, st.integers(1, 6))
def test_depthwise_conv_backward_matches_reference(case, channels):
    """groups == C_in, with channel multipliers C_out = cout_mult * C_in: the
    tap-loop kernel's dX, dW and db against the einsum reference closures."""
    conv, x = _conv_case(dict(case, cin=1), groups=channels)
    _assert_grads_match(conv, x, interleave=case["interleave"])


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
    interleave=st.booleans(),
)
def test_conv_transpose2d_backward_matches_reference(
    n, cin, cout, kernel, stride, size, seed, bias, interleave
):
    rng = np.random.default_rng(seed)
    layer = ConvTranspose2d(cin, cout, kernel, stride=stride, bias=bias, rng=rng)
    x = rng.standard_normal((n, cin, size, size)).astype(np.float32)
    _assert_grads_match(layer, x, interleave=interleave)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 8),
    fin=st.integers(1, 12),
    fout=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    bias=st.booleans(),
    interleave=st.booleans(),
)
def test_linear_backward_matches_reference(n, fin, fout, seed, bias, interleave):
    rng = np.random.default_rng(seed)
    layer = Linear(fin, fout, bias=bias, rng=rng)
    x = rng.standard_normal((n, fin)).astype(np.float32)
    _assert_grads_match(layer, x, interleave=interleave)


@settings(max_examples=12, deadline=None)
@given(
    mid=st.integers(2, 6),
    filter_index=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)
def test_pruned_conv_backward_matches_reference(mid, filter_index, seed):
    # Pruning zeroes rows of the weight in place after the layer was built;
    # the engine kernel repacks weights at backward time, so a pruned filter
    # must yield identical (zero) gradient rows on both sides.
    rng = np.random.default_rng(seed)
    conv = Conv2d(3, mid, 3, padding=1, rng=rng)
    mask = PruningMask(conv)
    mask.prune(FilterRef("", filter_index % mid))
    x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
    _assert_grads_match(conv, x, interleave=True)


@settings(max_examples=20, deadline=None)
@given(
    r=st.integers(2, 40),
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_execute_tn_matches_reference_product(r, m, n, seed):
    _check_execute_tn(r, m, n, seed)


@settings(max_examples=20, deadline=None)
@given(
    r=st.integers(64, 8192),
    m=st.integers(1, 96),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**16),
)
def test_execute_tn_matches_reference_across_threshold(r, m, n, seed):
    """Backward dW shapes up to ~100 MFLOP, spanning the old 2e6 threshold.
    float32 rounding grows with the reduction length, hence the sqrt(r) atol."""
    _check_execute_tn(r, m, n, seed, atol=1e-5 * np.sqrt(r))


def _check_execute_tn(r, m, n, seed, atol=1e-5):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((r, m)).astype(np.float32)
    b = rng.standard_normal((r, n)).astype(np.float32)
    expected = a.T.astype(np.float64) @ b.astype(np.float64)
    out = engine().execute_tn(a, b)
    np.testing.assert_allclose(out, expected.astype(np.float32), rtol=1e-4, atol=atol)


def test_backward_runs_through_engine():
    """Sanity guard: a conv backward issues its dW and dX GEMMs on the engine."""
    rng = np.random.default_rng(11)
    conv = Conv2d(4, 8, 3, padding=1, rng=rng)
    x = rng.standard_normal((2, 4, 12, 12)).astype(np.float32)
    out = conv(Tensor(x, requires_grad=True))
    before = engine().totals["calls"]
    (out * out).sum().backward()
    after = engine().totals["calls"]
    assert after - before == 2
    conv.zero_grad()
