"""Finite-difference gradient checks for every differentiable op.

These are the substrate's ground truth: if a backward pass is wrong,
everything above (unlearning-loss scores included) silently degrades.
All checks run in float64 with central differences.
"""

import numpy as np
import pytest

from repro.nn import Tensor, cross_entropy
from repro.nn import functional as F

def numgrad(f, x, eps=1e-5):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


def check_unary(op, rng, shape=(3, 4), positive=False, atol=1e-6):
    data = rng.uniform(0.5, 2.0, shape) if positive else rng.normal(size=shape)
    x = Tensor(data.astype(np.float64), requires_grad=True)
    out = op(x)
    (out * out).sum().backward()

    def f():
        o = op(Tensor(x.data))
        return float((o.data ** 2).sum())

    assert np.abs(numgrad(f, x.data) - x.grad).max() < atol


@pytest.mark.parametrize(
    "name,op,positive",
    [
        ("relu_shifted", lambda t: (t + 0.01).relu(), False),
        ("sigmoid", lambda t: t.sigmoid(), False),
        ("tanh", lambda t: t.tanh(), False),
        ("silu", lambda t: t.silu(), False),
        ("exp", lambda t: t.exp(), False),
        ("log", lambda t: t.log(), True),
        ("sqrt", lambda t: t.sqrt(), True),
        ("abs_shifted", lambda t: (t + 0.01).abs(), False),
        ("pow3", lambda t: t.pow(3.0), False),
        ("softmax", lambda t: t.softmax(), False),
        ("log_softmax", lambda t: t.log_softmax(), False),
        ("mean", lambda t: t.mean(axis=1), False),
        ("var", lambda t: t.var(axis=0), False),
        ("reshape", lambda t: t.reshape(4, 3), False),
        ("transpose", lambda t: t.transpose(), False),
    ],
)
def test_unary_ops(name, op, positive, node_rng):
    check_unary(op, node_rng, positive=positive)


def test_hard_sigmoid_grad_away_from_kinks(node_rng):
    data = node_rng.uniform(-2.5, 2.5, (4, 4))
    x = Tensor(data.astype(np.float64), requires_grad=True)
    out = x.hard_sigmoid()
    (out * out).sum().backward()

    def f():
        return float((Tensor(x.data).hard_sigmoid().data ** 2).sum())

    assert np.abs(numgrad(f, x.data) - x.grad).max() < 1e-5


def test_hard_swish_grad_away_from_kinks(node_rng):
    data = node_rng.uniform(-2.5, 2.5, (4, 4))
    x = Tensor(data.astype(np.float64), requires_grad=True)
    (x.hard_swish() * 1.0).sum().backward()

    def f():
        return float(Tensor(x.data).hard_swish().data.sum())

    assert np.abs(numgrad(f, x.data) - x.grad).max() < 1e-5


def test_binary_mul_both_sides(node_rng):
    a = Tensor(node_rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(node_rng.normal(size=(4,)), requires_grad=True)
    ((a * b) ** 2.0).sum().backward()

    def fa():
        return float(((a.data * b.data) ** 2).sum())

    assert np.abs(numgrad(fa, a.data) - a.grad).max() < 1e-5
    assert np.abs(numgrad(fa, b.data) - b.grad).max() < 1e-5


def test_div_grad(node_rng):
    a = Tensor(node_rng.normal(size=(3,)), requires_grad=True)
    b = Tensor(node_rng.uniform(1.0, 2.0, (3,)), requires_grad=True)
    (a / b).sum().backward()

    def f():
        return float((a.data / b.data).sum())

    assert np.abs(numgrad(f, a.data) - a.grad).max() < 1e-5
    assert np.abs(numgrad(f, b.data) - b.grad).max() < 1e-5


def test_matmul_grad(node_rng):
    a = Tensor(node_rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(node_rng.normal(size=(4, 2)), requires_grad=True)
    ((a @ b) ** 2.0).sum().backward()

    def f():
        return float(((a.data @ b.data) ** 2).sum())

    assert np.abs(numgrad(f, a.data) - a.grad).max() < 1e-4
    assert np.abs(numgrad(f, b.data) - b.grad).max() < 1e-4


def test_max_reduction_grad(node_rng):
    data = node_rng.normal(size=(3, 5))
    x = Tensor(data, requires_grad=True)
    x.max(axis=1).sum().backward()

    def f():
        return float(x.data.max(axis=1).sum())

    assert np.abs(numgrad(f, x.data) - x.grad).max() < 1e-5


@pytest.mark.parametrize(
    "stride,padding,groups,kernel,c_out",
    [
        pytest.param(1, 0, 1, 3, 4, id="1-0-1"),
        pytest.param(2, 1, 1, 3, 4, id="2-1-1"),
        pytest.param(1, 1, 2, 3, 4, id="1-1-2"),
        pytest.param(1, 1, 4, 3, 4, id="1-1-4"),
        pytest.param(2, 2, 4, 5, 4, id="depthwise-5x5-s2"),
        pytest.param(1, 1, 4, 3, 8, id="depthwise-multiplier-2"),
    ],
)
def test_conv2d_grads(stride, padding, groups, kernel, c_out, node_rng):
    c_in = 4
    x = Tensor(node_rng.normal(size=(2, c_in, 6, 6)), requires_grad=True)
    w = Tensor(node_rng.normal(size=(c_out, c_in // groups, kernel, kernel)), requires_grad=True)
    b = Tensor(node_rng.normal(size=(c_out,)), requires_grad=True)
    out = F.conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
    (out * out).sum().backward()

    def f():
        o = F.conv2d(Tensor(x.data), Tensor(w.data), Tensor(b.data), stride, padding, groups)
        return float((o.data ** 2).sum())

    assert np.abs(numgrad(f, x.data) - x.grad).max() < 1e-4
    assert np.abs(numgrad(f, w.data) - w.grad).max() < 1e-4
    assert np.abs(numgrad(f, b.data) - b.grad).max() < 1e-4


def test_max_pool_grad(node_rng):
    x = Tensor(node_rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    (F.max_pool2d(x, 2, 2) ** 2.0).sum().backward()

    def f():
        return float((F.max_pool2d(Tensor(x.data), 2, 2).data ** 2).sum())

    assert np.abs(numgrad(f, x.data) - x.grad).max() < 1e-5


def test_max_pool_stride_ne_kernel_grad(node_rng):
    x = Tensor(node_rng.normal(size=(1, 2, 7, 7)), requires_grad=True)
    (F.max_pool2d(x, 3, 2) ** 2.0).sum().backward()

    def f():
        return float((F.max_pool2d(Tensor(x.data), 3, 2).data ** 2).sum())

    assert np.abs(numgrad(f, x.data) - x.grad).max() < 1e-5


def test_avg_pool_grad(node_rng):
    x = Tensor(node_rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    (F.avg_pool2d(x, 3, 3) ** 2.0).sum().backward()

    def f():
        return float((F.avg_pool2d(Tensor(x.data), 3, 3).data ** 2).sum())

    assert np.abs(numgrad(f, x.data) - x.grad).max() < 1e-5


def test_avg_pool_overlapping_padded_grad():
    # Overlapping, zero-padded windows take the tap-loop backward.
    x = Tensor(np.random.default_rng(3).normal(size=(2, 2, 7, 7)), requires_grad=True)
    (F.avg_pool2d(x, 3, 2, padding=1) ** 2.0).sum().backward()

    def f():
        return float((F.avg_pool2d(Tensor(x.data), 3, 2, padding=1).data ** 2).sum())

    assert np.abs(numgrad(f, x.data) - x.grad).max() < 1e-5


def _avg_pool_tap_loop_grad(grad, x_shape, k):
    """Backward of a non-overlapping ``k``-pool as the tap loop: one add per kernel tap."""
    out_h, out_w = grad.shape[2:]
    spread = grad * (1.0 / (k * k))
    grad_x = np.zeros(x_shape, dtype=grad.dtype)
    for i in range(k):
        for j in range(k):
            grad_x[:, :, i : i + k * out_h : k, j : j + k * out_w : k] += spread
    return grad_x


@pytest.mark.parametrize("shape, kernel", [((2, 5, 8, 8), 8), ((2, 3, 7, 7), 3)], ids=["global", "7x7-k3"])
def test_avg_pool_broadcast_grad_matches_tap_loop(shape, kernel):
    # Non-overlapping windows take the one-broadcast backward; the 7x7 input
    # leaves a remainder row and column that no window covers.
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
    out = F.avg_pool2d(x, kernel)
    upstream = rng.normal(size=out.shape).astype(np.float32)
    out.backward(upstream)
    assert np.array_equal(x.grad, _avg_pool_tap_loop_grad(upstream, shape, kernel))


def test_batch_norm_train_grads(node_rng):
    x = Tensor(node_rng.normal(size=(3, 4, 5, 5)), requires_grad=True)
    w = Tensor(node_rng.uniform(0.5, 1.5, (4,)), requires_grad=True)
    b = Tensor(node_rng.normal(size=(4,)), requires_grad=True)
    out, _, _ = F.batch_norm2d_train(x, w, b, 1e-5)
    (out * out).sum().backward()

    def f():
        o, _, _ = F.batch_norm2d_train(Tensor(x.data), Tensor(w.data), Tensor(b.data), 1e-5)
        return float((o.data ** 2).sum())

    assert np.abs(numgrad(f, x.data) - x.grad).max() < 1e-5
    assert np.abs(numgrad(f, w.data) - w.grad).max() < 1e-5
    assert np.abs(numgrad(f, b.data) - b.grad).max() < 1e-5


def test_batch_norm_eval_grads(node_rng):
    rm = node_rng.normal(size=4)
    rv = node_rng.uniform(0.5, 2.0, 4)
    x = Tensor(node_rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
    w = Tensor(node_rng.uniform(0.5, 1.5, (4,)), requires_grad=True)
    b = Tensor(node_rng.normal(size=(4,)), requires_grad=True)
    out = F.batch_norm2d_eval(x, w, b, rm, rv, 1e-5)
    (out * out).sum().backward()

    def f():
        o = F.batch_norm2d_eval(Tensor(x.data), Tensor(w.data), Tensor(b.data), rm, rv, 1e-5)
        return float((o.data ** 2).sum())

    assert np.abs(numgrad(f, x.data) - x.grad).max() < 1e-5
    assert np.abs(numgrad(f, w.data) - w.grad).max() < 1e-5
    assert np.abs(numgrad(f, b.data) - b.grad).max() < 1e-5


def test_cross_entropy_grad(node_rng):
    logits = Tensor(node_rng.normal(size=(5, 7)), requires_grad=True)
    labels = node_rng.integers(0, 7, 5)
    cross_entropy(logits, labels).backward()

    def f():
        return float(cross_entropy(Tensor(logits.data), labels).data)

    assert np.abs(numgrad(f, logits.data) - logits.grad).max() < 1e-5


def test_cross_entropy_sum_grad(node_rng):
    logits = Tensor(node_rng.normal(size=(4, 5)), requires_grad=True)
    labels = node_rng.integers(0, 5, 4)
    cross_entropy(logits, labels, reduction="sum").backward()

    def f():
        return float(cross_entropy(Tensor(logits.data), labels, reduction="sum").data)

    assert np.abs(numgrad(f, logits.data) - logits.grad).max() < 1e-4

