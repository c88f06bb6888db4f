"""Unit tests for the autograd Tensor: semantics, shapes, graph behavior."""

import threading

import numpy as np
import pytest

from repro.nn import Tensor, no_grad, is_grad_enabled


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float32

    def test_from_int_array_casts_to_float32(self):
        t = Tensor(np.arange(4))
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_detach_shares_data_but_cuts_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_copy_is_deep(self):
        t = Tensor([1.0, 2.0])
        c = t.copy()
        c.data[0] = 9.0
        assert t.data[0] == 1.0

    def test_item_scalar(self):
        assert Tensor([[2.5]]).item() == pytest.approx(2.5)

    def test_len_and_repr(self):
        t = Tensor(np.zeros((4, 2)), requires_grad=True)
        assert len(t) == 4
        assert "requires_grad=True" in repr(t)


class TestArithmetic:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((3,)))
        assert (a + b).data.tolist() == [[2, 2, 2], [2, 2, 2]]

    def test_radd_scalar(self):
        t = 1.0 + Tensor([1.0])
        assert t.data[0] == 2.0

    def test_sub_and_rsub(self):
        a = Tensor([3.0])
        assert (a - 1.0).data[0] == 2.0
        assert (5.0 - a).data[0] == 2.0

    def test_mul_div(self):
        a = Tensor([6.0])
        assert (a * 2.0).data[0] == 12.0
        assert (a / 2.0).data[0] == pytest.approx(3.0)
        assert (12.0 / a).data[0] == pytest.approx(2.0)

    def test_neg(self):
        assert (-Tensor([2.0])).data[0] == -2.0

    def test_pow(self):
        assert Tensor([3.0]).pow(2).data[0] == pytest.approx(9.0)

    def test_matmul(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose((a @ b).data, b.data)


class TestBackward:
    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + 1.0
        y.backward(np.array([1.0], dtype=np.float32))
        assert x.grad[0] == pytest.approx(3.0)

    def test_scalar_backward_no_arg(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        (x * 2.0).sum().backward()
        assert np.allclose(x.grad, 2.0)

    def test_nonscalar_backward_without_grad_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (x * 2.0).backward()

    def test_grad_shape_mismatch_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 1.0
        with pytest.raises(ValueError, match="shape"):
            y.backward(np.ones(4, dtype=np.float32))

    def test_gradient_accumulates(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        assert x.grad[0] == pytest.approx(5.0)

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        # x used twice: gradients from both paths must sum.
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.sum().backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_broadcast_backward_unbroadcasts(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, 2.0)  # summed over broadcast rows

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y * 1.0
        y.sum().backward()
        assert x.grad[0] == pytest.approx(1.0)


class TestGraphRelease:
    """backward() releases the graph behind it, as torch does by default."""

    def test_interior_grads_released_leaves_kept(self):
        x = Tensor([[1.0, 2.0]])
        w = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        h = x @ w  # [[7, 10]]
        r = h.relu()
        loss = (r * r).sum()
        loss.backward()
        for interior in (h, r, loss):
            assert interior.grad is None
        # dL/dw = x^T (2 h)
        assert np.array_equal(w.grad, np.array([[14.0, 20.0], [28.0, 40.0]], dtype=np.float32))
        assert loss.item() == 149.0  # values stay readable

    def test_backwards_over_separate_forwards_add_up(self):
        # The multi-batch Eq. 2 sum: one backward per batch into the same leaves.
        w = Tensor([[1.0], [-2.0]], requires_grad=True)
        batches = [np.array([[1.0, 2.0]], dtype=np.float32), np.array([[3.0, 1.0]], dtype=np.float32)]
        for images in batches:
            (Tensor(images) @ w).pow(2.0).sum().backward()
        joint = Tensor(w.data.copy(), requires_grad=True)
        (Tensor(np.concatenate(batches)) @ joint).pow(2.0).sum().backward()
        assert np.array_equal(w.grad, joint.grad)

    def test_second_backward_raises(self):
        w = Tensor([2.0], requires_grad=True)
        loss = (w * 3.0).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        assert w.grad[0] == 3.0  # not added a second time

    def test_new_graph_on_released_interior_raises(self):
        w = Tensor([2.0], requires_grad=True)
        b = Tensor([1.0], requires_grad=True)
        h = w * 3.0
        h.sum().backward()
        with pytest.raises(RuntimeError, match="released"):
            (h * b).sum().backward()
        assert w.grad[0] == 3.0
        assert b.grad is None  # raised before any gradient moved

    def test_leaf_root_accumulates_across_calls(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        x.backward(np.ones(2, dtype=np.float32))
        x.backward(np.ones(2, dtype=np.float32))
        assert np.array_equal(x.grad, [2.0, 2.0])


class TestNoGrad:
    def test_no_grad_context(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            x = Tensor([1.0], requires_grad=True)
            y = x * 2.0
            assert not y.requires_grad
        assert is_grad_enabled()

    def test_no_grad_nested(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        # Thread a enters no_grad, then thread b; a exits first, then b.
        # Each thread's exit restores only its own switch, and neither
        # block turns recording off for the main thread.
        a_in, b_in, main_checked, a_out = (threading.Event() for _ in range(4))
        seen_by_b = []

        def a():
            with no_grad():
                a_in.set()
                b_in.wait(10)
                main_checked.wait(10)
            a_out.set()

        def b():
            a_in.wait(10)
            with no_grad():
                b_in.set()
                a_out.wait(10)
                seen_by_b.append(is_grad_enabled())
            seen_by_b.append(is_grad_enabled())

        threads = [threading.Thread(target=a), threading.Thread(target=b)]
        for thread in threads:
            thread.start()
        assert b_in.wait(10)
        main_during = is_grad_enabled()
        main_checked.set()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert main_during
        assert seen_by_b == [False, True]
        assert is_grad_enabled()
        assert (Tensor([1.0], requires_grad=True) * 2.0).requires_grad


class TestShapes:
    def test_reshape_and_backward(self):
        x = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        y = x.reshape(2, 3)
        y.sum().backward()
        assert x.grad.shape == (6,)

    def test_reshape_tuple_arg(self):
        x = Tensor(np.zeros(6))
        assert x.reshape((3, 2)).shape == (3, 2)

    def test_transpose_default_reverses(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.transpose().shape == (4, 3, 2)

    def test_transpose_axes_backward(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)).astype(np.float32), requires_grad=True)
        x.transpose(1, 0, 2).sum().backward()
        assert x.grad.shape == (2, 3, 4)

    def test_T_property(self):
        x = Tensor(np.zeros((2, 5)))
        assert x.T.shape == (5, 2)

    def test_flatten(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.flatten(start_dim=1).shape == (2, 12)

    def test_getitem_backward_scatter(self):
        x = Tensor(np.arange(5, dtype=np.float32), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        assert x.grad.tolist() == [2.0, 0.0, 1.0, 0.0, 0.0]

    def test_concatenate_and_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = Tensor.concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * 2.0).sum().backward()
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 2.0)


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3)))
        assert x.sum(axis=0).shape == (3,)
        assert x.sum(axis=0, keepdims=True).shape == (1, 3)

    def test_mean_value(self):
        assert Tensor(np.arange(4, dtype=np.float32)).mean().item() == pytest.approx(1.5)

    def test_mean_axis_tuple(self):
        x = Tensor(np.ones((2, 3, 4)))
        assert x.mean(axis=(1, 2)).shape == (2,)

    def test_var_matches_numpy(self):
        data = np.random.default_rng(0).normal(size=(4, 5)).astype(np.float32)
        assert Tensor(data).var().item() == pytest.approx(float(data.var()), rel=1e-5)

    def test_max_ties_split_gradient(self):
        x = Tensor(np.array([1.0, 1.0, 0.0], dtype=np.float32), requires_grad=True)
        x.max().backward()
        assert x.grad.tolist() == [0.5, 0.5, 0.0]

    def test_argmax(self):
        assert Tensor([0.0, 5.0, 2.0]).argmax() == 1


class TestActivationValues:
    def test_relu(self):
        assert Tensor([-1.0, 2.0]).relu().data.tolist() == [0.0, 2.0]

    def test_sigmoid_midpoint(self):
        assert Tensor([0.0]).sigmoid().data[0] == pytest.approx(0.5)

    def test_tanh_range(self):
        out = Tensor([-10.0, 10.0]).tanh().data
        assert out[0] == pytest.approx(-1.0, abs=1e-4)
        assert out[1] == pytest.approx(1.0, abs=1e-4)

    def test_hard_sigmoid_saturation(self):
        out = Tensor([-4.0, 0.0, 4.0]).hard_sigmoid().data
        assert out.tolist() == pytest.approx([0.0, 0.5, 1.0])

    def test_hard_swish_values(self):
        out = Tensor([-4.0, 0.0, 4.0]).hard_swish().data
        assert out.tolist() == pytest.approx([0.0, 0.0, 4.0])

    def test_silu(self):
        assert Tensor([0.0]).silu().data[0] == pytest.approx(0.0)

    def test_softmax_sums_to_one(self):
        probs = Tensor(np.random.default_rng(0).normal(size=(4, 7)).astype(np.float32)).softmax()
        assert np.allclose(probs.data.sum(axis=-1), 1.0, atol=1e-5)

    def test_log_softmax_stable_with_large_logits(self):
        out = Tensor([[1000.0, 0.0]]).log_softmax().data
        assert np.isfinite(out).all()

    def test_clamp(self):
        out = Tensor([-2.0, 0.5, 2.0]).clamp(0.0, 1.0).data
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_abs_backward_sign(self):
        x = Tensor([-3.0, 4.0], requires_grad=True)
        x.abs().sum().backward()
        assert x.grad.tolist() == [-1.0, 1.0]
