"""Reverse-mode automatic differentiation on numpy arrays.

This module provides :class:`Tensor`, the fundamental value type of the
``repro.nn`` substrate.  A :class:`Tensor` wraps a ``numpy.ndarray`` and
records, for every differentiable operation, a graph vertex on a tape: the
vertex holds the op's backward closure, its parents' vertices and a gradient
slot, but not the result's data, which only the caller's :class:`Tensor`
holds.  Each closure keeps exactly the arrays its backward reads.  Calling
:meth:`Tensor.backward` walks the vertices in reverse topological order,
accumulates gradients into the leaves' ``.grad`` and releases the tape as it
goes.

The engine is intentionally small but complete enough to train convolutional
classifiers: broadcasting-aware arithmetic, matmul, reductions, shape
manipulation, indexing, and the nonlinearities used by the model zoo.
Convolution and pooling live in :mod:`repro.nn.functional` but plug into the
same tape mechanism.

Example
-------
>>> import numpy as np
>>> from repro.nn.tensor import Tensor
>>> x = Tensor(np.ones((2, 3)), requires_grad=True)
>>> y = (x * 2.0 + 1.0).sum()
>>> y.backward()
>>> x.grad
array([[2., 2., 2.],
       [2., 2., 2.]], dtype=float32)
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

Scalar = Union[int, float]
TensorLike = Union["Tensor", np.ndarray, Scalar, Sequence]


class _GradMode(threading.local):
    """Per-thread autograd switch: every thread starts with recording on."""

    enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables gradient recording on this thread.

    Mirrors ``torch.no_grad``: inside the block, operations on tensors do not
    build the autograd tape, which saves memory and time during inference.
    Like torch, the switch is per thread, so a serving thread's ``no_grad``
    never turns recording off for a training thread.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _GRAD_MODE.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations on this thread currently record gradients."""
    return _GRAD_MODE.enabled


def _released(grad: np.ndarray) -> None:
    """The closure of an interior node after a backward pass has run it."""
    raise RuntimeError(
        "backward() reached a tensor whose graph an earlier backward() already "
        "released; run the forward pass again to build a new graph"
    )


def _as_array(value: TensorLike, dtype=np.float32) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value, dtype=dtype)
    return arr


def _add_grad(vertex: Union["Tensor", "_Node"], grad: np.ndarray) -> None:
    """Add ``grad`` into a graph vertex's gradient slot, in its dtype."""
    if vertex.grad is None:
        # order="C", not the astype default "K": incoming grads may be
        # transpose views (e.g. the conv backward's channels-last dX in a
        # workspace slab), and "K" would preserve that strided layout, making
        # every later read of .grad strided too.
        vertex.grad = grad.astype(vertex.dtype, order="C", copy=True)
    else:
        vertex.grad += grad


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    # Sum leading dims added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum dims that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed array with reverse-mode autodiff support.

    A tensor made by the caller is a *leaf*: when it requires grad it is its
    own graph vertex, and gradients accumulate into its ``.grad``.  A tensor
    an op records is an op *result*: it holds the data, and a separate
    :class:`_Node` holds its place in the graph, so the graph keeps the
    result's data alive only where a backward closure reads it.  Results
    report ``requires_grad`` True but keep no ``.grad``.

    Parameters
    ----------
    data:
        Array-like initial value; converted to ``float32`` unless it is
        already a floating numpy array.
    requires_grad:
        When True, gradients flowing to this tensor are accumulated into
        ``.grad`` during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "name")

    # A leaf is a vertex with no closure and no parents.
    _backward_fn = None
    _parents: Tuple["_Node", ...] = ()

    def __init__(self, data: TensorLike, requires_grad: bool = False, name: str = "") -> None:
        if isinstance(data, Tensor):
            data = data.data
        if isinstance(data, np.floating):
            # 0-d array ops return numpy scalars; keep their precision.
            data = np.asarray(data)
        elif not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=np.float32)
        elif data.dtype not in (np.float32, np.float64):
            data = data.astype(np.float32)
        self.data: np.ndarray = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = requires_grad and _GRAD_MODE.enabled
        self._node: Optional[_Node] = None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    @property
    def _vertex(self) -> Optional[Union["Tensor", "_Node"]]:
        """Where a backward closure accumulates this tensor's gradient: the
        leaf itself, an op result's node, or None when no gradient flows."""
        if not self.requires_grad:
            return None
        return self if self._node is None else self._node

    def _keep(self) -> Callable[[], np.ndarray]:
        """What a backward closure keeps to read this tensor's data.

        An op result's array is kept as it is.  A leaf's data is read
        through the leaf when the closure runs, so the backward sees what
        pruning masks, SAM and ANP wrote into parameters since the forward.
        """
        if self._node is None:
            return lambda: self.data
        data = self.data
        return lambda: data

    def _accumulate(self, grad: np.ndarray) -> None:
        if self._node is not None:
            raise RuntimeError(
                "an op result's gradient goes to its graph vertex: a backward "
                "closure must capture the parent's _vertex, not the tensor"
            )
        _add_grad(self, grad)

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear the accumulated gradient.

        ``set_to_none=False`` zeroes the existing ``.grad`` buffer in place
        instead of dropping it, so the next backward accumulates into the
        same (hot) memory rather than paying a fresh page-faulting
        allocation — the repeated-backward loops (per-round filter scoring,
        SAM's two backwards per step) use this.
        """
        if set_to_none or self.grad is None:
            self.grad = None
        else:
            self.grad.fill(0.0)

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Gradients accumulate into the ``.grad`` of the graph's leaves (tensors
        created with ``requires_grad=True``, such as parameters), adding to
        what earlier calls left there until ``zero_grad()``.  The walk runs
        over graph vertices (the leaves and each op result's :class:`_Node`),
        which hold no op's data.  As in torch's default, it releases the graph
        behind it: interior tensors keep no ``.grad``, and a backward that
        reaches a released tensor (a second ``loss.backward()``, or a new
        graph built on an old interior tensor) raises ``RuntimeError`` before
        touching any gradient.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ones for scalar outputs; required
            for non-scalar outputs.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar output; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"gradient shape {grad.shape} != tensor shape {self.shape}")

        root = self if self._node is None else self._node
        topo: list[Union[Tensor, _Node]] = []
        visited: set[int] = set()
        stack: list[Tuple[Union[Tensor, _Node], bool]] = [(root, False)]
        while stack:
            vertex, processed = stack.pop()
            if processed:
                topo.append(vertex)
                continue
            if id(vertex) in visited:
                continue
            if vertex._backward_fn is _released:
                _released(grad)  # raises
            visited.add(id(vertex))
            stack.append((vertex, True))
            for parent in vertex._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        root._accumulate(grad)
        # Release each node as the walk reaches it: once its closure has
        # handed its parents their share, nothing references the node's
        # gradient or the arrays the closure kept.  Leaves keep accumulating
        # across calls.
        while topo:
            vertex = topo.pop()
            backward_fn = vertex._backward_fn
            if backward_fn is None:
                continue
            node_grad, vertex.grad = vertex.grad, None
            vertex._backward_fn, vertex._parents = _released, ()
            if node_grad is not None:
                backward_fn(node_grad)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op-result tensor, recording its graph vertex when enabled.

        ``backward_fn`` must capture its parents' ``_vertex`` and the arrays
        it reads (:meth:`_keep`), never a parent ``Tensor``: the vertex
        records which parents need a gradient, and the result's data stays
        with the returned tensor alone.
        """
        if _GRAD_MODE.enabled:
            vertices = tuple(v for v in (p._vertex for p in parents) if v is not None)
            if vertices:
                out = Tensor(data, requires_grad=True)
                out._node = _Node(backward_fn, vertices, out.data.dtype)
                return out
        return Tensor(data)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: TensorLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data + other.data
        va, vb = self._vertex, other._vertex
        shape_a, shape_b = self.shape, other.shape

        def backward(grad: np.ndarray) -> None:
            if va is not None:
                va._accumulate(_unbroadcast(grad, shape_a))
            if vb is not None:
                vb._accumulate(_unbroadcast(grad, shape_b))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data * other.data
        va, vb = self._vertex, other._vertex
        shape_a, shape_b = self.shape, other.shape
        # Each operand is kept only for the other side's gradient.
        a_data = None if vb is None else self._keep()
        b_data = None if va is None else other._keep()

        def backward(grad: np.ndarray) -> None:
            if va is not None:
                va._accumulate(_unbroadcast(grad * b_data(), shape_a))
            if vb is not None:
                vb._accumulate(_unbroadcast(grad * a_data(), shape_b))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: TensorLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        return self + (-other)

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return Tensor(_as_array(other)) + (-self)

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        return self * other.pow(-1.0)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return Tensor(_as_array(other)) * self.pow(-1.0)

    def pow(self, exponent: float) -> "Tensor":
        """Elementwise power with a constant exponent."""
        out_data = self.data ** exponent
        vx, x_data = self._vertex, self._keep()

        def backward(grad: np.ndarray) -> None:
            vx._accumulate(grad * exponent * x_data() ** (exponent - 1.0))

        return Tensor._make(out_data, (self,), backward)

    __pow__ = pow

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        vx = self._vertex

        def backward(grad: np.ndarray) -> None:
            vx._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        vx, x_data = self._vertex, self._keep()

        def backward(grad: np.ndarray) -> None:
            vx._accumulate(grad / x_data())

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self.pow(0.5)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        vx, x_data = self._vertex, self._keep()

        def backward(grad: np.ndarray) -> None:
            vx._accumulate(grad * np.sign(x_data()))

        return Tensor._make(out_data, (self,), backward)

    def clamp(self, min_value: Optional[float] = None, max_value: Optional[float] = None) -> "Tensor":
        """Clip values to ``[min_value, max_value]``; gradient is a pass-through mask."""
        out_data = np.clip(self.data, min_value, max_value)
        vx, x_data = self._vertex, self._keep()

        def backward(grad: np.ndarray) -> None:
            x = x_data()
            mask = np.ones_like(x)
            if min_value is not None:
                mask = mask * (x >= min_value)
            if max_value is not None:
                mask = mask * (x <= max_value)
            vx._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data @ other.data
        va, vb = self._vertex, other._vertex
        shape_a, shape_b = self.shape, other.shape
        # Each operand is kept only for the other side's gradient.
        a_data = None if vb is None else self._keep()
        b_data = None if va is None else other._keep()

        def backward(grad: np.ndarray) -> None:
            if va is not None:
                va._accumulate(_unbroadcast(grad @ np.swapaxes(b_data(), -1, -2), shape_a))
            if vb is not None:
                vb._accumulate(_unbroadcast(np.swapaxes(a_data(), -1, -2) @ grad, shape_b))

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        vx, shape, dtype = self._vertex, self.shape, self.dtype

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            vx._accumulate(np.broadcast_to(g, shape).astype(dtype))

        return Tensor._make(np.asarray(out_data), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu).pow(2.0)
        return sq.mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        vx, x_data = self._vertex, self._keep()

        def backward(grad: np.ndarray) -> None:
            x = x_data()
            g = grad
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(out_data, axis=axis)
            mask = (x == expanded).astype(x.dtype)
            # Split gradient evenly across ties to keep the op well-defined.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            vx._accumulate(mask * g / counts)

        return Tensor._make(np.asarray(out_data), (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        vx, original_shape = self._vertex, self.shape

        def backward(grad: np.ndarray) -> None:
            vx._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        vx, inverse = self._vertex, np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            vx._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        """Flatten dimensions from ``start_dim`` onwards."""
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*new_shape)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        vx, shape, dtype = self._vertex, self.shape, self.dtype

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(shape, dtype)
            np.add.at(full, index, grad)
            vx._accumulate(full)

        return Tensor._make(np.ascontiguousarray(out_data), (self,), backward)

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along ``axis`` with gradient routing."""
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        vertices = [t._vertex for t in tensors]

        def backward(grad: np.ndarray) -> None:
            for vertex, start, stop in zip(vertices, offsets[:-1], offsets[1:]):
                if vertex is not None:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    vertex._accumulate(grad[tuple(slicer)])

        return Tensor._make(out_data, tensors, backward)

    # ------------------------------------------------------------------
    # Nonlinearities (kept here because they are single-input elementwise)
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        # The backward mask comes from the output, which the next op usually
        # keeps anyway: ``out > 0`` is bitwise ``x > 0`` for ``max(x, 0)``.
        # No-grad inference pays for exactly one allocation (the output).
        out_data = np.maximum(self.data, 0.0)
        vx = self._vertex

        def backward(grad: np.ndarray) -> None:
            vx._accumulate(grad * (out_data > 0.0))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Two-branch form avoids exp overflow for large-magnitude inputs.
        x = self.data
        out_data = np.where(
            x >= 0,
            1.0 / (1.0 + np.exp(-np.abs(x))),
            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
        ).astype(x.dtype)
        vx = self._vertex

        def backward(grad: np.ndarray) -> None:
            vx._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        vx = self._vertex

        def backward(grad: np.ndarray) -> None:
            vx._accumulate(grad * (1.0 - out_data * out_data))

        return Tensor._make(out_data, (self,), backward)

    def hard_sigmoid(self) -> "Tensor":
        """ReLU6(x + 3) / 6 — MobileNetV3's h-sigmoid."""
        out_data = np.clip(self.data + 3.0, 0.0, 6.0) / 6.0
        vx, x_data = self._vertex, self._keep()

        def backward(grad: np.ndarray) -> None:
            x = x_data()
            mask = ((x > -3.0) & (x < 3.0)).astype(x.dtype) / 6.0
            vx._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def hard_swish(self) -> "Tensor":
        """x * h-sigmoid(x) — MobileNetV3's h-swish."""
        hsig = np.clip(self.data + 3.0, 0.0, 6.0) / 6.0
        out_data = self.data * hsig
        vx, x_data = self._vertex, self._keep()

        def backward(grad: np.ndarray) -> None:
            x = x_data()
            inner = ((x > -3.0) & (x < 3.0)).astype(x.dtype) / 6.0
            local = hsig + x * inner
            vx._accumulate(grad * local)

        return Tensor._make(out_data, (self,), backward)

    def silu(self) -> "Tensor":
        """x * sigmoid(x) — the swish used by EfficientNet."""
        sig = 1.0 / (1.0 + np.exp(-self.data))
        out_data = self.data * sig
        vx, x_data = self._vertex, self._keep()

        def backward(grad: np.ndarray) -> None:
            local = sig * (1.0 + x_data() * (1.0 - sig))
            vx._accumulate(grad * local)

        return Tensor._make(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_sum
        vx = self._vertex

        def backward(grad: np.ndarray) -> None:
            softmax = np.exp(out_data)
            vx._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

        return Tensor._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        return self.log_softmax(axis=axis).exp()

    # ------------------------------------------------------------------
    # Convenience predicates (non-differentiable)
    # ------------------------------------------------------------------
    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)


class _Node:
    """The graph vertex of one op result.

    It holds what :meth:`Tensor.backward` walks — the gradient slot, the
    backward closure and the parents' vertices — and the dtype its gradient
    accumulates in, but none of the result's data.  So the graph keeps an
    op's output alive only where a closure kept it for its backward.
    """

    __slots__ = ("grad", "_backward_fn", "_parents", "dtype")

    _accumulate = _add_grad

    def __init__(
        self,
        backward_fn: Callable[[np.ndarray], None],
        parents: Tuple[Union[Tensor, "_Node"], ...],
        dtype: np.dtype,
    ) -> None:
        self.grad: Optional[np.ndarray] = None
        self._backward_fn = backward_fn
        self._parents = parents
        self.dtype = dtype
