"""Convolution, pooling, and padding primitives with autograd support.

The reference convolution uses im2col/col2im so that both forward and
backward passes reduce to dense matrix multiplications (an einsum over
``(groups, ...)`` blocks for grouped convs).  Grouped and depthwise
convolution (needed by EfficientNet and MobileNetV3) are supported via the
``groups`` argument.

Fast path
---------
With the fast path on, :func:`conv2d` picks one of two kernels by the
weight shape, for no-grad and gradient calls alike:

- ``groups == 1``: a channels-last single-GEMM conv.  The unfold is written
  in ``(N*L, kh*kw*C_in)`` layout so one large BLAS GEMM replaces N small
  batched matmuls, and it runs through :mod:`repro.nn.engine` as one inline
  BLAS call, with the conv bias (post-folding: the BN affine) and an
  optionally fused ReLU applied in place on its output.  The gradient path
  keeps the columns for the dW GEMM.
- ``groups == C_in`` (depthwise, with any channel multiplier
  ``C_out = m * C_in``): a direct tap loop over the zero-padded input, one
  strided view and one multiply-add per kernel tap, with no unfold at all.
  The taps run in channels-last storage (the padding copy transposes an
  NCHW input on the way), and the backward reuses the padded input the
  forward kept.

Scratch (padded inputs, unfolds, packed weights, tap products) comes from a
reused :class:`Workspace` arena, which avoids the page-fault cost of freshly
mmap'd allocations; only results that escape an op are fresh.  Grouped convs
with ``C_in / groups > 1`` (no model uses them) take the reference path.
Set ``REPRO_DISABLE_FAST_PATH=1`` to force the reference path for every conv
(useful for bisecting regressions between kernel and orchestration layers).
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .tensor import Tensor, is_grad_enabled

__all__ = [
    "conv2d",
    "conv_transpose2d",
    "linear",
    "max_pool2d",
    "avg_pool2d",
    "adaptive_avg_pool2d",
    "batch_norm2d_train",
    "batch_norm2d_eval",
    "pad2d",
    "im2col",
    "col2im",
    "Workspace",
    "workspace",
    "current_arena",
    "use_arena",
    "train_workspace",
    "current_train_arena",
    "use_train_arena",
    "fast_path_enabled",
]

IntPair = Union[int, Tuple[int, int]]

FAST_PATH_ENV = "REPRO_DISABLE_FAST_PATH"


def fast_path_enabled() -> bool:
    """Whether the no-grad inference fast path is active.

    Opt out with ``REPRO_DISABLE_FAST_PATH=1`` (also accepts ``true``/``yes``/
    ``on``); the environment is consulted on every call so tests can flip the
    flag without reloading the module.
    """
    return os.environ.get(FAST_PATH_ENV, "").strip().lower() not in ("1", "true", "yes", "on")


class Workspace:
    """Arena of reusable scratch slabs, one growable byte buffer per tag.

    The inference fast path needs large intermediates (padded inputs, im2col
    matrices, GEMM outputs) on every conv call.  Fresh numpy allocations of
    multi-MB arrays are mmap-backed, so writing them incurs a page fault per
    4 KiB; recycling a slab avoids that.  Crucially the slab is shared
    *across layers* — :meth:`get` hands out a view of the per-tag buffer
    regardless of the requested shape — so consecutive convs of different
    sizes hit the same hot pages instead of each pinning their own
    cold-by-next-round buffer (keying slabs by shape was measurably slower
    than plain malloc recycling due to cache/TLB pressure).

    Buffers are only handed out for intermediates that are fully consumed
    before the op returns — results that escape an op are always freshly
    allocated.  Two concurrent ``get``s of the same tag alias each other.

    Not thread-safe; the engine is single-threaded by design (BLAS provides
    the parallelism).
    """

    def __init__(self) -> None:
        self._slabs: Dict[str, np.ndarray] = {}

    def get(self, tag: str, shape: Tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """Return a reusable uninitialized ``(shape, dtype)`` view for ``tag``."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        slab = self._slabs.get(tag)
        if slab is None or slab.nbytes < nbytes:
            slab = np.empty(nbytes, dtype=np.uint8)
            self._slabs[tag] = slab
        return slab[:nbytes].view(dtype).reshape(shape)

    def release(self, tag: str) -> None:
        """Lifetime mark: ``tag``'s buffer is dead.  No-op here; the static
        planner (:class:`repro.nn.engine.PlannedArena`) uses these marks to
        let lifetime-disjoint tags share one slab."""

    def clear(self) -> None:
        """Drop every cached slab (frees the memory)."""
        self._slabs.clear()

    def __len__(self) -> int:
        return len(self._slabs)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(slab.nbytes for slab in self._slabs.values())


_WORKSPACE = Workspace()


def workspace() -> Workspace:
    """The process-wide workspace arena used by the inference fast path."""
    return _WORKSPACE


_ARENA_STACK: List[Workspace] = []


def current_arena() -> Workspace:
    """The arena fast-path kernels should allocate from.

    Defaults to the process-wide :func:`workspace`; a compiled model pushes
    its own planned arena for the duration of each forward via
    :func:`use_arena`.
    """
    return _ARENA_STACK[-1] if _ARENA_STACK else _WORKSPACE


@contextlib.contextmanager
def use_arena(arena):
    """Route fast-path scratch allocations to ``arena`` inside the block."""
    _ARENA_STACK.append(arena)
    try:
        yield arena
    finally:
        _ARENA_STACK.pop()


# Training-side scratch is kept separate from the inference arena stack: a
# training step's backward temporaries (flattened upstream gradients, packed
# weights, col2im scatter scratch) are alive while inference-style no-grad
# evaluations may interleave (e.g. the pruning loop scores with gradients,
# then evaluates the compiled model), and the two must never alias.
_TRAIN_WORKSPACE = Workspace()

_TRAIN_ARENA_STACK: List[Workspace] = []


def train_workspace() -> Workspace:
    """The process-wide arena used by the training fast path's temporaries."""
    return _TRAIN_WORKSPACE


def current_train_arena() -> Workspace:
    """The arena training-path kernels should allocate scratch from.

    Defaults to the process-wide :func:`train_workspace`; hot loops push a
    planned arena for the duration of each forward+backward pass via
    :func:`use_train_arena` (see :func:`repro.nn.engine.training_step`).
    """
    return _TRAIN_ARENA_STACK[-1] if _TRAIN_ARENA_STACK else _TRAIN_WORKSPACE


@contextlib.contextmanager
def use_train_arena(arena):
    """Route training-path scratch allocations to ``arena`` inside the block."""
    _TRAIN_ARENA_STACK.append(arena)
    try:
        yield arena
    finally:
        _TRAIN_ARENA_STACK.pop()


def _after_fork_in_child() -> None:
    """Reset fast-path state inherited over ``fork``.

    Orchestrator children must never serve views of a slab the parent is
    concurrently writing: drop every arena buffer, and drop the engine
    singleton so the child counts only its own GEMM calls.
    """
    _WORKSPACE.clear()
    del _ARENA_STACK[:]
    _TRAIN_WORKSPACE.clear()
    del _TRAIN_ARENA_STACK[:]
    import sys

    if "repro.nn.engine.gemm" in sys.modules:
        from .engine.gemm import reset_engine

        reset_engine()
    if "repro.nn.engine.planner" in sys.modules:
        from .engine.planner import clear_all_arenas

        clear_all_arenas()


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        if len(value) != 2:
            raise ValueError(f"expected an int or a length-2 tuple, got {value!r}")
        return value
    return (value, value)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window.

    Raises
    ------
    ValueError
        If the window does not fit, i.e. the output size would be <= 0.
    """
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size {out} is non-positive: input size {size} with "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def _pad_spatial(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad (N, C, H, W) spatially."""
    if not (ph or pw):
        return x
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))


def _channels_last(a: np.ndarray) -> bool:
    """Whether a logically-(N, C, H, W) array is stored as (N, H, W, C)."""
    return not a.flags.c_contiguous and a.transpose(0, 2, 3, 1).flags.c_contiguous


def _channels_last_buffer(
    shape: Tuple[int, int, int, int], dtype, arena: Optional[Workspace] = None, tag: str = ""
) -> np.ndarray:
    """Logical (N, C, H, W) view of an (N, H, W, C) buffer: fresh, or ``arena``'s ``tag`` slab."""
    n, c, h, w = shape
    storage = (n, h, w, c)
    buf = np.empty(storage, dtype) if arena is None else arena.get(tag, storage, dtype)
    return buf.transpose(0, 3, 1, 2)


def _pad_channels_last(
    x: np.ndarray, padding: Tuple[int, int], arena: Optional[Workspace] = None
) -> np.ndarray:
    """Zero-pad (N, C, H, W) ``x`` into channels-last storage.

    The buffer is ``arena``'s ``"pad"`` slab, or fresh memory without an
    arena.  Returns a logical (N, C, H+2ph, W+2pw) view, or ``x`` itself
    when it is stored channels-last already and needs no padding.
    """
    if padding == (0, 0) and _channels_last(x):
        return x
    ph, pw = padding
    n, c, h, w = x.shape
    buf = _channels_last_buffer((n, c, h + 2 * ph, w + 2 * pw), x.dtype, arena, "pad")
    if ph:
        buf[:, :, :ph] = 0.0
        buf[:, :, h + ph :] = 0.0
    if pw:
        buf[:, :, :, :pw] = 0.0
        buf[:, :, :, w + pw :] = 0.0
    buf[:, :, ph : ph + h, pw : pw + w] = x
    return buf


def _window_view(
    x_padded: np.ndarray, n: int, c: int, out_h: int, out_w: int, kh: int, kw: int, sh: int, sw: int
) -> np.ndarray:
    """Read-only sliding-window view (N, C, out_h, out_w, kh, kw)."""
    s = x_padded.strides
    return np.lib.stride_tricks.as_strided(
        x_padded,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s[0], s[1], s[2] * sh, s[3] * sw, s[2], s[3]),
        writeable=False,
    )


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    return_padded: bool = False,
):
    """Unfold ``x`` (N, C, H, W) into columns of shape (N, C*kh*kw, L).

    ``L = out_h * out_w`` is the number of sliding-window positions.  The
    result is laid out so that a convolution becomes ``weight_matrix @ cols``.
    The copy is skipped entirely when the unfolded view is already contiguous
    (1x1 kernels with unit stride).

    Parameters
    ----------
    return_padded:
        When True, also return the zero-padded input so callers can recycle
        its buffer (e.g. :func:`conv2d` reuses it as col2im scratch in the
        backward pass).
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    padded = _pad_spatial(x, ph, pw)

    windows = _window_view(padded, n, c, out_h, out_w, kh, kw, sh, sw)
    # (N, C, out_h, out_w, kh, kw) -> (N, C, kh, kw, out_h, out_w)
    view = windows.transpose(0, 1, 4, 5, 2, 3)
    # reshape copies only when the view is non-contiguous.
    cols = view.reshape(n, c * kh * kw, out_h * out_w)
    if return_padded:
        return cols, padded
    return cols


def _im2col_gemm(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    arena: Workspace,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unfold ``x`` directly in single-GEMM layout ``(N*L, kh*kw*C)``.

    Writing the unfold into a recycled arena buffer in patch-major order
    means the subsequent convolution is one large ``(N*L, K) @ (K, C_out)``
    GEMM instead of N small batched matmuls, and — because padding is
    materialized in channels-last ``(N, H, W, C)`` storage — each unfold row
    gathers ``kh*kw`` *contiguous* ``C``-runs from an L1-resident window of
    the padded image, instead of sweeping the whole batch per kernel tap.
    ``x`` itself may be in any storage order (the fast path hands conv
    outputs around as channels-last views, making the transpose here free).

    ``out`` overrides the destination (the training path unfolds into fresh
    memory so the columns can survive into the backward closure, where the
    dW GEMM reuses them); the padded image still comes from ``arena``.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    if ph or pw:
        x = _pad_channels_last(x, padding, arena)
    padded = x.transpose(0, 2, 3, 1)
    s = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, out_h, out_w, kh, kw, c),
        strides=(s[0], s[1] * sh, s[2] * sw, s[1], s[2], s[3]),
        writeable=False,
    )
    buf = out if out is not None else arena.get(
        "cols_gemm", (n * out_h * out_w, kh * kw * c), x.dtype
    )
    np.copyto(buf.reshape(n, out_h, out_w, kh, kw, c), view)
    arena.release("pad")  # the unfold was the padded image's last reader
    return buf


def _col2im_gemm(
    cols2d: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    arena: Workspace,
) -> np.ndarray:
    """Fold single-GEMM-layout columns ``(N*L, kh*kw*C)`` back, summing overlaps.

    The channels-last counterpart of :func:`col2im`, consuming the patch-major
    layout the training fast path's dX GEMM produces.  The scatter-add runs in
    ``(N, H, W, C)`` storage — each kernel-tap slice adds contiguous ``C``-runs
    — and the returned array is a logically-``(N, C, H, W)`` transpose view of
    the arena's ``"bwd_pad"`` slab, so the caller must consume it (accumulate
    into ``.grad``) before the next op touches the arena.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    if (kh, kw) == (1, 1) and (sh, sw) == (1, 1) and not (ph or pw):
        # Pointwise stride-1 conv: the columns ARE the gradient, one view.
        return cols2d.reshape(n, h, w, c).transpose(0, 3, 1, 2)
    padded = arena.get("bwd_pad", (n, h + 2 * ph, w + 2 * pw, c), cols2d.dtype)
    padded.fill(0.0)
    cols6 = cols2d.reshape(n, out_h, out_w, kh, kw, c)
    for i in range(kh):
        h_end = i + sh * out_h
        for j in range(kw):
            w_end = j + sw * out_w
            padded[:, i:h_end:sh, j:w_end:sw, :] += cols6[:, :, :, i, j, :]
    core = padded[:, ph : ph + h, pw : pw + w, :] if (ph or pw) else padded
    return core.transpose(0, 3, 1, 2)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fold columns produced by :func:`im2col` back, summing overlaps.

    ``out`` may supply a scratch buffer of the *padded* shape
    ``(N, C, H+2ph, W+2pw)``; it is zeroed before accumulation.  The conv
    backward pass recycles its forward padding buffer this way.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)

    padded_shape = (n, c, h + 2 * ph, w + 2 * pw)
    if out is not None and out.shape == padded_shape and out.dtype == cols.dtype:
        padded = out
        padded.fill(0.0)
    else:
        padded = np.zeros(padded_shape, dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        h_end = i + sh * out_h
        for j in range(kw):
            w_end = j + sw * out_w
            padded[:, :, i:h_end:sh, j:w_end:sw] += cols[:, :, i, j]
    if ph or pw:
        return padded[:, :, ph : ph + h, pw : pw + w]
    return padded


def _conv2d_infer(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_h: int,
    out_w: int,
    activation: Optional[str] = None,
) -> np.ndarray:
    """No-grad ``groups == 1`` conv forward: arena-backed unfold + one GEMM.

    The GEMM computes ``(N*L, K) @ (K, C_out)`` and its result is *kept* in
    channels-last (NHWC) storage: the returned array is a logically-``(N,
    C_out, H, W)`` transpose view of the freshly written ``(N*L, C_out)``
    buffer, so no un-transpose pass is ever paid.  Numpy ufuncs preserve
    that layout through the BN/activation/residual ops that follow, and the
    next conv's unfold reads it back for free, so the layout is
    self-sustaining across a whole eval forward.  All intermediates (padded
    input, unfolded columns, transposed weights) live in the active arena;
    only the GEMM result, which escapes into the caller's graph, is freshly
    allocated.  The GEMM plus its bias/``activation`` epilogue runs through
    the engine (:mod:`repro.nn.engine`) as one inline BLAS call.
    """
    from .engine.gemm import engine as _engine

    arena = current_arena()
    n, c_in = x.shape[0], x.shape[1]
    c_out, _, kh, kw = weight.shape
    length = out_h * out_w

    if kh == 1 and kw == 1 and padding == (0, 0):
        # Pointwise conv: subsample spatially, then the channels-last
        # view *is* the column matrix (free when storage is already
        # channels-last; reshape copies otherwise), and the weight
        # transpose is handled by BLAS without a copy.
        xs = x if stride == (1, 1) else x[:, :, :: stride[0], :: stride[1]]
        cols = xs.transpose(0, 2, 3, 1).reshape(n * length, c_in)
        w_mat = weight.reshape(c_out, c_in).transpose()
    else:
        cols = _im2col_gemm(x, (kh, kw), stride, padding, arena)  # (N*L, K)
        k_flat = c_in * kh * kw
        # (C_out, C, kh, kw) -> (kh, kw, C, C_out) to match unfold order.
        # Pre-packed weights (e.g. folded by CompiledInference) already
        # store this order physically, so the transpose is a free view.
        wt = weight.transpose(2, 3, 1, 0)
        if wt.flags.c_contiguous:
            w_mat = wt.reshape(k_flat, c_out)
        else:
            w_mat = arena.get("wmat", (k_flat, c_out), weight.dtype)
            np.copyto(w_mat.reshape(kh, kw, c_in, c_out), wt)
    gemm = _engine().execute(cols, w_mat, bias=bias, activation=activation)
    arena.release("cols_gemm")
    arena.release("wmat")
    return gemm.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)


def _conv2d_train(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_h: int,
    out_w: int,
) -> Tensor:
    """Gradient-path conv forward+backward on the GEMM engine.

    The forward is the same single-GEMM channels-last formulation as
    :func:`_conv2d_infer`, except the unfolded columns are written to fresh
    memory and *captured by the backward closure*: the dW GEMM consumes them
    directly instead of re-materializing the unfold.  Backward issues three
    engine GEMMs —

    - ``dW(K, C_out) = cols.T @ grad2d`` via ``execute_tn``;
    - ``grad_cols(N*L, K) = grad2d @ W_packedᵀ`` via ``execute``;
    - the channels-last col2im scatter folding ``grad_cols`` into dX.

    All backward temporaries (the flattened upstream gradient, packed
    weights, dW product, col2im scratch) live in the *training* arena
    (:func:`current_train_arena`) — everything accumulated into ``.grad``
    is either copied or added by ``Tensor._accumulate`` before the arena
    recycles, and the tape walk is serial, so tags can be reused across
    layers.  Only ``cols`` and the forward GEMM output, which outlive the
    op, are fresh allocations.
    """
    from .engine.gemm import engine as _engine

    arena = current_train_arena()
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    length = out_h * out_w
    k_flat = c_in * kh * kw
    dtype = x.data.dtype

    if kh == 1 and kw == 1 and padding == (0, 0):
        xs = x.data if stride == (1, 1) else x.data[:, :, :: stride[0], :: stride[1]]
        # A contiguous channels-last input makes this reshape a view of
        # x.data; activations are never mutated in place between forward and
        # backward, so capturing the view is as safe as the reference path's.
        cols = xs.transpose(0, 2, 3, 1).reshape(n * length, c_in)
    else:
        cols = np.empty((n * length, k_flat), dtype=dtype)
        _im2col_gemm(x.data, (kh, kw), stride, padding, arena, out=cols)

    # (C_out, C, kh, kw) -> (kh, kw, C, C_out): the unfold's patch-major order.
    wt = weight.data.transpose(2, 3, 1, 0)
    if wt.flags.c_contiguous:
        w_mat = wt.reshape(k_flat, c_out)
    else:
        w_mat = arena.get("wmat", (k_flat, c_out), dtype)
        np.copyto(w_mat.reshape(kh, kw, c_in, c_out), wt)
    bias_data = None if bias is None else bias.data
    out2d = _engine().execute(cols, w_mat, bias=bias_data)
    arena.release("wmat")
    # Materialize contiguous NCHW: training-mode consumers (BatchNorm batch
    # statistics, ReLU masks, residual adds) reduce over this output many
    # times, and feeding them the NHWC-storage transpose view makes every
    # one of those reductions strided — measurably slower than this single
    # well-vectorized copy.  (The no-grad inference path keeps the view: its
    # consumers are channels-last aware.)
    out = np.ascontiguousarray(out2d.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2))

    x_shape = x.shape
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        eng = _engine()
        bwd_arena = current_train_arena()
        grad2d = bwd_arena.get("grad2d", (n * length, c_out), grad.dtype)
        np.copyto(grad2d.reshape(n, out_h, out_w, c_out), grad.transpose(0, 2, 3, 1))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad2d.sum(axis=0))
        if weight.requires_grad:
            dw = eng.execute_tn(cols, grad2d, out=bwd_arena.get("dw", (k_flat, c_out), dtype))
            weight._accumulate(dw.reshape(kh, kw, c_in, c_out).transpose(3, 2, 0, 1))
            bwd_arena.release("dw")
        if x.requires_grad:
            # Repack from weight.data at backward time: reference semantics
            # (pruning masks and SAM perturbations mutate weights in place).
            w_bwd = bwd_arena.get("wmat_bwd", (c_out, k_flat), dtype)
            np.copyto(w_bwd.reshape(c_out, kh, kw, c_in), weight.data.transpose(0, 2, 3, 1))
            grad_cols = eng.execute(
                grad2d, w_bwd, out=bwd_arena.get("grad_cols", (n * length, k_flat), dtype)
            )
            x._accumulate(
                _col2im_gemm(grad_cols, x_shape, (kh, kw), stride, padding, bwd_arena)
            )
            bwd_arena.release("grad_cols")
            bwd_arena.release("wmat_bwd")
            bwd_arena.release("bwd_pad")
        bwd_arena.release("grad2d")

    return Tensor._make(out, parents, backward)


def _tap(a: np.ndarray, i: int, j: int, stride: Tuple[int, int], out_h: int, out_w: int) -> np.ndarray:
    """View of padded ``a`` at kernel tap ``(i, j)`` of every output pixel: (N, C, out_h, out_w)."""
    sh, sw = stride
    return a[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw]


def _tap_weights(weight: np.ndarray, out_w: int) -> np.ndarray:
    """Depthwise weights ``(C, 1, kh, kw)`` as per-tap operands: ``[i, j]`` is (1, C, 1, out_w).

    Each tap's ``C`` weights are repeated along the output width and stored
    like a channels-last output row, ``(out_w, C)``.  A stride-1 tap view,
    the channels-last output and these weights then share their ``(W, C)``
    strides, so numpy runs each tap product as one contiguous ``out_w * C``
    inner loop instead of ``out_w`` loops of ``C`` (a broadcast weight, with
    stride 0 along W, would block that).
    """
    c, _, kh, kw = weight.shape
    rows = np.empty((kh, kw, out_w, c), weight.dtype)
    rows[...] = weight[:, 0].transpose(1, 2, 0)[:, :, None, :]
    return rows.transpose(0, 1, 3, 2)[:, :, None, :, None, :]


def _depthwise_forward(
    xp: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: Tuple[int, int],
    out_h: int,
    out_w: int,
    arena: Workspace,
) -> np.ndarray:
    """Depthwise conv of the zero-padded channels-last input ``xp`` as a tap loop.

    Output channel ``c*m + k`` (channel multiplier ``m = C_out / C_in``)
    sees only input channel ``c``, so each of its ``kh*kw`` taps is one
    strided view of ``xp`` times a per-channel weight, added into the
    output — no unfold.  The output is fresh, channels-last like every
    no-grad conv output; the tap products go through the arena's
    ``"taps"`` slab.
    """
    n, c = xp.shape[:2]
    c_out, _, kh, kw = weight.shape
    m = c_out // c
    out = _channels_last_buffer((n, c_out, out_h, out_w), xp.dtype)
    tmp = _channels_last_buffer((n, c, out_h, out_w), xp.dtype, arena, "taps")
    for k in range(m):
        acc = out[:, k::m]
        w_taps = _tap_weights(weight[k::m], out_w)
        for i in range(kh):
            for j in range(kw):
                view = _tap(xp, i, j, stride, out_h, out_w)
                if i == 0 and j == 0:
                    np.multiply(view, w_taps[i, j], out=acc)
                else:
                    np.multiply(view, w_taps[i, j], out=tmp)
                    acc += tmp
    arena.release("taps")
    if bias is not None:
        out += bias.reshape(1, c_out, 1, 1)
    return out


def _depthwise_infer(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_h: int,
    out_w: int,
    activation: Optional[str] = None,
) -> np.ndarray:
    """No-grad depthwise conv: arena-padded input, tap loop, bias/ReLU epilogue.

    ``bias`` and ``activation`` are how a folded depthwise conv→BN(→ReLU)
    from :class:`repro.nn.inference.CompiledInference` runs.
    """
    arena = current_arena()
    xp = _pad_channels_last(x, padding, arena)
    out = _depthwise_forward(xp, weight, bias, stride, out_h, out_w, arena)
    arena.release("pad")
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    return out


def _depthwise_train(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_h: int,
    out_w: int,
) -> Tensor:
    """Gradient-path depthwise conv on the tap loop of :func:`_depthwise_forward`.

    The zero-padded input is fresh memory (never an arena slab) because the
    backward closure keeps it.  Backward walks the same taps in
    channels-last storage: dW for tap ``(i, j)`` is one einsum of the
    upstream gradient with that tap's view of the padded input, and dX
    scatter-adds ``grad * w_tap`` into a zeroed padded buffer.  Backward
    scratch comes from the training arena.
    """
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    m = c_out // c_in
    ph, pw = padding
    dtype = x.data.dtype
    xp = _pad_channels_last(x.data, padding)
    bias_data = None if bias is None else bias.data
    out = _depthwise_forward(
        xp, weight.data, bias_data, stride, out_h, out_w, current_train_arena()
    )
    # Contiguous NCHW, for the same reason as _conv2d_train: train-mode
    # BatchNorm reduces over this output and is slower on channels-last.
    out = np.ascontiguousarray(out)
    parents = (x, weight) if bias is None else (x, weight, bias)
    taps = [(i, j) for i in range(kh) for j in range(kw)]

    def backward(grad: np.ndarray) -> None:
        arena = current_train_arena()
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if _channels_last(grad):
            g = grad
        else:
            g = _channels_last_buffer(grad.shape, dtype, arena, "grad2d")
            g[...] = grad
        if weight.requires_grad:
            dw = np.empty((c_out, 1, kh, kw), dtype)
            for k in range(m):
                g_k = g[:, k::m].transpose(0, 2, 3, 1)
                for i, j in taps:
                    view = _tap(xp, i, j, stride, out_h, out_w).transpose(0, 2, 3, 1)
                    # "->xc", not "->c": keeps W and C fused in the inner loop.
                    dw[k::m, 0, i, j] = np.einsum("nyxc,nyxc->xc", g_k, view).sum(axis=0)
            weight._accumulate(dw)
        if x.requires_grad:
            # Weights are read at backward time: reference semantics (pruning
            # masks and SAM perturbations mutate them in place).
            dxp = _channels_last_buffer((n, c_in, h + 2 * ph, w + 2 * pw), dtype, arena, "bwd_pad")
            dxp.fill(0.0)
            tmp = _channels_last_buffer((n, c_in, out_h, out_w), dtype, arena, "taps")
            for k in range(m):
                w_taps = _tap_weights(weight.data[k::m], out_w)
                for i, j in taps:
                    np.multiply(g[:, k::m], w_taps[i, j], out=tmp)
                    view = _tap(dxp, i, j, stride, out_h, out_w)
                    view += tmp
            arena.release("taps")
            x._accumulate(dxp[:, :, ph : ph + h, pw : pw + w])
            arena.release("bwd_pad")
        arena.release("grad2d")

    return Tensor._make(out, parents, backward)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
    groups: int = 1,
    activation: Optional[str] = None,
) -> Tensor:
    """2-D cross-correlation over a batch of images.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in // groups, kH, kW)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    stride, padding:
        Int or (h, w) pair.
    groups:
        Channel groups; ``groups == C_in`` gives a depthwise convolution
        (``C_out = m * C_in`` for a channel multiplier ``m``).
    activation:
        Optional epilogue activation (``"relu"``) fused onto the conv
        output.  Inference-only: set by :class:`repro.nn.inference
        .CompiledInference` for traced conv→BN→ReLU chains; requesting it
        on a gradient-requiring call is an error (no backward is recorded
        for the fused activation).
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c_in, h, w = x.shape
    c_out, c_in_per_group, kh, kw = weight.shape
    if c_in != c_in_per_group * groups:
        raise ValueError(
            f"conv2d channel mismatch: input has {c_in} channels but weight expects "
            f"{c_in_per_group * groups} (groups={groups})"
        )
    if c_out % groups:
        raise ValueError(f"c_out={c_out} not divisible by groups={groups}")

    out_h = conv_output_size(h, kh, stride[0], padding[0])
    out_w = conv_output_size(w, kw, stride[1], padding[1])
    c_out_per_group = c_out // groups

    needs_grad = is_grad_enabled() and (
        x.requires_grad
        or weight.requires_grad
        or (bias is not None and bias.requires_grad)
    )
    if activation not in (None, "relu"):
        raise ValueError(f"unsupported fused activation: {activation!r}")
    if activation is not None and needs_grad:
        raise ValueError(
            "conv2d(activation=...) is an inference-only fusion; it cannot be "
            "used on a gradient-requiring call"
        )
    # Fast path, chosen by the weight shape: groups == 1 runs the single-GEMM
    # kernels (engine-dispatched GEMMs; the gradient path keeps the columns
    # for dW), groups == C_in (depthwise, any channel multiplier) runs the
    # tap loop.  Other grouped convs and REPRO_DISABLE_FAST_PATH=1 take the
    # reference kernels below.
    if fast_path_enabled() and (groups == 1 or c_in_per_group == 1):
        if groups == 1:
            train, infer = _conv2d_train, _conv2d_infer
        else:
            train, infer = _depthwise_train, _depthwise_infer
        if needs_grad:
            return train(x, weight, bias, stride, padding, out_h, out_w)
        bias_data = None if bias is None else bias.data
        return Tensor(
            infer(x.data, weight.data, bias_data, stride, padding, out_h, out_w, activation)
        )

    cols, padded = im2col(x.data, (kh, kw), stride, padding, return_padded=True)
    length = out_h * out_w
    # The padded copy is dead after the unfold; keep it as col2im scratch for
    # the backward pass.  Never reuse the input itself (padding == 0 returns
    # ``x.data`` unchanged) or a buffer the unfold aliases (1x1 kernels can
    # reshape to a view instead of copying).
    scratch = (
        padded
        if (padding[0] or padding[1]) and not np.shares_memory(cols, padded)
        else None
    )

    if groups == 1:
        w_mat = weight.data.reshape(c_out, -1)  # (C_out, C_in*kh*kw)
        out = np.matmul(w_mat[None], cols)  # batched GEMM -> (N, C_out, L)
    else:
        cols_g = cols.reshape(n, groups, c_in_per_group * kh * kw, length)
        w_mat = weight.data.reshape(groups, c_out_per_group, -1)
        out = np.einsum("gok,ngkl->ngol", w_mat, cols_g, optimize=True)
        out = out.reshape(n, c_out, length)

    out = out.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)
    if activation == "relu":  # no-grad only: the needs_grad case raised above
        out = np.maximum(out, 0.0)

    x_shape = x.shape
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(n, c_out, length)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_flat.sum(axis=(0, 2)))
        if groups == 1:
            if weight.requires_grad:
                grad_w = np.matmul(grad_flat, cols.transpose(0, 2, 1)).sum(axis=0)
                weight._accumulate(grad_w.reshape(weight.shape))
            if x.requires_grad:
                w_mat_local = weight.data.reshape(c_out, -1)
                grad_cols = np.matmul(w_mat_local.T[None], grad_flat)
                x._accumulate(
                    col2im(grad_cols, x_shape, (kh, kw), stride, padding, out=scratch)
                )
        else:
            grad_g = grad_flat.reshape(n, groups, c_out_per_group, length)
            cols_g_local = cols.reshape(n, groups, c_in_per_group * kh * kw, length)
            if weight.requires_grad:
                grad_w = np.einsum("ngol,ngkl->gok", grad_g, cols_g_local, optimize=True)
                weight._accumulate(grad_w.reshape(weight.shape))
            if x.requires_grad:
                w_mat_local = weight.data.reshape(groups, c_out_per_group, -1)
                grad_cols = np.einsum("gok,ngol->ngkl", w_mat_local, grad_g, optimize=True)
                grad_cols = grad_cols.reshape(n, c_in_per_group * groups * kh * kw, length)
                x._accumulate(
                    col2im(grad_cols, x_shape, (kh, kw), stride, padding, out=scratch)
                )

    return Tensor._make(out, parents, backward)


def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D transposed convolution (a.k.a. deconvolution).

    The forward pass is exactly the data-gradient of :func:`conv2d`, so the
    implementation reuses ``col2im``; the backward pass reuses ``im2col``.
    Used by decoder networks (e.g. the LIRA-style trigger generator).

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_in, C_out, kH, kW)`` (PyTorch's transposed
        layout: the *input* channel leads).
    bias:
        Optional per-output-channel bias ``(C_out,)``.
    stride, padding:
        Stride/padding of the *corresponding forward convolution*: output
        spatial size is ``(H - 1) * stride - 2 * padding + kernel``.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c_in, h, w = x.shape
    c_in_w, c_out, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(
            f"conv_transpose2d channel mismatch: input has {c_in}, weight expects {c_in_w}"
        )
    out_h = (h - 1) * stride[0] - 2 * padding[0] + kh
    out_w = (w - 1) * stride[1] - 2 * padding[1] + kw
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"non-positive output size {(out_h, out_w)}")

    length = h * w
    # Treat x as the "gradient" flowing into a conv over the output image:
    # cols[n, c_out*kh*kw, l] = W^T @ x, then fold with col2im.
    w_mat = weight.data.reshape(c_in, c_out * kh * kw)  # (C_in, K)
    x_flat = x.data.reshape(n, c_in, length)
    cols = np.matmul(w_mat.T[None], x_flat)  # (N, C_out*kh*kw, L)
    out = col2im(cols, (n, c_out, out_h, out_w), (kh, kw), stride, padding)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    k_flat = c_out * kh * kw
    use_fast = fast_path_enabled()

    def backward(grad: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        grad_cols = im2col(grad, (kh, kw), stride, padding)  # (N, C_out*kh*kw, L)
        if not use_fast:
            if weight.requires_grad:
                grad_w = np.matmul(x_flat, grad_cols.transpose(0, 2, 1)).sum(axis=0)
                weight._accumulate(grad_w.reshape(weight.shape))
            if x.requires_grad:
                grad_x = np.matmul(w_mat[None], grad_cols)  # (N, C_in, L)
                x._accumulate(grad_x.reshape(n, c_in, h, w))
            return
        # Engine path: both backward products collapse the batch into one
        # GEMM over (N*L) rows — dW through execute_tn, dX through execute.
        from .engine.gemm import engine as _engine

        eng = _engine()
        arena = current_train_arena()
        cols_rows = arena.get("grad2d", (n * length, k_flat), grad_cols.dtype)
        np.copyto(
            cols_rows.reshape(n, length, k_flat), grad_cols.transpose(0, 2, 1)
        )
        if weight.requires_grad:
            x_rows = arena.get("x_rows", (n * length, c_in), x_flat.dtype)
            np.copyto(x_rows.reshape(n, length, c_in), x_flat.transpose(0, 2, 1))
            # dW(C_in, K) = sum_{n,l} x[n,:,l] ⊗ grad_cols[n,:,l]
            dw = eng.execute_tn(
                x_rows, cols_rows, out=arena.get("dw", (c_in, k_flat), x_flat.dtype)
            )
            weight._accumulate(dw.reshape(weight.shape))
            arena.release("dw")
            arena.release("x_rows")
        if x.requires_grad:
            grad_x = eng.execute(
                cols_rows,
                w_mat.T,  # (K, C_in)
                out=arena.get("grad_cols", (n * length, c_in), grad_cols.dtype),
            )
            x._accumulate(
                grad_x.reshape(n, length, c_in).transpose(0, 2, 1).reshape(n, c_in, h, w)
            )
            arena.release("grad_cols")
        arena.release("grad2d")

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out.astype(x.data.dtype), parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T (+ bias)`` with forward/backward matmuls on the engine.

    ``weight`` is ``(out_features, in_features)`` (the torch layout).  The
    2-D case — every classifier head in the model zoo — runs both the
    forward product and its backward pair (dW via ``execute_tn``, dX via
    ``execute``) through the GEMM engine, which issues the same BLAS calls
    the reference composition does.  Non-2-D inputs and
    ``REPRO_DISABLE_FAST_PATH=1`` fall back to composing
    :meth:`Tensor.matmul` + add.
    """
    if x.data.ndim != 2 or not fast_path_enabled():
        out = x.matmul(weight.transpose())
        if bias is not None:
            out = out + bias
        return out

    from .engine.gemm import engine as _engine

    out = _engine().execute(
        x.data, weight.data.T, bias=None if bias is None else bias.data
    )

    def backward(grad: np.ndarray) -> None:
        eng = _engine()
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=0))
        if weight.requires_grad:
            # dW(out, in) = grad.T @ x — exactly the execute_tn shape.
            weight._accumulate(eng.execute_tn(grad, x.data))
        if x.requires_grad:
            x._accumulate(eng.execute(grad, weight.data))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward)


def max_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0) -> Tensor:
    """Max pooling over (N, C, H, W)."""
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride[0], padding[0])
    out_w = conv_output_size(w, kw, stride[1], padding[1])

    data = x.data
    if padding[0] or padding[1]:
        data = np.pad(
            data,
            ((0, 0), (0, 0), (padding[0], padding[0]), (padding[1], padding[1])),
            constant_values=-np.inf,
        )
    strides = data.strides
    windows = np.lib.stride_tricks.as_strided(
        data,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride[0],
            strides[3] * stride[1],
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    flat = windows.reshape(n, c, out_h, out_w, kh * kw)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    x_shape = x.shape

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_padded = np.zeros(
            (n, c, h + 2 * padding[0], w + 2 * padding[1]), dtype=grad.dtype
        )
        ki, kj = np.unravel_index(arg, (kh, kw))
        oi = np.arange(out_h).reshape(1, 1, out_h, 1) * stride[0]
        oj = np.arange(out_w).reshape(1, 1, 1, out_w) * stride[1]
        rows = (oi + ki).reshape(n, c, -1)
        cols_idx = (oj + kj).reshape(n, c, -1)
        ni = np.arange(n).reshape(n, 1, 1)
        ci = np.arange(c).reshape(1, c, 1)
        np.add.at(grad_padded, (ni, ci, rows, cols_idx), grad.reshape(n, c, -1))
        if padding[0] or padding[1]:
            grad_padded = grad_padded[
                :, :, padding[0] : padding[0] + h, padding[1] : padding[1] + w
            ]
        x._accumulate(grad_padded.reshape(x_shape))

    return Tensor._make(np.ascontiguousarray(out), (x,), backward)


def avg_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0) -> Tensor:
    """Average pooling over (N, C, H, W)."""
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride[0], padding[0])
    out_w = conv_output_size(w, kw, stride[1], padding[1])
    scale = 1.0 / (kh * kw)

    data = x.data
    if padding[0] or padding[1]:
        data = np.pad(data, ((0, 0), (0, 0), (padding[0], padding[0]), (padding[1], padding[1])))
    strides = data.strides
    windows = np.lib.stride_tricks.as_strided(
        data,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride[0],
            strides[3] * stride[1],
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    out = windows.mean(axis=(-1, -2))
    x_shape = x.shape

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_padded = np.zeros((n, c, h + 2 * padding[0], w + 2 * padding[1]), dtype=grad.dtype)
        spread = grad * scale
        for i in range(kh):
            for j in range(kw):
                grad_padded[
                    :, :, i : i + stride[0] * out_h : stride[0], j : j + stride[1] * out_w : stride[1]
                ] += spread
        if padding[0] or padding[1]:
            grad_padded = grad_padded[
                :, :, padding[0] : padding[0] + h, padding[1] : padding[1] + w
            ]
        x._accumulate(grad_padded.reshape(x_shape))

    return Tensor._make(np.ascontiguousarray(out), (x,), backward)


def adaptive_avg_pool2d(x: Tensor, output_size: IntPair = 1) -> Tensor:
    """Adaptive average pooling; only output sizes that evenly divide are supported."""
    oh, ow = _pair(output_size)
    _, _, h, w = x.shape
    if h % oh or w % ow:
        raise ValueError(f"adaptive_avg_pool2d requires divisible sizes, got {(h, w)} -> {(oh, ow)}")
    return avg_pool2d(x, kernel=(h // oh, w // ow))


def batch_norm2d_train(
    x: Tensor, weight: Tensor, bias: Tensor, eps: float
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Fused training-mode batch norm over (N, C, H, W).

    Normalizes with batch statistics and returns ``(out, batch_mean,
    batch_var)`` so the layer can update its running buffers.  The backward
    pass uses the closed-form batch-norm gradient, which is several times
    faster than composing it from primitive autograd ops.
    """
    n, c, h, w = x.shape
    count = n * h * w
    mean = x.data.mean(axis=(0, 2, 3))
    var = x.data.var(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + eps)
    mean_b = mean.reshape(1, c, 1, 1)
    inv_b = inv_std.reshape(1, c, 1, 1)
    x_hat = (x.data - mean_b) * inv_b
    out = x_hat * weight.data.reshape(1, c, 1, 1) + bias.data.reshape(1, c, 1, 1)

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            weight._accumulate((grad * x_hat).sum(axis=(0, 2, 3)))
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gamma = weight.data.reshape(1, c, 1, 1)
            grad_xhat = grad * gamma
            sum_g = grad_xhat.sum(axis=(0, 2, 3), keepdims=True)
            sum_gx = (grad_xhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
            grad_x = inv_b / count * (count * grad_xhat - sum_g - x_hat * sum_gx)
            x._accumulate(grad_x.astype(x.data.dtype))

    result = Tensor._make(out.astype(x.data.dtype), (x, weight, bias), backward)
    return result, mean, var


def batch_norm2d_eval(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float,
) -> Tensor:
    """Fused eval-mode batch norm using stored running statistics."""
    c = x.shape[1]
    inv_std = (1.0 / np.sqrt(running_var + eps)).astype(x.data.dtype)
    scale = weight.data * inv_std
    shift = bias.data - running_mean * scale
    # One fresh allocation; the shift is added in place to avoid a second
    # output-sized temporary (this op runs once per BN layer per eval batch).
    d = x.data
    nhwc = d.transpose(0, 2, 3, 1)
    if fast_path_enabled() and not d.flags.c_contiguous and nhwc.flags.c_contiguous:
        # Channels-last storage (the fast conv path's native layout): the
        # per-channel affine is a contiguous 2D broadcast over (N*H*W, C),
        # which streams ~2x faster than broadcasting along a strided axis.
        flat = nhwc.reshape(-1, c)
        out2d = flat * scale
        out2d += shift
        out = out2d.reshape(nhwc.shape).transpose(0, 3, 1, 2)
    else:
        out = d * scale.reshape(1, c, 1, 1)
        out += shift.reshape(1, c, 1, 1)
    if out.dtype != x.data.dtype:
        out = out.astype(x.data.dtype)
    x_data = x.data

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            x_hat = (x_data - running_mean.reshape(1, c, 1, 1)) * inv_std.reshape(1, c, 1, 1)
            weight._accumulate((grad * x_hat).sum(axis=(0, 2, 3)))
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            x._accumulate(grad * scale.reshape(1, c, 1, 1))

    return Tensor._make(out, (x, weight, bias), backward)


def pad2d(x: Tensor, padding: IntPair) -> Tensor:
    """Zero-pad the spatial dimensions of (N, C, H, W)."""
    ph, pw = _pair(padding)
    out = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    _, _, h, w = x.shape

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad[:, :, ph : ph + h, pw : pw + w])

    return Tensor._make(out, (x,), backward)
