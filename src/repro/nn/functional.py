"""Convolution, pooling, and padding primitives with autograd support.

Every op has one runtime kernel.  :func:`conv2d` picks one of two by the
weight shape, for no-grad and gradient calls alike:

- ``groups == 1``: a channels-last GEMM conv.  The unfold is written in
  ``(N*L, kh*kw*C_in)`` layout so one large BLAS GEMM replaces N small
  batched matmuls, run through :mod:`repro.nn.engine` as an inline BLAS
  call with the conv bias (post-folding: the BN affine) added in place on
  its output.  No-grad convs unfold one block of images at a time, each
  within a 2 MiB bound (a per-core L2), and run a GEMM per block.  The
  gradient path keeps one whole-batch GEMM, re-unfolds the input for the
  dW GEMM, and computes a stride-1 dX as a gather: the conv of the padded
  upstream gradient with the flipped weight.
- ``groups == C_in`` (depthwise, with any channel multiplier
  ``C_out = m * C_in``): a direct tap loop over the zero-padded input, one
  strided view and one multiply-add per kernel tap, with no unfold at all.
  The taps run in channels-last storage (the padding copy transposes an
  NCHW input on the way), and the backward reuses the padded input the
  forward kept.

Other grouped convs (``1 < groups < C_in``; no model uses them) run each
group through the ``groups == 1`` kernel and concatenate the outputs.
:func:`conv_transpose2d` runs on the same kernels: its forward is the
``groups == 1`` dX scatter, its backward the conv forward and dW GEMM.  So
every conv-family op has one unfold (:func:`_im2col_gemm`) and one scatter
(:func:`_col2im_gemm`).

Scratch (padded inputs, unfolds, packed weights, tap products, backward
temporaries) comes from the one process-wide :class:`Workspace`, which
avoids the page-fault cost of freshly mmap'd allocations; only results that
escape an op are fresh.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Optional, Tuple, Union

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
    "Workspace",
    "workspace",
]

IntPair = Union[int, Tuple[int, int]]


class Workspace:
    """Arena of reusable scratch slabs, one growable byte buffer per tag.

    The conv kernels need large intermediates (padded inputs, unfolded
    columns, packed weights, backward temporaries) on every call.  Fresh
    numpy allocations of multi-MB arrays are mmap-backed, so writing them
    incurs a page fault per 4 KiB; recycling a slab avoids that.  Crucially
    the slab is shared *across layers* — :meth:`get` hands out a view of
    the per-tag buffer regardless of the requested shape — so consecutive
    convs of different sizes hit the same hot pages instead of each pinning
    their own cold-by-next-round buffer (keying slabs by shape was
    measurably slower than plain malloc recycling due to cache/TLB
    pressure).  A slab only grows, so after one pass at the largest batch
    every smaller batch runs from the same bytes.  No-grad convs unfold in
    blocks of at most ``_BLOCK_BYTES``, so an inference-only process keeps
    ``"pad"`` and ``"cols_gemm"`` slabs within that bound at any batch size.

    Buffers are only handed out for intermediates that are fully consumed
    before the op (or the backward closure) returns — results that escape
    an op are freshly allocated, and backward closures keep no scratch (the
    conv backward re-unfolds its input instead of keeping columns).  That
    is what lets training and inference share it: a no-grad forward
    interleaved between a gradient forward and its backward cannot clobber
    state the backward needs.  Two concurrent ``get``s of the same tag alias
    each other.

    There is one workspace per process (:func:`workspace`).  It is not
    thread-safe: nn ops run from several threads must be serialized (the
    serving gateway holds its model lock around every forward).
    """

    def __init__(self) -> None:
        self._slabs: Dict[str, np.ndarray] = {}

    def get(self, tag: str, shape: Tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """Return a reusable uninitialized ``(shape, dtype)`` view for ``tag``."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        slab = self._slabs.get(tag)
        if slab is None or slab.nbytes < nbytes:
            slab = np.empty(nbytes, dtype=np.uint8)
            self._slabs[tag] = slab
        return slab[:nbytes].view(dtype).reshape(shape)

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
    """The process-wide scratch arena every kernel allocates from."""
    return _WORKSPACE


def _after_fork_in_child() -> None:
    """Reset kernel state inherited over ``fork``.

    Orchestrator children must never serve views of a slab the parent is
    concurrently writing: drop the workspace's buffers, and drop the engine
    singleton so the child counts only its own GEMM calls.
    """
    _WORKSPACE.clear()
    import sys

    if "repro.nn.engine.gemm" in sys.modules:
        from .engine.gemm import reset_engine

        reset_engine()


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


def _channels_last(a: np.ndarray) -> bool:
    """Whether a logically-(N, C, H, W) array is stored as (N, H, W, C)."""
    return not a.flags.c_contiguous and a.transpose(0, 2, 3, 1).flags.c_contiguous


def _channels_last_buffer(
    shape: Tuple[int, int, int, int], dtype, tag: Optional[str] = None
) -> np.ndarray:
    """Logical (N, C, H, W) view of an (N, H, W, C) buffer.

    The buffer is fresh, or the workspace's ``tag`` slab when a tag is given.
    """
    n, c, h, w = shape
    storage = (n, h, w, c)
    buf = np.empty(storage, dtype) if tag is None else workspace().get(tag, storage, dtype)
    return buf.transpose(0, 3, 1, 2)


def _pad_channels_last(
    x: np.ndarray, padding: Tuple[int, int], tag: Optional[str] = None
) -> np.ndarray:
    """Zero-pad (N, C, H, W) ``x`` into channels-last storage.

    The buffer is the workspace's ``tag`` slab, or fresh memory when ``tag``
    is None (a backward closure that keeps the padded input needs that).
    Returns a logical (N, C, H+2ph, W+2pw) view, or ``x`` itself when it is
    stored channels-last already and needs no padding.
    """
    if padding == (0, 0) and _channels_last(x):
        return x
    ph, pw = padding
    n, c, h, w = x.shape
    buf = _channels_last_buffer((n, c, h + 2 * ph, w + 2 * pw), x.dtype, tag)
    if ph:
        buf[:, :, :ph] = 0.0
        buf[:, :, h + ph :] = 0.0
    if pw:
        buf[:, :, :, :pw] = 0.0
        buf[:, :, :, w + pw :] = 0.0
    buf[:, :, ph : ph + h, pw : pw + w] = x
    return buf


def _im2col_gemm(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Unfold ``x`` directly in single-GEMM layout ``(N*L, kh*kw*C)``.

    Writing the unfold into a recycled workspace buffer in patch-major order
    means the subsequent convolution is one large ``(N*L, K) @ (K, C_out)``
    GEMM instead of N small batched matmuls, and — because padding is
    materialized in channels-last ``(N, H, W, C)`` storage — each unfold row
    gathers ``kh*kw`` *contiguous* ``C``-runs from an L1-resident window of
    the padded image, instead of sweeping the whole batch per kernel tap.
    ``x`` itself may be in any storage order (the no-grad path hands conv
    outputs around as channels-last views, making the transpose here free).
    For a stride-1 pointwise conv the channels-last (padded) image already
    is the column matrix, so when its storage is contiguous nothing is copied.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    if ph or pw:
        x = _pad_channels_last(x, padding, "pad")
    padded = x.transpose(0, 2, 3, 1)
    if kernel == (1, 1) and stride == (1, 1) and padded.flags.c_contiguous:
        return padded.reshape(n * out_h * out_w, c)
    s = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, out_h, out_w, kh, kw, c),
        strides=(s[0], s[1] * sh, s[2] * sw, s[1], s[2], s[3]),
        writeable=False,
    )
    buf = workspace().get("cols_gemm", (n * out_h * out_w, kh * kw * c), x.dtype)
    np.copyto(buf.reshape(n, out_h, out_w, kh, kw, c), view)
    return buf


def _col2im_gemm(
    cols2d: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Fold single-GEMM-layout columns ``(N*L, kh*kw*C)`` back, summing overlaps.

    The dX scatter of the convs the gather form does not cover (strided
    convs, and ``padding >= kernel``), and the :func:`conv_transpose2d`
    forward.  It consumes the patch-major layout of a ``rows @ W_packed``
    GEMM and scatter-adds in ``(N, H, W, C)`` storage, each kernel-tap slice
    adding contiguous ``C``-runs.  The returned array is a logically-``(N, C,
    H, W)`` transpose view of the workspace's ``"bwd_pad"`` slab, so the
    caller must consume it (accumulate into ``.grad``, or copy it) before the
    next op touches the workspace.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    padded = workspace().get("bwd_pad", (n, h + 2 * ph, w + 2 * pw, c), cols2d.dtype)
    padded.fill(0.0)
    cols6 = cols2d.reshape(n, out_h, out_w, kh, kw, c)
    for i in range(kh):
        h_end = i + sh * out_h
        for j in range(kw):
            w_end = j + sw * out_w
            padded[:, i:h_end:sh, j:w_end:sw, :] += cols6[:, :, :, i, j, :]
    core = padded[:, ph : ph + h, pw : pw + w, :] if (ph or pw) else padded
    return core.transpose(0, 3, 1, 2)


def _conv2d_gemm(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_h: int,
    out_w: int,
    block: int,
) -> np.ndarray:
    """``groups == 1`` conv forward: workspace-backed unfolds + GEMMs.

    Each block of ``block`` images runs one unfold and one ``(B*L, K) @ (K,
    C_out)`` GEMM into its rows of one fresh ``(N*L, C_out)`` result, which
    is *kept* in channels-last (NHWC) storage: the returned array is a
    logically-``(N, C_out, H, W)`` transpose view of it, so no un-transpose
    pass is ever paid.  Numpy ufuncs preserve that layout through the
    BN/activation/residual ops that follow, and the next conv's unfold reads
    it back for free, so the layout is self-sustaining across a whole eval
    forward.  All intermediates (padded input, unfolded columns, transposed
    weights) live in the workspace; only the GEMM result, which escapes into
    the caller's graph, is freshly allocated.
    """
    from .engine.gemm import engine as _engine

    n, c_in = x.shape[0], x.shape[1]
    c_out, _, kh, kw = weight.shape

    if kh == 1 and kw == 1:
        # Pointwise conv: BLAS handles the weight transpose without a copy.
        w_mat = weight.reshape(c_out, c_in).transpose()
    else:
        k_flat = c_in * kh * kw
        # (C_out, C, kh, kw) -> (kh, kw, C, C_out) to match unfold order.
        # Pre-packed weights (e.g. folded by CompiledInference) already
        # store this order physically, so the transpose is a free view.
        wt = weight.transpose(2, 3, 1, 0)
        if wt.flags.c_contiguous:
            w_mat = wt.reshape(k_flat, c_out)
        else:
            w_mat = workspace().get("wmat", (k_flat, c_out), weight.dtype)
            np.copyto(w_mat.reshape(kh, kw, c_in, c_out), wt)
    length = out_h * out_w
    out = np.empty((n * length, c_out), x.dtype)
    for start in range(0, n, block):
        cols = _im2col_gemm(x[start : start + block], (kh, kw), stride, padding)  # (B*L, K)
        _engine().execute(cols, w_mat, bias=bias, out=out[start * length : (start + block) * length])
    return out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)


# Byte bound on one block of a no-grad conv's unfold (and padded input): the
# 2 MiB per-core L2 of the 2-core host the benches run on.  DESIGN §8 has the
# sweep that chose it.
_BLOCK_BYTES = 2 << 20


def _conv2d_infer(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """No-grad ``groups == 1`` conv: :func:`_conv2d_gemm` in cache-sized blocks.

    A block's unfolded columns and padded input fit :data:`_BLOCK_BYTES` (a
    block holds at least one image), so each GEMM reads its columns from L2,
    and the ``"pad"`` and ``"cols_gemm"`` slabs stay within the bound at any
    batch size.  A stride-1 pointwise conv whose channels-last input already
    is the column matrix copies nothing, so it stays one GEMM.

    The gradient path keeps one whole-batch GEMM.  Its dW re-unfolds the
    whole batch's columns anyway, so blocks would save no scratch there; and
    OpenBLAS's per-row sums depend on a GEMM's row count, so blocks would
    move the training bits the golden tests pin.
    """
    n, c_in, h, w = x.shape
    kh, kw = weight.shape[2:]
    ph, pw = padding
    padded = (h + 2 * ph) * (w + 2 * pw) * c_in if ph or pw else 0
    per_image = max(out_h * out_w * kh * kw * c_in, padded) * x.dtype.itemsize
    block = max(1, _BLOCK_BYTES // per_image)
    pointwise = (kh, kw, *stride) == (1, 1, 1, 1) and not padded
    if pointwise and x.transpose(0, 2, 3, 1).flags.c_contiguous:
        block = n
    return _conv2d_gemm(x, weight, bias, stride, padding, out_h, out_w, block)


def _conv2d_train(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_h: int,
    out_w: int,
) -> Tensor:
    """Gradient-path conv: a one-GEMM forward plus a two-GEMM backward.

    The forward is :func:`_conv2d_gemm` over the whole batch, in one block
    (see :func:`_conv2d_infer` for why), with its output copied to
    contiguous NCHW: training-mode consumers (BatchNorm batch statistics,
    ReLU masks, residual adds) reduce over this output many times, and on
    the channels-last view every one of those reductions is strided.  The
    backward closure keeps the input (only while the weight needs a
    gradient) and no columns or output.  Backward issues two engine GEMMs —

    - ``dW(K, C_out) = colsᵀ @ grad2d`` via ``execute_tn``, on columns
      re-unfolded from the kept input into the workspace.  That relies on
      activations never being mutated in place between forward and
      backward.
    - dX.  For a stride-1 conv with ``padding < kernel`` it is a gather:
      the stride-1 conv of ``grad`` zero-padded by ``kernel - 1 - padding``
      with ``weight[:, :, ::-1, ::-1]`` transposed to ``(C_in, C_out, kh,
      kw)``, one unfold plus ``execute``.  Other convs compute ``grad_cols
      = grad2d @ W_packedᵀ`` and fold it with the :func:`_col2im_gemm`
      scatter.

    Weights are packed from ``weight.data`` at backward time (through
    ``Tensor._keep``): pruning masks and SAM perturbations mutate them in
    place between the two passes.
    All backward temporaries (the flattened upstream gradient, columns,
    packed weights, dW product, dX) live in the workspace — everything
    accumulated into ``.grad`` is copied or added by ``Tensor._accumulate``
    before the workspace recycles, and the tape walk is serial, so tags are
    reused across layers.
    """
    from .engine.gemm import engine as _engine

    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    ph, pw = padding
    length = out_h * out_w
    k_flat = c_in * kh * kw
    dtype = x.data.dtype
    bias_data = None if bias is None else bias.data
    out = np.ascontiguousarray(
        _conv2d_gemm(x.data, weight.data, bias_data, stride, padding, out_h, out_w, n)
    )
    parents = (x, weight) if bias is None else (x, weight, bias)
    vx, vw = x._vertex, weight._vertex
    vb = None if bias is None else bias._vertex
    x_data = None if vw is None else x._keep()
    w_data = None if vx is None else weight._keep()

    def backward(grad: np.ndarray) -> None:
        eng = _engine()
        ws = workspace()
        grad2d = ws.get("grad2d", (n * length, c_out), grad.dtype)
        np.copyto(grad2d.reshape(n, out_h, out_w, c_out), grad.transpose(0, 2, 3, 1))
        if vb is not None:
            vb._accumulate(grad2d.sum(axis=0))
        if vw is not None:
            cols = _im2col_gemm(x_data(), (kh, kw), stride, padding)
            dw = eng.execute_tn(cols, grad2d, out=ws.get("dw", (k_flat, c_out), dtype))
            vw._accumulate(dw.reshape(kh, kw, c_in, c_out).transpose(3, 2, 0, 1))
        if vx is None:
            return
        if stride == (1, 1) and ph < kh and pw < kw:
            dy = grad2d.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
            cols = _im2col_gemm(dy, (kh, kw), stride, (kh - 1 - ph, kw - 1 - pw))
            w_flip = ws.get("wmat_bwd", (kh * kw * c_out, c_in), dtype)
            np.copyto(
                w_flip.reshape(kh, kw, c_out, c_in),
                w_data()[:, :, ::-1, ::-1].transpose(2, 3, 0, 1),
            )
            dx = eng.execute(cols, w_flip, out=ws.get("grad_cols", (n * h * w, c_in), dtype))
            vx._accumulate(dx.reshape(n, h, w, c_in).transpose(0, 3, 1, 2))
        else:
            w_bwd = ws.get("wmat_bwd", (c_out, k_flat), dtype)
            np.copyto(w_bwd.reshape(c_out, kh, kw, c_in), w_data().transpose(0, 2, 3, 1))
            grad_cols = eng.execute(
                grad2d, w_bwd, out=ws.get("grad_cols", (n * length, k_flat), dtype)
            )
            vx._accumulate(_col2im_gemm(grad_cols, (n, c_in, h, w), (kh, kw), stride, padding))

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
) -> np.ndarray:
    """Depthwise conv of the zero-padded channels-last input ``xp`` as a tap loop.

    Output channel ``c*m + k`` (channel multiplier ``m = C_out / C_in``)
    sees only input channel ``c``, so each of its ``kh*kw`` taps is one
    strided view of ``xp`` times a per-channel weight, added into the
    output — no unfold.  The output is fresh, channels-last like every
    no-grad conv output; the tap products go through the workspace's
    ``"taps"`` slab.
    """
    n, c = xp.shape[:2]
    c_out, _, kh, kw = weight.shape
    m = c_out // c
    out = _channels_last_buffer((n, c_out, out_h, out_w), xp.dtype)
    tmp = _channels_last_buffer((n, c, out_h, out_w), xp.dtype, "taps")
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
) -> np.ndarray:
    """No-grad depthwise conv: workspace-padded input, tap loop, bias add.

    ``bias`` is how a folded depthwise conv→BN from
    :class:`repro.nn.inference.CompiledInference` runs.
    """
    xp = _pad_channels_last(x, padding, "pad")
    return _depthwise_forward(xp, weight, bias, stride, out_h, out_w)


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

    The zero-padded input is fresh memory (never a workspace slab) because
    the backward closure keeps it for dW; the unpadded input is not kept.
    Backward walks the same taps in channels-last storage: dW for tap ``(i,
    j)`` is one einsum of the upstream gradient with that tap's view of the
    padded input, and dX scatter-adds ``grad * w_tap`` into a zeroed padded
    buffer.  Backward scratch comes from the workspace.
    """
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    m = c_out // c_in
    ph, pw = padding
    dtype = x.data.dtype
    xp = _pad_channels_last(x.data, padding)
    bias_data = None if bias is None else bias.data
    out = _depthwise_forward(xp, weight.data, bias_data, stride, out_h, out_w)
    # Contiguous NCHW, for the same reason as _conv2d_train: train-mode
    # BatchNorm reduces over this output and is slower on channels-last.
    out = np.ascontiguousarray(out)
    parents = (x, weight) if bias is None else (x, weight, bias)
    taps = [(i, j) for i in range(kh) for j in range(kw)]
    vx, vw = x._vertex, weight._vertex
    vb = None if bias is None else bias._vertex
    x_padded = None if vw is None else xp
    w_data = None if vx is None else weight._keep()

    def backward(grad: np.ndarray) -> None:
        if vb is not None:
            vb._accumulate(grad.sum(axis=(0, 2, 3)))
        if _channels_last(grad):
            g = grad
        else:
            g = _channels_last_buffer(grad.shape, dtype, "grad2d")
            g[...] = grad
        if vw is not None:
            dw = np.empty((c_out, 1, kh, kw), dtype)
            for k in range(m):
                g_k = g[:, k::m].transpose(0, 2, 3, 1)
                for i, j in taps:
                    view = _tap(x_padded, i, j, stride, out_h, out_w).transpose(0, 2, 3, 1)
                    # "->xc", not "->c": keeps W and C fused in the inner loop.
                    dw[k::m, 0, i, j] = np.einsum("nyxc,nyxc->xc", g_k, view).sum(axis=0)
            vw._accumulate(dw)
        if vx is not None:
            # Weights are read at backward time: pruning masks and SAM
            # perturbations mutate them in place between the two passes.
            dxp = _channels_last_buffer((n, c_in, h + 2 * ph, w + 2 * pw), dtype, "bwd_pad")
            dxp.fill(0.0)
            tmp = _channels_last_buffer((n, c_in, out_h, out_w), dtype, "taps")
            for k in range(m):
                w_taps = _tap_weights(w_data()[k::m], out_w)
                for i, j in taps:
                    np.multiply(g[:, k::m], w_taps[i, j], out=tmp)
                    view = _tap(dxp, i, j, stride, out_h, out_w)
                    view += tmp
            vx._accumulate(dxp[:, :, ph : ph + h, pw : pw + w])

    return Tensor._make(out, parents, backward)


def _grouped_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    groups: int,
) -> Tensor:
    """``1 < groups < C_in``: each group through the ``groups == 1`` kernel.

    Slices the input channels, filters and bias of every group, convolves
    them as an ordinary conv and concatenates the outputs along channels;
    autograd routes the gradients back through the slices.  No model in the
    zoo uses such convs, so this favours one kernel over speed.
    """
    c_in_g = x.shape[1] // groups
    c_out_g = weight.shape[0] // groups
    outs = []
    for g in range(groups):
        in_slice = slice(g * c_in_g, (g + 1) * c_in_g)
        out_slice = slice(g * c_out_g, (g + 1) * c_out_g)
        outs.append(
            conv2d(
                x[:, in_slice],
                weight[out_slice],
                None if bias is None else bias[out_slice],
                stride,
                padding,
            )
        )
    return Tensor.concatenate(outs, axis=1)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
    groups: int = 1,
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

    needs_grad = is_grad_enabled() and (
        x.requires_grad
        or weight.requires_grad
        or (bias is not None and bias.requires_grad)
    )
    # One kernel pair per weight shape: groups == 1 runs the single-GEMM
    # kernels (engine-dispatched GEMMs), groups == C_in (depthwise, any
    # channel multiplier) runs the tap loop, and other grouped convs compose
    # the groups == 1 kernel.
    if groups == 1:
        train, infer = _conv2d_train, _conv2d_infer
    elif c_in_per_group == 1:
        train, infer = _depthwise_train, _depthwise_infer
    else:
        return _grouped_conv2d(x, weight, bias, stride, padding, groups)
    if needs_grad:
        return train(x, weight, bias, stride, padding, out_h, out_w)
    bias_data = None if bias is None else bias.data
    return Tensor(infer(x.data, weight.data, bias_data, stride, padding, out_h, out_w))


def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D transposed convolution (a.k.a. deconvolution).

    The forward pass is exactly the dX of a ``groups == 1`` conv over the
    output image, so it runs that scatter: one engine GEMM of the
    channels-last input rows ``(N*H*W, C_in)`` with the weight packed as
    ``(C_in, kh*kw*C_out)``, folded by :func:`_col2im_gemm`.  The backward
    runs the conv kernels the other way round: dX is the conv of the
    upstream gradient with the same weight (:func:`_conv2d_gemm`), and dW
    is one ``execute_tn`` of the input rows with the gradient's unfold.
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
    from .engine.gemm import engine as _engine

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

    k_flat = kh * kw * c_out
    dtype = x.data.dtype

    def input_rows(x_data: np.ndarray) -> np.ndarray:
        """``x_data`` as channels-last rows ``(N*H*W, C_in)`` in the workspace."""
        rows = workspace().get("x_rows", (n * h * w, c_in), dtype)
        np.copyto(rows.reshape(n, h, w, c_in), x_data.transpose(0, 2, 3, 1))
        return rows

    ws = workspace()
    w_packed = ws.get("wmat", (c_in, k_flat), dtype)
    np.copyto(w_packed.reshape(c_in, kh, kw, c_out), weight.data.transpose(0, 2, 3, 1))
    cols = _engine().execute(
        input_rows(x.data), w_packed, out=ws.get("grad_cols", (n * h * w, k_flat), dtype)
    )
    # The fold is a view of the "bwd_pad" slab; the result escapes the op.
    out = _col2im_gemm(cols, (n, c_out, out_h, out_w), (kh, kw), stride, padding).copy()
    if bias is not None:
        out += bias.data.reshape(1, c_out, 1, 1)
    vx, vw = x._vertex, weight._vertex
    vb = None if bias is None else bias._vertex
    x_data = None if vw is None else x._keep()
    w_data = None if vx is None else weight._keep()

    def backward(grad: np.ndarray) -> None:
        if vb is not None:
            vb._accumulate(grad.sum(axis=(0, 2, 3)))
        if vw is not None:
            grad_cols = _im2col_gemm(grad, (kh, kw), stride, padding)  # (N*H*W, K)
            dw = _engine().execute_tn(
                input_rows(x_data()), grad_cols, out=workspace().get("dw", (c_in, k_flat), dtype)
            )
            vw._accumulate(dw.reshape(c_in, kh, kw, c_out).transpose(0, 3, 1, 2))
        if vx is not None:
            # Weights are read at backward time, as in _conv2d_train.
            vx._accumulate(_conv2d_gemm(grad, w_data(), None, stride, padding, h, w, n))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T (+ bias)`` with forward/backward matmuls on the engine.

    ``weight`` is ``(out_features, in_features)`` (the torch layout).  The
    2-D case — every classifier head in the model zoo — runs both the
    forward product and its backward pair (dW via ``execute_tn``, dX via
    ``execute``) through the GEMM engine.  Non-2-D inputs compose
    :meth:`Tensor.matmul` + add.
    """
    if x.data.ndim != 2:
        out = x.matmul(weight.transpose())
        if bias is not None:
            out = out + bias
        return out

    from .engine.gemm import engine as _engine

    out = _engine().execute(
        x.data, weight.data.T, bias=None if bias is None else bias.data
    )
    vx, vw = x._vertex, weight._vertex
    vb = None if bias is None else bias._vertex
    x_data = None if vw is None else x._keep()
    w_data = None if vx is None else weight._keep()

    def backward(grad: np.ndarray) -> None:
        eng = _engine()
        if vb is not None:
            vb._accumulate(grad.sum(axis=0))
        if vw is not None:
            # dW(out, in) = grad.T @ x — exactly the execute_tn shape.
            vw._accumulate(eng.execute_tn(grad, x_data()))
        if vx is not None:
            vx._accumulate(eng.execute(grad, w_data()))

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

    x_shape, vx = x.shape, x._vertex

    def backward(grad: np.ndarray) -> None:
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
        vx._accumulate(grad_padded.reshape(x_shape))

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
    x_shape, vx = x.shape, x._vertex

    def backward(grad: np.ndarray) -> None:
        spread = grad * scale
        if stride == kernel and not (padding[0] or padding[1]):
            # Non-overlapping windows (every global pool): one broadcast
            # writes each window's share; remainder rows/columns stay zero.
            grad_x = np.zeros((n, c, h, w), dtype=grad.dtype)
            blocks = grad_x[:, :, : out_h * kh, : out_w * kw].reshape(n, c, out_h, kh, out_w, kw)
            blocks[...] = spread[:, :, :, None, :, None]
            vx._accumulate(grad_x)
            return
        grad_padded = np.zeros((n, c, h + 2 * padding[0], w + 2 * padding[1]), dtype=grad.dtype)
        for i in range(kh):
            for j in range(kw):
                grad_padded[
                    :, :, i : i + stride[0] * out_h : stride[0], j : j + stride[1] * out_w : stride[1]
                ] += spread
        if padding[0] or padding[1]:
            grad_padded = grad_padded[
                :, :, padding[0] : padding[0] + h, padding[1] : padding[1] + w
            ]
        vx._accumulate(grad_padded.reshape(x_shape))

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
    dtype = x.data.dtype
    vx, vw, vb = x._vertex, weight._vertex, bias._vertex
    w_data = None if vx is None else weight._keep()

    def backward(grad: np.ndarray) -> None:
        if vw is not None:
            vw._accumulate((grad * x_hat).sum(axis=(0, 2, 3)))
        if vb is not None:
            vb._accumulate(grad.sum(axis=(0, 2, 3)))
        if vx is not None:
            gamma = w_data().reshape(1, c, 1, 1)
            grad_xhat = grad * gamma
            sum_g = grad_xhat.sum(axis=(0, 2, 3), keepdims=True)
            sum_gx = (grad_xhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
            grad_x = inv_b / count * (count * grad_xhat - sum_g - x_hat * sum_gx)
            vx._accumulate(grad_x.astype(dtype, copy=False))

    result = Tensor._make(out.astype(dtype, copy=False), (x, weight, bias), backward)
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
    if not d.flags.c_contiguous and nhwc.flags.c_contiguous:
        # Channels-last storage (the no-grad conv kernels' layout): the
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
    vx, vw, vb = x._vertex, weight._vertex, bias._vertex
    # The input is kept only for γ's gradient; Eq. 3 scoring freezes γ.
    x_data = None if vw is None else x._keep()

    def backward(grad: np.ndarray) -> None:
        if vw is not None:
            x_hat = (x_data() - running_mean.reshape(1, c, 1, 1)) * inv_std.reshape(1, c, 1, 1)
            vw._accumulate((grad * x_hat).sum(axis=(0, 2, 3)))
        if vb is not None:
            vb._accumulate(grad.sum(axis=(0, 2, 3)))
        if vx is not None:
            vx._accumulate(grad * scale.reshape(1, c, 1, 1))

    return Tensor._make(out, (x, weight, bias), backward)

