"""Reference kernels: the test oracle for :mod:`repro.nn.functional`.

Each op in the library has one runtime kernel.  The straightforward
formulations below — an NCHW im2col/einsum conv with its autograd closure,
a ``matmul`` + add linear, and a transposed conv whose backward uses
batched matmuls — are kept here only to check those kernels against.  The
NCHW :func:`im2col` / :func:`col2im` pair they are built on lives here too:
the runtime kernels unfold channels-last.

:func:`reference_kernels` swaps them into ``repro.nn.functional`` for the
duration of a block.  Layers call ``F.conv2d`` / ``F.linear`` /
``F.conv_transpose2d`` through the module, so whole models (and compiled
views of them) run the reference forward and backward inside the block::

    with reference_kernels():
        expected = model(x)
"""

from __future__ import annotations

import contextlib
from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.functional import IntPair, conv_output_size
from repro.nn.tensor import Tensor

__all__ = ["im2col", "col2im", "conv2d", "conv_transpose2d", "linear", "reference_kernels"]


def _pad_spatial(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad (N, C, H, W) spatially."""
    if not (ph or pw):
        return x
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))


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
) -> np.ndarray:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N, C*kh*kw, L).

    ``L = out_h * out_w`` is the number of sliding-window positions.  The
    result is laid out so that a convolution becomes ``weight_matrix @ cols``.
    The copy is skipped entirely when the unfolded view is already contiguous
    (1x1 kernels with unit stride).
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
    return view.reshape(n, c * kh * kw, out_h * out_w)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Fold columns produced by :func:`im2col` back, summing overlaps."""
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)

    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        h_end = i + sh * out_h
        for j in range(kw):
            w_end = j + sw * out_w
            padded[:, :, i:h_end:sh, j:w_end:sw] += cols[:, :, i, j]
    if ph or pw:
        return padded[:, :, ph : ph + h, pw : pw + w]
    return padded


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
    groups: int = 1,
) -> Tensor:
    """im2col conv: one batched matmul (``groups == 1``) or an einsum over groups."""
    stride = F._pair(stride)
    padding = F._pair(padding)
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
    cols = im2col(x.data, (kh, kw), stride, padding)
    length = out_h * out_w

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

    x_shape, w_shape = x.shape, weight.shape
    parents = (x, weight) if bias is None else (x, weight, bias)
    # The closure captures vertices and the arrays it reads, as the runtime
    # kernels do; the weight is read through ``_keep`` at backward time.
    vx, vw = x._vertex, weight._vertex
    vb = None if bias is None else bias._vertex
    w_data = weight._keep()

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(n, c_out, length)
        if vb is not None:
            vb._accumulate(grad_flat.sum(axis=(0, 2)))
        if groups == 1:
            if vw is not None:
                grad_w = np.matmul(grad_flat, cols.transpose(0, 2, 1)).sum(axis=0)
                vw._accumulate(grad_w.reshape(w_shape))
            if vx is not None:
                w_mat_local = w_data().reshape(c_out, -1)
                grad_cols = np.matmul(w_mat_local.T[None], grad_flat)
                vx._accumulate(col2im(grad_cols, x_shape, (kh, kw), stride, padding))
        else:
            grad_g = grad_flat.reshape(n, groups, c_out_per_group, length)
            cols_g_local = cols.reshape(n, groups, c_in_per_group * kh * kw, length)
            if vw is not None:
                grad_w = np.einsum("ngol,ngkl->gok", grad_g, cols_g_local, optimize=True)
                vw._accumulate(grad_w.reshape(w_shape))
            if vx is not None:
                w_mat_local = w_data().reshape(groups, c_out_per_group, -1)
                grad_cols = np.einsum("gok,ngol->ngkl", w_mat_local, grad_g, optimize=True)
                grad_cols = grad_cols.reshape(n, c_in_per_group * groups * kh * kw, length)
                vx._accumulate(col2im(grad_cols, x_shape, (kh, kw), stride, padding))

    return Tensor._make(out, parents, backward)


def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """Transposed conv with per-sample batched-matmul backward products."""
    stride = F._pair(stride)
    padding = F._pair(padding)
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
    w_mat = weight.data.reshape(c_in, c_out * kh * kw)  # (C_in, K)
    x_flat = x.data.reshape(n, c_in, length)
    cols = np.matmul(w_mat.T[None], x_flat)  # (N, C_out*kh*kw, L)
    out = col2im(cols, (n, c_out, out_h, out_w), (kh, kw), stride, padding)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    w_shape = weight.shape
    vx, vw = x._vertex, weight._vertex
    vb = None if bias is None else bias._vertex

    def backward(grad: np.ndarray) -> None:
        if vb is not None:
            vb._accumulate(grad.sum(axis=(0, 2, 3)))
        grad_cols = im2col(grad, (kh, kw), stride, padding)  # (N, C_out*kh*kw, L)
        if vw is not None:
            grad_w = np.matmul(x_flat, grad_cols.transpose(0, 2, 1)).sum(axis=0)
            vw._accumulate(grad_w.reshape(w_shape))
        if vx is not None:
            grad_x = np.matmul(w_mat[None], grad_cols)  # (N, C_in, L)
            vx._accumulate(grad_x.reshape(n, c_in, h, w))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out.astype(x.data.dtype), parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T (+ bias)`` composed from :meth:`Tensor.matmul` and add."""
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


@contextlib.contextmanager
def reference_kernels():
    """Run ``repro.nn.functional``'s conv, transposed conv and linear as the
    reference kernels above for the duration of the block."""
    swapped = {"conv2d": conv2d, "conv_transpose2d": conv_transpose2d, "linear": linear}
    saved = {name: getattr(F, name) for name in swapped}
    for name, kernel in swapped.items():
        setattr(F, name, kernel)
    try:
        yield
    finally:
        for name, kernel in saved.items():
            setattr(F, name, kernel)
