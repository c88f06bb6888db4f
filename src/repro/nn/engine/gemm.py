"""Inline GEMM executor with a fused epilogue.

:class:`TiledGemmEngine` is the execution layer under the fast path.  Given
the im2col operand ``a = (M, K)`` and packed weights ``b = (K, N)`` it
computes ``a @ b`` plus an optional fused epilogue — per-column bias add
(which, after conv–BN folding, *is* the batch-norm affine) and ReLU —
in place on the GEMM output, so no un-activated intermediate is ever
materialized.  The backward dW shape ``a.T @ b`` goes through
:meth:`TiledGemmEngine.execute_tn`, which can accumulate into a gradient
buffer.

Every call is one BLAS call on the calling thread.  Parallelism comes from
the BLAS library's own threads inside a GEMM and from orchestrator tasks
across trials and federated clients; nothing here splits work.  (The class
keeps its historical name: profilers and benches wrap it by that name.)

The engine is a process-wide singleton (:func:`engine`) holding only call
counters; a fork hook in :mod:`repro.nn.functional` drops the child's copy
so each process counts its own calls.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = ["TiledGemmEngine", "engine", "reset_engine"]


class TiledGemmEngine:
    """Inline BLAS GEMM + fused bias/ReLU epilogue, with call counters."""

    def __init__(self) -> None:
        # Cumulative since construction: long-lived callers (the serving
        # gateway's stats endpoint, benches) read these.  Every call runs
        # inline, so the two counts are equal.
        self.totals: Dict[str, int] = {"calls": 0, "inline_calls": 0}

    def _count(self) -> None:
        self.totals["calls"] += 1
        self.totals["inline_calls"] += 1

    def execute(
        self,
        a: np.ndarray,
        b: np.ndarray,
        bias: Optional[np.ndarray] = None,
        activation: Optional[str] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``a @ b`` with the bias/activation epilogue applied in place.

        ``a`` is ``(M, K)``, ``b`` is ``(K, N)``, ``bias`` broadcasts over
        rows as ``(N,)``.  Returns ``out`` (allocated fresh when omitted).
        """
        if activation not in (None, "relu"):
            raise ValueError(f"unsupported fused activation: {activation!r}")
        if out is None:
            out = np.empty((a.shape[0], b.shape[1]), dtype=a.dtype)
        self._count()
        np.matmul(a, b, out=out)
        if bias is not None:
            out += bias
        if activation == "relu":
            np.maximum(out, 0.0, out=out)
        return out

    def execute_tn(
        self,
        a: np.ndarray,
        b: np.ndarray,
        out: Optional[np.ndarray] = None,
        accumulate: bool = False,
    ) -> np.ndarray:
        """``a.T @ b``: the backward-pass dW shape.

        ``a`` is ``(R, M)`` and ``b`` is ``(R, N)``; the result is ``(M, N)``.
        With ``accumulate=True`` the product is *added* into ``out`` (which
        must be provided), matching how backward GEMMs feed shared gradient
        buffers; otherwise ``out`` is overwritten (allocated fresh when
        omitted).
        """
        if accumulate and out is None:
            raise ValueError("execute_tn(accumulate=True) requires an out buffer")
        if out is None:
            out = np.empty((a.shape[1], b.shape[1]), dtype=a.dtype)
        self._count()
        if accumulate:
            out += a.T @ b
        else:
            np.matmul(a.T, b, out=out)
        return out


_ENGINE: Optional[TiledGemmEngine] = None


def engine() -> TiledGemmEngine:
    """The process-wide GEMM engine (created lazily)."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = TiledGemmEngine()
    return _ENGINE


def reset_engine() -> None:
    """Drop the engine singleton; the next :func:`engine` call starts fresh."""
    global _ENGINE
    _ENGINE = None
