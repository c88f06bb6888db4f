"""Inline GEMM executor with a bias-only epilogue.

:class:`TiledGemmEngine` is the execution layer under the conv kernels.  Given
the im2col operand ``a = (M, K)`` and packed weights ``b = (K, N)`` it
computes ``a @ b`` plus an optional per-column bias added in place on the
GEMM output (after conv–BN folding that bias *is* the batch-norm affine).
The backward dW shape ``a.T @ b`` goes through
:meth:`TiledGemmEngine.execute_tn`.

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
    """Inline BLAS GEMM + in-place bias epilogue, with call counters."""

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
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``a @ b`` with ``bias`` added in place.

        ``a`` is ``(M, K)``, ``b`` is ``(K, N)``, ``bias`` broadcasts over
        rows as ``(N,)``.  Returns ``out`` (allocated fresh when omitted).
        """
        if out is None:
            out = np.empty((a.shape[0], b.shape[1]), dtype=a.dtype)
        self._count()
        np.matmul(a, b, out=out)
        if bias is not None:
            out += bias
        return out

    def execute_tn(
        self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``a.T @ b``: the backward-pass dW shape.

        ``a`` is ``(R, M)`` and ``b`` is ``(R, N)``; the result is ``(M, N)``,
        written into ``out`` (allocated fresh when omitted).
        """
        if out is None:
            out = np.empty((a.shape[1], b.shape[1]), dtype=a.dtype)
        self._count()
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
