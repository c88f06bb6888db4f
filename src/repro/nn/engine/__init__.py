"""``repro.nn.engine`` — GEMM execution layer.

Runs the conv kernels' GEMMs as single inline BLAS calls, with the conv
bias (after conv–BN folding, the BN affine) added on the output.  See
DESIGN.md §10.
"""

from .gemm import TiledGemmEngine, engine, reset_engine

__all__ = [
    "TiledGemmEngine",
    "engine",
    "reset_engine",
]
