"""``repro.nn.engine`` — GEMM execution layer.

Runs the conv kernels' GEMMs as single inline BLAS calls with the
conv→BN→ReLU epilogue fused onto the output.  See DESIGN.md §10.
"""

from .gemm import TiledGemmEngine, engine, reset_engine

__all__ = [
    "TiledGemmEngine",
    "engine",
    "reset_engine",
]
