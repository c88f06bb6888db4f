"""``repro.nn.engine`` — GEMM execution layer.

Runs the fast path's im2col GEMMs as single inline BLAS calls with the
conv→BN→ReLU epilogue fused onto the output, and plans scratch memory
statically per traced shape.  See DESIGN.md §10.
"""

from .gemm import TiledGemmEngine, engine, reset_engine
from .planner import MemoryPlan, PlannedArena, SlabRequest, clear_all_arenas, plan_slabs
from .training import train_step_arena, training_step

__all__ = [
    "MemoryPlan",
    "PlannedArena",
    "SlabRequest",
    "TiledGemmEngine",
    "clear_all_arenas",
    "engine",
    "plan_slabs",
    "reset_engine",
    "train_step_arena",
    "training_step",
]
