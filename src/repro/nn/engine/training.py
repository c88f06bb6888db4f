"""Planned gradient-buffer arenas for training steps.

The training fast path (:func:`repro.nn.functional._conv2d_train` and
friends) allocates its backward temporaries — flattened upstream gradients,
packed weight matrices, dW products, col2im scatter scratch — from
the *training* arena (:func:`repro.nn.functional.current_train_arena`).
Left alone that arena is a PR 2-style dynamic :class:`Workspace`: growable
slabs keyed by tag, re-discovered sizes every pass.

:func:`training_step` upgrades it to a static plan, exactly the way
:class:`repro.nn.inference.CompiledInference` plans inference scratch: hot
loops wrap each forward+backward pass in ``with training_step(signature):``,
the first pass under a new ``(batch shape, dtype)`` signature records the
get/release trace, and every later pass serves each scratch request as a
constant-time view into preallocated, lifetime-shared slabs — no growth
checks, no fresh page-faulting allocations mid-step.  Tags are shared
across layers (layer 3's ``grad2d`` closes layer 7's live range), so the
plan packs the whole backward sweep into a handful of peak-sized slabs.

The arena is a process-wide singleton registered with the planner's fork
hook: orchestrator children inherit an empty arena, never a view of slabs
the parent is writing.
"""

from __future__ import annotations

import contextlib
from typing import Hashable, Optional

from .planner import PlannedArena

__all__ = ["train_step_arena", "training_step"]

_TRAIN_ARENA: Optional[PlannedArena] = None
_STEP_DEPTH = 0


def train_step_arena() -> PlannedArena:
    """The process-wide planned arena used by :func:`training_step`."""
    global _TRAIN_ARENA
    if _TRAIN_ARENA is None:
        _TRAIN_ARENA = PlannedArena()
    return _TRAIN_ARENA


@contextlib.contextmanager
def training_step(signature: Hashable):
    """Plan training-path scratch for one forward+backward pass.

    ``signature`` must determine every scratch shape the pass requests —
    the batch's ``(shape, dtype)`` is sufficient for a fixed model.  Both
    the forward *and* the ``loss.backward()`` call must run inside the
    block, since backward closures allocate from whatever arena is current
    when they fire.  Nested calls and ``REPRO_DISABLE_FAST_PATH=1`` are
    no-ops (the inner pass just inherits the outer arena / the reference
    kernels allocate nothing here).
    """
    from ..functional import fast_path_enabled, use_train_arena

    global _STEP_DEPTH
    if _STEP_DEPTH or not fast_path_enabled():
        yield
        return
    arena = train_step_arena()
    arena.begin(signature)
    _STEP_DEPTH += 1
    try:
        with use_train_arena(arena):
            yield
    finally:
        _STEP_DEPTH -= 1
        arena.end()
