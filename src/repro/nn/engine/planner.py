"""Static memory planner: named, lifetime-disjoint scratch slabs.

The PR 2 :class:`repro.nn.functional.Workspace` recycles one growable slab
per tag, discovering sizes dynamically as ops request buffers.  The planner
generalizes that arena into a *plan*: one recorded trace of ``get``/
``release`` events per ``(input shape, dtype)`` signature is compiled into a
set of slabs where tags whose live ranges never overlap share storage (a
padded-input buffer that dies before the weight-packing buffer is born can
occupy the same bytes).  After the recording pass every allocation in a
compiled forward is a constant-time view into a preallocated slab — no
growth checks, no fresh page-faulting allocations mid-run.

Live ranges come from explicit lifetime marks: each ``get(tag, ...)`` opens
an interval, and the interval closes at ``release(tag)`` (the fast-path
kernels mark their intermediates dead as soon as the consuming GEMM has
read them) or at the tag's next ``get``, whichever comes first.  An
unreleased tag stays live to the end of the trace.  Slab assignment is
greedy interval-graph coloring over tag conflict: two tags may share a slab
iff no live range of one overlaps a live range of the other; a shared
slab's size is the maximum any of its tags ever requested.

Signatures share plans.  A model's trace at batch 1 and at batch 32
issues the same ``get``/``release`` events in the same order (kinds and
tags); only the sizes differ, so the live ranges — and with them every
aliasing decision — are the same.  Recordings with one event sequence
therefore keep a single plan, sized to the largest request seen at each
event: a smaller batch is served from the larger plan's slabs, and a larger
recording re-plans and frees the old slabs.  Without this a gateway whose
batch size follows the backlog would keep one slab set per batch size
forever.  A recording with a different sequence gets its own plan.

:class:`PlannedArena` is a drop-in for :class:`Workspace` (same ``get`` /
``release`` / ``clear`` surface).  Requests outside the plan — unknown
tags, or a request larger than recorded — fall back to a dynamic side
arena, so a stale plan degrades to plain :class:`Workspace` behavior
rather than failing.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

__all__ = [
    "SlabRequest",
    "MemoryPlan",
    "PlannedArena",
    "plan_slabs",
]


@dataclass(frozen=True)
class SlabRequest:
    """One recorded live range of a tagged scratch buffer."""

    tag: str
    nbytes: int
    start: int
    end: int  # exclusive; requests with start <= t < end are live at step t

    def overlaps(self, other: "SlabRequest") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass
class MemoryPlan:
    """Tag → slab assignment plus per-slab sizes, from one recorded trace."""

    slab_sizes: List[int] = field(default_factory=list)
    assignment: Dict[str, int] = field(default_factory=dict)
    tag_nbytes: Dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(self.slab_sizes)

    @property
    def shared_bytes_saved(self) -> int:
        """Bytes the plan avoids versus giving every tag its own slab."""
        return sum(self.tag_nbytes.values()) - self.total_bytes


def plan_slabs(requests: List[SlabRequest]) -> MemoryPlan:
    """Greedy interval-coloring of tag live ranges into shared slabs.

    Tags are colored in decreasing order of their peak request size so large
    tags claim slabs first and smaller disjoint tags pack into them for
    free.  Deterministic for a given request list.
    """
    by_tag: Dict[str, List[SlabRequest]] = {}
    peak: Dict[str, int] = {}
    for req in requests:
        by_tag.setdefault(req.tag, []).append(req)
        peak[req.tag] = max(peak.get(req.tag, 0), req.nbytes)

    def conflicts(tag_a: str, tag_b: str) -> bool:
        return any(
            ra.overlaps(rb) for ra in by_tag[tag_a] for rb in by_tag[tag_b]
        )

    plan = MemoryPlan(tag_nbytes=dict(peak))
    slab_tags: List[List[str]] = []
    for tag in sorted(peak, key=lambda t: (-peak[t], t)):
        placed = False
        for slab_id, members in enumerate(slab_tags):
            if not any(conflicts(tag, member) for member in members):
                members.append(tag)
                plan.assignment[tag] = slab_id
                plan.slab_sizes[slab_id] = max(plan.slab_sizes[slab_id], peak[tag])
                placed = True
                break
        if not placed:
            plan.assignment[tag] = len(slab_tags)
            slab_tags.append([tag])
            plan.slab_sizes.append(peak[tag])
    return plan


class _SharedPlan:
    """A plan and its slabs, covering every recording of one event sequence."""

    def __init__(self, sequence: Tuple[Tuple[str, str], ...], sizes: List[int]) -> None:
        self.sequence = sequence
        self._compile(sizes)

    def cover(self, sizes: List[int]) -> None:
        """Widen the plan to serve a recording with these per-event sizes."""
        if any(new > old for new, old in zip(sizes, self.sizes)):
            self._compile([max(new, old) for new, old in zip(sizes, self.sizes)])

    def _compile(self, sizes: List[int]) -> None:
        self.sizes = sizes
        events = [(kind, tag, nbytes) for (kind, tag), nbytes in zip(self.sequence, sizes)]
        self.plan = plan_slabs(_events_to_requests(events))
        # Rebinding drops the previous slabs, freeing them.
        self.slabs = [np.empty(size, dtype=np.uint8) for size in self.plan.slab_sizes]


class PlannedArena:
    """Workspace-compatible arena that compiles traces into static plans.

    The first pass under a new ``begin(signature)`` key records events and
    serves requests from the dynamic fallback arena; ``end()`` compiles the
    recording into a :class:`MemoryPlan` and allocates its slabs, or — when
    an earlier recording had the same event sequence — widens that plan to
    cover both and shares it.  Subsequent passes under the signature serve
    every planned request as a view into the preallocated slabs.
    """

    def __init__(self) -> None:
        from ..functional import Workspace  # deferred: functional imports engine

        self._fallback = Workspace()
        self._plans: Dict[Hashable, _SharedPlan] = {}
        self._by_sequence: Dict[Tuple[Tuple[str, str], ...], _SharedPlan] = {}
        self._signature: Optional[Hashable] = None
        self._active: Optional[_SharedPlan] = None
        self._recording: Optional[List[Tuple[str, str, int]]] = None
        _all_arenas.add(self)

    # ------------------------------------------------------------------
    # Trace lifecycle
    # ------------------------------------------------------------------
    def begin(self, signature: Hashable) -> None:
        """Enter a trace: planned mode if ``signature`` was seen, else record."""
        self._signature = signature
        self._active = self._plans.get(signature)
        self._recording = None if self._active is not None else []

    def end(self) -> None:
        """Leave the trace; compiles or widens a plan after a recording."""
        if self._recording is not None and self._signature is not None:
            sequence = tuple((kind, tag) for kind, tag, _ in self._recording)
            sizes = [nbytes for _, _, nbytes in self._recording]
            shared = self._by_sequence.get(sequence)
            if shared is None:
                shared = self._by_sequence[sequence] = _SharedPlan(sequence, sizes)
            else:
                shared.cover(sizes)
            self._plans[self._signature] = shared
        self._signature = None
        self._active = None
        self._recording = None

    def plan_for(self, signature: Hashable) -> Optional[MemoryPlan]:
        shared = self._plans.get(signature)
        return shared.plan if shared is not None else None

    # ------------------------------------------------------------------
    # Workspace protocol
    # ------------------------------------------------------------------
    def get(self, tag: str, shape: Tuple[int, ...], dtype=np.float32) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if self._recording is not None:
            self._recording.append(("get", tag, nbytes))
            return self._fallback.get(tag, shape, dtype)
        active = self._active
        if active is not None:
            slab_id = active.plan.assignment.get(tag)
            if slab_id is not None:
                slab = active.slabs[slab_id]
                if nbytes <= slab.nbytes:
                    return slab[:nbytes].view(dtype).reshape(shape)
        return self._fallback.get(tag, shape, dtype)

    def release(self, tag: str) -> None:
        """Mark ``tag``'s current buffer dead (closes its live range)."""
        if self._recording is not None:
            self._recording.append(("release", tag, 0))

    def clear(self) -> None:
        """Drop all plans, slabs, and fallback buffers."""
        self._plans.clear()
        self._by_sequence.clear()
        self._fallback.clear()
        self._signature = None
        self._active = None
        self._recording = None

    def __len__(self) -> int:
        planned = sum(len(shared.slabs) for shared in self._by_sequence.values())
        return planned + len(self._fallback)

    @property
    def nbytes(self) -> int:
        planned = sum(
            slab.nbytes for shared in self._by_sequence.values() for slab in shared.slabs
        )
        return planned + self._fallback.nbytes


def _events_to_requests(events: List[Tuple[str, str, int]]) -> List[SlabRequest]:
    """Convert a get/release event stream into closed live ranges."""
    requests: List[SlabRequest] = []
    open_ranges: Dict[str, Tuple[int, int]] = {}  # tag -> (start, nbytes)
    for step, (kind, tag, nbytes) in enumerate(events):
        if kind == "get":
            if tag in open_ranges:
                start, size = open_ranges.pop(tag)
                requests.append(SlabRequest(tag, size, start, step))
            open_ranges[tag] = (step, nbytes)
        elif tag in open_ranges:  # release
            start, size = open_ranges.pop(tag)
            requests.append(SlabRequest(tag, size, start, step + 1))
    horizon = len(events) + 1
    for tag, (start, size) in open_ranges.items():
        requests.append(SlabRequest(tag, size, start, horizon))
    return requests


# Every live arena, so the fork hook can wipe child copies in one sweep.
_all_arenas: "weakref.WeakSet[PlannedArena]" = weakref.WeakSet()


def clear_all_arenas() -> None:
    """Drop every :class:`PlannedArena`'s buffers (used by the fork hook)."""
    for arena in list(_all_arenas):
        arena.clear()
