"""Deterministic seeding helper.

Every stochastic component in the library takes an explicit generator or
seed; :func:`seed_sequence` derives independent child seeds from a root
seed so that trials are reproducible yet decorrelated.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["seed_sequence"]


def seed_sequence(root: int, count: int) -> Iterator[int]:
    """Yield ``count`` decorrelated seeds derived from ``root``."""
    children = np.random.SeedSequence(root).spawn(count)
    for child in children:
        yield int(child.generate_state(1)[0])
