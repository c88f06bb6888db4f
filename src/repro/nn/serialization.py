"""Checkpoint save/load of npz-backed state dicts.

Writes are atomic: the archive is serialized to a temporary file in the
target directory and moved into place with :func:`os.replace`, so a
process killed mid-write can never leave a truncated ``.npz`` under the
final name.  Loads validate the archive and raise :class:`CheckpointError`
(naming the offending path) instead of leaking raw ``zipfile`` internals.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from typing import Dict

import numpy as np

__all__ = ["CheckpointError", "save_state", "load_state"]


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, truncated, or not an npz archive."""


def save_state(state: Dict[str, np.ndarray], path: str) -> None:
    """Atomically save a state dict to ``path`` (``.npz``)."""
    if not path.endswith(".npz"):
        path += ".npz"  # np.savez would append it anyway; keep tmp/final in sync
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # The tmp name must end in .npz or np.savez silently appends the suffix.
    tmp = f"{path}.tmp.{os.getpid()}.npz"
    try:
        np.savez(tmp, **state)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_state(path: str) -> Dict[str, np.ndarray]:
    """Load a state dict saved by :func:`save_state`.

    Raises
    ------
    CheckpointError
        If ``path`` does not exist, is not an npz archive, or is truncated
        (e.g. a partial write from a killed process).
    """
    if not os.path.exists(path):
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            return {key: archive[key] for key in archive.files}
    except (zipfile.BadZipFile, zlib.error, ValueError, KeyError, EOFError, OSError) as exc:
        raise CheckpointError(
            f"corrupt or non-npz checkpoint at {path}: {type(exc).__name__}: {exc}"
        ) from exc

