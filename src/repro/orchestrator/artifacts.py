"""Unified content-addressed artifact store with atomic, integrity-checked IO.

Every expensive product of the pipeline — backdoored-model checkpoints,
per-trial metrics, aggregates — is stored under a key that is itself a
content hash of the *inputs* that produced it (``ScenarioConfig.fingerprint``,
``TrialCache.key``), so identical work is never redone.  On top of that
addressing scheme the store records a sha256 digest of each artifact's own
bytes in a ``.sha256`` sidecar and verifies it on load: a corrupt file (e.g.
from a worker killed mid-write, disk trouble, or a partial copy) is detected,
removed, and reported as a miss instead of poisoning later runs.

All writes are atomic (temporary file in the same directory, then
``os.replace``).  Files written by older versions of the code have no
sidecar and are loaded unverified for backward compatibility.

Concurrent readers are first-class: the serving gateway hot-swaps model
checkpoints by ``get``-ing keys that an orchestrator (or a re-``put`` of the
same content) may be writing at the same instant.  Publication is therefore
*seal-before-publish*: the artifact is staged to a temporary file, its
digest is added to the sidecar **first** (alongside the digest of the data
currently visible under the final name), and only then is the data file
moved into place; a final compaction rewrites the sidecar to just the new
digest.  A reader that interleaves anywhere in that sequence sees either the
old artifact or the new one — both of whose digests the sidecar lists — and
never a checksum mismatch for a healthy file.  Verification is additionally
*frame-checked*: a digest/sidecar mismatch is only treated as corruption
when the data file's inode and the sidecar's content were stable across the
comparison, so a reader that straddles two publish generations of a busy
key retries instead of misdiagnosing (and deleting!) a healthy artifact.
Writers of *different* content racing on the same key (outside the
content-addressed contract) therefore cost retries, never a torn read.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

import numpy as np

from ..nn.serialization import CheckpointError, load_state, save_state
from ..utils.logging import get_logger

__all__ = ["ArtifactStore", "cache_root", "content_hash"]

_LOG = get_logger("repro.orchestrator.artifacts")


def cache_root() -> str:
    """Root of the on-disk caches: ``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    return os.environ.get("REPRO_CACHE_DIR", os.path.expanduser("~/.cache/repro"))


def content_hash(payload) -> str:
    """Stable sha256 hex digest of a JSON-serializable payload."""
    encoded = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(encoded).hexdigest()


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class ArtifactStore:
    """Keyed artifact directory with atomic writes and checksummed loads.

    Parameters
    ----------
    root:
        Directory holding the artifacts (created on demand).
    verify:
        When True (default), loads recompute the file digest and compare it
        against the sidecar; mismatches are treated as misses and the bad
        files removed.
    """

    def __init__(self, root: str, verify: bool = True) -> None:
        self.root = root
        self.verify = verify
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path(self, key: str, suffix: str) -> str:
        return os.path.join(self.root, f"{key}{suffix}")

    def _sidecar(self, path: str) -> str:
        return f"{path}.sha256"

    def has(self, key: str, suffix: str) -> bool:
        return os.path.exists(self.path(key, suffix))

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def _read_sidecar(self, path: str) -> Optional[List[str]]:
        """Digests the sidecar currently accepts for ``path`` (None if absent)."""
        sidecar = self._sidecar(path)
        try:
            with open(sidecar) as handle:
                return [line.strip() for line in handle if line.strip()]
        except OSError:
            return None

    def _between_steps(self, stage: str) -> None:
        """Test seam: called between the atomic steps of :meth:`_publish`."""

    def _publish(self, tmp: str, path: str) -> None:
        """Move staged file ``tmp`` to ``path`` without a reader-visible gap.

        Sequence (each step individually atomic):

        1. *seal* — sidecar := {staged digest} ∪ {digest of the data file
           readers currently see} (computed from the old sidecar, or by
           hashing a legacy file that has none);
        2. *publish* — ``os.replace(tmp, path)``;
        3. *compact* — sidecar := {staged digest} only.

        At every interleaving point the visible data file's digest is listed
        in the visible sidecar, so a concurrent :meth:`_check` passes on
        whichever version it observes.
        """
        new_digest = _file_sha256(tmp)
        accepted = [new_digest]
        previous = self._read_sidecar(path)
        if previous is None and os.path.exists(path):
            previous = [_file_sha256(path)]  # legacy artifact without sidecar
        for digest in previous or []:
            if digest not in accepted:
                accepted.append(digest)
        self._between_steps("staged")
        _atomic_write_text(self._sidecar(path), "\n".join(accepted))
        self._between_steps("sealed")
        os.replace(tmp, path)
        self._between_steps("published")
        _atomic_write_text(self._sidecar(path), new_digest)
        self._between_steps("compacted")

    _VERIFY_ATTEMPTS = 8

    def _check(self, path: str) -> bool:
        """True if ``path`` matches its sidecar (or has none — legacy file).

        A mismatch only counts as corruption when observed in a *stable
        frame*: the data file's inode and the sidecar's content are the same
        before and after hashing, so digest and sidecar were genuinely
        paired at one instant.  An unstable frame means a live writer
        republished between our two reads (the digest and sidecar belong to
        different generations) — retry.  If the key is still churning after
        every retry the file is being actively (re)written, not rotting on
        disk; accept it and let the format-level checks in the actual load
        (npz CRC, JSON parse) have the final word.
        """
        if not self.verify:
            return True
        for _ in range(self._VERIFY_ATTEMPTS):
            try:
                stat_before = os.stat(path)
                accepted = self._read_sidecar(path)
                if accepted is None:
                    return True
                digest = _file_sha256(path)
                stat_after = os.stat(path)
                accepted_after = self._read_sidecar(path)
            except FileNotFoundError:
                return True  # vanished mid-check; the load itself will decide
            if digest in accepted or (accepted_after or []).count(digest):
                return True
            stable = (
                stat_before.st_ino == stat_after.st_ino
                and accepted == accepted_after
            )
            if stable:
                return False
        return True

    def _drop_corrupt(self, path: str, reason: str) -> None:
        _LOG.warning("dropping corrupt artifact %s (%s)", path, reason)
        for victim in (path, self._sidecar(path)):
            try:
                os.remove(victim)
            except FileNotFoundError:
                pass  # another process healed it first

    def delete(self, key: str, suffix: str) -> None:
        path = self.path(key, suffix)
        for victim in (path, self._sidecar(path)):
            if os.path.exists(victim):
                os.remove(victim)

    # ------------------------------------------------------------------
    # npz state dicts
    # ------------------------------------------------------------------
    def put_state(self, key: str, state: Dict[str, np.ndarray]) -> str:
        path = self.path(key, ".npz")
        # Stage next to the final name (same filesystem); save_state needs
        # the .npz suffix or np.savez silently appends one.
        tmp = self.path(key, f".stage.{os.getpid()}.npz")
        try:
            save_state(state, tmp)
            self._publish(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        return path

    def get_state(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        path = self.path(key, ".npz")
        if not os.path.exists(path):
            return None
        if not self._check(path):
            self._drop_corrupt(path, "checksum mismatch")
            return None
        try:
            return load_state(path)
        except CheckpointError as exc:
            self._drop_corrupt(path, str(exc))
            return None

    # ------------------------------------------------------------------
    # JSON documents
    # ------------------------------------------------------------------
    def put_json(self, key: str, payload: Dict) -> str:
        path = self.path(key, ".json")
        tmp = self.path(key, f".stage.{os.getpid()}.json")
        try:
            with open(tmp, "w") as handle:
                handle.write(json.dumps(payload, sort_keys=True))
            self._publish(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        return path

    def get_json(self, key: str) -> Optional[Dict]:
        path = self.path(key, ".json")
        if not os.path.exists(path):
            return None
        if not self._check(path):
            self._drop_corrupt(path, "checksum mismatch")
            return None
        try:
            with open(path) as handle:
                return json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            self._drop_corrupt(path, f"{type(exc).__name__}: {exc}")
            return None
