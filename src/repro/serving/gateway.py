"""Long-lived defense-serving gateway: registry + micro-batcher + STRIP.

The end product of the paper's pipeline is a *repaired* model that still has
to serve predictions.  :class:`ServingGateway` composes the repo's pieces
into that deployable form:

- checkpoints come from a :class:`~repro.serving.registry.ModelRegistry`
  (content-addressed, atomically aliased);
- every checkpoint is folded through
  :class:`~repro.nn.inference.CompiledInference` (conv–BN folding, fused
  ReLU epilogue) and **warmed off the request path** before
  it serves a single request;
- requests stream through a :class:`~repro.serving.batcher.MicroBatcher`,
  so single-image callers ride the batched channels-last single-GEMM path
  instead of the batch-1 slow path;
- an optional **STRIP pre-filter** (Gao et al., 2019) shares the same
  micro-batches: each batch is blended against a clean pool and scored in
  one stacked forward (:func:`~repro.synthesis.strip.strip_entropy_scores`),
  yielding a per-request ``clean`` / ``filtered-as-triggered`` verdict next
  to the label.

Hot-swap protocol (zero dropped requests):

1. ``swap()`` resolves the alias (or takes an explicit key) and *prepares*
   the replacement entirely off-path: load, fold, warm, and — when STRIP is
   on — recalibrate the entropy threshold against the new model.
2. The prepared entry is installed under the model lock, which the drain
   thread also takes per batch.  In-flight batches finish on the old model;
   the next batch runs folded on the new one.  Requests queued during the
   swap are never rejected, reordered, or dropped.
3. The old compiled view is discarded whole; there is no shared folded
   state to invalidate across entries (each checkpoint gets a fresh
   ``CompiledInference``), so a stale cache cannot leak across a swap.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..data.dataset import ImageDataset
from ..nn.engine import engine
from ..nn.inference import CompiledInference
from ..nn.tensor import Tensor
from ..synthesis.strip import strip_entropy_scores
from ..telemetry import emit
from ..utils.logging import get_logger
from ..utils.timing import latency_summary
from .batcher import BatchRequest, MicroBatcher
from .registry import ModelRegistry

__all__ = ["ServingGateway", "ServeConfig", "Verdict", "CLEAN", "FILTERED"]

_LOG = get_logger("repro.serving.gateway")

_SOURCE = "serving.gateway"

CLEAN = "clean"
FILTERED = "filtered-as-triggered"


@dataclass(frozen=True)
class ServeConfig:
    """Gateway tuning knobs (see DESIGN.md §11)."""

    max_batch: int = 32
    # Admission control: bound on accepted-but-unresolved requests; a
    # submit over the bound raises QueueFullError (HTTP: 503 + Retry-After).
    max_queue: int = 1024
    strip: bool = False
    strip_overlays: int = 8
    strip_alpha: float = 0.5
    strip_fpr: float = 0.05
    latency_window: int = 2048  # recent per-request latencies kept for stats
    seed: int = 0


@dataclass
class Verdict:
    """Per-request serving result (the gateway's response schema)."""

    label: int
    verdict: str  # CLEAN or FILTERED
    entropy: Optional[float]
    model_key: str
    batch_size: int
    queued_ms: float
    latency_ms: float

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class _ActiveEntry:
    """The currently-served checkpoint and its prepared serving state."""

    key: str
    compiled: CompiledInference
    strip_threshold: Optional[float] = None
    manifest: Dict[str, Any] = field(default_factory=dict)


class ServingGateway:
    """Micro-batched, hot-swappable inference gateway with STRIP filtering.

    Parameters
    ----------
    registry:
        Source of checkpoints.
    alias:
        Registry alias this gateway follows; ``swap()`` with no argument
        re-resolves it.
    config:
        Batching/filtering knobs.
    clean_pool:
        Clean images for STRIP blending and threshold calibration; required
        when ``config.strip`` is on.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        alias: str = "default",
        config: Optional[ServeConfig] = None,
        clean_pool: Optional[ImageDataset] = None,
    ) -> None:
        self.registry = registry
        self.alias = alias
        self.config = config or ServeConfig()
        if self.config.strip and clean_pool is None:
            raise ValueError("STRIP filtering needs a clean_pool to blend with")
        self.clean_pool = clean_pool
        self._rng = np.random.default_rng(self.config.seed)
        self._model_lock = threading.Lock()
        self._active: Optional[_ActiveEntry] = None
        self._batcher: Optional[MicroBatcher] = None
        self._example: Optional[np.ndarray] = None
        self._latencies: deque = deque(maxlen=self.config.latency_window)
        self._served = 0
        self._filtered = 0
        self._swaps = 0
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingGateway":
        """Resolve the alias, prepare the checkpoint, start draining."""
        if self._batcher is not None:
            raise RuntimeError("gateway already started")
        entry = self._prepare(self._resolve_alias())
        with self._model_lock:
            self._active = entry
        self._batcher = MicroBatcher(
            self._process_batch,
            max_batch=self.config.max_batch,
            max_queue=self.config.max_queue,
            name=f"serve-{self.alias}",
        ).start()
        self._started_at = time.perf_counter()
        _LOG.info("serving %s (alias=%s, strip=%s)", entry.key, self.alias, self.config.strip)
        emit(
            "serving_started", _SOURCE,
            alias=self.alias, model_key=entry.key, strip=self.config.strip,
            max_batch=self.config.max_batch, max_queue=self.config.max_queue,
        )
        return self

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Drain the queue (every accepted request resolves), then stop."""
        if self._batcher is not None:
            self._batcher.close(timeout=timeout)
            emit("serving_stopped", _SOURCE, alias=self.alias, served=self._served)

    def __enter__(self) -> "ServingGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, image: np.ndarray) -> "Future":
        """Queue one ``(C, H, W)`` image; future resolves to a :class:`Verdict`.

        The image must have the shape the gateway warmed its checkpoint
        with: requests share micro-batches, so an off-shape image would
        fail every request stacked with it.
        """
        if self._batcher is None:
            raise RuntimeError("gateway not started")
        image = np.asarray(image, dtype=np.float32)
        if image.ndim == 4 and image.shape[0] == 1:
            image = image[0]
        expected = self._example.shape[1:]
        if image.shape != expected:
            raise ValueError(
                f"expected one (C, H, W) image of shape {expected}, got shape {image.shape}"
            )
        return self._batcher.submit(image)

    def classify(self, image: np.ndarray, timeout: Optional[float] = 30.0) -> Verdict:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(image).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Hot-swap
    # ------------------------------------------------------------------
    def swap(self, key: Optional[str] = None) -> bool:
        """Install a checkpoint with zero dropped requests.

        ``key=None`` re-resolves the gateway's alias.  Returns True when a
        new checkpoint was installed, False when already serving it.  All
        preparation (load, fold, warm, STRIP recalibration) happens before
        the model lock is taken, so the request path is only paused for a
        pointer assignment.
        """
        key = key if key is not None else self._resolve_alias()
        current = self._active
        if current is not None and current.key == key:
            return False
        entry = self._prepare(key)
        with self._model_lock:
            previous, self._active = self._active, entry
            self._swaps += 1
        _LOG.info("hot-swapped %s -> %s", previous.key if previous else None, entry.key)
        emit(
            "swap", _SOURCE,
            alias=self.alias, previous=previous.key if previous else None,
            model_key=entry.key,
        )
        return True

    @property
    def active_key(self) -> Optional[str]:
        entry = self._active
        return entry.key if entry is not None else None

    def _resolve_alias(self) -> str:
        key = self.registry.resolve(self.alias)
        if key is None:
            raise KeyError(f"registry has no checkpoint under alias {self.alias!r}")
        return key

    def _prepare(self, key: str) -> _ActiveEntry:
        """Load + fold + warm + (optionally) calibrate, off the request path."""
        registered = self.registry.load(key)
        example = self._example_input(registered.manifest)
        # Trace and warm under the model lock: the drain thread may be
        # mid-batch on the old model, and a forward (the fold trace included)
        # writes scratch into the process-wide nn workspace and flips the
        # global no_grad flag.  Two forwards at once would overwrite each
        # other's scratch slabs, and interleaved no_grad exits can leave
        # gradients disabled for the whole process.
        with self._model_lock:
            compiled = CompiledInference(registered.model, Tensor(example[:1]))
            compiled.warmup(Tensor(example))
        threshold = None
        if self.config.strip:
            threshold = self._calibrate_strip(compiled)
        return _ActiveEntry(
            key=registered.key,
            compiled=compiled,
            strip_threshold=threshold,
            manifest=registered.manifest,
        )

    def _example_input(self, manifest: Dict[str, Any]) -> np.ndarray:
        if self._example is None:
            if self.clean_pool is not None and len(self.clean_pool):
                shape = self.clean_pool.images.shape[1:]
            else:
                manifest_shape = manifest.get("metadata", {}).get("image_shape")
                shape = tuple(manifest_shape) if manifest_shape else (3, 32, 32)
            batch = min(self.config.max_batch, 8)
            self._example = np.zeros((batch, *shape), dtype=np.float32)
        return self._example

    def _calibrate_strip(self, compiled: CompiledInference) -> float:
        """Entropy threshold at the configured clean false-positive rate.

        Calibration is per-checkpoint: the same clean pool yields different
        entropy distributions under different weights, so the threshold is
        recomputed on every swap (off-path, like the rest of preparation).
        Uses the same shared-overlay form as serving so the calibrated
        threshold matches the on-path entropy distribution.
        """
        pool = self.clean_pool.images
        overlay_idx = self._rng.integers(0, len(pool), size=self.config.strip_overlays)
        with self._model_lock:
            scores = strip_entropy_scores(
                compiled, pool, pool, overlay_idx, self.config.strip_alpha
            )
        return float(np.quantile(scores, self.config.strip_fpr))

    # ------------------------------------------------------------------
    # Batch execution (drain thread)
    # ------------------------------------------------------------------
    def _process_batch(self, requests: List[BatchRequest]) -> None:
        batch = np.stack([r.payload for r in requests]).astype(np.float32, copy=False)
        start = time.perf_counter()
        with self._model_lock:
            entry = self._active
            logits = entry.compiled(Tensor(batch)).data
            entropies: Optional[np.ndarray] = None
            if entry.strip_threshold is not None:
                pool = self.clean_pool.images
                # One shared overlay set per micro-batch: a single
                # (overlays, C, H, W) gather instead of an (overlays, batch)
                # index table, so the blend broadcasts instead of fancy-
                # indexing overlays * batch pool rows.
                overlay_idx = self._rng.integers(0, len(pool), size=self.config.strip_overlays)
                entropies = strip_entropy_scores(
                    entry.compiled, batch, pool, overlay_idx, self.config.strip_alpha
                )
        elapsed_ms = (time.perf_counter() - start) * 1e3
        labels = logits.argmax(axis=-1)
        flagged = (
            entropies < entry.strip_threshold
            if entropies is not None
            else np.zeros(len(batch), dtype=bool)
        )
        for i, request in enumerate(requests):
            verdict = Verdict(
                label=int(labels[i]),
                verdict=FILTERED if flagged[i] else CLEAN,
                entropy=float(entropies[i]) if entropies is not None else None,
                model_key=entry.key,
                batch_size=len(batch),
                queued_ms=request.queued_ms,
                latency_ms=request.queued_ms + elapsed_ms,
            )
            request.future.set_result(verdict)
        self._latencies.extend(r.queued_ms + elapsed_ms for r in requests)
        self._served += len(requests)
        self._filtered += int(flagged.sum())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Live serving telemetry (shares percentile code with the benches)."""
        uptime = (
            time.perf_counter() - self._started_at if self._started_at is not None else 0.0
        )
        payload: Dict[str, Any] = {
            "alias": self.alias,
            "model_key": self.active_key,
            "strip": self.config.strip,
            "served": self._served,
            "filtered": self._filtered,
            "swaps": self._swaps,
            "uptime_s": uptime,
            "throughput_per_s": (self._served / uptime) if uptime > 0 else 0.0,
            "latency_ms": latency_summary(list(self._latencies)),
            "engine_totals": dict(engine().totals),
        }
        if self._batcher is not None:
            payload["batcher"] = self._batcher.stats()
        return payload
