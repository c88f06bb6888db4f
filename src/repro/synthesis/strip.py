"""STRIP runtime backdoor-input detection (Gao et al., 2019).

A complementary defense surface to model repair: at inference time, blend
the suspect input with random clean images and measure the *entropy* of the
prediction over the perturbed copies.  A trigger dominates whatever it is
blended with, so triggered inputs keep classifying as the target with low
entropy, while clean inputs become uncertain (high entropy).  Inputs whose
mean entropy falls below a threshold calibrated on clean data are flagged.

Included because the reproduction's defender toolbox (trigger synthesis +
model repair) naturally pairs with input filtering, and because it gives
the evaluation harness a second, independent signal that an attack is
actually embedded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..data.dataset import ImageDataset
from ..nn import Tensor, no_grad
from ..nn.module import Module

__all__ = [
    "StripDetector",
    "StripResult",
    "prediction_entropy",
    "strip_entropy_scores",
]


def prediction_entropy(model: Module, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Shannon entropy (nats) of the softmax prediction per image."""
    model.eval()
    entropies = []
    with no_grad():
        for start in range(0, len(images), batch_size):
            logits = model(Tensor(images[start : start + batch_size]))
            probs = logits.softmax(axis=-1).data
            safe = np.clip(probs, 1e-12, 1.0)
            entropies.append(-(safe * np.log(safe)).sum(axis=-1))
    return np.concatenate(entropies) if entropies else np.empty(0)


def strip_entropy_scores(
    model,
    images: np.ndarray,
    pool: np.ndarray,
    overlay_idx: np.ndarray,
    blend_alpha: float,
    batch_size: int = 256,
) -> np.ndarray:
    """Mean prediction entropy per input over its blended copies, batched.

    All ``num_overlays`` perturbed copies of a chunk of inputs are stacked
    into one ``(chunk * num_overlays, C, H, W)`` batch and pushed through a
    single forward pass, so the model (typically a folded
    :class:`~repro.nn.inference.CompiledInference` riding the batched
    single-GEMM path) amortizes per-call overhead across every overlay —
    the per-overlay Python loop this replaces issued ``num_overlays``
    separate forwards.  Inputs are chunked so the stacked batch stays near
    ``batch_size`` images regardless of ``num_overlays``.

    Parameters
    ----------
    model:
        Classifier callable (``Module`` or ``CompiledInference``).
    images:
        ``(n, C, H, W)`` suspect inputs.
    pool:
        ``(P, C, H, W)`` clean images blended into the suspects.
    overlay_idx:
        Either ``(num_overlays, n)`` — an independent pool row per
        (overlay, input) pair — or ``(num_overlays,)`` — one *shared*
        overlay set blended into every input.  The shared form is what the
        serving gateway uses: one gather of ``num_overlays`` pool images
        per micro-batch instead of ``num_overlays * n`` row lookups, and
        the per-input randomness STRIP needs comes from batching (each
        request lands in a differently-seeded micro-batch).
    blend_alpha:
        Overlay opacity: ``(1 - alpha) * suspect + alpha * clean``.
    """
    images = np.asarray(images, dtype=np.float32)
    n = len(images)
    shared = overlay_idx.ndim == 1
    if shared:
        num_overlays = overlay_idx.shape[0]
        # Gather the shared overlay stack once for the whole call.
        shared_overlays = blend_alpha * pool[overlay_idx][:, None]
    else:
        num_overlays, covered = overlay_idx.shape
        if covered != n:
            raise ValueError(f"overlay_idx covers {covered} inputs, got {n} images")
    scores = np.zeros(n)
    chunk = max(1, batch_size // max(1, num_overlays))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        blended = (1.0 - blend_alpha) * images[None, start:stop]
        if shared:
            blended = blended + shared_overlays
        else:
            blended = blended + blend_alpha * pool[overlay_idx[:, start:stop]]
        np.clip(blended, 0.0, 1.0, out=blended)
        flat = blended.reshape(-1, *images.shape[1:]).astype(np.float32, copy=False)
        entropy = prediction_entropy(model, flat, batch_size=batch_size)
        scores[start:stop] = entropy.reshape(num_overlays, stop - start).mean(axis=0)
    return scores


@dataclass
class StripResult:
    """Per-input STRIP scores and verdicts."""

    entropies: np.ndarray  # mean perturbation entropy per input
    flagged: np.ndarray  # boolean: input deemed triggered
    threshold: float


class StripDetector:
    """Entropy-based triggered-input detector.

    Parameters
    ----------
    model:
        The (possibly backdoored) classifier.
    clean_pool:
        Clean images used both for blending and for threshold calibration.
    num_overlays:
        Blended copies per suspect input.
    blend_alpha:
        Overlay opacity: ``(1 - alpha) * suspect + alpha * clean``.
    false_positive_rate:
        Calibration quantile — the fraction of *clean* inputs the detector
        may flag.
    seed:
        Overlay sampling seed.
    """

    def __init__(
        self,
        model: Module,
        clean_pool: ImageDataset,
        num_overlays: int = 16,
        blend_alpha: float = 0.5,
        false_positive_rate: float = 0.05,
        seed: int = 0,
    ) -> None:
        if len(clean_pool) < 2:
            raise ValueError("STRIP needs a pool of clean images to blend with")
        if not 0.0 < blend_alpha < 1.0:
            raise ValueError(f"blend_alpha must be in (0, 1), got {blend_alpha}")
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError(f"false_positive_rate must be in (0, 1), got {false_positive_rate}")
        self.model = model
        self.clean_pool = clean_pool
        self.num_overlays = num_overlays
        self.blend_alpha = blend_alpha
        self.false_positive_rate = false_positive_rate
        self._rng = np.random.default_rng(seed)
        self._threshold: Optional[float] = None

    def score(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Mean perturbation entropy per input (low = suspicious).

        All overlays ride one stacked forward per chunk — see
        :func:`strip_entropy_scores`.
        """
        images = np.asarray(images, dtype=np.float32)
        pool = self.clean_pool.images
        overlay_idx = self._rng.integers(0, len(pool), size=(self.num_overlays, len(images)))
        return strip_entropy_scores(
            self.model, images, pool, overlay_idx, self.blend_alpha, batch_size=batch_size
        )

    def calibrate(self) -> float:
        """Set the flagging threshold from clean-pool scores; returns it."""
        clean_scores = self.score(self.clean_pool.images)
        self._threshold = float(np.quantile(clean_scores, self.false_positive_rate))
        return self._threshold

    def detect(self, images: np.ndarray) -> StripResult:
        """Score ``images`` and flag those below the calibrated threshold."""
        if self._threshold is None:
            self.calibrate()
        entropies = self.score(images)
        return StripResult(
            entropies=entropies,
            flagged=entropies < self._threshold,
            threshold=self._threshold,
        )
