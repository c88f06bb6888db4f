"""Low-Frequency attack (Zeng et al., 2021): frequency-domain trigger.

Zeng et al. observe that many patch triggers leave high-frequency artifacts
and propose triggers living in the *low*-frequency band, which survive
smoothing and are visually subtle.  We implement the trigger as a fixed
perturbation whose DCT support is restricted to the lowest ``cutoff``
frequencies in each spatial dimension, added to the image with bounded
amplitude (L-infinity style), exactly the code path the paper's "LF" rows
exercise.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .base import BackdoorAttack

__all__ = ["LowFrequencyAttack"]


def _dct_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix ``D``: ``D @ x`` transforms ``x``, ``D.T @ X`` inverts it."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    basis[0] /= np.sqrt(2.0)
    return basis


def _make_lf_perturbation(
    shape: Tuple[int, int, int], cutoff: int, amplitude: float, seed: int
) -> np.ndarray:
    """Fixed perturbation with only low-frequency DCT coefficients."""
    c, h, w = shape
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((c, h, w), dtype=np.float64)
    coeffs[:, :cutoff, :cutoff] = rng.normal(size=(c, cutoff, cutoff))
    # Zero the DC term: a uniform brightness shift would be a degenerate trigger.
    coeffs[:, 0, 0] = 0.0
    spatial = _dct_basis(h).T @ coeffs @ _dct_basis(w)
    peak = np.abs(spatial).max()
    if peak > 0:
        spatial = spatial / peak * amplitude
    return spatial.astype(np.float32)


class LowFrequencyAttack(BackdoorAttack):
    """Additive low-frequency trigger.

    Parameters
    ----------
    cutoff:
        DCT coefficients kept per axis, from 2 to ``min(H, W)`` (lower =
        smoother trigger).
    amplitude:
        Maximum absolute pixel perturbation (images live in [0, 1]).
    """

    name = "lf"

    def __init__(
        self,
        target_class: int = 0,
        image_shape: Tuple[int, int, int] = (3, 32, 32),
        cutoff: int = 3,
        amplitude: float = 0.25,
        seed: int = 11,
    ) -> None:
        super().__init__(target_class, image_shape, seed)
        _, h, w = self.image_shape
        # cutoff 1 keeps only the DC term, which is zeroed: no trigger at all.
        if not 2 <= cutoff <= min(h, w):
            raise ValueError(f"cutoff {cutoff} out of range [2, {min(h, w)}] for {h}x{w} images")
        if amplitude <= 0:
            raise ValueError(f"amplitude must be positive, got {amplitude}")
        self.cutoff = cutoff
        self.amplitude = amplitude
        self.perturbation = _make_lf_perturbation(self.image_shape, cutoff, amplitude, seed)

    def apply(self, images: np.ndarray) -> np.ndarray:
        images = self._check(images)
        return np.clip(images + self.perturbation[None], 0.0, 1.0).astype(np.float32)
