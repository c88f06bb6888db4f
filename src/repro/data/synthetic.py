"""Synthetic image classification datasets.

The paper evaluates on CIFAR-10 and GTSRB.  Neither can be downloaded in
this offline environment, so we generate procedural stand-ins (DESIGN.md §2):

``SynthCIFAR``
    10 classes of textured natural-image-like 32x32 RGB fields.  Each class
    owns a small bank of smooth random prototypes (low-frequency Fourier
    fields with a class-specific palette); a sample is a randomly chosen
    prototype under a random circular shift, optional horizontal flip,
    brightness/contrast jitter, and pixel noise.

``SynthGTSRB``
    Traffic-sign-like classes: a colored geometric glyph (disc, triangle,
    square, diamond, ring, ...) with class-keyed colors and an inner marking,
    on a cluttered background, under the same augmentations (no flip — signs
    are chiral).

What matters for backdoor research is preserved: the clean task is learnable
(>90 % test accuracy with the quick-profile models), samples have intra-class
variation, and triggers embed exactly as in the paper (pixel patches, blends,
frequency-domain perturbations, quantization).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .dataset import ImageDataset

__all__ = ["make_synth_cifar", "make_synth_gtsrb", "SynthSpec"]


class SynthSpec:
    """Bundled configuration for a synthetic dataset build."""

    def __init__(
        self,
        num_classes: int,
        image_size: int = 32,
        prototypes_per_class: int = 3,
        noise_std: float = 0.04,
        max_shift: int = 3,
        allow_flip: bool = True,
    ) -> None:
        self.num_classes = num_classes
        self.image_size = image_size
        self.prototypes_per_class = prototypes_per_class
        self.noise_std = noise_std
        self.max_shift = max_shift
        self.allow_flip = allow_flip


def _smooth_field(rng: np.random.Generator, size: int, cutoff: int = 5) -> np.ndarray:
    """Low-frequency random field in [0, 1], shape (size, size)."""
    spectrum = np.zeros((size, size), dtype=np.complex128)
    for u in range(-cutoff, cutoff + 1):
        for v in range(-cutoff, cutoff + 1):
            amplitude = rng.normal() / (1.0 + u * u + v * v)
            phase = rng.uniform(0, 2 * np.pi)
            spectrum[u % size, v % size] = amplitude * np.exp(1j * phase)
    field = np.fft.ifft2(spectrum).real
    field = field - field.min()
    peak = field.max()
    if peak > 0:
        field = field / peak
    return field


def _cifar_prototype(rng: np.random.Generator, size: int) -> np.ndarray:
    """One class prototype: three correlated smooth fields with a palette."""
    base = _smooth_field(rng, size)
    palette = rng.uniform(0.2, 1.0, size=(3,))
    offsets = rng.uniform(-0.15, 0.15, size=(3,))
    channels = []
    for c in range(3):
        detail = _smooth_field(rng, size, cutoff=7)
        channel = np.clip(palette[c] * (0.7 * base + 0.3 * detail) + offsets[c], 0.0, 1.0)
        channels.append(channel)
    return np.stack(channels).astype(np.float32)


def _glyph_mask(shape_id: int, size: int) -> np.ndarray:
    """Binary mask of a sign glyph centred in a (size, size) canvas."""
    yy, xx = np.mgrid[0:size, 0:size]
    cy = cx = (size - 1) / 2.0
    r = size * 0.38
    if shape_id == 0:  # disc
        return ((yy - cy) ** 2 + (xx - cx) ** 2 <= r * r).astype(np.float32)
    if shape_id == 1:  # upward triangle
        return ((yy - cy) >= -r) & ((yy - cy) <= r) & (
            np.abs(xx - cx) <= (yy - cy + r) * 0.5
        )
    if shape_id == 2:  # square
        return (np.abs(yy - cy) <= r * 0.85) & (np.abs(xx - cx) <= r * 0.85)
    if shape_id == 3:  # diamond
        return (np.abs(yy - cy) + np.abs(xx - cx)) <= r * 1.2
    if shape_id == 4:  # ring
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        return (d2 <= r * r) & (d2 >= (r * 0.55) ** 2)
    if shape_id == 5:  # downward triangle
        return ((yy - cy) >= -r) & ((yy - cy) <= r) & (
            np.abs(xx - cx) <= (r - (yy - cy)) * 0.5
        )
    if shape_id == 6:  # horizontal bar
        return (np.abs(yy - cy) <= r * 0.4) & (np.abs(xx - cx) <= r)
    # vertical bar
    return (np.abs(yy - cy) <= r) & (np.abs(xx - cx) <= r * 0.4)


def _gtsrb_prototype(rng: np.random.Generator, size: int, class_index: int) -> np.ndarray:
    """Sign-like prototype: glyph + inner marking on a cluttered background."""
    background = np.stack([_smooth_field(rng, size, cutoff=4) * 0.5 for _ in range(3)])
    shape_id = class_index % 8
    mask = _glyph_mask(shape_id, size).astype(np.float32)
    sign_color = rng.uniform(0.4, 1.0, size=(3,))
    # Class-keyed hue rotation so same-shape classes still differ.
    roll = (class_index // 8) % 3
    sign_color = np.roll(sign_color, roll)
    image = background.copy()
    for c in range(3):
        image[c] = image[c] * (1 - mask) + sign_color[c] * mask
    # Inner marking: a smaller contrasting glyph.
    inner = _glyph_mask((shape_id + 3) % 8, size).astype(np.float32)
    shrink = inner * mask
    inner_color = 1.0 - sign_color
    for c in range(3):
        image[c] = image[c] * (1 - 0.8 * shrink) + inner_color[c] * 0.8 * shrink
    return np.clip(image, 0.0, 1.0).astype(np.float32)


def _augment(
    prototype: np.ndarray, rng: np.random.Generator, spec: SynthSpec
) -> np.ndarray:
    """Apply shift / flip / photometric jitter / noise to a prototype."""
    image = prototype
    if spec.max_shift:
        dy, dx = rng.integers(-spec.max_shift, spec.max_shift + 1, size=2)
        image = np.roll(image, (int(dy), int(dx)), axis=(1, 2))
    if spec.allow_flip and rng.random() < 0.5:
        image = image[:, :, ::-1]
    brightness = rng.uniform(-0.1, 0.1)
    contrast = rng.uniform(0.85, 1.15)
    image = (image - 0.5) * contrast + 0.5 + brightness
    image = image + rng.normal(0.0, spec.noise_std, size=image.shape)
    return np.clip(image, 0.0, 1.0).astype(np.float32)


def _build(
    n_train: int,
    n_test: int,
    spec: SynthSpec,
    seed: int,
    prototype_fn,
) -> Tuple[ImageDataset, ImageDataset]:
    proto_rng = np.random.default_rng(seed)
    prototypes = {
        cls: [
            prototype_fn(proto_rng, spec.image_size, cls)
            for _ in range(spec.prototypes_per_class)
        ]
        for cls in range(spec.num_classes)
    }

    def sample_split(n: int, rng: np.random.Generator) -> ImageDataset:
        labels = np.arange(n) % spec.num_classes
        rng.shuffle(labels)
        images = np.empty((n, 3, spec.image_size, spec.image_size), dtype=np.float32)
        for i, cls in enumerate(labels):
            proto = prototypes[int(cls)][rng.integers(spec.prototypes_per_class)]
            images[i] = _augment(proto, rng, spec)
        return ImageDataset(images, labels)

    train = sample_split(n_train, np.random.default_rng(seed + 1))
    test = sample_split(n_test, np.random.default_rng(seed + 2))
    return train, test


def make_synth_cifar(
    n_train: int = 2000,
    n_test: int = 500,
    num_classes: int = 10,
    image_size: int = 32,
    seed: int = 0,
) -> Tuple[ImageDataset, ImageDataset]:
    """Build the SynthCIFAR train/test pair (natural-texture-like classes)."""
    spec = SynthSpec(num_classes=num_classes, image_size=image_size, allow_flip=True)

    def proto(rng: np.random.Generator, size: int, _cls: int) -> np.ndarray:
        return _cifar_prototype(rng, size)

    return _build(n_train, n_test, spec, seed, proto)


def make_synth_gtsrb(
    n_train: int = 2000,
    n_test: int = 500,
    num_classes: int = 12,
    image_size: int = 32,
    seed: int = 0,
) -> Tuple[ImageDataset, ImageDataset]:
    """Build the SynthGTSRB train/test pair (traffic-sign-like classes).

    GTSRB has 43 classes; the quick profile defaults to 12 (all eight glyph
    shapes plus hue-rotated repeats) to keep CPU runtimes short.  Pass
    ``num_classes=43`` for the full-width variant.
    """
    spec = SynthSpec(
        num_classes=num_classes, image_size=image_size, allow_flip=False, noise_std=0.05
    )
    return _build(n_train, n_test, spec, seed, _gtsrb_prototype)
