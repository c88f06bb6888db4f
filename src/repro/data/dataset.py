"""Dataset containers and minibatch loading."""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ImageDataset", "DataLoader"]


class ImageDataset:
    """In-memory labeled image dataset.

    Parameters
    ----------
    images:
        Array of shape ``(N, C, H, W)``, float32, values in [0, 1].
    labels:
        Integer class labels of shape ``(N,)``.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray) -> None:
        images = np.asarray(images, dtype=np.float32)
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got shape {images.shape}")
        if len(images) != len(labels):
            raise ValueError(f"images ({len(images)}) and labels ({len(labels)}) disagree")
        self.images = images
        self.labels = labels

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        return self.images[index], self.labels[index]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return tuple(self.images.shape[1:])

    def subset(self, indices: Sequence[int]) -> "ImageDataset":
        """Return a new dataset restricted to ``indices`` (copies)."""
        indices = np.asarray(indices, dtype=np.int64)
        return ImageDataset(self.images[indices].copy(), self.labels[indices].copy())

    def concat(self, other: "ImageDataset") -> "ImageDataset":
        """Concatenate two datasets."""
        return ImageDataset(
            np.concatenate([self.images, other.images], axis=0),
            np.concatenate([self.labels, other.labels], axis=0),
        )

    def class_counts(self) -> np.ndarray:
        """Samples per class (length = num_classes)."""
        return np.bincount(self.labels, minlength=self.num_classes)


class DataLoader:
    """Iterate minibatches of (images, labels).

    Parameters
    ----------
    dataset:
        Source :class:`ImageDataset`.
    batch_size:
        Number of samples per batch.
    shuffle:
        Reshuffle at the start of every epoch.
    rng:
        Generator for shuffling (deterministic when provided).
    """

    def __init__(
        self,
        dataset: ImageDataset,
        batch_size: int = 32,
        shuffle: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng if rng is not None else np.random.default_rng()

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self.rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            yield self.dataset[order[start : start + self.batch_size]]
