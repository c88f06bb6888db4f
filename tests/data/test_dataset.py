"""Dataset container and DataLoader tests."""

import numpy as np
import pytest

from repro.data import DataLoader, ImageDataset


def make_dataset(n=20, num_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.uniform(0, 1, (n, 3, 4, 4)).astype(np.float32)
    labels = np.arange(n) % num_classes
    return ImageDataset(images, labels)


class TestImageDataset:
    def test_length_and_shapes(self):
        ds = make_dataset(10)
        assert len(ds) == 10
        assert ds.image_shape == (3, 4, 4)
        assert ds.num_classes == 4

    def test_bad_ndim_raises(self):
        with pytest.raises(ValueError, match="N, C, H, W"):
            ImageDataset(np.zeros((5, 4, 4)), np.zeros(5))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="disagree"):
            ImageDataset(np.zeros((5, 3, 4, 4)), np.zeros(4))

    def test_subset_copies(self):
        ds = make_dataset()
        sub = ds.subset([0, 1])
        sub.images[0] = 0.0
        assert not np.all(ds.images[0] == 0.0)

    def test_concat(self):
        a = make_dataset(5)
        b = make_dataset(7, seed=1)
        c = a.concat(b)
        assert len(c) == 12
        assert np.array_equal(c.images[:5], a.images)

    def test_class_counts(self):
        ds = make_dataset(8, num_classes=4)
        assert ds.class_counts().tolist() == [2, 2, 2, 2]

    def test_getitem_fancy(self):
        ds = make_dataset()
        images, labels = ds[np.array([1, 3])]
        assert images.shape == (2, 3, 4, 4)
        assert labels.shape == (2,)


class TestDataLoader:
    def test_batch_count(self):
        loader = DataLoader(make_dataset(10), batch_size=3)
        assert len(loader) == 4
        assert sum(1 for _ in loader) == 4

    def test_covers_all_samples(self):
        loader = DataLoader(make_dataset(10), batch_size=4, shuffle=True,
                            rng=np.random.default_rng(0))
        seen = np.concatenate([labels for _, labels in loader])
        assert len(seen) == 10

    def test_shuffle_deterministic_per_rng(self):
        ds = make_dataset(16)
        a = [l.tolist() for _, l in DataLoader(ds, 4, True, np.random.default_rng(5))]
        b = [l.tolist() for _, l in DataLoader(ds, 4, True, np.random.default_rng(5))]
        assert a == b

    def test_shuffle_changes_order_between_epochs(self):
        ds = make_dataset(32)
        loader = DataLoader(ds, 32, shuffle=True, rng=np.random.default_rng(0))
        first = next(iter(loader))[1].tolist()
        second = next(iter(loader))[1].tolist()
        assert first != second

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(make_dataset(), batch_size=0)
