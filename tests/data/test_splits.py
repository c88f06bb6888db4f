"""SPC sampling and defender-split protocol tests (paper §V-B)."""

import numpy as np
import pytest

from repro.data import ImageDataset, defender_split, spc_subset


def make_dataset(per_class=20, num_classes=5, seed=0):
    n = per_class * num_classes
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), per_class)
    rng.shuffle(labels)
    return ImageDataset(rng.uniform(0, 1, (n, 3, 4, 4)).astype(np.float32), labels)


class TestSpcSubset:
    def test_exact_samples_per_class(self):
        subset = spc_subset(make_dataset(), spc=3, rng=np.random.default_rng(0))
        assert subset.class_counts().tolist() == [3] * 5

    def test_no_replacement(self):
        ds = make_dataset(per_class=4)
        subset = spc_subset(ds, spc=4, rng=np.random.default_rng(0))
        # Drawing all samples per class: every original index used once.
        assert len(subset) == 20

    def test_insufficient_class_raises(self):
        with pytest.raises(ValueError, match="cannot draw"):
            spc_subset(make_dataset(per_class=2), spc=5)

    def test_nonpositive_spc_raises(self):
        with pytest.raises(ValueError):
            spc_subset(make_dataset(), spc=0)

    def test_deterministic_with_rng(self):
        ds = make_dataset()
        a = spc_subset(ds, 2, np.random.default_rng(7))
        b = spc_subset(ds, 2, np.random.default_rng(7))
        assert np.array_equal(a.images, b.images)


class TestDefenderSplit:
    def test_spc2_one_and_one(self):
        train, val = defender_split(make_dataset(), spc=2, rng=np.random.default_rng(0))
        assert train.class_counts().tolist() == [1] * 5
        assert val.class_counts().tolist() == [1] * 5

    def test_spc10_stratified_ten_percent(self):
        train, val = defender_split(make_dataset(), spc=10, rng=np.random.default_rng(0))
        assert train.class_counts().tolist() == [9] * 5
        assert val.class_counts().tolist() == [1] * 5

    def test_spc100_split(self):
        ds = make_dataset(per_class=120, num_classes=3)
        train, val = defender_split(ds, spc=100, rng=np.random.default_rng(0))
        assert train.class_counts().tolist() == [90] * 3
        assert val.class_counts().tolist() == [10] * 3

    def test_total_budget_respected(self):
        train, val = defender_split(make_dataset(), spc=4, rng=np.random.default_rng(2))
        assert len(train) + len(val) == 4 * 5

    def test_different_rng_different_subset(self):
        ds = make_dataset()
        t1, _ = defender_split(ds, 2, np.random.default_rng(1))
        t2, _ = defender_split(ds, 2, np.random.default_rng(2))
        assert not np.array_equal(t1.images, t2.images)
