"""Tests for filter enumeration, pruning, restoring, and masking."""

import numpy as np
import pytest

from repro.models import (
    FilterRef,
    PruningMask,
    count_filters,
    iter_conv_layers,
    prune_filter,
    restore_filter,
)
from repro.nn import SGD, Conv2d, Module, Sequential, Tensor, cross_entropy


def make_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(3, 4, 3, padding=1, rng=rng),
        Conv2d(4, 6, 3, padding=1, rng=rng),
    )


class TestEnumeration:
    def test_iter_conv_layers_names(self):
        net = make_net()
        names = [name for name, _ in iter_conv_layers(net)]
        assert names == ["0", "1"]

    def test_count_filters(self):
        assert count_filters(make_net()) == 10

    def test_nested_names(self):
        class Wrap(Module):
            def __init__(self):
                super().__init__()
                self.body = make_net()

            def forward(self, x):
                return self.body(x)

        names = [name for name, _ in iter_conv_layers(Wrap())]
        assert names == ["body.0", "body.1"]


class TestPruneRestore:
    def test_prune_zeroes_weight_and_bias(self):
        net = make_net()
        ref = FilterRef("0", 1)
        prune_filter(net, ref)
        assert np.all(net[0].weight.data[1] == 0)
        assert net[0].bias.data[1] == 0

    def test_other_filters_untouched(self):
        net = make_net()
        before = net[0].weight.data[0].copy()
        prune_filter(net, FilterRef("0", 1))
        assert np.array_equal(net[0].weight.data[0], before)

    def test_restore_round_trip(self):
        net = make_net()
        original = net[0].weight.data[2].copy()
        saved = prune_filter(net, FilterRef("0", 2))
        restore_filter(net, FilterRef("0", 2), saved)
        assert np.array_equal(net[0].weight.data[2], original)

    def test_bad_layer_raises(self):
        with pytest.raises(KeyError):
            prune_filter(make_net(), FilterRef("99", 0))

    def test_bad_index_raises(self):
        with pytest.raises(IndexError):
            prune_filter(make_net(), FilterRef("0", 50))

    def test_pruned_filter_kills_output_channel(self):
        net = make_net()
        net.eval()
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 5, 5)).astype(np.float32))
        prune_filter(net, FilterRef("0", 0))
        out = net[0](x)
        assert np.all(out.data[:, 0] == 0)


class TestPruningMask:
    def test_len_and_sparsity(self):
        net = make_net()
        mask = PruningMask(net)
        assert len(mask) == 0
        mask.prune(FilterRef("0", 0))
        mask.prune(FilterRef("1", 3))
        assert len(mask) == 2
        assert mask.sparsity() == pytest.approx(0.2)

    def test_unprune_forgets(self):
        net = make_net()
        mask = PruningMask(net)
        ref = FilterRef("0", 1)
        saved = mask.prune(ref)
        mask.unprune(ref, saved)
        assert ref not in mask.pruned_refs
        assert len(mask) == 0

    def test_apply_rezeroes_after_training_step(self):
        net = make_net()
        mask = PruningMask(net)
        mask.prune(FilterRef("0", 0))
        # One SGD step regrows the filter via its gradient...
        opt = SGD(net.parameters(), lr=0.5)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3, 5, 5)).astype(np.float32))
        out = net(x).mean(axis=(2, 3))
        cross_entropy(out, np.array([0, 1, 2, 3])).backward()
        opt.step()
        assert not np.all(net[0].weight.data[0] == 0)
        # ...and apply() restores the prune.
        mask.apply()
        assert np.all(net[0].weight.data[0] == 0)
        assert net[0].bias.data[0] == 0

    def test_pruned_refs_listing(self):
        net = make_net()
        mask = PruningMask(net)
        mask.prune(FilterRef("0", 2))
        mask.prune(FilterRef("1", 5))
        refs = {str(r) for r in mask.pruned_refs}
        assert refs == {"0[2]", "1[5]"}
