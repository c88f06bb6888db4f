"""Tests for the compile-for-inference pass (conv–BN folding)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.preact_resnet import PreActResNet18
from repro.models.pruning_utils import FilterRef, PruningMask
from repro.models.vgg import vgg19_bn
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tensor,
    compile_for_inference,
    no_grad,
)
from repro.nn.inference import fold_conv_bn_arrays, trace_conv_bn_pairs


class ConvBNNet(Module):
    """conv→BN→relu twice, second conv grouped; every pair is foldable."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.conv1 = Conv2d(3, 8, 3, padding=1, rng=rng)
        self.bn1 = BatchNorm2d(8)
        self.conv2 = Conv2d(8, 8, 3, padding=1, groups=2, rng=rng)
        self.bn2 = BatchNorm2d(8)
        self.relu = ReLU()
        self.fc = Linear(8 * 8 * 8, 5, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        h = self.relu(self.bn1(self.conv1(x)))
        h = self.relu(self.bn2(self.conv2(h)))
        return self.fc(h.reshape(h.shape[0], -1))


def _randomize_bn(model: Module, seed: int = 7) -> None:
    """Give BN layers non-trivial statistics so folding actually does work."""
    rng = np.random.default_rng(seed)
    for _, module in model.named_modules():
        if isinstance(module, BatchNorm2d):
            c = module.num_features
            module.running_mean[:] = rng.standard_normal(c).astype(np.float32)
            module.running_var[:] = (0.5 + rng.uniform(0.1, 2.0, c)).astype(np.float32)
            module.weight.data[:] = rng.standard_normal(c).astype(np.float32)
            module.bias.data[:] = rng.standard_normal(c).astype(np.float32)


@pytest.fixture()
def net():
    model = ConvBNNet()
    _randomize_bn(model)
    model.eval()
    return model


@pytest.fixture()
def batch():
    rng = np.random.default_rng(3)
    return rng.standard_normal((4, 3, 8, 8)).astype(np.float32)


def _reference(model, x):
    with no_grad():
        return model(Tensor(x)).data


class TestFoldArrays:
    def test_folded_arrays_match_bn_affine(self, net):
        weight, bias = fold_conv_bn_arrays(net.conv1, net.bn1)
        scale = net.bn1.weight.data / np.sqrt(net.bn1.running_var + net.bn1.eps)
        expected_w = net.conv1.weight.data * scale.reshape(-1, 1, 1, 1)
        expected_b = net.bn1.bias.data - net.bn1.running_mean * scale
        expected_b = expected_b + scale * net.conv1.bias.data
        np.testing.assert_allclose(weight, expected_w, rtol=1e-6)
        np.testing.assert_allclose(bias, expected_b, rtol=1e-5, atol=1e-6)
        assert weight.dtype == np.float32
        assert bias.dtype == np.float32


class TestTracing:
    def test_finds_all_pairs_in_conv_bn_net(self, net, batch):
        pairs = trace_conv_bn_pairs(net, Tensor(batch[:1]))
        assert [(id(c), id(b)) for c, b in pairs] == [
            (id(net.conv1), id(net.bn1)),
            (id(net.conv2), id(net.bn2)),
        ]

    def test_preact_resnet_folds_cross_block_pairs(self):
        # Pre-activation blocks run BN before conv, so no conv feeds "its own"
        # BN — but each block's conv1 output is consumed solely by bn2
        # (out = conv2(bn2(conv1(out)).relu())), which the tracer folds.
        model = PreActResNet18(num_classes=3, base_width=4)
        model.eval()
        x = np.zeros((1, 3, 32, 32), dtype=np.float32)
        pairs = trace_conv_bn_pairs(model, Tensor(x))
        assert len(pairs) == len(model.blocks)
        for conv, bn in pairs:
            assert conv.bias is None  # preact convs are bias-free
            assert bn.num_features == conv.out_channels

    def test_preact_resnet_compiled_matches_reference(self):
        model = PreActResNet18(num_classes=3, base_width=4)
        _randomize_bn(model)
        model.eval()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        reference = _reference(model, x)
        compiled = compile_for_inference(model, Tensor(x[:1]))
        assert compiled.num_folded == len(model.blocks)
        np.testing.assert_allclose(
            compiled(Tensor(x)).data, reference, rtol=1e-4, atol=1e-5
        )

    def test_vgg19_bn_folds_every_conv(self):
        model = vgg19_bn(num_classes=3, width_mult=0.125)
        model.eval()
        x = np.zeros((1, 3, 32, 32), dtype=np.float32)
        pairs = trace_conv_bn_pairs(model, Tensor(x))
        num_convs = sum(
            1 for _, m in model.named_modules() if isinstance(m, Conv2d)
        )
        assert len(pairs) == num_convs

    def test_trace_restores_forward_methods(self, net, batch):
        trace_conv_bn_pairs(net, Tensor(batch[:1]))
        assert "forward" not in net.conv1.__dict__
        assert "forward" not in net.__dict__


class TestCompiledInference:
    def test_matches_reference_output(self, net, batch):
        reference = _reference(net, batch)
        compiled = compile_for_inference(net, Tensor(batch[:1]))
        assert compiled.num_folded == 2
        out = compiled(Tensor(batch)).data
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)

    def test_model_parameters_untouched_after_call(self, net, batch):
        weight_before = net.conv1.weight.data.copy()
        bias_obj = net.conv1.bias
        compiled = compile_for_inference(net, Tensor(batch[:1]))
        compiled(Tensor(batch))
        np.testing.assert_array_equal(net.conv1.weight.data, weight_before)
        assert net.conv1.bias is bias_obj
        assert not net.bn1._folded_passthrough
        # plain forward still applies the (un-folded) BN
        np.testing.assert_array_equal(_reference(net, batch), _reference(net, batch))

    def test_swap_out_runs_on_error(self, net, batch):
        compiled = compile_for_inference(net, Tensor(batch[:1]))
        compiled(Tensor(batch))  # populate the fold cache
        with pytest.raises(Exception):
            compiled(Tensor(batch[:, :, :1, :1]))  # spatial size too small
        assert net.conv1.bias.requires_grad  # Parameter restored, not the fold Tensor
        assert not net.bn1._folded_passthrough

    def test_train_mode_is_rejected(self, net, batch):
        compiled = compile_for_inference(net, Tensor(batch[:1]))
        with pytest.raises(RuntimeError):
            compiled.train()
        assert compiled.eval() is compiled

    def test_accepts_raw_arrays(self, net, batch):
        compiled = compile_for_inference(net, batch[:1])
        out = compiled(batch)
        np.testing.assert_allclose(out.data, _reference(net, batch), rtol=1e-4, atol=1e-5)


class TestInvalidation:
    def test_prune_unprune_roundtrip_invalidate(self, net, batch):
        compiled = compile_for_inference(net, Tensor(batch[:1]))
        baseline = compiled(Tensor(batch)).data

        mask = PruningMask(net)
        target = FilterRef("conv1", 2)
        saved = mask.prune(target)
        pruned_out = compiled(Tensor(batch)).data
        np.testing.assert_allclose(
            pruned_out, _reference(net, batch), rtol=1e-4, atol=1e-5
        )
        assert not np.allclose(pruned_out, baseline)

        mask.unprune(target, saved)
        restored_out = compiled(Tensor(batch)).data
        np.testing.assert_allclose(restored_out, baseline, rtol=1e-5, atol=1e-6)

    def test_mask_apply_invalidates(self, net, batch):
        compiled = compile_for_inference(net, Tensor(batch[:1]))
        compiled(Tensor(batch))
        assert compiled._folded is not None
        mask = PruningMask(net)
        mask.prune(FilterRef("conv2", 1))
        assert compiled._folded is None  # dropped before the mutation landed
        mask.apply()
        assert compiled._folded is None

    def test_direct_mutation_needs_manual_invalidate(self, net, batch):
        # Documented contract: out-of-band weight edits require invalidate().
        compiled = compile_for_inference(net, Tensor(batch[:1]))
        compiled(Tensor(batch))
        net.conv1.weight.data *= 2.0
        compiled.invalidate()
        out = compiled(Tensor(batch)).data
        np.testing.assert_allclose(out, _reference(net, batch), rtol=1e-4, atol=1e-5)


class TestSequentialModels:
    def test_sequential_conv_bn_folds(self, batch):
        rng = np.random.default_rng(11)
        model = Sequential(
            Conv2d(3, 6, 3, padding=1, rng=rng),
            BatchNorm2d(6),
            ReLU(),
        )
        _randomize_bn(model)
        model.eval()
        reference = _reference(model, batch)
        compiled = compile_for_inference(model, Tensor(batch[:1]))
        assert compiled.num_folded == 1
        np.testing.assert_allclose(
            compiled(Tensor(batch)).data, reference, rtol=1e-4, atol=1e-5
        )
