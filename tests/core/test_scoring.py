"""Filter-scoring tests (paper Eq. 3)."""

import copy

import numpy as np
import pytest

from repro.core import (
    compute_filter_scores,
    filter_scores_from_grads,
    top_filter,
    unlearning_loss_backward,
)
from repro.core import scoring
from repro.models import FilterRef, count_filters, iter_conv_layers
from repro.nn import Conv2d, Sequential, Tensor


class TestScoresFromGrads:
    def test_scores_cover_all_filters(self, backdoored_tiny_model, tiny_test, tiny_attack):
        model = copy.deepcopy(backdoored_tiny_model)
        backdoor_set = tiny_attack.triggered_with_true_labels(tiny_test)
        scores, loss = compute_filter_scores(model, backdoor_set)
        assert len(scores) == count_filters(model)
        assert loss > 0
        assert all(v >= 0 for v in scores.values())

    def test_manual_mean_absolute_gradient(self):
        # Eq. 3 on a single conv with a hand-set gradient.
        conv = Conv2d(1, 2, 2, bias=True)
        model = Sequential(conv)
        conv.weight.grad = np.array(
            [[[[1.0, -1.0], [2.0, -2.0]]], [[[0.0, 0.0], [0.0, 4.0]]]], dtype=np.float32
        )
        conv.bias.grad = np.array([2.0, -1.0], dtype=np.float32)
        scores = filter_scores_from_grads(model)
        # filter 0: (1+1+2+2+2)/5 ; filter 1: (4+1)/5
        assert scores[FilterRef("0", 0)] == pytest.approx(8 / 5)
        assert scores[FilterRef("0", 1)] == pytest.approx(5 / 5)

    def test_no_bias_conv(self):
        conv = Conv2d(1, 1, 2, bias=False)
        model = Sequential(conv)
        conv.weight.grad = np.full((1, 1, 2, 2), 3.0, dtype=np.float32)
        scores = filter_scores_from_grads(model)
        assert scores[FilterRef("0", 0)] == pytest.approx(3.0)

    def test_exclusion(self):
        conv = Conv2d(1, 3, 2)
        model = Sequential(conv)
        conv.weight.grad = np.ones((3, 1, 2, 2), dtype=np.float32)
        conv.bias.grad = np.zeros(3, dtype=np.float32)
        scores = filter_scores_from_grads(model, exclude={FilterRef("0", 1)})
        assert FilterRef("0", 1) not in scores
        assert len(scores) == 2

    def test_layers_without_grads_skipped(self):
        model = Sequential(Conv2d(1, 2, 2), Conv2d(2, 2, 2))
        model[0].weight.grad = np.ones((2, 1, 2, 2), dtype=np.float32)
        model[0].bias.grad = np.zeros(2, dtype=np.float32)
        scores = filter_scores_from_grads(model)
        assert all(ref.layer == "0" for ref in scores)

    def test_zero_grad_after_compute(self, backdoored_tiny_model, tiny_test, tiny_attack):
        model = copy.deepcopy(backdoored_tiny_model)
        compute_filter_scores(model, tiny_attack.triggered_with_true_labels(tiny_test))
        # Buffers are zeroed in place (not dropped) so the next scoring round
        # accumulates into the same memory; either way no gradient survives.
        assert all(
            p.grad is None or not p.grad.any() for p in model.parameters()
        )


def _conv_param_ids(model):
    return {id(p) for _, conv in iter_conv_layers(model) for p in (conv.weight, conv.bias)}


class TestScoringFreeze:
    """Eq. 3 reads conv gradients only; the scoring backward skips the rest."""

    def test_scores_bitwise_equal_to_unfrozen_backward(
        self, backdoored_tiny_model, tiny_test, tiny_attack
    ):
        model = copy.deepcopy(backdoored_tiny_model)
        backdoor_set = tiny_attack.triggered_with_true_labels(tiny_test)
        unlearning_loss_backward(model, backdoor_set)
        expected = filter_scores_from_grads(model)
        model.zero_grad()
        scores, _ = compute_filter_scores(model, backdoor_set)
        assert scores == expected

    def test_bn_and_head_parameters_get_no_gradient(
        self, backdoored_tiny_model, tiny_test, tiny_attack, monkeypatch
    ):
        model = copy.deepcopy(backdoored_tiny_model)
        model.zero_grad()
        seen = {}

        def spy(model, *args, **kwargs):
            loss = unlearning_loss_backward(model, *args, **kwargs)
            seen.update({name: p.grad is not None for name, p in model.named_parameters()})
            return loss

        monkeypatch.setattr(scoring, "unlearning_loss_backward", spy)
        compute_filter_scores(model, tiny_attack.triggered_with_true_labels(tiny_test))
        conv_ids = _conv_param_ids(model)
        for name, param in model.named_parameters():
            assert seen[name] == (id(param) in conv_ids), name
        assert not seen["fc.weight"] and not seen["features.1.weight"]

    def test_requires_grad_flags_restored_when_backward_raises(
        self, backdoored_tiny_model, tiny_test, tiny_attack, monkeypatch
    ):
        model = copy.deepcopy(backdoored_tiny_model)
        model.features[1].bias.requires_grad = False  # stays off afterwards
        before = {name: p.requires_grad for name, p in model.named_parameters()}
        during = {}

        def boom(model, *args, **kwargs):
            during.update({name: p.requires_grad for name, p in model.named_parameters()})
            raise RuntimeError("backward failed")

        monkeypatch.setattr(scoring, "unlearning_loss_backward", boom)
        with pytest.raises(RuntimeError, match="backward failed"):
            compute_filter_scores(model, tiny_attack.triggered_with_true_labels(tiny_test))
        conv_ids = _conv_param_ids(model)
        for name, param in model.named_parameters():
            assert during[name] == (id(param) in conv_ids), name
        assert {name: p.requires_grad for name, p in model.named_parameters()} == before


class TestTopFilter:
    def test_picks_argmax(self):
        scores = {FilterRef("a", 0): 1.0, FilterRef("b", 3): 5.0, FilterRef("a", 2): 2.0}
        assert top_filter(scores) == FilterRef("b", 3)

    def test_deterministic_tie_break(self):
        scores = {FilterRef("a", 1): 1.0, FilterRef("a", 0): 1.0, FilterRef("b", 0): 1.0}
        assert top_filter(scores) == top_filter(dict(reversed(list(scores.items()))))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            top_filter({})


class TestScoresIdentifyBackdoorFilters:
    def test_patch_sensitive_filter_scores_high(self, backdoored_tiny_model, tiny_test, tiny_attack):
        """Sanity: top-scored filters respond to the trigger more than random ones."""
        model = copy.deepcopy(backdoored_tiny_model)
        backdoor_set = tiny_attack.triggered_with_true_labels(tiny_test)
        scores, _ = compute_filter_scores(model, backdoor_set)
        ranked = sorted(scores.items(), key=lambda kv: kv[1], reverse=True)
        top_score = ranked[0][1]
        median_score = ranked[len(ranked) // 2][1]
        assert top_score > 2.0 * max(median_score, 1e-9)
