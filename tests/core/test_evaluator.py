"""Fused pruning-loop evaluator tests: one sweep must equal the two-pass reference."""

import contextlib
import copy

import numpy as np
import pytest

from repro.core import FusedEvaluator, GradientPruner, unlearning_loss_value
from repro.data.dataset import ImageDataset
from repro.data.splits import defender_split
from repro.training import evaluate_accuracy
from tests.nn.reference import reference_kernels


@pytest.fixture()
def eval_setup(backdoored_tiny_model, tiny_reservoir, tiny_attack):
    _, clean_val = defender_split(tiny_reservoir, spc=20, rng=np.random.default_rng(0))
    model = copy.deepcopy(backdoored_tiny_model)
    model.eval()
    return {
        "model": model,
        "clean_val": clean_val,
        "backdoor_val": tiny_attack.triggered_with_true_labels(clean_val),
    }


class TestFusedEvaluator:
    def test_matches_two_pass_reference(self, eval_setup):
        model = eval_setup["model"]
        evaluator = FusedEvaluator(
            model, eval_setup["clean_val"], eval_setup["backdoor_val"], batch_size=16
        )
        report = evaluator.evaluate()
        acc_ref = evaluate_accuracy(model, eval_setup["clean_val"], batch_size=16)
        loss_ref = unlearning_loss_value(model, eval_setup["backdoor_val"], batch_size=16)
        assert report.accuracy == pytest.approx(acc_ref, abs=1e-12)
        assert report.unlearning_loss == pytest.approx(loss_ref, rel=1e-4)
        assert report.seconds > 0

    def test_reference_path_matches_fast_path(self, eval_setup):
        def evaluate():
            return FusedEvaluator(
                eval_setup["model"],
                eval_setup["clean_val"],
                eval_setup["backdoor_val"],
                batch_size=16,
            ).evaluate()

        fast = evaluate()
        with reference_kernels():
            slow = evaluate()
        assert slow.num_folded == fast.num_folded
        assert fast.accuracy == pytest.approx(slow.accuracy, abs=1e-12)
        assert fast.unlearning_loss == pytest.approx(slow.unlearning_loss, rel=1e-4)

    def test_batch_size_invariance(self, eval_setup):
        # The sum-reduced loss and counting accuracy must not depend on how
        # batches straddle the clean/backdoor boundary.
        reports = [
            FusedEvaluator(
                eval_setup["model"],
                eval_setup["clean_val"],
                eval_setup["backdoor_val"],
                batch_size=bs,
            ).evaluate()
            for bs in (1, 7, 16, 1000)
        ]
        for report in reports[1:]:
            assert report.accuracy == pytest.approx(reports[0].accuracy, abs=1e-12)
            assert report.unlearning_loss == pytest.approx(
                reports[0].unlearning_loss, rel=1e-4
            )

    def test_tracks_pruning_mutations(self, eval_setup):
        from repro.models.pruning_utils import FilterRef, PruningMask

        model = eval_setup["model"]
        evaluator = FusedEvaluator(
            model, eval_setup["clean_val"], eval_setup["backdoor_val"], batch_size=16
        )
        evaluator.evaluate()
        mask = PruningMask(model)
        mask.prune(FilterRef("features.0", 0))
        report = evaluator.evaluate()
        acc_ref = evaluate_accuracy(model, eval_setup["clean_val"], batch_size=16)
        loss_ref = unlearning_loss_value(model, eval_setup["backdoor_val"], batch_size=16)
        assert report.accuracy == pytest.approx(acc_ref, abs=1e-12)
        assert report.unlearning_loss == pytest.approx(loss_ref, rel=1e-4)

    def test_rejects_empty_sets(self, eval_setup):
        empty = ImageDataset(
            np.empty((0, 3, 8, 8), dtype=np.float32), np.empty(0, dtype=np.int64)
        )
        with pytest.raises(ValueError, match="clean"):
            FusedEvaluator(eval_setup["model"], empty, eval_setup["backdoor_val"])
        with pytest.raises(ValueError, match="backdoor"):
            FusedEvaluator(eval_setup["model"], eval_setup["clean_val"], empty)


class TestPrunerTelemetry:
    def test_rounds_record_timings_and_folds(
        self, backdoored_tiny_model, tiny_reservoir, tiny_attack
    ):
        clean_train, clean_val = defender_split(
            tiny_reservoir, spc=20, rng=np.random.default_rng(0)
        )
        model = copy.deepcopy(backdoored_tiny_model)
        pruner = GradientPruner(alpha=0.0, patience=100, max_rounds=2)
        history = pruner.prune(
            model,
            tiny_attack.triggered_with_true_labels(clean_train),
            clean_val,
            tiny_attack.triggered_with_true_labels(clean_val),
        )
        assert history.initial_eval_seconds > 0
        assert history.num_folded_layers >= 1  # TinyConvNet: two conv→BN pairs
        assert history.rounds
        for record in history.rounds:
            assert record.score_seconds > 0
            assert record.eval_seconds > 0
        assert history.total_score_seconds > 0
        assert history.total_eval_seconds > history.initial_eval_seconds

    def test_fast_and_reference_pruners_agree(
        self, backdoored_tiny_model, tiny_reservoir, tiny_attack
    ):
        clean_train, clean_val = defender_split(
            tiny_reservoir, spc=20, rng=np.random.default_rng(0)
        )
        backdoor_train = tiny_attack.triggered_with_true_labels(clean_train)
        backdoor_val = tiny_attack.triggered_with_true_labels(clean_val)

        histories = []
        for kernels in (contextlib.nullcontext, reference_kernels):
            model = copy.deepcopy(backdoored_tiny_model)
            pruner = GradientPruner(alpha=0.0, patience=100, max_rounds=3)
            with kernels():
                histories.append(
                    pruner.prune(model, backdoor_train, clean_val, backdoor_val)
                )
        fast, slow = histories
        assert [r.pruned for r in fast.rounds] == [r.pruned for r in slow.rounds]
        assert fast.initial_val_accuracy == pytest.approx(
            slow.initial_val_accuracy, abs=1e-12
        )
        assert fast.initial_val_loss == pytest.approx(slow.initial_val_loss, rel=1e-4)
        for fast_round, slow_round in zip(fast.rounds, slow.rounds):
            assert fast_round.val_accuracy == pytest.approx(
                slow_round.val_accuracy, abs=1e-6
            )
            assert fast_round.val_unlearning_loss == pytest.approx(
                slow_round.val_unlearning_loss, rel=1e-3
            )
