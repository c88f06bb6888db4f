"""Integration tests: the full attack → defend → measure pipeline.

These exercise the same code path as the benchmark harness, on a scale that
completes in seconds: tiny model fixture, 8x8 images, 3 classes.
"""

import copy

import numpy as np
import pytest

from repro.attacks import BlendedAttack, BPPAttack, LowFrequencyAttack
from repro.attacks.poisoner import train_backdoored_model
from repro.core import GradPruneConfig, GradPruneDefense
from repro.data.splits import defender_split
from repro.defenses import build_defense
from repro.defenses.base import DefenderData
from repro.eval import evaluate_backdoor_metrics
from repro.training import TrainConfig
from tests.conftest import IMAGE_SHAPE, TinyConvNet, make_tiny_dataset


class TestPipelinePerAttack:
    """Each attack family embeds and Grad-Prune mitigates on the tiny task."""

    @pytest.mark.parametrize(
        "attack_factory",
        [
            lambda: BlendedAttack(target_class=0, image_shape=IMAGE_SHAPE, blend_ratio=0.3),
            lambda: BPPAttack(target_class=0, image_shape=IMAGE_SHAPE, bit_depth=1),
            lambda: LowFrequencyAttack(target_class=0, image_shape=IMAGE_SHAPE, amplitude=0.3),
        ],
        ids=["blended", "bpp", "lf"],
    )
    def test_embed_then_mitigate(self, attack_factory, tiny_train, tiny_test, tiny_reservoir):
        attack = attack_factory()
        model = TinyConvNet(seed=1)
        train_backdoored_model(
            model, tiny_train, attack, poison_ratio=0.15,
            config=TrainConfig(epochs=8, batch_size=32, lr=0.08, shuffle_seed=0),
            rng=np.random.default_rng(0),
        )
        before = evaluate_backdoor_metrics(model, tiny_test, attack)
        if before.asr < 0.5:
            pytest.skip(f"{attack.name} failed to embed on the tiny task (asr={before.asr})")

        clean_train, clean_val = defender_split(tiny_reservoir, 20, np.random.default_rng(1))
        data = DefenderData(clean_train, clean_val, attack)
        GradPruneDefense(GradPruneConfig(prune_patience=3, tune_max_epochs=8, seed=0)).apply(model, data)
        after = evaluate_backdoor_metrics(model, tiny_test, attack)
        assert after.asr < before.asr
        assert after.acc > 0.5


class TestDefenseComparison:
    """All defenses run on the same backdoored model; shape of Table I rows."""

    def test_all_defenses_produce_valid_metrics(
        self, backdoored_tiny_model, tiny_reservoir, tiny_test, tiny_attack
    ):
        clean_train, clean_val = defender_split(tiny_reservoir, 20, np.random.default_rng(2))
        data = DefenderData(clean_train, clean_val, tiny_attack)
        fast_kwargs = {
            "ft": {"epochs": 3},
            "fp": {"epochs": 3},
            "nad": {"teacher_epochs": 2, "epochs": 2},
            "clp": {},
            "ft_sam": {"epochs": 3},
            "anp": {"steps": 15},
            "grad_prune": {"prune_patience": 2, "tune_max_epochs": 3},
        }
        results = {}
        for name, kwargs in fast_kwargs.items():
            model = copy.deepcopy(backdoored_tiny_model)
            build_defense(name, **kwargs).apply(model, data)
            metrics = evaluate_backdoor_metrics(model, tiny_test, tiny_attack)
            results[name] = metrics
            assert 0 <= metrics.acc <= 1
            assert 0 <= metrics.asr <= 1
            assert metrics.asr + metrics.ra <= 1 + 1e-9
        # Grad-Prune with backdoor data should be at least as good at ASR
        # removal as doing nothing.
        baseline = evaluate_backdoor_metrics(backdoored_tiny_model, tiny_test, tiny_attack)
        assert results["grad_prune"].asr <= baseline.asr


class TestSPCProtocol:
    def test_spc2_extreme_budget_runs(self, backdoored_tiny_model, tiny_reservoir, tiny_test, tiny_attack):
        clean_train, clean_val = defender_split(tiny_reservoir, 2, np.random.default_rng(3))
        assert len(clean_train) == 3 and len(clean_val) == 3  # 1 per class each
        data = DefenderData(clean_train, clean_val, tiny_attack)
        model = copy.deepcopy(backdoored_tiny_model)
        GradPruneDefense(GradPruneConfig(prune_patience=2, tune_max_epochs=3)).apply(model, data)
        metrics = evaluate_backdoor_metrics(model, tiny_test, tiny_attack)
        assert 0 <= metrics.acc <= 1

    def test_five_trials_decorrelated(self, backdoored_tiny_model, tiny_reservoir, tiny_test, tiny_attack):
        from repro.eval import budget_trials

        accs = []
        for budget in budget_trials(spc=10, num_trials=3, root_seed=0):
            data = budget.draw(tiny_reservoir, attack=tiny_attack)
            model = copy.deepcopy(backdoored_tiny_model)
            build_defense("ft", epochs=2).apply(model, data)
            accs.append(evaluate_backdoor_metrics(model, tiny_test, tiny_attack).acc)
        assert len(accs) == 3


class TestCheckpointing:
    def test_defended_model_serializes(self, backdoored_tiny_model, tiny_reservoir, tiny_attack, tiny_test, tmp_path):
        from repro.nn.serialization import load_state, save_state

        clean_train, clean_val = defender_split(tiny_reservoir, 10, np.random.default_rng(5))
        data = DefenderData(clean_train, clean_val, tiny_attack)
        model = copy.deepcopy(backdoored_tiny_model)
        GradPruneDefense(GradPruneConfig(prune_patience=2, tune_max_epochs=2)).apply(model, data)
        path = str(tmp_path / "defended.npz")
        save_state(model.state_dict(), path)
        restored = TinyConvNet(seed=99)
        restored.load_state_dict(load_state(path))
        a = evaluate_backdoor_metrics(model, tiny_test, tiny_attack)
        b = evaluate_backdoor_metrics(restored, tiny_test, tiny_attack)
        assert a.acc == pytest.approx(b.acc)
        assert a.asr == pytest.approx(b.asr)
