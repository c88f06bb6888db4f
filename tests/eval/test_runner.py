"""Benchmark-runner tests: scenario prep, caching, trial aggregation.

Uses a minimal scenario configuration (tiny dataset, tiny model profile,
few epochs) so the full attack→defense→metrics loop stays fast.
"""

import numpy as np
import pytest

from repro.eval import (
    AggregateResult,
    BackdoorMetrics,
    BenchmarkRunner,
    ScenarioCache,
    ScenarioConfig,
    TrialCache,
    TrialResult,
)


def tiny_config(**overrides):
    defaults = dict(
        dataset="synth_cifar",
        model="preact_resnet18",
        attack="badnets",
        n_train=200,
        n_test=80,
        n_reservoir=160,
        num_classes=4,
        train_epochs=3,
        # 3-epoch/200-sample runs are trajectory-chaotic: at the default 10%
        # poison ratio the embedded ASR swings with benign float reordering.
        # 25% keeps the backdoor comfortably above the 0.5 assertion on both
        # the engine-dispatched and reference training paths.
        poison_ratio=0.25,
        seed=0,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


@pytest.fixture()
def runner(tmp_path):
    return BenchmarkRunner(
        cache=ScenarioCache(str(tmp_path / "cache")),
        trial_cache=TrialCache(str(tmp_path / "trials")),
        verbose=False,
    )


class TestScenarioConfig:
    def test_fingerprint_stable(self):
        assert tiny_config().fingerprint() == tiny_config().fingerprint()

    def test_fingerprint_sensitive_to_fields(self):
        assert tiny_config().fingerprint() != tiny_config(attack="blended").fingerprint()


class TestScenarioPreparation:
    def test_prepare_trains_backdoored_model(self, runner):
        scenario = runner.prepare(tiny_config())
        assert scenario.baseline.asr > 0.5  # backdoor embedded
        assert len(scenario.test_set) == 80
        assert len(scenario.reservoir) == 160

    def test_cache_hit_second_time(self, runner, tmp_path):
        config = tiny_config()
        first = runner.prepare(config)
        second = runner.prepare(config)
        assert first.baseline.acc == pytest.approx(second.baseline.acc)
        a = first.backdoored_model.state_dict()
        b = second.backdoored_model.state_dict()
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_reservoir_disjoint_from_train_effects(self, runner):
        # Reservoir comes from the same distribution (same prototypes), so a
        # model trained on train-split classifies reservoir well.
        from repro.training import evaluate_accuracy

        scenario = runner.prepare(tiny_config())
        acc = evaluate_accuracy(scenario.backdoored_model, scenario.reservoir)
        assert acc > 0.3  # well above 4-class chance for this quick 3-epoch model

    def test_unknown_dataset_raises(self, runner):
        with pytest.raises(KeyError):
            runner.prepare(tiny_config(dataset="imagenet"))


class TestDefenseTrials:
    def test_single_trial(self, runner):
        from repro.eval import DefenderBudget

        scenario = runner.prepare(tiny_config())
        result = runner.run_defense_trial(
            scenario, "clp", DefenderBudget(spc=4, trial=0, seed=1)
        )
        assert isinstance(result.metrics, BackdoorMetrics)
        assert result.defense == "clp"

    def test_trial_does_not_mutate_scenario_model(self, runner):
        from repro.eval import DefenderBudget

        scenario = runner.prepare(tiny_config())
        before = {k: v.copy() for k, v in scenario.backdoored_model.state_dict().items()}
        runner.run_defense_trial(scenario, "ft", DefenderBudget(spc=4, trial=0, seed=1),
                                 defense_kwargs={"epochs": 2})
        after = scenario.backdoored_model.state_dict()
        for key in before:
            assert np.array_equal(before[key], after[key])


class TestAggregateResult:
    def test_from_trials_statistics(self):
        trials = [
            TrialResult("x", 2, 0, BackdoorMetrics(0.8, 0.2, 0.6)),
            TrialResult("x", 2, 1, BackdoorMetrics(0.6, 0.4, 0.4)),
        ]
        agg = AggregateResult.from_trials(trials)
        assert agg.acc_mean == pytest.approx(0.7)
        assert agg.asr_mean == pytest.approx(0.3)
        assert agg.acc_std == pytest.approx(0.1)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            AggregateResult.from_trials([])

    def test_row_format(self):
        agg = AggregateResult("x", 2, 0.9, 0.01, 0.1, 0.02, 0.8, 0.03, 5)
        row = agg.row()
        assert "90.00±1.00" in row
