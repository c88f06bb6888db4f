"""Benchmark-runner tests: scenario prep, caching, trial aggregation.

Uses a minimal scenario configuration (tiny dataset, tiny model profile,
few epochs) so the full attack→defense→metrics loop stays fast.
"""

import os

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


REBUILD_STEPS = ("_build_dataset", "evaluate_backdoor_metrics", "train_backdoored_model")


def _forbid(monkeypatch, *names):
    """Make the named steps of ``prepare`` fail if called."""
    import repro.eval.runner as runner_module

    def refuse(*_args, **_kwargs):
        raise AssertionError(f"prepare called one of {names}")

    for name in names:
        monkeypatch.setattr(runner_module, name, refuse)


def _seed_weights(runner, config):
    """A cache holding only the (untrained) weights of ``config``."""
    from repro.models import build_model

    model = build_model(config.model, num_classes=config.num_classes,
                        profile=config.model_profile, seed=config.seed + 1)
    runner.cache.store(config, model)


def _assert_same_split(a, b):
    for mine, theirs in ((a.images, b.images), (a.labels, b.labels)):
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine, theirs)


def _held_out_files(runner):
    return sorted(
        name for name in os.listdir(runner.cache.directory)
        if name.startswith("heldout-") and name.endswith(".npz")
    )


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

    def test_cache_hit_second_time(self, runner, monkeypatch):
        config = tiny_config()
        first = runner.prepare(config)
        _forbid(monkeypatch, *REBUILD_STEPS)  # a hit restores; it rebuilds nothing
        second = runner.prepare(config)
        assert second.baseline == first.baseline
        _assert_same_split(second.test_set, first.test_set)
        _assert_same_split(second.reservoir, first.reservoir)
        a = first.backdoored_model.state_dict()
        b = second.backdoored_model.state_dict()
        for key in a:
            assert np.array_equal(a[key], b[key])
        assert not second.backdoored_model.training  # as the baseline evaluation leaves it

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


class TestScenarioRestore:
    """Partial caches: upgrades, corrupt files and shared held-out splits.

    The full hit is ``TestScenarioPreparation.test_cache_hit_second_time``.
    """

    def test_weights_only_cache_upgrades_without_retraining(self, runner, monkeypatch):
        config = tiny_config()
        _seed_weights(runner, config)
        _forbid(monkeypatch, "train_backdoored_model")
        first = runner.prepare(config)
        assert runner.cache.load_baseline(config) == first.baseline
        assert _held_out_files(runner) == [runner.cache.held_out_key(config) + ".npz"]
        _forbid(monkeypatch, *REBUILD_STEPS)
        second = runner.prepare(config)
        _assert_same_split(second.test_set, first.test_set)
        _assert_same_split(second.reservoir, first.reservoir)
        assert second.baseline == first.baseline

    def test_corrupt_held_out_file_is_a_miss(self, runner):
        config = tiny_config()
        _seed_weights(runner, config)
        first = runner.prepare(config)
        path = runner.cache.artifacts.path(runner.cache.held_out_key(config), ".npz")
        with open(path, "r+b") as handle:
            handle.seek(1000)
            handle.write(b"\xff" * 64)
        second = runner.prepare(config)
        _assert_same_split(second.test_set, first.test_set)
        _assert_same_split(second.reservoir, first.reservoir)
        restored = runner.cache.load_held_out(config)  # rewritten, and it verifies
        assert restored is not None
        _assert_same_split(restored[0], first.test_set)

    def test_attack_cells_share_one_held_out_file(self, runner, tmp_path, monkeypatch):
        badnets, blended = tiny_config(), tiny_config(attack="blended")
        assert ScenarioCache.held_out_key(badnets) == ScenarioCache.held_out_key(blended)
        rebuilt = BenchmarkRunner(
            cache=ScenarioCache(str(tmp_path / "rebuild")),
            trial_cache=TrialCache(str(tmp_path / "rebuild_trials")),
            verbose=False,
        )
        _seed_weights(rebuilt, blended)
        rebuilt_baseline = rebuilt.prepare(blended).baseline  # from the generated dataset
        for config in (badnets, blended):
            _seed_weights(runner, config)
        runner.prepare(badnets)
        path = runner.cache.artifacts.path(ScenarioCache.held_out_key(badnets), ".npz")
        written = os.stat(path).st_ino
        # The blended cell has weights and the shared held-out splits but no
        # baseline: it evaluates one on the restored test split.
        _forbid(monkeypatch, "_build_dataset", "train_backdoored_model")
        scenario = runner.prepare(blended)
        assert scenario.baseline == rebuilt_baseline
        assert runner.cache.load_baseline(blended) == rebuilt_baseline
        assert not scenario.backdoored_model.training
        assert os.stat(path).st_ino == written  # found, not published again
        assert _held_out_files(runner) == [os.path.basename(path)]

    def test_other_test_size_gets_its_own_file(self, runner):
        small, large = tiny_config(), tiny_config(n_test=60)
        assert ScenarioCache.held_out_key(small) != ScenarioCache.held_out_key(large)
        for config in (small, large):
            _seed_weights(runner, config)
            runner.prepare(config)
        assert len(_held_out_files(runner)) == 2


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
