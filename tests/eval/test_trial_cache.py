"""TrialCache tests: keying, round trip, resume semantics."""

import numpy as np
import pytest

from repro.eval import BackdoorMetrics, ScenarioConfig, TrialCache


def config(**overrides):
    defaults = dict(dataset="synth_cifar", model="preact_resnet18", attack="badnets")
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestKeying:
    def test_key_stable(self):
        a = TrialCache.key(config(), "ft", {"epochs": 3}, 10, 42)
        b = TrialCache.key(config(), "ft", {"epochs": 3}, 10, 42)
        assert a == b

    def test_key_varies_with_defense(self):
        assert TrialCache.key(config(), "ft", None, 10, 42) != TrialCache.key(
            config(), "fp", None, 10, 42
        )

    def test_key_varies_with_kwargs(self):
        assert TrialCache.key(config(), "ft", {"epochs": 3}, 10, 42) != TrialCache.key(
            config(), "ft", {"epochs": 5}, 10, 42
        )

    def test_key_varies_with_budget_seed(self):
        assert TrialCache.key(config(), "ft", None, 10, 1) != TrialCache.key(
            config(), "ft", None, 10, 2
        )

    def test_key_varies_with_scenario(self):
        assert TrialCache.key(config(), "ft", None, 10, 1) != TrialCache.key(
            config(attack="blended"), "ft", None, 10, 1
        )

    def test_none_and_empty_kwargs_equivalent(self):
        assert TrialCache.key(config(), "ft", None, 10, 1) == TrialCache.key(
            config(), "ft", {}, 10, 1
        )


class TestPinnedKeys:
    """Cache keys and task ids persist on disk: a change in how they are
    hashed would orphan every cached model, trial and ledger."""

    def test_scenario_fingerprints(self):
        assert ScenarioConfig().fingerprint() == "2c9fb5d59d425528"
        with_kwargs = ScenarioConfig(attack_kwargs=(("patch_size", 5),))
        assert with_kwargs.fingerprint() == "8f6733defd2610ab"

    def test_federated_fingerprint(self):
        from repro.federated.scheduler import FederatedScenario

        assert FederatedScenario().fingerprint() == "7ab88c77a0a90a19"

    def test_trial_key(self):
        kwargs = {"alpha": 0.0, "max_rounds": 2}
        key = TrialCache.key(ScenarioConfig(), "grad_prune", kwargs, 2, 7)
        assert key == "392a7d804f78fad72757"


class TestRoundTrip:
    def test_store_load(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        metrics = BackdoorMetrics(0.91, 0.03, 0.85)
        cache.store("abc", metrics)
        loaded = cache.load("abc")
        assert loaded.acc == pytest.approx(0.91)
        assert loaded.asr == pytest.approx(0.03)
        assert loaded.ra == pytest.approx(0.85)

    def test_miss_returns_none(self, tmp_path):
        assert TrialCache(str(tmp_path)).load("missing") is None


class TestRunnerIntegration:
    def test_second_trial_served_from_cache(self, tmp_path):
        from repro.eval import BenchmarkRunner, DefenderBudget, ScenarioCache

        runner = BenchmarkRunner(
            cache=ScenarioCache(str(tmp_path / "m")),
            trial_cache=TrialCache(str(tmp_path / "t")),
            verbose=False,
        )
        scenario = runner.prepare(
            config(n_train=150, n_test=60, n_reservoir=120, num_classes=3, train_epochs=2)
        )
        budget = DefenderBudget(spc=4, trial=0, seed=9)
        first = runner.run_defense_trial(scenario, "clp", budget)
        second = runner.run_defense_trial(scenario, "clp", budget)
        assert second.details.get("cached") is True
        assert second.metrics.acc == pytest.approx(first.metrics.acc)
        assert second.metrics.asr == pytest.approx(first.metrics.asr)


class TestCorruptionResilience:
    def test_corrupt_model_cache_is_a_miss_not_a_crash(self, tmp_path):
        """A killed worker can't poison the cache: corrupt .npz → retrain."""
        from repro.eval import ScenarioCache
        from repro.models import build_model

        cfg = config(n_train=150, n_test=60, n_reservoir=120, num_classes=3, train_epochs=2)
        cache = ScenarioCache(str(tmp_path))
        model = build_model("preact_resnet18", num_classes=3, profile="quick", seed=1)
        cache.store(cfg, model)
        path = cache.path(cfg)
        with open(path, "wb") as handle:
            handle.write(b"truncated garbage")
        fresh = build_model("preact_resnet18", num_classes=3, profile="quick", seed=2)
        assert cache.load(cfg, fresh) is False  # miss, not an exception
        import os

        assert not os.path.exists(path)  # corrupt artifact removed

    def test_corrupt_trial_json_is_a_miss(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        cache.store("k1", BackdoorMetrics(0.9, 0.1, 0.8))
        with open(cache._path("k1"), "w") as handle:
            handle.write('{"acc": 0.9, "as')
        assert cache.load("k1") is None
