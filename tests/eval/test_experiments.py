"""Experiment-grid resolution tests (the benchmarks' shared spine)."""

import pytest

from repro.eval import (
    EXPERIMENT_IDS,
    FEDERATED_EXPERIMENT_IDS,
    ExperimentResult,
    experiment_spec,
    get_profile,
)
from repro.eval.experiments import ALL_ATTACKS, ALL_DEFENSES, FIG2_DEFENSES, FIG2_MODELS
from repro.federated import federated_spec


class TestProfiles:
    def test_default_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_PROFILE", raising=False)
        assert get_profile().name == "quick"

    def test_env_selects_paper(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "paper")
        assert get_profile().name == "paper"

    def test_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "paper")
        assert get_profile("quick").name == "quick"

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError):
            get_profile("gigantic")

    def test_paper_profile_matches_protocol(self):
        paper = get_profile("paper")
        assert paper.spc_values == (2, 10, 100)
        assert paper.num_trials == 5


class TestSpecs:
    def test_table1(self):
        spec = experiment_spec("table1", profile="quick")
        assert spec.dataset == "synth_cifar"
        assert spec.models == ("preact_resnet18",)
        assert spec.attacks == ALL_ATTACKS
        assert spec.defenses == ALL_DEFENSES

    def test_table2_model(self):
        assert experiment_spec("table2").models == ("vgg19_bn",)

    def test_figure1_covers_both_models(self):
        assert experiment_spec("figure1").models == ("preact_resnet18", "vgg19_bn")

    def test_figure2_gtsrb_grid(self):
        spec = experiment_spec("figure2")
        assert spec.dataset == "synth_gtsrb"
        assert spec.models == FIG2_MODELS
        assert spec.defenses == FIG2_DEFENSES

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            experiment_spec("table42")

    def test_every_listed_id_resolves(self):
        for experiment_id in EXPERIMENT_IDS:
            if experiment_id in FEDERATED_EXPERIMENT_IDS:
                spec = federated_spec(profile="quick")
            else:
                spec = experiment_spec(experiment_id, profile="quick")
            assert spec.experiment_id == experiment_id


class TestRunExperimentMicro:
    """End-to-end grid execution on a micro profile (seconds, not minutes)."""

    def test_micro_grid_runs_and_applies_model_overrides(self, tmp_path):
        from repro.eval import ScenarioCache, ScenarioConfig
        from repro.eval.experiments import ExperimentProfile, ExperimentSpec
        from repro.orchestrator import Orchestrator, OrchestratorConfig

        profile = ExperimentProfile(
            name="micro",
            n_train=150,
            n_test=60,
            n_reservoir=120,
            train_epochs=2,
            spc_values=(4,),
            num_trials=1,
            num_classes_cifar=3,
            defense_kwargs={"ft": {"epochs": 1}},
            model_overrides={"preact_resnet18": {"train_lr": 0.03}},
        )
        spec = ExperimentSpec(
            "micro", "micro test", "synth_cifar", ("preact_resnet18",),
            ("badnets",), ("ft", "clp"), profile,
        )
        orchestrator = Orchestrator(OrchestratorConfig(
            workers=0,
            run_dir=str(tmp_path / "run"),
            model_cache_dir=str(tmp_path / "m"),
            trial_cache_dir=str(tmp_path / "t"),
            verbose=False,
        ))
        result = orchestrator.run(spec).experiment
        aggregates = result.results["preact_resnet18"]["badnets"]
        assert len(aggregates) == 2  # two defenses x one SPC
        assert {a.defense for a in aggregates} == {"ft", "clp"}
        baseline = result.baselines["preact_resnet18"]["badnets"]
        assert 0 <= baseline.acc <= 1
        # The override reached the scenario: the backdoored checkpoint is
        # stored under the override config's fingerprint, not the default's.
        default_config = ScenarioConfig(
            dataset="synth_cifar", model="preact_resnet18", attack="badnets",
            n_train=150, n_test=60, n_reservoir=120, num_classes=3, train_epochs=2,
        )
        override_config = ScenarioConfig(
            dataset="synth_cifar", model="preact_resnet18", attack="badnets",
            n_train=150, n_test=60, n_reservoir=120, num_classes=3, train_epochs=2,
            train_lr=0.03,
        )
        models = ScenarioCache(str(tmp_path / "m")).artifacts
        assert models.get_state(override_config.fingerprint()) is not None
        assert models.get_state(default_config.fingerprint()) is None
        assert result.table_text()  # renders


class TestExperimentResultHelpers:
    def _tiny_result(self, experiment_id="table1"):
        from repro.eval import AggregateResult, BackdoorMetrics

        spec = experiment_spec(experiment_id)
        aggregates = [AggregateResult("ft", 2, 0.8, 0.0, 0.3, 0.0, 0.5, 0.0, 1)]
        return ExperimentResult(
            spec=spec,
            results={"preact_resnet18": {"badnets": aggregates}},
            baselines={"preact_resnet18": {"badnets": BackdoorMetrics(0.9, 0.99, 0.01)}},
        )

    def test_table_text_renders(self):
        text = self._tiny_result().table_text()
        assert "Table I" in text
        assert "badnets" in text

    def test_table_text_renders_a_model_slice(self):
        # figure2 --models preact_resnet18: the other three models have no
        # results or baselines and are left out of the table.
        text = self._tiny_result("figure2").table_text()
        assert "Figure 2" in text and "preact_resnet18" in text
        assert "vgg19_bn" not in text

    def test_scatter_extracts_series(self):
        series = self._tiny_result().scatter("preact_resnet18")
        assert "ft" in series
        assert series["ft"]["acc_vs_asr"] == [(30.0, 80.0)]
