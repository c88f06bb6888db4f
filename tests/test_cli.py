"""CLI tests (fast paths only; experiment runs are covered by benchmarks)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_experiment_requires_valid_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table9"])

    def test_attack_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "unknown_attack"])

    def test_defend_parses_full(self):
        args = build_parser().parse_args(
            ["defend", "badnets", "grad_prune", "--spc", "2", "--model", "vgg19_bn"]
        )
        assert args.attack_name == "badnets"
        assert args.defense_name == "grad_prune"
        assert args.spc == 2

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestClaimsCommand:
    def test_empty_dir_fails_gracefully(self, tmp_path, capsys):
        assert main(["claims", "--dir", str(tmp_path)]) == 1
        assert "run the benchmarks" in capsys.readouterr().out

    def test_reads_stored_results(self, tmp_path, capsys):
        import json

        payload = {
            "aggregates": [
                {
                    "defense": "grad_prune", "spc": 10,
                    "acc_mean": 0.9, "acc_std": 0.0,
                    "asr_mean": 0.05, "asr_std": 0.0,
                    "ra_mean": 0.8, "ra_std": 0.0, "num_trials": 1,
                },
                {
                    "defense": "clp", "spc": 10,
                    "acc_mean": 0.9, "acc_std": 0.0,
                    "asr_mean": 0.95, "asr_std": 0.0,
                    "ra_mean": 0.03, "ra_std": 0.0, "num_trials": 1,
                },
            ],
            "baseline": {"acc": 0.92, "asr": 0.99, "ra": 0.01},
            "extra": {},
        }
        (tmp_path / "table1_badnets.json").write_text(json.dumps(payload))
        exit_code = main(["claims", "--dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "table1_badnets" in out
        assert "[PASS]" in out
        assert exit_code == 0


class TestListCommand:
    def test_list_prints_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "preact_resnet18" in out
        assert "badnets" in out
        assert "grad_prune" in out
        assert "table1" in out


class TestExperimentFlagForwarding:
    """--attacks / --models / --profile must reach the inline orchestrator intact."""

    def _capture(self, monkeypatch):
        calls = {}

        def fake_run(orchestrator, spec, attacks=None, models=None, root_seed=0):
            calls.update(
                workers=orchestrator.config.workers,
                spec=spec, attacks=attacks, models=models, root_seed=root_seed,
            )

            class _Result:
                ok = True

                @staticmethod
                def table_text():
                    return "(table)"

                @staticmethod
                def summary():
                    return "orchestrate: done=1"

            return _Result()

        monkeypatch.setattr("repro.orchestrator.Orchestrator.run", fake_run)
        return calls

    def test_defaults_pass_none_filters(self, monkeypatch, capsys):
        calls = self._capture(monkeypatch)
        assert main(["experiment", "table1"]) == 0
        assert calls["workers"] == 0
        assert calls["spec"].experiment_id == "table1"
        assert calls["attacks"] is None
        assert calls["models"] is None
        assert calls["root_seed"] == 0
        assert "(table)" in capsys.readouterr().out

    def test_attack_and_model_filters_forwarded(self, monkeypatch, capsys):
        calls = self._capture(monkeypatch)
        assert main([
            "experiment", "figure2",
            "--attacks", "badnets", "blended",
            "--models", "preact_resnet18",
            "--seed", "7",
        ]) == 0
        assert calls["workers"] == 0
        assert calls["attacks"] == ("badnets", "blended")
        assert calls["models"] == ("preact_resnet18",)
        assert calls["root_seed"] == 7

    def test_profile_resolves_spec(self, monkeypatch, capsys):
        calls = self._capture(monkeypatch)
        assert main(["experiment", "table1", "--profile", "paper"]) == 0
        assert calls["spec"].profile.name == "paper"
        calls = self._capture(monkeypatch)
        assert main(["experiment", "table1", "--profile", "quick"]) == 0
        assert calls["spec"].profile.name == "quick"


class TestOrchestrateCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["orchestrate", "table1"])
        assert args.command == "orchestrate"
        assert args.workers == 0  # inline, like OrchestratorConfig
        assert args.resume is False
        assert args.max_retries == 2
        assert args.task_timeout is None
        assert args.run_dir is None

    def test_parser_full(self):
        args = build_parser().parse_args([
            "orchestrate", "figure1", "--workers", "4", "--resume",
            "--task-timeout", "30", "--max-retries", "5",
            "--attacks", "badnets", "--models", "vgg19_bn",
            "--run-dir", "/tmp/run", "--seed", "3",
        ])
        assert args.workers == 4 and args.resume is True
        assert args.task_timeout == 30.0 and args.max_retries == 5
        assert args.attacks == ["badnets"] and args.models == ["vgg19_bn"]
        assert args.run_dir == "/tmp/run" and args.seed == 3

    def test_invalid_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["orchestrate", "nope"])

    def test_inline_task_timeout_is_a_usage_error(self, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("the grid must not start")

        monkeypatch.setattr("repro.orchestrator.Orchestrator.run", unreachable)
        for command in ("orchestrate", "experiment"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "table2", "--attacks", "badnets", "--task-timeout", "900"])
            assert exit_info.value.code == 2
            assert "--workers" in capsys.readouterr().err

    def test_wiring_reaches_orchestrator(self, monkeypatch, capsys):
        captured = {}

        class FakeOrchestrator:
            def __init__(self, config):
                captured["config"] = config

            def run(self, spec, attacks=None, models=None, root_seed=0):
                captured.update(spec=spec, attacks=attacks, models=models, root_seed=root_seed)

                class _Result:
                    ok = True

                    @staticmethod
                    def table_text():
                        return "(orchestrated table)"

                    @staticmethod
                    def summary():
                        return "orchestrate: done=7"

                return _Result()

        monkeypatch.setattr("repro.orchestrator.Orchestrator", FakeOrchestrator)
        exit_code = main([
            "orchestrate", "table1", "--workers", "3", "--resume",
            "--attacks", "badnets", "--seed", "5",
        ])
        assert exit_code == 0
        assert captured["config"].workers == 3
        assert captured["config"].resume is True
        assert captured["spec"].experiment_id == "table1"
        assert captured["attacks"] == ("badnets",)
        assert captured["root_seed"] == 5
        out = capsys.readouterr().out
        assert "(orchestrated table)" in out and "done=7" in out

    def test_failed_cells_exit_nonzero(self, monkeypatch, capsys):
        class FakeOrchestrator:
            def __init__(self, config):
                pass

            def run(self, spec, **kwargs):
                class _Result:
                    ok = False

                    @staticmethod
                    def table_text():
                        return ""

                    @staticmethod
                    def summary():
                        return "orchestrate: failed=1"

                return _Result()

        monkeypatch.setattr("repro.orchestrator.Orchestrator", FakeOrchestrator)
        assert main(["orchestrate", "table1"]) == 1


class TestOrchestrateFederated:
    def test_tableF_reachable_via_both_names(self):
        for command in ("experiment", "orchestrate"):
            args = build_parser().parse_args([command, "tableF", "--clients", "8"])
            assert args.experiment_id == "tableF" and args.clients == [8]

    def test_parser_federated_flags(self):
        args = build_parser().parse_args([
            "orchestrate", "tableF", "--clients", "64", "256",
            "--fractions", "0.125", "--rounds", "4",
            "--partition", "dirichlet", "--alpha", "0.1",
            "--poison-ratio", "0.4", "--defenses", "grad_prune", "fed_unlearn",
        ])
        assert args.clients == [64, 256]
        assert args.fractions == [0.125]
        assert args.rounds == 4
        assert args.partition == "dirichlet"
        assert args.alpha == 0.1
        assert args.poison_ratio == 0.4
        assert args.defenses == ["grad_prune", "fed_unlearn"]

    def test_unknown_defense_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["orchestrate", "tableF", "--defenses", "retrain"])

    def test_wiring_reaches_federated_orchestrator(self, monkeypatch, capsys):
        captured = {}

        class FakeFederatedOrchestrator:
            def __init__(self, config):
                captured["config"] = config

            def run(self, spec):
                captured["spec"] = spec

                class _Result:
                    ok = True

                    @staticmethod
                    def table_text():
                        return "(federated table)"

                    @staticmethod
                    def summary():
                        return "orchestrate[tableF]: done=11"

                return _Result()

        monkeypatch.setattr(
            "repro.federated.FederatedOrchestrator", FakeFederatedOrchestrator
        )
        exit_code = main([
            "orchestrate", "tableF", "--workers", "2",
            "--clients", "8", "--fractions", "0.25", "--rounds", "2",
            "--alpha", "0.2", "--seed", "9",
        ])
        assert exit_code == 0
        assert captured["config"].workers == 2
        spec = captured["spec"]
        assert spec.experiment_id == "tableF"
        assert spec.client_counts == (8,)
        assert spec.malicious_fractions == (0.25,)
        assert spec.base.rounds == 2
        assert spec.base.alpha == 0.2
        assert spec.base.seed == 9
        out = capsys.readouterr().out
        assert "(federated table)" in out and "done=11" in out


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.model == "preact_resnet18"
        assert args.alias == "default"
        assert not hasattr(args, "workers")  # the engine has no worker knob
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", "4"])
        assert args.max_batch == 32
        # The batcher is work-conserving: there is no deadline to set.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--max-wait-ms", "5"])
        assert args.strip is False
        assert args.bootstrap is True
        assert args.http is None
        assert args.traffic is None
        assert args.requests == 96

    def test_parser_full(self):
        args = build_parser().parse_args([
            "serve", "--model", "vgg19_bn", "--registry", "/tmp/reg",
            "--alias", "canary", "--max-batch", "16", "--strip", "--no-bootstrap",
            "--http", "8080", "--traffic", "adversarial", "--requests", "48",
        ])
        assert args.model == "vgg19_bn"
        assert args.registry == "/tmp/reg"
        assert args.alias == "canary"
        assert args.max_batch == 16
        assert args.strip is True
        assert args.bootstrap is False
        assert args.http == 8080
        assert args.traffic == "adversarial"
        assert args.requests == 48

    def test_strip_flag_is_negatable(self):
        assert build_parser().parse_args(["serve", "--no-strip"]).strip is False
        assert build_parser().parse_args(["serve", "--strip"]).strip is True

    def test_traffic_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--traffic", "tsunami"])

    def test_empty_alias_without_bootstrap_fails(self, tmp_path, capsys):
        code = main(["serve", "--registry", str(tmp_path), "--no-bootstrap"])
        assert code == 1
        assert "--no-bootstrap" in capsys.readouterr().out


class TestWatchCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["watch", "/tmp/run"])
        assert args.command == "watch"
        assert args.target == "/tmp/run"
        assert args.interval == 1.0
        assert args.once is False
        assert args.duration is None
        assert args.width == 78

    def test_missing_target_fails_gracefully(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "nope"), "--once"]) == 1
        assert "no such run" in capsys.readouterr().out

    def test_once_renders_run_dir(self, tmp_path, capsys):
        import json

        records = [
            {"event": "run_meta", "experiment": "table1", "workers": 2},
            {"event": "queued", "task": "trial:t0", "kind": "trial"},
            {"event": "finished", "task": "trial:t0", "ts": 5.0,
             "result": {"metrics": {"acc": 0.9, "asr": 0.04, "ra": 0.8}}},
        ]
        with open(tmp_path / "ledger.jsonl", "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        assert main(["watch", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "ASR" in out

    def test_empty_stream_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "ledger.jsonl").write_text("")
        assert main(["watch", str(tmp_path), "--once"]) == 1


class TestRegistryCommand:
    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["registry"])

    def test_gc_parser_defaults(self):
        args = build_parser().parse_args(["registry", "gc"])
        assert args.registry_command == "gc"
        assert args.registry is None
        assert args.dry_run is False
        assert args.keep == []

    def test_gc_missing_registry_dir_fails(self, tmp_path, capsys):
        code = main(["registry", "gc", "--registry", str(tmp_path / "absent")])
        assert code == 1
        assert "no registry" in capsys.readouterr().out

    def test_gc_dry_run_reports_without_deleting(self, tmp_path, capsys):
        from repro.serving import ModelRegistry

        from tests.serving.conftest import publish_tiny, tiny_factory

        registry = ModelRegistry(str(tmp_path), factory=tiny_factory)
        publish_tiny(registry, seed=0)
        orphan = publish_tiny(registry, seed=1, alias=None)
        code = main(["registry", "gc", "--registry", str(tmp_path), "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "would remove 1 checkpoint(s)" in out
        assert orphan in out
        assert orphan in registry.keys()

    def test_gc_removes_orphans(self, tmp_path, capsys):
        from repro.serving import ModelRegistry

        from tests.serving.conftest import publish_tiny, tiny_factory

        registry = ModelRegistry(str(tmp_path), factory=tiny_factory)
        live = publish_tiny(registry, seed=0)
        publish_tiny(registry, seed=1, alias=None)
        code = main(["registry", "gc", "--registry", str(tmp_path)])
        assert code == 0
        assert "removed 1 checkpoint(s)" in capsys.readouterr().out
        assert registry.keys() == [live]
