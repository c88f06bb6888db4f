"""Package namespaces resolve on first use: what an import loads, and that
every public name still resolves to what its defining module binds.

Each check runs in a fresh interpreter, because what matters is what one
command's process loads, and in which order.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS_PY = os.path.join(ROOT, "benchmarks", "e2e", "workloads.py")

# Submodules of ``repro.attacks`` / ``repro.defenses`` that importing either
# package's base types or registry may load: no concrete attack or defense.
ATTACK_CORE = {
    "repro.attacks", "repro.attacks.base", "repro.attacks.poisoner", "repro.attacks.registry",
}
DEFENSE_CORE = {"repro.defenses", "repro.defenses.base", "repro.defenses.registry"}

# The public names of every package, as they stood when namespaces were
# made lazy; each must keep resolving from where it was.  ``(package,
# names, submodules)``: the last are names that are submodules themselves.
EXPORTS = [
    ("repro", [
        "TrainConfig", "train_classifier", "evaluate_accuracy", "predict", "__version__",
    ], ["nn", "models", "data", "attacks", "defenses", "core", "eval", "federated", "synthesis",
        "utils"]),
    ("repro.attacks", [
        "BackdoorAttack", "BadNetsAttack", "BlendedAttack", "LowFrequencyAttack", "BPPAttack",
        "SIGAttack", "DynamicPatchAttack", "LiraAttack", "LiraTrainLog", "TriggerGenerator",
        "train_lira", "floyd_steinberg_dither", "PoisonInfo", "poison_dataset",
        "train_backdoored_model", "ATTACK_REGISTRY", "build_attack",
    ], []),
    ("repro.core", [
        "unlearning_loss_value", "unlearning_loss_backward", "filter_scores_from_grads",
        "compute_filter_scores", "top_filter", "FusedEvaluator", "FusedEvalReport",
        "GradientPruner", "PruningHistory", "PruningRound", "FineTuner", "FineTuneHistory",
        "GradPruneConfig", "GradPruneDefense", "SCORING_STRATEGIES", "rank_filters",
        "prune_by_strategy", "pruning_depth_profile", "trigger_sensitivity",
        "pruned_vs_kept_sensitivity",
    ], []),
    ("repro.data", [
        "ImageDataset", "DataLoader", "make_synth_cifar", "make_synth_gtsrb", "SynthSpec",
        "spc_subset", "defender_split",
    ], []),
    ("repro.defenses", [
        "Defense", "DefenderData", "DefenseReport", "FineTuningDefense", "FinePruningDefense",
        "NADDefense", "NeuralCleanseDefense", "CLPDefense", "BNPDefense", "FTSAMDefense",
        "ANPDefense", "FederatedUnlearningDefense", "MaskedConv2d", "DEFENSE_REGISTRY",
        "build_defense", "mean_channel_activations", "channel_lipschitz_bounds",
        "bn_statistic_divergence", "attention_map",
    ], []),
    ("repro.eval", [
        "BackdoorMetrics", "evaluate_backdoor_metrics", "evaluate_all_to_all_metrics",
        "DefenderBudget", "budget_trials", "Claim", "ClaimVerdict", "TABLE_CLAIMS",
        "check_table_claims", "format_verdicts", "ScenarioConfig", "ScenarioData",
        "ScenarioCache", "TrialCache", "BenchmarkRunner", "TrialResult", "AggregateResult",
        "format_table", "scatter_series", "render_scatter_text", "scatter_svg", "figure_svg",
        "line_svg", "pruning_history_svg", "BootstrapResult", "paired_bootstrap",
        "rank_defenses", "win_tie_loss", "EXPERIMENT_IDS", "FEDERATED_EXPERIMENT_IDS",
        "ExperimentProfile", "ExperimentResult", "ExperimentSpec", "experiment_spec",
        "get_profile", "scenario_configs",
    ], []),
    ("repro.federated", [
        "FederatedClient", "MaliciousClient", "AGGREGATIONS", "aggregate", "fedavg",
        "trimmed_mean", "krum", "split_dataset", "split_dataset_iid", "split_dataset_dirichlet",
        "FederatedRunLog", "run_federated_backdoor", "ThreatModel", "build_clients",
        "FederatedScenario", "FederatedSpec", "federated_spec", "build_federated_dag",
        "FederatedOrchestrator",
    ], []),
    ("repro.models", [
        "PreActBlock", "PreActResNet18", "preact_resnet18", "VGG19BN", "vgg19_bn",
        "EfficientNetB3", "MBConvBlock", "SqueezeExcite", "efficientnet_b3", "MobileNetV3Large",
        "InvertedResidual", "mobilenet_v3_large", "MODEL_NAMES", "build_model", "FilterRef",
        "PruningMask", "count_filters", "iter_conv_layers", "prune_filter", "restore_filter",
    ], []),
    ("repro.nn", [
        "Tensor", "no_grad", "is_grad_enabled", "Module", "ModuleList", "Parameter",
        "Sequential", "Conv2d", "ConvTranspose2d", "Linear", "BatchNorm2d", "MaxPool2d",
        "AdaptiveAvgPool2d", "Dropout", "Flatten", "ReLU", "SiLU", "HardSwish", "HardSigmoid",
        "cross_entropy", "nll_loss", "Optimizer", "SGD", "Adam", "SAM", "CheckpointError",
        "save_state", "load_state", "Workspace", "workspace", "CompiledInference",
        "compile_for_inference", "invalidate_compiled",
    ], ["functional", "engine"]),
    ("repro.nn.engine", ["TiledGemmEngine", "engine", "reset_engine"], []),
    ("repro.orchestrator", [
        "ArtifactStore", "content_hash", "Task", "TaskGraph", "RunLedger", "TaskRecord",
        "TaskOutcome", "FaultInjected", "FAULT_RATE_ENV", "FAULT_KILL_ENV", "fault_roll",
        "maybe_inject_fault", "run_tasks", "Orchestrator", "OrchestratorConfig",
        "OrchestrationResult", "build_experiment_dag", "GraphRunResult", "run_ledgered_graph",
    ], []),
    ("repro.serving", [
        "CLEAN", "FILTERED", "STANDARD_MIXES", "BatchRequest", "BatcherStats",
        "GatewayHTTPServer", "MicroBatcher", "ModelRegistry", "QueueFullError",
        "RegisteredModel", "ServeConfig", "ServingGateway", "TrafficGenerator", "TrafficMix",
        "TrafficReport", "Verdict", "serve_http", "state_fingerprint",
    ], []),
    ("repro.synthesis", [
        "InvertedTrigger", "invert_trigger", "detect_backdoor", "SynthesizedTriggerAttack",
        "grad_prune_without_trigger", "StripDetector", "StripResult", "prediction_entropy",
        "strip_entropy_scores",
    ], []),
    ("repro.telemetry", [
        "TELEMETRY_DIR_ENV", "TelemetryBus", "bus", "emit", "release_env_sink", "reset_bus",
        "set_bus", "TelemetryEvent", "sanitize_value", "RESERVED_KEYS", "Sink", "MemorySink",
        "JsonlSink",
    ], []),
    ("repro.utils", [
        "seed_sequence", "get_logger", "log_event", "Timer", "percentiles", "latency_summary",
        "best_of_seconds", "hard_timeout",
    ], []),
]


def _run(code, *args):
    """Run ``code`` in a fresh interpreter; the JSON its last line prints."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_ROOT))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded_after(imports):
    """Every module name in ``sys.modules`` after running ``imports``."""
    return set(_run(f"import json, sys\n{imports}\nprint(json.dumps(sorted(sys.modules)))\n"))


def _workload_imports():
    """The ``from repro... import ...`` statements of the e2e workloads, verbatim."""
    with open(WORKLOADS_PY, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=WORKLOADS_PY)
    statements = [
        ast.unparse(node)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro"
    ]
    assert statements, "no repro imports found in the workloads"
    return "\n".join(statements)


def _in(loaded, package, allowed=()):
    """The modules of ``package``, itself included, in ``loaded`` but not in ``allowed``."""
    return sorted(
        m for m in loaded
        if (m == package or m.startswith(package + ".")) and m not in allowed
    )


def test_the_workload_surface_loads_only_what_runs():
    loaded = _loaded_after(_workload_imports())
    assert "repro.core.pruner" in loaded  # the probe imported something
    unneeded = (
        _in(loaded, "repro.federated")
        + _in(loaded, "repro.synthesis")
        + _in(loaded, "repro.attacks", ATTACK_CORE)
        + _in(loaded, "repro.defenses", DEFENSE_CORE)
        + [
            name
            for name in (
                "repro.eval.claims", "repro.eval.plotting", "repro.eval.stats",
                "repro.core.ablation", "repro.core.analysis",
                "repro.serving.http", "repro.serving.traffic",
                "repro.models.preact_resnet", "repro.models.vgg",
                "repro.models.efficientnet", "repro.models.mobilenet",
                "http.server", "ssl", "multiprocessing",
            )
            if name in loaded
        ]
    )
    assert unneeded == [], f"the workload imports loaded {unneeded}"


def test_importing_repro_loads_no_subpackage():
    loaded = sorted(m for m in _loaded_after("import repro") if m.split(".")[0] == "repro")
    assert loaded == ["repro", "repro._lazy"]


def test_importing_the_cli_loads_no_attack_defense_federated_or_synthesis_module():
    loaded = _loaded_after("import repro.cli")
    unneeded = (
        _in(loaded, "repro.federated")
        + _in(loaded, "repro.synthesis")
        + _in(loaded, "repro.attacks", ATTACK_CORE)
        + _in(loaded, "repro.defenses", DEFENSE_CORE)
    )
    assert unneeded == [], f"importing repro.cli loaded {unneeded}"


def _defining_module(package, name):
    """The one submodule of ``package`` whose top level binds ``name``, else ``package``."""
    directory = os.path.join(os.path.dirname(PACKAGE_ROOT), *package.split("."))
    found = []
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".py") or filename == "__init__.py":
            continue
        with open(os.path.join(directory, filename), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                continue
            if name in bound:
                found.append(f"{package}.{filename[:-3]}")
                break
    assert len(found) <= 1, f"{package}.{name} is defined in {found}"
    return found[0] if found else package


# Resolves every export; with "submodules-first" it first imports every
# submodule of every package, so an export that shares a submodule's name
# would read back as the module.
_RESOLVE = """
import importlib, json, pkgutil, sys, types
exports, order = json.loads(sys.argv[1])
if order == "submodules-first":
    for package, _names, _submodules in exports:
        path = importlib.import_module(package).__path__
        for info in pkgutil.iter_modules(path):
            if info.name != "__main__":
                importlib.import_module(package + "." + info.name)
problems = []
for package, names, submodules in exports:
    namespace = importlib.import_module(package)
    for name in submodules:
        if getattr(namespace, name) is not sys.modules[package + "." + name]:
            problems.append(f"{package}.{name} is not its submodule")
    for name, definer in names:
        value = getattr(namespace, name)
        if isinstance(value, types.ModuleType):
            problems.append(f"{package}.{name} resolved to the module {value.__name__}")
        elif value is not getattr(importlib.import_module(definer), name):
            problems.append(f"{package}.{name} is not {definer}.{name}")
    try:
        getattr(namespace, "no_such_name")
    except AttributeError as exc:
        if repr(package) not in str(exc):
            problems.append(f"{package}: {exc}")
    else:
        problems.append(f"{package}.no_such_name resolved")
print(json.dumps(problems))
"""


@pytest.mark.parametrize("order", ["names-first", "submodules-first"])
def test_every_public_name_resolves_to_what_its_module_binds(order):
    exports = [
        (package, [(name, _defining_module(package, name)) for name in names], submodules)
        for package, names, submodules in EXPORTS
    ]
    assert _run(_RESOLVE, json.dumps([exports, order])) == []


def test_every_package_exports_at_least_what_it_did():
    for package, names, submodules in EXPORTS:
        declared = set(importlib.import_module(package).__all__)
        assert set(names) | set(submodules) <= declared, package
