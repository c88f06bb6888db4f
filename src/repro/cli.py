"""Command-line interface.

Examples::

    python -m repro list                         # what can I run?
    python -m repro demo --fast                  # quickstart pipeline
    python -m repro experiment table1            # regenerate a paper table
    python -m repro experiment figure2 --models preact_resnet18
    python -m repro experiment table1 --resume   # finish a crashed run
    python -m repro orchestrate table1 --workers 2 --task-timeout 900   # pooled, with timeouts
    python -m repro orchestrate tableF --clients 64   # federated grid
    python -m repro attack badnets --model vgg19_bn   # train + report baseline
    python -m repro serve --strip --traffic adversarial   # defense-serving gateway
    python -m repro serve --http 8080                 # JSON-over-HTTP front
    python -m repro watch ~/.cache/repro/runs/table1-abc   # live run dashboard
    python -m repro registry gc --dry-run             # preview checkpoint GC

``experiment`` is an alias of ``orchestrate``: both run the grid's task DAG,
inline by default, and write the run ledger and telemetry that ``repro
watch`` tails.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .attacks import ATTACK_REGISTRY
from .defenses import DEFENSE_REGISTRY
from .eval import EXPERIMENT_IDS, FEDERATED_EXPERIMENT_IDS
from .models import MODEL_NAMES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Unlearning Backdoor Attacks through "
        "Gradient-Based Model Pruning' (DSN 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available models, attacks, defenses, experiments")

    demo = sub.add_parser("demo", help="run the quickstart pipeline")
    demo.add_argument("--fast", action="store_true")
    demo.add_argument("--spc", type=int, default=10)
    demo.add_argument("--seed", type=int, default=0)

    orchestrate = sub.add_parser(
        "orchestrate",
        aliases=["experiment"],
        help="regenerate a paper table/figure: a resumable task DAG, run inline "
        "or on a fault-tolerant worker pool",
    )
    orchestrate.add_argument("experiment_id", choices=EXPERIMENT_IDS)
    orchestrate.add_argument("--profile", choices=("quick", "paper"), default=None)
    orchestrate.add_argument("--attacks", nargs="+", default=None)
    orchestrate.add_argument("--models", nargs="+", default=None)
    orchestrate.add_argument("--seed", type=int, default=0)
    orchestrate.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (default: 0 = run inline)",
    )
    orchestrate.add_argument(
        "--resume", action="store_true",
        help="replay the run ledger and re-run only incomplete tasks",
    )
    orchestrate.add_argument(
        "--task-timeout", type=float, default=None,
        help="per-task wall-clock limit in seconds (needs --workers >= 1)",
    )
    orchestrate.add_argument(
        "--max-retries", type=int, default=2,
        help="retries per task before its cell is marked failed",
    )
    orchestrate.add_argument(
        "--run-dir", default=None,
        help="ledger directory (default: derived from the grid under the cache dir)",
    )
    federated = orchestrate.add_argument_group(
        "federated (tableF only)",
        "grid overrides for the sharded federated scheduler",
    )
    federated.add_argument(
        "--clients", type=int, nargs="+", default=None,
        help="client-count axis of the grid (e.g. --clients 64 256)",
    )
    federated.add_argument(
        "--fractions", type=float, nargs="+", default=None,
        help="malicious-fraction axis of the grid (e.g. --fractions 0.125 0.25)",
    )
    federated.add_argument("--rounds", type=int, default=None, help="federated rounds per cell")
    federated.add_argument(
        "--partition", choices=("iid", "dirichlet"), default=None,
        help="client data partition (default: dirichlet)",
    )
    federated.add_argument(
        "--alpha", type=float, default=None,
        help="Dirichlet concentration for non-IID sharding",
    )
    federated.add_argument(
        "--poison-ratio", type=float, default=None,
        help="malicious clients' per-round local poison fraction",
    )
    federated.add_argument(
        "--defenses", nargs="+", default=None, choices=sorted(DEFENSE_REGISTRY),
        help="server-side defense arms to run on the final global model",
    )

    attack = sub.add_parser("attack", help="train one backdoored model and report baseline metrics")
    attack.add_argument("attack_name", choices=sorted(ATTACK_REGISTRY))
    attack.add_argument("--model", choices=MODEL_NAMES, default="preact_resnet18")
    attack.add_argument("--dataset", choices=("synth_cifar", "synth_gtsrb"), default="synth_cifar")
    attack.add_argument("--epochs", type=int, default=6)
    attack.add_argument("--seed", type=int, default=0)

    defend = sub.add_parser("defend", help="attack then defend; report before/after metrics")
    defend.add_argument("attack_name", choices=sorted(ATTACK_REGISTRY))
    defend.add_argument("defense_name", choices=sorted(DEFENSE_REGISTRY))
    defend.add_argument("--model", choices=MODEL_NAMES, default="preact_resnet18")
    defend.add_argument("--dataset", choices=("synth_cifar", "synth_gtsrb"), default="synth_cifar")
    defend.add_argument("--spc", type=int, default=10)
    defend.add_argument("--epochs", type=int, default=6)
    defend.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="long-lived defense-serving gateway: micro-batched inference, "
        "hot-swappable model registry, optional STRIP input filtering",
    )
    serve.add_argument("--model", choices=MODEL_NAMES, default="preact_resnet18")
    serve.add_argument("--dataset", choices=("synth_cifar", "synth_gtsrb"), default="synth_cifar")
    serve.add_argument(
        "--registry", default=None,
        help="model-registry directory (default: <cache dir>/registry)",
    )
    serve.add_argument("--alias", default="default", help="registry alias to serve and follow")
    serve.add_argument("--max-batch", type=int, default=32, help="largest micro-batch")
    serve.add_argument(
        "--strip", action=argparse.BooleanOptionalAction, default=False,
        help="STRIP entropy pre-filter (per-request clean/filtered verdicts)",
    )
    serve.add_argument(
        "--bootstrap", action=argparse.BooleanOptionalAction, default=True,
        help="publish a fresh --model checkpoint when the alias is empty",
    )
    serve.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="also expose the gateway over HTTP on this port (0 = ephemeral)",
    )
    serve.add_argument(
        "--traffic", choices=("steady", "bursty", "adversarial"), default=None,
        help="drive the gateway with a synthetic traffic mix, print a report, exit",
    )
    serve.add_argument("--requests", type=int, default=96, help="requests per traffic mix")
    serve.add_argument("--seed", type=int, default=0)

    claims = sub.add_parser(
        "claims", help="check paper-shape claims against stored benchmark results"
    )
    claims.add_argument(
        "--dir", default="benchmarks/out", help="directory holding table*_<attack>.json files"
    )

    watch = sub.add_parser(
        "watch",
        help="live terminal dashboard over a run directory's ledger + telemetry streams",
    )
    watch.add_argument(
        "target",
        help="run directory (ledger.jsonl + telemetry*.jsonl) or a single JSONL file",
    )
    watch.add_argument(
        "--interval", type=float, default=1.0, help="poll/redraw period in seconds"
    )
    watch.add_argument(
        "--once", action="store_true",
        help="render one frame from the current file contents and exit",
    )
    watch.add_argument(
        "--duration", type=float, default=None,
        help="stop after this many seconds (default: run until ctrl-c)",
    )
    watch.add_argument("--width", type=int, default=78, help="dashboard width in columns")

    registry = sub.add_parser("registry", help="inspect and maintain the model registry")
    registry_sub = registry.add_subparsers(dest="registry_command", required=True)
    registry_gc = registry_sub.add_parser(
        "gc", help="delete checkpoints no alias points at (refuses aliased ones)"
    )
    registry_gc.add_argument(
        "--registry", default=None,
        help="registry directory (default: <cache dir>/registry)",
    )
    registry_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without deleting anything",
    )
    registry_gc.add_argument(
        "--keep", nargs="+", default=[],
        help="extra checkpoint keys (or prefixes) to pin besides aliased ones",
    )
    return parser


def _cmd_list() -> int:
    print("models:      " + ", ".join(MODEL_NAMES))
    print("attacks:     " + ", ".join(sorted(ATTACK_REGISTRY)))
    print("defenses:    " + ", ".join(sorted(DEFENSE_REGISTRY)))
    print("experiments: " + ", ".join(EXPERIMENT_IDS))
    return 0


def _cmd_demo(args) -> int:
    # Reuse the quickstart example's flow without importing from examples/.
    import runpy
    import os

    example = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "examples", "quickstart.py")
    argv = ["quickstart.py"]
    if args.fast:
        argv.append("--fast")
    argv += ["--spc", str(args.spc), "--seed", str(args.seed)]
    old_argv = sys.argv
    try:
        sys.argv = argv
        runpy.run_path(example, run_name="__main__")
    finally:
        sys.argv = old_argv
    return 0


def _cmd_orchestrate(args) -> int:
    from .eval import experiment_spec
    from .orchestrator import Orchestrator, OrchestratorConfig

    config = OrchestratorConfig(
        workers=args.workers,
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        run_dir=args.run_dir,
        resume=args.resume,
    )
    if args.experiment_id in FEDERATED_EXPERIMENT_IDS:
        return _orchestrate_federated(args, config)
    spec = experiment_spec(args.experiment_id, profile=args.profile)
    orchestrator = Orchestrator(config)
    result = orchestrator.run(
        spec,
        attacks=tuple(args.attacks) if args.attacks else None,
        models=tuple(args.models) if args.models else None,
        root_seed=args.seed,
    )
    table = result.table_text()
    if table:
        print(table)
    print(result.summary())
    return 0 if result.ok else 1


def _orchestrate_federated(args, config) -> int:
    from .federated import FederatedOrchestrator, federated_spec

    overrides = {}
    if args.clients:
        overrides["client_counts"] = tuple(args.clients)
    if args.fractions:
        overrides["malicious_fractions"] = tuple(args.fractions)
    if args.rounds is not None:
        overrides["rounds"] = args.rounds
    if args.partition is not None:
        overrides["partition"] = args.partition
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.poison_ratio is not None:
        overrides["poison_ratio"] = args.poison_ratio
    if args.defenses:
        overrides["defenses"] = tuple(args.defenses)
    overrides["seed"] = args.seed
    spec = federated_spec(args.profile, **overrides)
    result = FederatedOrchestrator(config).run(spec)
    print(result.table_text())
    print(result.summary())
    return 0 if result.ok else 1


def _scenario(args, attack_name: str):
    from .eval import ScenarioConfig

    num_classes = 10 if args.dataset == "synth_cifar" else 12
    return ScenarioConfig(
        dataset=args.dataset,
        model=args.model,
        attack=attack_name,
        num_classes=num_classes,
        train_epochs=args.epochs,
        seed=args.seed,
    )


def _cmd_attack(args) -> int:
    from .eval import BenchmarkRunner

    runner = BenchmarkRunner(verbose=True)
    scenario = runner.prepare(_scenario(args, args.attack_name))
    print(f"baseline ({args.attack_name} on {args.model}/{args.dataset}): {scenario.baseline}")
    return 0


def _cmd_defend(args) -> int:
    from .eval import BenchmarkRunner, DefenderBudget

    runner = BenchmarkRunner(verbose=True)
    scenario = runner.prepare(_scenario(args, args.attack_name))
    print(f"baseline: {scenario.baseline}")
    result = runner.run_defense_trial(
        scenario, args.defense_name, DefenderBudget(spc=args.spc, trial=0, seed=args.seed + 7)
    )
    print(f"after {args.defense_name} (SPC={args.spc}): {result.metrics}")
    return 0


def _cmd_serve(args) -> int:
    import json
    import os

    from .attacks import BadNetsAttack
    from .data import make_synth_cifar, make_synth_gtsrb
    from .orchestrator.artifacts import cache_root
    from .serving import (
        STANDARD_MIXES,
        ModelRegistry,
        ServeConfig,
        ServingGateway,
        TrafficGenerator,
        TrafficMix,
        serve_http,
    )

    registry_dir = args.registry or os.path.join(cache_root(), "registry")
    registry = ModelRegistry(registry_dir)

    num_classes = 10 if args.dataset == "synth_cifar" else 12
    make = make_synth_cifar if args.dataset == "synth_cifar" else make_synth_gtsrb
    _, pool = make(n_train=2, n_test=128, num_classes=num_classes, seed=args.seed)

    if registry.resolve(args.alias) is None:
        if not args.bootstrap:
            print(f"alias {args.alias!r} is empty in {registry_dir} and --no-bootstrap is set")
            return 1
        from .models import build_model

        print(f"alias {args.alias!r} empty; bootstrapping an untrained {args.model} "
              "(publish a repaired checkpoint to replace it)")
        registry.publish(
            build_model(args.model, num_classes=num_classes, seed=args.seed),
            args.model,
            alias=args.alias,
            factory_kwargs={"num_classes": num_classes, "seed": args.seed},
            metadata={"bootstrap": True, "image_shape": list(pool.images.shape[1:])},
        )

    gateway = ServingGateway(
        registry,
        alias=args.alias,
        config=ServeConfig(
            max_batch=args.max_batch,
            strip=args.strip,
            seed=args.seed,
        ),
        clean_pool=pool,
    )
    gateway.start()
    print(f"serving {gateway.active_key} (alias={args.alias}, strip={args.strip}, "
          f"max_batch={args.max_batch})")

    http_server = None
    try:
        if args.http is not None:
            http_server = serve_http(gateway, port=args.http)
            host, port = http_server.address
            print(f"http front on http://{host}:{port} "
                  "(POST /predict, POST /swap, GET /healthz, GET /stats)")

        if args.traffic is not None:
            mix = next(m for m in STANDARD_MIXES if m.name == args.traffic)
            mix = TrafficMix(
                name=mix.name,
                num_requests=args.requests,
                rate=mix.rate,
                burst_size=mix.burst_size,
                gap_s=mix.gap_s,
                trigger_fraction=mix.trigger_fraction,
            )
            attack = (
                BadNetsAttack(image_shape=pool.images.shape[1:], seed=args.seed)
                if mix.trigger_fraction > 0
                else None
            )
            generator = TrafficGenerator(pool.images, attack=attack, seed=args.seed)
            report = generator.run(gateway, mix)
            print(json.dumps(report.summary(), indent=2, sort_keys=True))
            return 0

        if args.http is not None:
            print("serving until interrupted (ctrl-c to drain and exit)")
            try:
                while True:
                    import time

                    time.sleep(3600)
            except KeyboardInterrupt:
                print("draining...")
            return 0

        print("nothing to do: pass --traffic for a synthetic run or --http to serve")
        return 0
    finally:
        if http_server is not None:
            http_server.stop()
        gateway.stop()
        print(json.dumps({"final_stats": gateway.stats()}, indent=2, sort_keys=True))


def _cmd_claims(args) -> int:
    import glob
    import json
    import os

    from .eval import AggregateResult, BackdoorMetrics, check_table_claims, format_verdicts

    paths = sorted(glob.glob(os.path.join(args.dir, "table*_*.json")))
    if not paths:
        print(f"no table*_<attack>.json files under {args.dir}; run the benchmarks first")
        return 1
    any_failed = False
    for path in paths:
        with open(path) as handle:
            payload = json.load(handle)
        aggregates = [AggregateResult(**a) for a in payload["aggregates"]]
        baseline = BackdoorMetrics(**payload["baseline"]) if payload.get("baseline") else None
        if baseline is None:
            continue
        verdicts = check_table_claims(aggregates, baseline)
        name = os.path.splitext(os.path.basename(path))[0]
        print(format_verdicts(verdicts, header=name))
        any_failed |= any(not v.passed for v in verdicts)
    return 1 if any_failed else 0


def _cmd_watch(args) -> int:
    import os

    from .telemetry.watch import watch_paths

    if not os.path.exists(args.target):
        print(f"no such run directory or stream file: {args.target}")
        return 1
    state = watch_paths(
        args.target,
        interval=args.interval,
        once=args.once,
        duration=args.duration,
        width=args.width,
    )
    return 0 if state.events else 1


def _cmd_registry(args) -> int:
    import json
    import os

    from .orchestrator.artifacts import cache_root
    from .serving import ModelRegistry

    registry_dir = args.registry or os.path.join(cache_root(), "registry")
    if args.registry_command == "gc":
        if not os.path.isdir(registry_dir):
            print(f"no registry at {registry_dir}")
            return 1
        report = ModelRegistry(registry_dir).gc(dry_run=args.dry_run, keep=args.keep)
        print(json.dumps(report, indent=2, sort_keys=True))
        verb = "would remove" if args.dry_run else "removed"
        print(
            f"{verb} {len(report['removed'])} checkpoint(s), "
            f"kept {len(report['kept'])}, "
            f"{report['freed_bytes'] / 1024:.1f} KiB"
            + (" reclaimable" if args.dry_run else " reclaimed")
        )
        return 0
    raise AssertionError(f"unhandled registry command {args.registry_command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command in ("orchestrate", "experiment"):
        if args.task_timeout is not None and args.workers <= 0:
            parser.error("--task-timeout needs --workers >= 1: an inline task cannot be preempted")
        return _cmd_orchestrate(args)
    if args.command == "attack":
        return _cmd_attack(args)
    if args.command == "defend":
        return _cmd_defend(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "claims":
        return _cmd_claims(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "registry":
        return _cmd_registry(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
