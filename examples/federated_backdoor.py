"""Federated learning with a malicious client, then server-side repair.

Paper §I names federated learning among the settings that let adversaries
inject backdoors.  This example runs the full story on the substrate:

1. Eight clients jointly train a SynthCIFAR classifier with FedAvg; one
   client is malicious (poisons its shard with BadNets and boosts its
   update — model replacement).
2. The backdoor lands in the *global* model even though 7/8 clients are
   honest.
3. A robust aggregator (coordinate-wise trimmed mean) blunts but does not
   reliably remove the attack.
4. The server applies Grad-Prune post-hoc with a small clean holdout and
   removes it.

Run: ``python examples/federated_backdoor.py [--fast]``
"""

import argparse
import time

import numpy as np

from repro.attacks import BadNetsAttack
from repro.core import GradPruneConfig, GradPruneDefense
from repro.data import make_synth_cifar
from repro.data.splits import defender_split
from repro.defenses.base import DefenderData
from repro.eval import evaluate_backdoor_metrics
from repro.federated import run_federated_backdoor
from repro.models import build_model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    n_train = 800 if args.fast else 1600
    rounds = 4 if args.fast else 8
    num_clients = 6 if args.fast else 8

    full, test = make_synth_cifar(n_train=n_train + 500, n_test=300, seed=args.seed)
    train = full.subset(np.arange(n_train))
    reservoir = full.subset(np.arange(n_train, n_train + 500))
    attack = BadNetsAttack(target_class=0)

    print(f"== 1. FedAvg with {num_clients} clients, 1 malicious (boost=4), {rounds} rounds")
    model = build_model("preact_resnet18", num_classes=10, seed=args.seed + 1)
    start = time.time()
    log = run_federated_backdoor(
        model, train, test, attack,
        num_clients=num_clients, num_malicious=1, rounds=rounds,
        local_epochs=2, boost=4.0, lr=0.05, seed=args.seed,
    )
    print(f"   {time.time() - start:.0f}s; per-round (ACC, ASR):")
    for index, metrics in enumerate(log.rounds):
        print(f"     round {index}: ACC={metrics.acc:.3f} ASR={metrics.asr:.3f}")
    print(f"   => backdoor in the GLOBAL model: {log.final}")

    print("== 2. Same run under trimmed-mean aggregation")
    robust_model = build_model("preact_resnet18", num_classes=10, seed=args.seed + 1)
    log2 = run_federated_backdoor(
        robust_model, train, test, attack,
        num_clients=num_clients, num_malicious=1, rounds=rounds,
        local_epochs=2, boost=4.0, lr=0.05, aggregation="trimmed_mean", seed=args.seed,
    )
    print(f"   trimmed-mean final: {log2.final}")

    print("== 3. Server-side Grad-Prune on the FedAvg model (SPC=10 holdout)")
    clean_train, clean_val = defender_split(reservoir, 10, np.random.default_rng(args.seed + 5))
    data = DefenderData(clean_train, clean_val, attack)
    GradPruneDefense(GradPruneConfig(prune_patience=5, tune_max_epochs=12)).apply(model, data)
    defended = evaluate_backdoor_metrics(model, test, attack)
    print(f"   defended global model: {defended}")


if __name__ == "__main__":
    main()
