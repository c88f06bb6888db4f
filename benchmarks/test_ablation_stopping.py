"""Ablation A3: sensitivity of the pruning stopping rule (alpha, P_p).

Sweeps the two user-facing knobs the paper advertises as "intuitive":
``max_acc_drop`` (which derives the accuracy floor alpha) and the patience
``P_p``.  Reports pruned-filter counts and post-prune metrics so the
trade-off surface is visible.  Fine-tuning is skipped to isolate the
stopping rule.
"""

import copy

import pytest

from repro.core import GradientPruner
from repro.eval import DefenderBudget, ScenarioConfig, evaluate_backdoor_metrics, get_profile
from repro.models import PruningMask

from conftest import write_text

PROFILE = get_profile()
SWEEP = [
    ("drop05_p3", 0.05, 3),
    ("drop10_p3", 0.10, 3),
    ("drop20_p3", 0.20, 3),
    ("drop10_p1", 0.10, 1),
    ("drop10_p8", 0.10, 8),
]


@pytest.fixture(scope="module")
def scenario(runner):
    config = ScenarioConfig(
        dataset="synth_cifar",
        model="preact_resnet18",
        attack="badnets",
        n_train=PROFILE.n_train,
        n_test=PROFILE.n_test,
        n_reservoir=PROFILE.n_reservoir,
        train_epochs=PROFILE.train_epochs,
        seed=0,
    )
    return runner.prepare(config)


def run_point(scenario, label: str, max_acc_drop: float, patience: int):
    data = DefenderBudget(spc=50, trial=0, seed=31).draw(
        scenario.reservoir, attack=scenario.attack
    )
    model = copy.deepcopy(scenario.backdoored_model)
    mask = PruningMask(model)
    pruner = GradientPruner(max_acc_drop=max_acc_drop, patience=patience)
    history = pruner.prune(
        model, data.backdoor_train(), data.clean_val, data.backdoor_val(), mask=mask
    )
    metrics = evaluate_backdoor_metrics(model, scenario.test_set, scenario.attack)
    row = (
        f"A3 {label:<10} drop={max_acc_drop:.2f} P_p={patience}  "
        f"pruned={history.num_pruned:>3}  ACC {metrics.acc * 100:6.2f} | "
        f"ASR {metrics.asr * 100:6.2f} | RA {metrics.ra * 100:6.2f}  [{history.stop_reason}]"
    )
    write_text(f"ablation_stopping_{label}", row)
    print("\n" + row)
    return history, metrics


@pytest.mark.parametrize("label,max_acc_drop,patience", SWEEP)
def test_ablation_stopping_point(benchmark, scenario, label, max_acc_drop, patience):
    history, metrics = benchmark.pedantic(
        run_point, args=(scenario, label, max_acc_drop, patience), rounds=1, iterations=1,
    )
    assert history.num_pruned >= 0
    assert 0.0 <= metrics.acc <= 1.0

