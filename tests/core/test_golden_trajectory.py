"""Behaviour lock: golden Grad-Prune trajectories on the tiny fixtures.

Kernel and allocator refactors must leave the pruning loop's decisions
unchanged.  Each case runs the full defense (Eq. 3 scoring, prune rounds,
fine-tuning) on a copy of the shared backdoored ``TinyConvNet`` and pins
the ordered ``(layer, filter, rolled_back)`` list, the stop reason, the
fine-tune epoch count and the final ACC/ASR on ``tiny_test``.  The model
is small enough that float32 reassociation between kernels cannot move an
argmax, so any difference here is a behaviour change.
"""

import copy

import numpy as np
import pytest

from repro.core import GradPruneConfig, GradPruneDefense
from repro.data.splits import defender_split
from repro.defenses.base import DefenderData
from repro.eval import evaluate_backdoor_metrics

GOLDEN = [
    pytest.param(
        GradPruneConfig(prune_patience=2, tune_max_epochs=3, seed=5),
        [("features.0", 6, False), ("features.0", 5, True)],
        "validation accuracy 0.6667 fell below alpha=0.9000",
        3,
        1.0,
        0.0,
        id="alpha-rollback",
    ),
    pytest.param(
        GradPruneConfig(alpha=0.0, prune_patience=6, max_rounds=6),
        [
            ("features.0", 6, False),
            ("features.0", 5, False),
            ("features.0", 7, False),
            ("features.0", 4, False),
            ("features.0", 2, False),
            ("features.0", 0, False),
        ],
        "reached max_rounds=6",
        50,
        1.0,
        0.0,
        id="max-rounds",
    ),
]


@pytest.fixture()
def defender_data(tiny_reservoir, tiny_attack):
    clean_train, clean_val = defender_split(
        tiny_reservoir, spc=20, rng=np.random.default_rng(2)
    )
    return DefenderData(clean_train=clean_train, clean_val=clean_val, attack=tiny_attack)


@pytest.mark.parametrize("config, rounds, stop_reason, tune_epochs, acc, asr", GOLDEN)
def test_grad_prune_trajectory_is_locked(
    backdoored_tiny_model, defender_data, tiny_test, tiny_attack,
    config, rounds, stop_reason, tune_epochs, acc, asr,
):
    model = copy.deepcopy(backdoored_tiny_model)
    report = GradPruneDefense(config).apply(model, defender_data)

    history = report.details["prune_history"]
    assert [(r.pruned.layer, r.pruned.index, r.rolled_back) for r in history.rounds] == rounds
    assert history.stop_reason == stop_reason
    assert len(report.details["tune_history"].train_losses) == tune_epochs
    metrics = evaluate_backdoor_metrics(model, tiny_test, tiny_attack)
    assert metrics.acc == pytest.approx(acc, abs=1e-12)
    assert metrics.asr == pytest.approx(asr, abs=1e-12)
