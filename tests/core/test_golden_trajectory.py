"""Behaviour lock: golden Grad-Prune trajectories on the tiny fixtures and the zoo.

Kernel and allocator refactors must leave the pruning loop's decisions
unchanged.  Each tiny case runs the full defense (Eq. 3 scoring, prune
rounds, fine-tuning) on a copy of the shared backdoored ``TinyConvNet`` and
pins the ordered ``(layer, filter, rolled_back)`` list, the stop reason, the
fine-tune epoch count and the final ACC/ASR on ``tiny_test``.  The model
is small enough that float32 reassociation between kernels cannot move an
argmax, so any difference here is a behaviour change.

``TinyConvNet`` has no residual, depthwise, squeeze-excite, h-swish or
stride-2 conv, so two zoo cases pin those paths: a quick-profile
preact_resnet18 and mobilenet_v3_large, each trained for one epoch on a
BadNets-poisoned 16x16 synthetic set, then pruned for 3 rounds at
``alpha=0``.  They pin the ordered ``(layer, filter)`` list and the stop
reason.  Every round's top-2 ξ margin is at least 9%, far above float32
reassociation noise; both thread settings of the BLAS library
(``OPENBLAS_NUM_THREADS=1`` and the default) give these values.  The ξ
values themselves are not pinned: the training epoch passes through
near-degenerate train-mode BatchNorm channels, where a float32 rounding
change in any backward kernel moves the trained weights by about 1e-3
relative and the preact ξ by up to 17%, without moving an argmax.
"""

import copy

import numpy as np
import pytest

from repro.attacks import BadNetsAttack, train_backdoored_model
from repro.core import GradientPruner, GradPruneConfig, GradPruneDefense
from repro.data import make_synth_cifar
from repro.data.splits import defender_split
from repro.defenses.base import DefenderData
from repro.eval import evaluate_backdoor_metrics
from repro.models import build_model
from repro.training import TrainConfig

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


ZOO_GOLDEN = [
    pytest.param(
        "preact_resnet18",
        [("conv1", 7), ("conv1", 1), ("conv1", 0)],
        id="preact_resnet18",
    ),
    pytest.param(
        "mobilenet_v3_large",
        [("stem.0", 3), ("stem.0", 2), ("blocks.3.dw_conv", 13)],
        id="mobilenet_v3_large",
    ),
]


@pytest.mark.parametrize("name, rounds", ZOO_GOLDEN)
def test_zoo_prune_list_is_locked(name, rounds):
    image_shape = (3, 16, 16)
    train, test = make_synth_cifar(
        n_train=96, n_test=64, num_classes=4, image_size=image_shape[1], seed=3
    )
    attack = BadNetsAttack(target_class=0, image_shape=image_shape, patch_size=3)
    model = build_model(name, num_classes=4, seed=1)
    train_backdoored_model(
        model, train, attack, poison_ratio=0.2,
        config=TrainConfig(epochs=1, batch_size=32, lr=0.05, shuffle_seed=0),
        rng=np.random.default_rng(0),
    )
    held, val = test.subset(np.arange(32)), test.subset(np.arange(32, 64))
    pruner = GradientPruner(alpha=0.0, patience=3, max_rounds=3, batch_size=32)
    history = pruner.prune(
        model,
        attack.triggered_with_true_labels(held),
        val,
        attack.triggered_with_true_labels(val),
    )

    assert [(r.pruned.layer, r.pruned.index) for r in history.rounds] == rounds
    assert history.stop_reason == "reached max_rounds=3"
