"""Integration: federated backdoor injection followed by server-side repair."""

import numpy as np
import pytest

from repro.core import GradPruneConfig, GradPruneDefense
from repro.data.splits import defender_split
from repro.defenses.base import DefenderData
from repro.eval import evaluate_backdoor_metrics
from repro.federated import run_federated_backdoor
from tests.conftest import TinyConvNet


class TestFederatedThenRepair:
    def test_server_side_grad_prune_repairs_global_model(
        self, tiny_train, tiny_test, tiny_reservoir, tiny_attack
    ):
        model = TinyConvNet(seed=0)
        log = run_federated_backdoor(
            model, tiny_train, tiny_test, tiny_attack,
            num_clients=4, num_malicious=1, rounds=6,
            local_epochs=2, boost=4.0, lr=0.08, seed=0,
        )
        compromised = log.final
        if compromised.asr < 0.5:
            pytest.skip("backdoor did not embed through FedAvg in this configuration")

        clean_train, clean_val = defender_split(
            tiny_reservoir, 20, np.random.default_rng(1)
        )
        data = DefenderData(clean_train, clean_val, tiny_attack)
        GradPruneDefense(GradPruneConfig(prune_patience=3, tune_max_epochs=8, seed=0)).apply(
            model, data
        )
        repaired = evaluate_backdoor_metrics(model, tiny_test, tiny_attack)
        assert repaired.asr < compromised.asr * 0.6
        assert repaired.acc > 0.5

    def test_trimmed_mean_blunts_but_grad_prune_finishes(
        self, tiny_train, tiny_test, tiny_attack
    ):
        fedavg_model = TinyConvNet(seed=0)
        fedavg_log = run_federated_backdoor(
            fedavg_model, tiny_train, tiny_test, tiny_attack,
            num_clients=4, num_malicious=1, rounds=4,
            local_epochs=2, boost=4.0, lr=0.08, seed=0,
        )
        robust_model = TinyConvNet(seed=0)
        robust_log = run_federated_backdoor(
            robust_model, tiny_train, tiny_test, tiny_attack,
            num_clients=4, num_malicious=1, rounds=4,
            local_epochs=2, boost=4.0, lr=0.08,
            aggregation="trimmed_mean", seed=0,
        )
        # Robust aggregation should not make the backdoor stronger.
        assert robust_log.final.asr <= fedavg_log.final.asr + 0.15
