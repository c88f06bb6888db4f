"""Krum aggregation tests."""

import numpy as np
import pytest

from repro.federated import krum, run_federated_backdoor
from repro.telemetry import MemorySink, bus
from tests.conftest import TinyConvNet


def states(values):
    return [{"w": np.array([v, v], dtype=np.float32)} for v in values]


class TestKrum:
    def test_picks_central_update(self):
        # Three clustered honest updates + one far outlier.
        result = krum(states([1.0, 1.1, 0.9, 50.0]), num_malicious=1)
        assert abs(result["w"][0] - 1.0) < 0.2

    def test_outlier_never_selected(self):
        for outlier in (100.0, -100.0):
            result = krum(states([0.0, 0.1, -0.1, outlier]), num_malicious=1)
            assert abs(result["w"][0]) < 1.0

    def test_returns_copy(self):
        updates = states([1.0, 1.0, 1.0, 1.0])
        result = krum(updates, num_malicious=1)
        result["w"][0] = 99.0
        assert updates[0]["w"][0] == 1.0

    def test_too_few_updates_raises(self):
        with pytest.raises(ValueError, match="Krum"):
            krum(states([1.0, 2.0, 3.0]), num_malicious=1)

    def test_selected_is_an_actual_update(self):
        updates = states([3.0, 3.2, 2.8, -7.0])
        result = krum(updates, num_malicious=1)
        candidates = [u["w"][0] for u in updates]
        assert result["w"][0] in candidates

    def test_server_krum_round(self, tiny_train, tiny_test, tiny_attack):
        sink = MemorySink()
        bus().attach(sink)
        try:
            log = run_federated_backdoor(
                TinyConvNet(seed=0), tiny_train, tiny_test, tiny_attack,
                num_clients=4, num_malicious=1, rounds=1, aggregation="krum", seed=0,
            )
        finally:
            bus().detach(sink)
        assert len(log.rounds) == 1
        (event,) = [e for e in sink.events if e.event == "federated.round"]
        assert event.fields["participants"] == 4
        # Krum's f is the run's malicious count: 4 updates cannot tolerate 2.
        with pytest.raises(ValueError, match="Krum"):
            run_federated_backdoor(
                TinyConvNet(seed=0), tiny_train, tiny_test, tiny_attack,
                num_clients=4, num_malicious=2, rounds=1, aggregation="krum", seed=0,
            )
