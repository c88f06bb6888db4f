"""Federated-learning substrate tests."""

import numpy as np
import pytest

from repro.federated import (
    FederatedClient,
    MaliciousClient,
    fedavg,
    run_federated_backdoor,
    split_dataset,
    split_dataset_dirichlet,
    split_dataset_iid,
    trimmed_mean,
)
from repro.telemetry import MemorySink, bus
from tests.conftest import TinyConvNet, make_tiny_dataset

# Per-round (acc, asr, ra) of run_federated_backdoor on the tiny fixtures
# (4 clients, 1 malicious, 3 rounds, seed 0), read off its federated.round
# events, as the stateful FederatedServer round loop computed them.
GOLDEN_ROUNDS = {
    "fedavg": [
        (0.6666666666666666, 0.5, 0.5),
        (0.9777777777777777, 0.7, 0.3),
        (0.9888888888888889, 0.36666666666666664, 0.6333333333333333),
    ],
    "trimmed_mean": [
        (0.6666666666666666, 0.5, 0.5),
        (1.0, 0.11666666666666667, 0.8833333333333333),
        (1.0, 0.0, 1.0),
    ],
}


class TestPartitioning:
    def test_iid_covers_everything_once(self):
        ds = make_tiny_dataset(90, seed=0)
        shards = split_dataset_iid(ds, 5, np.random.default_rng(0))
        assert len(shards) == 5
        assert sum(len(s) for s in shards) == 90

    def test_iid_too_many_clients_raises(self):
        with pytest.raises(ValueError):
            split_dataset_iid(make_tiny_dataset(3), 10)

    def test_dirichlet_partitions_everything_exactly_once(self):
        ds = make_tiny_dataset(120, seed=1)
        shards = split_dataset_dirichlet(ds, 4, alpha=0.5, rng=np.random.default_rng(0))
        # Exact partition: empty clients are rescued by moving samples, never
        # duplicating them.
        assert sum(len(s) for s in shards) == 120
        assert all(len(s) >= 1 for s in shards)

    def test_split_dataset_dispatch(self):
        ds = make_tiny_dataset(60, seed=3)
        assert len(split_dataset(ds, 3, "iid", rng=np.random.default_rng(0))) == 3
        assert len(split_dataset(ds, 3, "dirichlet", rng=np.random.default_rng(0))) == 3
        with pytest.raises(ValueError):
            split_dataset(ds, 3, "stratified")

    def test_dirichlet_small_alpha_is_skewed(self):
        ds = make_tiny_dataset(300, seed=2)
        shards = split_dataset_dirichlet(ds, 3, alpha=0.05, rng=np.random.default_rng(3))
        # With a tiny alpha, at least one client should be class-dominated.
        dominances = []
        for shard in shards:
            counts = shard.class_counts()
            dominances.append(counts.max() / max(counts.sum(), 1))
        assert max(dominances) > 0.6

    def test_dirichlet_invalid_alpha(self):
        with pytest.raises(ValueError):
            split_dataset_dirichlet(make_tiny_dataset(30), 2, alpha=0.0)


class TestAggregation:
    def _states(self, values):
        return [{"w": np.array([v], dtype=np.float32)} for v in values]

    def test_fedavg_weighted(self):
        result = fedavg(self._states([0.0, 1.0]), weights=[1, 3])
        assert result["w"][0] == pytest.approx(0.75)

    def test_fedavg_validation(self):
        with pytest.raises(ValueError):
            fedavg([], [])
        with pytest.raises(ValueError):
            fedavg(self._states([1.0]), [1, 2])
        with pytest.raises(ValueError):
            fedavg(self._states([1.0]), [0])

    def test_trimmed_mean_drops_extremes(self):
        result = trimmed_mean(self._states([0.0, 1.0, 2.0, 100.0]), trim=1)
        assert result["w"][0] == pytest.approx(1.5)

    def test_trimmed_mean_needs_enough_updates(self):
        with pytest.raises(ValueError):
            trimmed_mean(self._states([1.0, 2.0]), trim=1)


class TestClients:
    def test_honest_update_changes_weights(self):
        client = FederatedClient(0, make_tiny_dataset(30, seed=0), epochs=1, lr=0.05)
        model = TinyConvNet(seed=0)
        state = model.state_dict()
        update = client.local_update(model, state, round_index=0)
        assert any(not np.array_equal(update[k], state[k]) for k in state)
        # Global model untouched by the client's local training.
        assert all(np.array_equal(model.state_dict()[k], state[k]) for k in state)

    def test_empty_client_raises(self):
        from repro.data import ImageDataset

        empty = ImageDataset(np.zeros((0, 3, 8, 8), dtype=np.float32), np.zeros(0))
        with pytest.raises(ValueError):
            FederatedClient(0, empty)

    def test_malicious_boost_amplifies(self, tiny_attack):
        ds = make_tiny_dataset(30, seed=1)
        model = TinyConvNet(seed=0)
        state = model.state_dict()
        plain = MaliciousClient(0, ds, tiny_attack, boost=1.0, seed=0)
        boosted = MaliciousClient(0, ds, tiny_attack, boost=3.0, seed=0)
        u1 = plain.local_update(model, state, round_index=0)
        u2 = boosted.local_update(model, state, round_index=0)
        key = next(iter(state))
        d1 = np.abs(u1[key] - state[key]).sum()
        d2 = np.abs(u2[key] - state[key]).sum()
        assert d2 == pytest.approx(3.0 * d1, rel=0.01)

    def test_invalid_boost_raises(self, tiny_attack):
        with pytest.raises(ValueError):
            MaliciousClient(0, make_tiny_dataset(10), tiny_attack, boost=0.0)


class TestServer:
    """The server side of run_federated_backdoor: sampling, aggregation, checks."""

    def test_round_updates_global_model(self, tiny_train, tiny_test, tiny_attack):
        model = TinyConvNet(seed=0)
        before = model.state_dict()
        log = run_federated_backdoor(
            model, tiny_train, tiny_test, tiny_attack,
            num_clients=3, num_malicious=0, rounds=1, seed=0,
        )
        assert len(log.rounds) == 1
        after = model.state_dict()
        assert any(not np.array_equal(before[k], after[k]) for k in before)

    def test_client_fraction_sampling(self, tiny_train, tiny_test, tiny_attack):
        sink = MemorySink()
        bus().attach(sink)
        try:
            run_federated_backdoor(
                TinyConvNet(seed=0), tiny_train, tiny_test, tiny_attack,
                num_clients=4, num_malicious=1, rounds=2, client_fraction=0.5, seed=1,
            )
        finally:
            bus().detach(sink)
        rounds = [e for e in sink.events if e.event == "federated.round"]
        assert [e.fields["participants"] for e in rounds] == [2, 2]

    def test_validation(self, tiny_train, tiny_test, tiny_attack, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a client trained before the run was validated")

        monkeypatch.setattr(FederatedClient, "local_update", no_training)
        for bad in (
            {"num_clients": 0, "num_malicious": 0},
            {"client_fraction": 0.0},
            {"aggregation": "median_of_means"},
        ):
            with pytest.raises(ValueError):
                run_federated_backdoor(
                    TinyConvNet(), tiny_train, tiny_test, tiny_attack, rounds=1, **bad
                )


class TestEndToEnd:
    def test_federated_backdoor_embeds_and_learns(self, tiny_train, tiny_test, tiny_attack):
        model = TinyConvNet(seed=0)
        log = run_federated_backdoor(
            model, tiny_train, tiny_test, tiny_attack,
            num_clients=4, num_malicious=1, rounds=6,
            local_epochs=2, boost=4.0, lr=0.08, seed=0,
        )
        final = log.final
        assert final.acc > 0.6  # honest majority still learns the task
        assert final.asr > 0.4  # one boosted client embeds the backdoor

    def test_no_malicious_no_backdoor(self, tiny_train, tiny_test, tiny_attack):
        model = TinyConvNet(seed=0)
        log = run_federated_backdoor(
            model, tiny_train, tiny_test, tiny_attack,
            num_clients=4, num_malicious=0, rounds=4, local_epochs=2, lr=0.08, seed=0,
        )
        assert log.final.asr < 0.3

    def test_invalid_malicious_count(self, tiny_train, tiny_test, tiny_attack):
        with pytest.raises(ValueError):
            run_federated_backdoor(
                TinyConvNet(), tiny_train, tiny_test, tiny_attack,
                num_clients=3, num_malicious=3,
            )

    def test_empty_log_final_is_descriptive(self):
        from repro.federated import FederatedRunLog

        with pytest.raises(ValueError, match="no federated rounds recorded"):
            FederatedRunLog().final

    def test_dirichlet_partition_and_poison_ratio_params(
        self, tiny_train, tiny_test, tiny_attack
    ):
        model = TinyConvNet(seed=0)
        log = run_federated_backdoor(
            model, tiny_train, tiny_test, tiny_attack,
            num_clients=3, num_malicious=1, rounds=2, local_epochs=1,
            partition="dirichlet", alpha=0.3, poison_ratio=0.5, lr=0.05, seed=1,
        )
        assert len(log.rounds) == 2
        with pytest.raises(ValueError, match="partition"):
            run_federated_backdoor(
                TinyConvNet(), tiny_train, tiny_test, tiny_attack,
                num_clients=3, num_malicious=1, rounds=1, partition="sorted",
            )

    def test_round_telemetry_emitted(self, tiny_train, tiny_test, tiny_attack):
        sink = MemorySink()
        bus().attach(sink)
        try:
            run_federated_backdoor(
                TinyConvNet(seed=0), tiny_train, tiny_test, tiny_attack,
                num_clients=3, num_malicious=1, rounds=2, local_epochs=1, seed=0,
            )
        finally:
            bus().detach(sink)
        events = {e.event: e for e in sink.events}
        assert "federated.run_started" in events
        assert "federated.run_finished" in events
        rounds = [e for e in sink.events if e.event == "federated.round"]
        assert [e.fields["round"] for e in rounds] == [0, 1]
        for e in rounds:
            assert {"acc", "asr", "ra", "participants", "agg_norm"} <= set(e.fields)


class TestGoldenRounds:
    @pytest.mark.parametrize("aggregation", sorted(GOLDEN_ROUNDS))
    def test_rounds_match_golden(self, tiny_train, tiny_test, tiny_attack, aggregation):
        sink = MemorySink()
        bus().attach(sink)
        try:
            run_federated_backdoor(
                TinyConvNet(seed=0), tiny_train, tiny_test, tiny_attack,
                num_clients=4, num_malicious=1, rounds=3, local_epochs=1,
                boost=4.0, lr=0.08, aggregation=aggregation, seed=0,
            )
        finally:
            bus().detach(sink)
        rounds = [
            (e.fields["acc"], e.fields["asr"], e.fields["ra"])
            for e in sink.events
            if e.event == "federated.round"
        ]
        assert rounds == GOLDEN_ROUNDS[aggregation]
