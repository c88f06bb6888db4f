"""Federated simulation helpers: data partitioning and end-to-end runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..attacks.base import BackdoorAttack
from ..data.dataset import ImageDataset
from ..eval.metrics import BackdoorMetrics, evaluate_backdoor_metrics
from ..nn.module import Module
from ..telemetry import emit
from .client import FederatedClient, MaliciousClient
from .server import AGGREGATIONS, _state_delta_norm, aggregate

__all__ = [
    "split_dataset_iid",
    "split_dataset_dirichlet",
    "split_dataset",
    "FederatedRunLog",
    "run_federated_backdoor",
]

_SOURCE = "federated"


def split_dataset_iid(
    dataset: ImageDataset, num_clients: int, rng: Optional[np.random.Generator] = None
) -> List[ImageDataset]:
    """Uniformly partition a dataset into ``num_clients`` shards."""
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if num_clients > len(dataset):
        raise ValueError("more clients than samples")
    rng = rng if rng is not None else np.random.default_rng()
    order = rng.permutation(len(dataset))
    shards = np.array_split(order, num_clients)
    return [dataset.subset(shard) for shard in shards]


def split_dataset_dirichlet(
    dataset: ImageDataset,
    num_clients: int,
    alpha: float = 0.5,
    rng: Optional[np.random.Generator] = None,
) -> List[ImageDataset]:
    """Non-IID partition: per-class Dirichlet(alpha) allocation over clients.

    Small ``alpha`` concentrates each class on few clients (the standard
    federated non-IID benchmark construction).  The result is an exact
    partition — every sample lands on exactly one client and no client is
    left empty: clients emptied by the draw are rescued by *moving* one
    sample from the currently largest client (never by duplicating).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if num_clients > len(dataset):
        raise ValueError("more clients than samples")
    rng = rng if rng is not None else np.random.default_rng()
    assignments: List[List[int]] = [[] for _ in range(num_clients)]
    for cls in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == cls)
        rng.shuffle(members)
        proportions = rng.dirichlet(np.full(num_clients, alpha))
        counts = np.floor(proportions * len(members)).astype(int)
        counts[-1] = len(members) - counts[:-1].sum()
        start = 0
        for client, count in enumerate(counts):
            assignments[client].extend(int(i) for i in members[start : start + count])
            start += count
    for client in range(num_clients):
        while not assignments[client]:
            donor = max(range(num_clients), key=lambda c: len(assignments[c]))
            if len(assignments[donor]) <= 1:
                raise ValueError("cannot rescue empty client without emptying another")
            donor_pool = assignments[donor]
            assignments[client].append(donor_pool.pop(int(rng.integers(0, len(donor_pool)))))
    return [dataset.subset(np.array(sorted(idx))) for idx in assignments]


def split_dataset(
    dataset: ImageDataset,
    num_clients: int,
    partition: str = "iid",
    alpha: float = 0.5,
    rng: Optional[np.random.Generator] = None,
) -> List[ImageDataset]:
    """Dispatch to the IID or Dirichlet partitioner by name."""
    if partition == "iid":
        return split_dataset_iid(dataset, num_clients, rng)
    if partition == "dirichlet":
        return split_dataset_dirichlet(dataset, num_clients, alpha=alpha, rng=rng)
    raise ValueError(f"unknown partition {partition!r}; use 'iid' or 'dirichlet'")


@dataclass
class FederatedRunLog:
    """Per-round global-model metrics of a federated backdoor run."""

    rounds: List[BackdoorMetrics] = field(default_factory=list)

    @property
    def final(self) -> BackdoorMetrics:
        if not self.rounds:
            raise ValueError(
                "no federated rounds recorded yet — FederatedRunLog.final is only "
                "available after at least one server round has been evaluated"
            )
        return self.rounds[-1]


def run_federated_backdoor(
    model: Module,
    train_set: ImageDataset,
    test_set: ImageDataset,
    attack: BackdoorAttack,
    num_clients: int = 8,
    num_malicious: int = 1,
    rounds: int = 5,
    local_epochs: int = 1,
    boost: float = 4.0,
    client_fraction: float = 1.0,
    aggregation: str = "fedavg",
    lr: float = 0.05,
    partition: str = "iid",
    alpha: float = 0.5,
    poison_ratio: float = 0.3,
    seed: int = 0,
) -> FederatedRunLog:
    """Run a full federated training with embedded malicious clients.

    The first ``num_malicious`` clients are compromised.  Each round
    samples ``client_fraction`` of the clients, trains them from the
    global weights and folds their updates with :func:`aggregate` (Krum
    assumes ``num_malicious`` attackers); ``model`` holds the global model
    and ends with the final round's weights, ready to hand to a defense.

    ``partition`` selects IID or Dirichlet(``alpha``) client sharding, and
    ``poison_ratio`` sets the malicious clients' per-round local poisoning
    fraction.  Each evaluated round is streamed through the telemetry bus
    as a ``federated.round`` event (round index, ACC/ASR/RA, aggregation
    norm), so runs show up live in ``repro watch``.

    Returns the per-round metrics of the global model.
    """
    if not 0 <= num_malicious < num_clients:
        raise ValueError("need 0 <= num_malicious < num_clients")
    if not 0.0 < client_fraction <= 1.0:
        raise ValueError(f"client_fraction must be in (0, 1], got {client_fraction}")
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {aggregation!r}; choose from {AGGREGATIONS}")
    rng = np.random.default_rng(seed)
    shards = split_dataset(train_set, num_clients, partition=partition, alpha=alpha, rng=rng)
    clients: List[FederatedClient] = []
    for client_id, shard in enumerate(shards):
        if client_id < num_malicious:
            clients.append(
                MaliciousClient(
                    client_id, shard, attack,
                    poison_ratio=poison_ratio, boost=boost,
                    epochs=local_epochs, lr=lr, seed=seed + client_id,
                )
            )
        else:
            clients.append(
                FederatedClient(client_id, shard, epochs=local_epochs, lr=lr)
            )
    sampler = np.random.default_rng(seed)
    per_round = max(1, int(round(client_fraction * num_clients)))
    emit(
        "federated.run_started", _SOURCE,
        num_clients=num_clients, num_malicious=num_malicious, rounds=rounds,
        partition=partition, alpha=alpha, poison_ratio=poison_ratio,
        aggregation=aggregation, boost=boost,
    )
    log = FederatedRunLog()
    for round_index in range(rounds):
        participants = [
            clients[i] for i in sampler.choice(num_clients, size=per_round, replace=False)
        ]
        before = model.state_dict()
        updates = [c.local_update(model, before, round_index) for c in participants]
        model.load_state_dict(
            aggregate(aggregation, updates, [c.num_samples for c in participants], num_malicious)
        )
        metrics = evaluate_backdoor_metrics(model, test_set, attack)
        log.rounds.append(metrics)
        emit(
            "federated.round", _SOURCE,
            round=round_index, rounds=rounds,
            acc=metrics.acc, asr=metrics.asr, ra=metrics.ra,
            participants=len(participants),
            agg_norm=_state_delta_norm(before, model.state_dict()),
        )
    emit(
        "federated.run_finished", _SOURCE,
        rounds=len(log.rounds),
        acc=log.final.acc, asr=log.final.asr, ra=log.final.ra,
    )
    return log
