"""Federated clients: honest local training and backdoor-injecting clients.

Paper §I names federated learning as a setting where adversaries can
manipulate training: a participant controls its own data and local updates.
:class:`MaliciousClient` implements the standard model-replacement attack
(Bagdasaryan et al., 2020): train on locally poisoned data, then scale the
update toward the poisoned optimum so it survives averaging with honest
updates.
"""

from __future__ import annotations

import copy
from typing import Dict

import numpy as np

from ..attacks.base import BackdoorAttack
from ..attacks.poisoner import poison_dataset
from ..data.dataset import ImageDataset
from ..nn.module import Module
from ..training import TrainConfig, train_classifier

__all__ = ["FederatedClient", "MaliciousClient"]

StateDict = Dict[str, np.ndarray]


class FederatedClient:
    """Honest participant: local SGD on private data.

    Parameters
    ----------
    client_id:
        Stable identifier (used for seeding and logs).
    dataset:
        The client's private training data.
    epochs, lr, batch_size:
        Local-update hyperparameters.
    """

    def __init__(
        self,
        client_id: int,
        dataset: ImageDataset,
        epochs: int = 1,
        lr: float = 0.05,
        batch_size: int = 32,
    ) -> None:
        if len(dataset) == 0:
            raise ValueError(f"client {client_id} has no data")
        self.client_id = client_id
        self.dataset = dataset
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    def _training_data(self, round_index: int) -> ImageDataset:
        return self.dataset

    def local_update(
        self, model_template: Module, global_state: StateDict, round_index: int
    ) -> StateDict:
        """Train a local copy from the global weights; return new weights.

        ``round_index`` keys all per-round randomness, so the update is a
        pure function of ``(client, round, global_state)`` — the property
        the sharded scheduler relies on to re-execute a client task on any
        worker (or on resume) and obtain bitwise-identical weights.
        """
        local = copy.deepcopy(model_template)
        local.load_state_dict(global_state)
        config = TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            shuffle_seed=self.client_id + 100_003 * (round_index + 1),
        )
        train_classifier(local, self._training_data(round_index), config)
        return local.state_dict()


class MaliciousClient(FederatedClient):
    """Backdoor-injecting participant with model-replacement boosting.

    Parameters
    ----------
    attack:
        Trigger to embed (all-to-one).
    poison_ratio:
        Fraction of the client's local data poisoned each round.
    boost:
        Update scaling ``w = global + boost * (w_local - global)``; values
        around ``num_clients / client_fraction`` approximate full model
        replacement, smaller values are stealthier.
    """

    def __init__(
        self,
        client_id: int,
        dataset: ImageDataset,
        attack: BackdoorAttack,
        poison_ratio: float = 0.3,
        boost: float = 1.0,
        epochs: int = 1,
        lr: float = 0.05,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__(client_id, dataset, epochs, lr, batch_size)
        if boost <= 0:
            raise ValueError(f"boost must be positive, got {boost}")
        self.attack = attack
        self.poison_ratio = poison_ratio
        self.boost = boost
        self.seed = seed

    def _training_data(self, round_index: int) -> ImageDataset:
        # The poison draw is a pure function of (seed, client, round).
        rng = np.random.default_rng([self.seed, self.client_id, round_index])
        # Non-IID shards can be tiny or pure-target-class; a compromised
        # client still always poisons at least one relabelable sample if it
        # holds any (and trains plainly otherwise).
        if (self.dataset.labels != self.attack.target_class).sum() == 0:
            return self.dataset
        ratio = min(max(self.poison_ratio, 0.51 / len(self.dataset)), 0.999)
        poisoned, _info = poison_dataset(self.dataset, self.attack, ratio, rng)
        return poisoned

    def local_update(
        self, model_template: Module, global_state: StateDict, round_index: int
    ) -> StateDict:
        update = super().local_update(model_template, global_state, round_index)
        if self.boost == 1.0:
            return update
        boosted: StateDict = {}
        for key, global_value in global_state.items():
            boosted[key] = global_value + self.boost * (update[key] - global_value)
        return boosted
