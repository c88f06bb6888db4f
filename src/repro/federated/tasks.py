"""Executors for federated tasks inside orchestrator workers.

Mirrors :mod:`repro.orchestrator.runtime`: each worker process keeps a
small LRU of prepared *cells* (datasets, partition, client population,
model template) so the many client tasks of one scenario pay the
dataset-build cost once per worker, not once per task.  Everything a cell
contains is a deterministic function of the scenario fingerprint, so two
workers that build the same cell independently agree bit-for-bit — the
only cross-process state is the artifact store, whose writes are atomic.

Executors return small JSON-compatible dicts for the run ledger; the heavy
payloads (client weight updates, per-round global models) go to the
content-addressed :class:`~repro.orchestrator.artifacts.ArtifactStore`
under the run directory, which is also what makes ``--resume`` safe: a
ledger "done" is only trusted while its artifact is still loadable.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..attacks import build_attack
from ..attacks.base import BackdoorAttack
from ..data.dataset import ImageDataset
from ..defenses import build_defense
from ..eval.budget import DefenderBudget
from ..eval.metrics import evaluate_backdoor_metrics
from ..eval.runner import _build_dataset
from ..models import build_model
from ..nn.module import Module
from ..orchestrator.artifacts import ArtifactStore
from ..orchestrator.dag import Task
from ..orchestrator.runtime import _metrics_dict
from ..telemetry import emit
from .client import FederatedClient, MaliciousClient
from .scheduler import FederatedScenario, state_key, update_key
from .server import _state_delta_norm, aggregate
from .simulation import split_dataset
from .threat import build_clients

__all__ = ["execute_federated_task", "build_cell", "FederatedCell"]

_SOURCE = "federated"

_STORE: Optional[ArtifactStore] = None
_STORE_ROOT: Optional[str] = None
_CELLS: Dict[str, "FederatedCell"] = {}

# Prepared cells held per worker; a cell carries the full train split, so
# keep this tight to bound memory on multi-cell grids.
_MAX_CACHED_CELLS = 2


@dataclass
class FederatedCell:
    """Everything one scenario's tasks need, rebuilt identically anywhere."""

    scenario: FederatedScenario
    attack: BackdoorAttack
    template: Module  # architecture + deterministic initial weights
    initial_state: Dict[str, np.ndarray]
    clients: List[FederatedClient]
    test_set: ImageDataset
    reservoir: ImageDataset


def build_cell(scenario: FederatedScenario) -> FederatedCell:
    """Deterministically materialize a scenario cell from its config."""
    train, test, reservoir = _build_dataset(scenario)
    attack = build_attack(
        scenario.attack,
        target_class=scenario.target_class,
        image_shape=train.image_shape,
        **dict(scenario.attack_kwargs),
    )
    shards = split_dataset(
        train,
        scenario.num_clients,
        partition=scenario.partition,
        alpha=scenario.alpha,
        rng=np.random.default_rng(scenario.seed),
    )
    clients = build_clients(
        shards,
        scenario.threat(),
        attack,
        client_fraction=scenario.client_fraction,
        local_epochs=scenario.local_epochs,
        lr=scenario.lr,
        batch_size=scenario.batch_size,
        seed=scenario.seed,
    )
    template = build_model(
        scenario.model,
        num_classes=scenario.num_classes,
        profile=scenario.model_profile,
        seed=scenario.seed + 1,
    )
    initial_state = {k: v.copy() for k, v in template.state_dict().items()}
    return FederatedCell(
        scenario=scenario,
        attack=attack,
        template=template,
        initial_state=initial_state,
        clients=clients,
        test_set=test,
        reservoir=reservoir,
    )


def _store(ctx: Dict) -> ArtifactStore:
    global _STORE, _STORE_ROOT
    root = ctx["artifact_dir"]
    if _STORE is None or _STORE_ROOT != root:
        _STORE = ArtifactStore(root)
        _STORE_ROOT = root
        _CELLS.clear()
    return _STORE


def _cell(scenario: FederatedScenario) -> FederatedCell:
    fingerprint = scenario.fingerprint()
    if fingerprint not in _CELLS:
        _CELLS[fingerprint] = build_cell(scenario)
        while len(_CELLS) > _MAX_CACHED_CELLS:
            _CELLS.pop(next(iter(_CELLS)))
    return _CELLS[fingerprint]


def _global_state(
    store: ArtifactStore, cell: FederatedCell, fingerprint: str, round_index: int
) -> Dict[str, np.ndarray]:
    """Global model entering ``round_index`` (initial weights for round 0)."""
    if round_index == 0:
        return cell.initial_state
    state = store.get_state(state_key(fingerprint, round_index - 1))
    if state is None:
        raise RuntimeError(
            f"global model {state_key(fingerprint, round_index - 1)} missing from "
            "artifact store — cannot start round without the previous aggregate"
        )
    return state


def _execute_fed_client(ctx: Dict, task: Task) -> Dict:
    payload = task.payload
    scenario: FederatedScenario = payload["scenario"]
    round_index: int = payload["round"]
    client_id: int = payload["client"]
    store = _store(ctx)
    cell = _cell(scenario)
    fingerprint = scenario.fingerprint()
    client = cell.clients[client_id]
    update = client.local_update(
        cell.template, _global_state(store, cell, fingerprint, round_index), round_index
    )
    key = update_key(fingerprint, round_index, client_id)
    store.put_state(key, update)
    return {
        "round": round_index,
        "client": client_id,
        "num_samples": client.num_samples,
        "malicious": isinstance(client, MaliciousClient),
        "key": key,
    }


def _execute_fed_round(ctx: Dict, task: Task) -> Dict:
    payload = task.payload
    scenario: FederatedScenario = payload["scenario"]
    round_index: int = payload["round"]
    store = _store(ctx)
    cell = _cell(scenario)
    fingerprint = scenario.fingerprint()
    # Fixed client-id order: aggregation must not depend on which worker
    # finished first, or resumed runs would drift numerically.
    participants = scenario.participants(round_index)
    updates: List[Dict[str, np.ndarray]] = []
    weights: List[float] = []
    for client_id in participants:
        update = store.get_state(update_key(fingerprint, round_index, client_id))
        if update is None:
            raise RuntimeError(
                f"client update {update_key(fingerprint, round_index, client_id)} "
                "missing from artifact store"
            )
        updates.append(update)
        weights.append(float(cell.clients[client_id].num_samples))
    new_state = aggregate(
        scenario.aggregation, updates, weights,
        scenario.threat().num_malicious(scenario.num_clients),
    )
    previous = _global_state(store, cell, fingerprint, round_index)
    agg_norm = _state_delta_norm(previous, new_state)
    key = state_key(fingerprint, round_index)
    store.put_state(key, new_state)
    evaluator = copy.deepcopy(cell.template)
    evaluator.load_state_dict(new_state)
    metrics = evaluate_backdoor_metrics(evaluator, cell.test_set, cell.attack)
    emit(
        "federated.round", _SOURCE,
        scenario=fingerprint,
        round=round_index, rounds=scenario.rounds,
        clients=scenario.num_clients,
        malicious_fraction=scenario.malicious_fraction,
        participants=len(participants),
        acc=metrics.acc, asr=metrics.asr, ra=metrics.ra,
        agg_norm=agg_norm,
    )
    return {
        "round": round_index,
        "metrics": _metrics_dict(metrics),
        "agg_norm": agg_norm,
        "participants": len(participants),
        "key": key,
    }


def _execute_fed_defense(ctx: Dict, task: Task) -> Dict:
    payload = task.payload
    scenario: FederatedScenario = payload["scenario"]
    round_index: int = payload["round"]
    defense_name: str = payload["defense"]
    store = _store(ctx)
    cell = _cell(scenario)
    fingerprint = scenario.fingerprint()
    state = store.get_state(state_key(fingerprint, round_index))
    if state is None:
        raise RuntimeError(
            f"global model {state_key(fingerprint, round_index)} missing from artifact store"
        )
    model = copy.deepcopy(cell.template)
    model.load_state_dict(state)
    budget = DefenderBudget(spc=payload["spc"], trial=0, seed=scenario.seed + 0xD)
    data = budget.draw(cell.reservoir, cell.attack)
    defense = build_defense(defense_name, **(payload.get("defense_kwargs") or {}))
    report = defense.apply(model, data)
    metrics = evaluate_backdoor_metrics(model, cell.test_set, cell.attack)
    emit(
        "federated.defense", _SOURCE,
        scenario=fingerprint,
        round=round_index,
        defense=defense_name,
        clients=scenario.num_clients,
        malicious_fraction=scenario.malicious_fraction,
        acc=metrics.acc, asr=metrics.asr, ra=metrics.ra,
    )
    return {
        "round": round_index,
        "defense": defense_name,
        "metrics": _metrics_dict(metrics),
        "report": {k: v for k, v in report.details.items() if isinstance(v, (int, float, str, bool))},
    }


_EXECUTORS = {
    "fed_client": _execute_fed_client,
    "fed_round": _execute_fed_round,
    "fed_defense": _execute_fed_defense,
}


def execute_federated_task(ctx: Dict, task: Task, attempt: int) -> Dict:
    """Pool entry point for federated task kinds."""
    try:
        executor = _EXECUTORS[task.kind]
    except KeyError:
        raise ValueError(f"unknown task kind {task.kind!r} for {task.task_id}") from None
    return executor(ctx, task)
