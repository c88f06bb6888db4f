"""Federated server-side aggregation: FedAvg and robust variants.

Besides plain FedAvg (McMahan et al., 2017), the server supports
coordinate-wise **trimmed-mean** aggregation (Yin et al., 2018) as the
standard robust baseline — useful for showing that simple robust
aggregation only partially blunts model-replacement backdoors, which
motivates post-hoc repair (Grad-Prune) at the server — and Krum
(Blanchard et al., 2017).  :func:`aggregate` is the one dispatch both
federated runners (the in-memory loop and the scheduler's ``fed_round``
task) call.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

__all__ = ["AGGREGATIONS", "aggregate", "fedavg", "trimmed_mean", "krum"]

AGGREGATIONS = ("fedavg", "trimmed_mean", "krum")

StateDict = Dict[str, np.ndarray]


def fedavg(updates: Sequence[StateDict], weights: Sequence[float]) -> StateDict:
    """Sample-count-weighted average of client state dicts."""
    if not updates:
        raise ValueError("no updates to aggregate")
    if len(updates) != len(weights):
        raise ValueError("updates and weights length mismatch")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    result: StateDict = {}
    for key in updates[0]:
        stacked = np.stack([u[key] for u in updates])
        w = np.asarray(weights, dtype=np.float64) / total
        result[key] = np.tensordot(w, stacked, axes=1).astype(stacked.dtype)
    return result


def trimmed_mean(updates: Sequence[StateDict], trim: int = 1) -> StateDict:
    """Coordinate-wise trimmed mean: drop the ``trim`` largest and smallest.

    Requires ``len(updates) > 2 * trim``.
    """
    if not updates:
        raise ValueError("no updates to aggregate")
    if len(updates) <= 2 * trim:
        raise ValueError(
            f"need more than {2 * trim} updates for trim={trim}, got {len(updates)}"
        )
    result: StateDict = {}
    for key in updates[0]:
        stacked = np.sort(np.stack([u[key] for u in updates]), axis=0)
        kept = stacked[trim : len(updates) - trim] if trim else stacked
        result[key] = kept.mean(axis=0).astype(stacked.dtype)
    return result


def _flatten(update: StateDict) -> np.ndarray:
    return np.concatenate([update[key].ravel() for key in sorted(update)])


def krum(updates: Sequence[StateDict], num_malicious: int = 1) -> StateDict:
    """Krum aggregation (Blanchard et al., 2017): pick the most central update.

    Each update is scored by the sum of squared distances to its
    ``n - f - 2`` nearest neighbours; the update with the smallest score is
    taken verbatim.  Requires ``len(updates) >= num_malicious + 3``.
    """
    n = len(updates)
    f = num_malicious
    if n < f + 3:
        raise ValueError(f"Krum needs >= f + 3 = {f + 3} updates, got {n}")
    vectors = np.stack([_flatten(u) for u in updates]).astype(np.float64)
    # Pairwise squared distances.
    squared_norms = (vectors ** 2).sum(axis=1)
    distances = squared_norms[:, None] + squared_norms[None, :] - 2.0 * vectors @ vectors.T
    np.fill_diagonal(distances, np.inf)
    neighbours = n - f - 2
    scores = np.sort(distances, axis=1)[:, :neighbours].sum(axis=1)
    winner = int(scores.argmin())
    return {key: value.copy() for key, value in updates[winner].items()}


def aggregate(
    name: str,
    updates: Sequence[StateDict],
    weights: Sequence[float],
    num_malicious: int,
) -> StateDict:
    """Fold one round's client updates with the named rule.

    ``weights`` are the clients' sample counts (FedAvg); ``num_malicious``
    is Krum's assumed attacker count ``f``.  Trimmed mean drops one update
    per side.
    """
    if name == "fedavg":
        return fedavg(updates, weights)
    if name == "trimmed_mean":
        return trimmed_mean(updates)
    if name == "krum":
        return krum(updates, num_malicious=num_malicious)
    raise ValueError(f"unknown aggregation {name!r}; choose from {AGGREGATIONS}")


def _state_delta_norm(before: StateDict, after: StateDict) -> float:
    """L2 norm of a global-model update (aggregation-norm telemetry)."""
    total = 0.0
    for key, old in before.items():
        diff = np.asarray(after[key], dtype=np.float64) - np.asarray(old, dtype=np.float64)
        total += float((diff * diff).sum())
    return float(np.sqrt(total))
