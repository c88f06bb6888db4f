"""Federated-learning substrate (paper §I's outsourced-training threat).

Implements FedAvg / trimmed-mean / Krum aggregation, honest and
model-replacement malicious clients, IID and Dirichlet data partitioning,
an in-memory federated-backdoor run whose compromised global model can be
handed to any defense in :mod:`repro.defenses` / :mod:`repro.core`, and
the sharded tableF scheduler on the orchestrator.
"""

from .client import FederatedClient, MaliciousClient
from .scheduler import (
    FederatedOrchestrator,
    FederatedScenario,
    FederatedSpec,
    build_federated_dag,
    federated_spec,
)
from .server import AGGREGATIONS, aggregate, fedavg, krum, trimmed_mean
from .simulation import (
    FederatedRunLog,
    run_federated_backdoor,
    split_dataset,
    split_dataset_dirichlet,
    split_dataset_iid,
)
from .threat import ThreatModel, build_clients

__all__ = [
    "FederatedClient",
    "MaliciousClient",
    "AGGREGATIONS",
    "aggregate",
    "fedavg",
    "trimmed_mean",
    "krum",
    "split_dataset",
    "split_dataset_iid",
    "split_dataset_dirichlet",
    "FederatedRunLog",
    "run_federated_backdoor",
    "ThreatModel",
    "build_clients",
    "FederatedScenario",
    "FederatedSpec",
    "federated_spec",
    "build_federated_dag",
    "FederatedOrchestrator",
]
