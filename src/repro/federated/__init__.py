"""Federated-learning substrate (paper §I's outsourced-training threat).

Implements FedAvg / trimmed-mean / Krum aggregation, honest and
model-replacement malicious clients, IID and Dirichlet data partitioning,
an in-memory federated-backdoor run whose compromised global model can be
handed to any defense in :mod:`repro.defenses` / :mod:`repro.core`, and
the sharded tableF scheduler on the orchestrator.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "client": ("FederatedClient", "MaliciousClient"),
    "server": ("AGGREGATIONS", "aggregate", "fedavg", "trimmed_mean", "krum"),
    "simulation": (
        "split_dataset", "split_dataset_iid", "split_dataset_dirichlet", "FederatedRunLog",
        "run_federated_backdoor",
    ),
    "threat": ("ThreatModel", "build_clients"),
    "scheduler": (
        "FederatedScenario", "FederatedSpec", "federated_spec", "build_federated_dag",
        "FederatedOrchestrator",
    ),
})
