"""Deterministic federated-learning deployment simulator.

Pluggable aggregation (FedAvg / FedProx / FedAsync), published non-IID
client partitions, dropout and heterogeneity scheduling, checkpointed
fault tolerance, and a resource cost model calibrated from measured GPU
profiles, exercised on a desk-scale synthetic learning task.

The API lives in the submodules (``fedsim.orchestrator.run``,
``fedsim.config.load_config``, ...); importing the package loads them all.
"""

from . import aggregate, config, costs, errors, metrics, orchestrator, partition, scenarios, task

__version__ = "0.1.0"
