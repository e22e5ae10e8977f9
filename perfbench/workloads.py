"""The benchmark's workloads.

Each workload is a built-in fedsim scenario with a few overrides, chosen so
that most of its host time lands in a different layer. A later change that
speeds up one layer should move one workload and leave the others alone.

Builders import fedsim lazily, so that set-up time (which includes importing
fedsim) is measured by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Pinned:
    """What a run at master seed 0 produced on the commit that defined the
    benchmark. Any difference is a behaviour change."""

    log_sha256: str
    final_accuracy: float
    clock: float


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], dict]  # master seed -> fedsim config document
    # Exact count of each log event whose count does not depend on the seed.
    events: dict[str, int]
    pinned: Pinned
    checkpoint_round: int | None = None  # stop/resume check after this round


_NO_FAULTS = {"oom": 0, "stalled": 0}


def _fleet_1600(seed: int) -> dict:
    """scale-800 widened to 1600 clients with one minibatch each, so per-client
    bookkeeping dominates and the log is the largest."""
    from fedsim import partition, scenarios

    doc = scenarios.scale_800(seed=seed)
    ids = [partition.client_name(i) for i in range(1, 1601)]
    inline = doc["plan"]["inline"]
    inline["client_ids"] = ids
    inline["counts"] = [[2] * len(inline["class_names"]) for _ in ids]
    doc["clients"] = [dict(doc["clients"][0], client_id=cid) for cid in ids]
    return doc


def _async_dropout_long(seed: int) -> dict:
    """FedAsync, 800 applications, stochastic dropout on all 8 clients: the
    dropout coin replay, evaluation and the async path dominate."""
    from fedsim import scenarios

    doc = scenarios.bdd_async_hetero(seed=seed)
    doc["rounds"] = 100
    doc["train"]["local_epochs"] = 1
    for client in doc["clients"]:
        client["dropout"] = {"mode": "stochastic", "p": 0.1, "q": 0.5}
    return doc


def _sgd_cohort(seed: int) -> dict:
    """overlap-60 under FedProx for 20 rounds of 3 local epochs: per-batch SGD
    in the task layer dominates."""
    from fedsim import scenarios

    doc = scenarios.overlap_60(window=5, seed=seed)
    doc["strategy"] = "fedprox"
    doc["rounds"] = 20
    return doc


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fleet-1600",
            build=_fleet_1600,
            events={"train_window": 4800, "aggregate": 3, "eval": 3, "dropout": 0, **_NO_FAULTS},
            pinned=Pinned(
                log_sha256=(
                    "0d4ea5d24d2f59c07f64b09b3d6ac2db"
                    "0ce9c97b3a2f7eb8dce8407787c5eb31"
                ),
                final_accuracy=0.6875,
                clock=4.755,
            ),
        ),
        Workload(
            name="async-dropout-long",
            build=_async_dropout_long,
            events={"train_window": 800, "aggregate": 800, "eval": 100, **_NO_FAULTS},
            pinned=Pinned(
                log_sha256=(
                    "e22a4d66fd1431c441d36c11261a8f41"
                    "577077b0183e1a5f3bd6018482f2661a"
                ),
                final_accuracy=0.572,
                clock=3088.8000000000006,
            ),
        ),
        Workload(
            name="sgd-cohort",
            build=_sgd_cohort,
            events={"train_window": 1200, "aggregate": 20, "eval": 20, "dropout": 0, **_NO_FAULTS},
            pinned=Pinned(
                log_sha256=(
                    "101bdc1d0b603cd5dab2c542bf0a9a16"
                    "40e5fea59aeab4a91e1a0ffe205cef26"
                ),
                final_accuracy=0.70125,
                clock=1814.0000000000005,
            ),
            checkpoint_round=10,
        ),
    )
}
