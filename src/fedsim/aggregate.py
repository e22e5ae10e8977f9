"""Server-side model combination.

Synchronous rounds use the sample-count-weighted mean (FedAvg; FedProx
shares it, the proximal term being purely client-side).  Asynchronous
updates are applied on arrival by convex mixing with a polynomial
staleness weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError


@dataclass(frozen=True)
class ClientUpdate:
    client_id: str
    params: np.ndarray
    n_samples: int
    base_version: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ProtocolError("update must carry at least one sample")
        params = np.asarray(self.params, dtype=np.float64)
        if not np.all(np.isfinite(params)):
            raise ProtocolError(f"non-finite parameters from {self.client_id}")
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class AsyncConfig:
    """Mixing rate alpha in (0, 1] and staleness exponent a >= 0."""

    alpha: float = 0.6
    staleness_exponent: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("async.alpha must lie in (0, 1]")
        if self.staleness_exponent < 0:
            raise ConfigError("async.staleness_exponent must be nonnegative")


def fedavg_aggregate(updates) -> np.ndarray:
    """Sample-weighted mean of client parameters.

    Accumulation runs in ascending client_id order with weights n_k / N
    (N in exact integer arithmetic), so the result is independent of input
    order and of any common scaling of the sample counts.
    """
    updates = list(updates)
    if not updates:
        raise ProtocolError("cannot aggregate an empty update set")
    length = updates[0].params.size
    for u in updates:
        if u.params.size != length:
            raise ProtocolError(
                f"parameter length mismatch: {u.client_id} has {u.params.size}, "
                f"expected {length}"
            )
    updates.sort(key=lambda u: u.client_id)
    total = sum(int(u.n_samples) for u in updates)
    out = np.zeros(length, dtype=np.float64)
    for u in updates:
        out += (u.n_samples / total) * u.params
    return out


def staleness_weight(cfg: AsyncConfig, staleness: int) -> float:
    """alpha * (tau + 1) ** (-a); equals alpha for a fresh update."""
    if staleness < 0:
        raise ProtocolError("staleness cannot be negative")
    return cfg.alpha * (staleness + 1) ** (-cfg.staleness_exponent)


def fedasync_update(
    global_params: np.ndarray,
    version: int,
    update: ClientUpdate,
    cfg: AsyncConfig,
) -> tuple[np.ndarray, int, float]:
    """Apply one asynchronous update by convex mixing.

    Returns (new params, version + 1, staleness weight used).
    """
    if update.base_version > version:
        raise ProtocolError(
            f"update from {update.client_id} trained on version "
            f"{update.base_version} > current {version}"
        )
    tau = version - update.base_version
    alpha_t = staleness_weight(cfg, tau)
    mixed = (1.0 - alpha_t) * np.asarray(global_params, dtype=np.float64) + (
        alpha_t * update.params
    )
    return mixed, version + 1, alpha_t
