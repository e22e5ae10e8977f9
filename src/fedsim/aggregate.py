"""Server-side model combination.

Synchronous rounds use the sample-count-weighted mean (FedAvg; FedProx
shares it, the proximal term being purely client-side).  Asynchronous
updates are applied on arrival by convex mixing with a polynomial
staleness weight.

Both engines pass plain, unchecked `ClientUpdate`s.  Finiteness is
guaranteed by the executor, which stops at a diverged client, and by one
check of each result here, which names the offending clients: every
weight is positive, so a non-finite entry in any update leaves the result
non-finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ProtocolError


class ClientUpdate(NamedTuple):
    """One client's trained float64 parameters and its sample count."""

    client_id: str
    params: np.ndarray
    n_samples: int


@dataclass(frozen=True)
class AsyncConfig:
    """Mixing rate alpha in (0, 1], staleness exponent a >= 0, and the
    budgets `run_async` reads (None: rounds x clients and the client count)."""

    alpha: float = 0.6
    staleness_exponent: float = 0.5
    applications: int | None = None
    eval_every: int | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("async.alpha must lie in (0, 1]")
        if not self.staleness_exponent >= 0:  # NaN fails it too
            raise ConfigError("async.staleness_exponent must be nonnegative")
        for key in ("applications", "eval_every"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ConfigError(f"async.{key} must be >= 1, got {value!r}")


def _finite(result: np.ndarray, updates: list[ClientUpdate]) -> np.ndarray:
    """`result`, or a `ProtocolError` naming the updates with a non-finite entry."""
    if not np.isfinite(result).all():
        bad = [u.client_id for u in updates if not np.isfinite(u.params).all()]
        raise ProtocolError(f"non-finite parameters from {', '.join(bad)}" if bad
                            else "combining finite updates gave a non-finite result")
    return result


def fedavg_aggregate(updates) -> np.ndarray:
    """Sample-weighted mean of client parameters.

    Accumulation runs in ascending client_id order with weights n_k / N
    (N in exact integer arithmetic), so the result is independent of input
    order and of any common scaling of the sample counts.
    """
    updates = sorted(updates, key=lambda u: u.client_id)
    if not updates:
        raise ProtocolError("cannot aggregate an empty update set")
    length = updates[0].params.size
    for u in updates:
        if u.params.size != length:
            raise ProtocolError(
                f"parameter length mismatch: {u.client_id} has {u.params.size}, "
                f"expected {length}"
            )
        if u.n_samples < 1:
            raise ProtocolError(f"update from {u.client_id} carries no samples")
    total = sum(int(u.n_samples) for u in updates)
    out = np.zeros(length, dtype=np.float64)
    for u in updates:
        out += (u.n_samples / total) * u.params
    return _finite(out, updates)


def staleness_weight(cfg: AsyncConfig, staleness: int) -> float:
    """alpha * (tau + 1) ** (-a); equals alpha for a fresh update."""
    if staleness < 0:
        raise ProtocolError("staleness cannot be negative")
    return cfg.alpha * (staleness + 1) ** (-cfg.staleness_exponent)


def fedasync_update(global_params: np.ndarray, update: ClientUpdate, staleness: int,
                    cfg: AsyncConfig) -> np.ndarray:
    """Mix one update, trained `staleness` versions ago, into the global
    parameters: (1 - s) * global + s * update, s the staleness weight."""
    if update.n_samples < 1:
        raise ProtocolError(f"update from {update.client_id} carries no samples")
    alpha_t = staleness_weight(cfg, staleness)
    return _finite((1.0 - alpha_t) * global_params + alpha_t * update.params, [update])
