"""Aggregation rules: weighted averaging and staleness-weighted mixing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.aggregate import (
    AsyncConfig,
    ClientUpdate,
    fedasync_update,
    fedavg_aggregate,
    staleness_weight,
)
from fedsim.errors import ConfigError, ProtocolError


def brute_force_mean(updates):
    """Direct Sum(n_k w_k) / Sum(n_k) with no ordering or weighting tricks."""
    total = sum(u.n_samples for u in updates)
    acc = np.zeros_like(updates[0].params)
    for u in updates:
        acc = acc + u.n_samples * u.params
    return acc / total


def random_updates(rng, n_clients, dim):
    return [
        ClientUpdate(
            client_id=f"C{i + 1}",
            params=rng.standard_normal(dim),
            n_samples=int(rng.integers(1, 10_000)),
        )
        for i in range(n_clients)
    ]


class TestFedAvg:
    def test_single_update_passthrough(self):
        u = ClientUpdate("C1", np.array([1.0, -2.0, 3.0]), 7)
        assert np.array_equal(fedavg_aggregate([u]), u.params)

    def test_equal_weights_is_plain_mean(self):
        a = ClientUpdate("C1", np.array([2.0, 0.0]), 5)
        b = ClientUpdate("C2", np.array([0.0, 4.0]), 5)
        assert np.allclose(fedavg_aggregate([a, b]), [1.0, 2.0])

    def test_against_brute_force(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            updates = random_updates(rng, int(rng.integers(1, 12)), 17)
            got = fedavg_aggregate(updates)
            assert np.max(np.abs(got - brute_force_mean(updates))) <= 1e-12

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(7)
        updates = random_updates(rng, 9, 33)
        base = fedavg_aggregate(updates)
        for _ in range(20):
            perm = list(rng.permutation(len(updates)))
            shuffled = [updates[i] for i in perm]
            assert np.array_equal(fedavg_aggregate(shuffled), base)

    def test_sample_scale_invariant_bitwise(self):
        rng = np.random.default_rng(8)
        updates = random_updates(rng, 6, 10)
        base = fedavg_aggregate(updates)
        for c in (2, 10, 1000):
            scaled = [
                ClientUpdate(u.client_id, u.params, u.n_samples * c) for u in updates
            ]
            assert np.array_equal(fedavg_aggregate(scaled), base)

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            fedavg_aggregate([])

    def test_length_mismatch_rejected(self):
        a = ClientUpdate("C1", np.zeros(3), 1)
        b = ClientUpdate("C2", np.zeros(4), 1)
        with pytest.raises(ProtocolError):
            fedavg_aggregate([a, b])

    @given(
        counts=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=10),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100)
    def test_mean_lies_in_convex_hull(self, counts, seed):
        rng = np.random.default_rng(seed)
        updates = [
            ClientUpdate(f"C{i}", rng.standard_normal(4), n)
            for i, n in enumerate(counts)
        ]
        mean = fedavg_aggregate(updates)
        stacked = np.stack([u.params for u in updates])
        assert np.all(mean >= stacked.min(axis=0) - 1e-12)
        assert np.all(mean <= stacked.max(axis=0) + 1e-12)


class TestClientUpdate:
    def test_rejects_zero_samples(self):
        with pytest.raises(ProtocolError):
            ClientUpdate("C1", np.zeros(2), 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ProtocolError):
            ClientUpdate("C1", np.array([1.0, np.nan]), 1)
        with pytest.raises(ProtocolError):
            ClientUpdate("C1", np.array([np.inf, 0.0]), 1)


class TestStalenessWeight:
    def test_fresh_update_gets_alpha(self):
        cfg = AsyncConfig(alpha=0.6, staleness_exponent=0.5)
        assert staleness_weight(cfg, 0) == pytest.approx(0.6)

    def test_polynomial_decay_values(self):
        cfg = AsyncConfig(alpha=0.6, staleness_exponent=0.5)
        assert staleness_weight(cfg, 3) == pytest.approx(0.6 / 2.0)
        assert staleness_weight(cfg, 8) == pytest.approx(0.6 / 3.0)

    def test_monotone_decreasing(self):
        cfg = AsyncConfig()
        weights = [staleness_weight(cfg, t) for t in range(20)]
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_zero_exponent_is_constant(self):
        cfg = AsyncConfig(alpha=0.4, staleness_exponent=0.0)
        assert staleness_weight(cfg, 50) == pytest.approx(0.4)

    def test_negative_staleness_rejected(self):
        with pytest.raises(ProtocolError):
            staleness_weight(AsyncConfig(), -1)

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="alpha"):
            AsyncConfig(alpha=0.0)
        with pytest.raises(ConfigError, match="alpha"):
            AsyncConfig(alpha=1.2)
        with pytest.raises(ConfigError, match="staleness_exponent"):
            AsyncConfig(staleness_exponent=-0.1)


class TestFedAsyncUpdate:
    def test_convex_mix_oracle(self):
        cfg = AsyncConfig(alpha=0.5, staleness_exponent=1.0)
        w = np.array([1.0, 1.0])
        update = ClientUpdate("C1", np.array([3.0, -1.0]), 10, base_version=2)
        mixed, version, alpha_t = fedasync_update(w, 5, update, cfg)
        # staleness 3 -> weight 0.5 / 4
        assert alpha_t == pytest.approx(0.125)
        assert np.allclose(mixed, 0.875 * w + 0.125 * update.params)
        assert version == 6

    def test_version_always_increments(self):
        cfg = AsyncConfig()
        w = np.zeros(2)
        v = 0
        for k in range(5):
            u = ClientUpdate("C1", np.ones(2), 1, base_version=v)
            w, v, _ = fedasync_update(w, v, u, cfg)
        assert v == 5

    def test_future_version_rejected(self):
        u = ClientUpdate("C1", np.zeros(2), 1, base_version=3)
        with pytest.raises(ProtocolError):
            fedasync_update(np.zeros(2), 2, u, AsyncConfig())

    def test_stale_updates_move_less(self):
        cfg = AsyncConfig(alpha=0.6, staleness_exponent=0.5)
        w = np.zeros(3)
        target = np.ones(3)
        fresh, _, _ = fedasync_update(w, 0, ClientUpdate("C1", target, 1, 0), cfg)
        stale, _, _ = fedasync_update(w, 9, ClientUpdate("C1", target, 1, 0), cfg)
        assert np.linalg.norm(stale - w) < np.linalg.norm(fresh - w)
