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
    """An update is a plain record; both functions refuse a bad one."""

    def test_rejects_zero_samples(self):
        u = ClientUpdate("C1", np.zeros(2), 0)
        with pytest.raises(ProtocolError, match="C1 carries no samples"):
            fedavg_aggregate([ClientUpdate("C2", np.zeros(2), 3), u])
        with pytest.raises(ProtocolError, match="C1 carries no samples"):
            fedasync_update(np.zeros(2), u, 0, AsyncConfig())

    def test_rejects_non_finite(self):
        nan = ClientUpdate("C1", np.array([1.0, np.nan]), 1)
        inf = ClientUpdate("C3", np.array([np.inf, 0.0]), 1)
        ok = ClientUpdate("C2", np.array([1.0, 1.0]), 1)
        with pytest.raises(ProtocolError, match=r"non-finite parameters from C1, C3$"):
            fedavg_aggregate([inf, ok, nan])
        for u in (nan, inf):
            with pytest.raises(ProtocolError, match=f"non-finite parameters from {u.client_id}$"):
                fedasync_update(np.zeros(2), u, 0, AsyncConfig())


def reference_fedavg(updates):
    """`fedavg_aggregate`'s loop as it was with checked constructors."""
    updates = sorted(updates, key=lambda u: u.client_id)
    total = sum(int(u.n_samples) for u in updates)
    out = np.zeros(updates[0].params.size, dtype=np.float64)
    for u in updates:
        out += (u.n_samples / total) * u.params
    return out


def reference_fedasync(global_params, params, staleness, cfg):
    alpha_t = staleness_weight(cfg, staleness)
    return (1.0 - alpha_t) * np.asarray(global_params, dtype=np.float64) + (alpha_t * params)


def named(exc_info):
    """The client ids a non-finite `ProtocolError` names, in order."""
    return str(exc_info.value).removeprefix("non-finite parameters from ").split(", ")


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
poison = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def update_sets(draw):
    """Finite updates, and the sorted ids of those given one non-finite entry."""
    dim = draw(st.integers(1, 6))
    n_clients = draw(st.integers(1, 6))
    updates, bad = [], []
    for i in draw(st.permutations(range(n_clients))):
        params = np.array(draw(st.lists(finite, min_size=dim, max_size=dim)))
        cid = f"C{i}"
        if draw(st.integers(0, 3)) == 0:  # one update in four is poisoned
            params[draw(st.integers(0, dim - 1))] = draw(poison)
            bad.append(cid)
        updates.append(ClientUpdate(cid, params, draw(st.integers(1, 10**6))))
    return updates, sorted(bad)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf + -inf
class TestResultCheck:
    """Finiteness is checked once, on the result: finite inputs give the
    bits of the per-update-checked functions, and a non-finite entry is
    refused with exactly the clients that hold one."""

    @given(update_sets())
    @settings(max_examples=200, deadline=None)
    def test_fedavg(self, drawn):
        updates, bad = drawn
        if not bad:
            assert np.array_equal(fedavg_aggregate(updates), reference_fedavg(updates))
            return
        with pytest.raises(ProtocolError) as exc_info:
            fedavg_aggregate(updates)
        assert named(exc_info) == bad

    @given(
        drawn=update_sets(),
        staleness=st.integers(0, 50),
        alpha=st.floats(min_value=0.01, max_value=1.0),
        exponent=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_fedasync(self, drawn, staleness, alpha, exponent):
        updates, bad = drawn
        u = updates[0]
        cfg = AsyncConfig(alpha=alpha, staleness_exponent=exponent)
        w = np.linspace(-1.0, 1.0, u.params.size)
        if u.client_id not in bad:
            got = fedasync_update(w, u, staleness, cfg)
            assert np.array_equal(got, reference_fedasync(w, u.params, staleness, cfg))
            return
        with pytest.raises(ProtocolError) as exc_info:
            fedasync_update(w, u, staleness, cfg)
        assert named(exc_info) == [u.client_id]


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
        update = ClientUpdate("C1", np.array([3.0, -1.0]), 10)
        mixed = fedasync_update(w, update, 3, cfg)
        # staleness 3 -> weight 0.5 / 4
        assert np.allclose(mixed, 0.875 * w + 0.125 * update.params)

    def test_future_version_rejected(self):
        """An update trained on a later version than the current one has
        negative staleness."""
        u = ClientUpdate("C1", np.zeros(2), 1)
        with pytest.raises(ProtocolError, match="negative"):
            fedasync_update(np.zeros(2), u, 2 - 3, AsyncConfig())

    def test_stale_updates_move_less(self):
        cfg = AsyncConfig(alpha=0.6, staleness_exponent=0.5)
        w = np.zeros(3)
        update = ClientUpdate("C1", np.ones(3), 1)
        fresh = fedasync_update(w, update, 0, cfg)
        stale = fedasync_update(w, update, 9, cfg)
        assert np.linalg.norm(stale - w) < np.linalg.norm(fresh - w)
