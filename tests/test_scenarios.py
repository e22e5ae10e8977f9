"""Built-in scenarios: shapes, registry, and config validity."""

import pytest

from fedsim.config import ExperimentConfig
from fedsim.errors import ConfigError
from fedsim.scenarios import SCENARIOS, scenario_config


class TestRegistry:
    def test_expected_names(self):
        assert set(SCENARIOS) == {
            "kitti-sync", "bdd-dropout-dual", "bdd-async-hetero", "overlap-60",
            "hetero-resolution", "lighting-crossdomain", "scale-800",
        }

    def test_every_builder_yields_valid_config(self):
        for name in SCENARIOS:
            cfg = scenario_config(name, seed=0)
            assert isinstance(cfg, ExperimentConfig)
            assert cfg.master_seed == 0

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            scenario_config("mars-rover")

    def test_seed_threads_through(self):
        assert scenario_config("kitti-sync", seed=7).master_seed == 7


class TestShapes:
    def test_kitti_sync(self):
        cfg = scenario_config("kitti-sync")
        assert cfg.n_clients == 4
        assert cfg.strategy == "fedavg"
        assert cfg.rounds == 10

    def test_dropout_dual_pair(self):
        cfg = scenario_config("bdd-dropout-dual", pair=("C3", "C4"))
        absent = {
            c.client_id for c in cfg.clients if c.dropout.mode == "absent_rounds"
        }
        assert absent == {"C3", "C4"}
        for c in cfg.clients:
            if c.client_id in absent:
                assert c.dropout.absent_rounds == frozenset(range(1, 11))

    def test_dropout_dual_skew_ordering(self):
        cfg = scenario_config("bdd-dropout-dual")
        totals = [cfg.plan.client_total(c.client_id) for c in cfg.clients]
        assert totals == sorted(totals, reverse=True)
        assert totals[0] > 4 * totals[-1]

    def test_dropout_dual_eval_mixture_matches_shares(self):
        cfg = scenario_config("bdd-dropout-dual")
        mix = cfg.eval.scenario_mix()
        pool = cfg.plan.total_samples
        for c in cfg.clients:
            share = cfg.plan.client_total(c.client_id) / pool
            assert mix[f"domain-{c.client_id}"] == pytest.approx(share, abs=1e-9)

    def test_dropout_dual_unknown_pair(self):
        with pytest.raises(ConfigError):
            scenario_config("bdd-dropout-dual", pair=("C1", "C9"))

    def test_async_hetero_speeds(self):
        cfg = scenario_config("bdd-async-hetero")
        assert cfg.strategy == "fedasync"
        speeds = {c.client_id: c.device.speed_factor for c in cfg.clients}
        assert all(speeds[f"C{i}"] == 1.0 for i in range(1, 5))
        assert all(speeds[f"C{i}"] == 4.0 for i in range(5, 9))

    def test_async_hetero_sync_baseline(self):
        cfg = scenario_config("bdd-async-hetero", strategy="fedavg")
        assert cfg.strategy == "fedavg"

    def test_overlap_60(self):
        cfg = scenario_config("overlap-60", window=5)
        assert cfg.plan.n_clients == 60
        assert cfg.plan.window == 5
        disjoint = scenario_config("overlap-60", window=1)
        assert disjoint.plan.window == 1

    def test_hetero_resolution_upgrade(self):
        cfg = scenario_config("hetero-resolution", upgrade="C2")
        by_id = {c.client_id: c for c in cfg.clients}
        assert by_id["C2"].resolution == 960
        assert by_id["C1"].resolution == 640
        # the upgrade must stay memory-feasible on the default device
        assert by_id["C2"].batch == 16

    def test_lighting_crossdomain(self):
        cfg = scenario_config(
            "lighting-crossdomain", train_scenario="night", eval_scenario="day"
        )
        for c in cfg.clients:
            assert c.scenario_mix == {"night": 1.0}
        assert cfg.eval.scenario_mix() == {"day": 1.0}
        with pytest.raises(ConfigError):
            scenario_config("lighting-crossdomain", train_scenario="fog")

    def test_scale_800(self):
        cfg = scenario_config("scale-800")
        assert cfg.n_clients == 800
        assert cfg.plan.total_samples == 800 * 16


def _containers(doc):
    yield doc
    for value in doc.values() if isinstance(doc, dict) else doc:
        if isinstance(value, (dict, list)):
            yield from _containers(value)


class TestBuilderOutput:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_call_returns_fresh_dicts(self, name):
        # Callers edit builder output in place, so no dict or list may be
        # shared between two calls or between two places in one document.
        builder, _ = SCENARIOS[name]
        first, second = builder(seed=0), builder(seed=0)
        assert first == second
        ids = [id(c) for doc in (first, second) for c in _containers(doc)]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_one_dict_per_client(self, name):
        builder, _ = SCENARIOS[name]
        doc = builder(seed=0)
        cfg = scenario_config(name)
        assert [c["client_id"] for c in doc["clients"]] == [c.client_id for c in cfg.clients]
