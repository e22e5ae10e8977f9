"""Orchestration: sync rounds, async event loop, dropout, checkpointing."""

import dataclasses
import gc
import io
import itertools
import json
import os
import subprocess
import sys
import unittest.mock
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedsim
from fedsim import costs, orchestrator, streams
from fedsim.config import DropoutRule, config_from_dict
from fedsim.errors import ConfigError, SimulationError
from fedsim.metrics import MetricsWriter, build_report, open_log_writer
from fedsim.orchestrator import (
    Checkpoint,
    apply_dropout,
    checkpoint_resume,
    checkpoint_save,
    read_checkpoint,
    run,
    run_async,
    run_sync,
    write_checkpoint,
)
from fedsim.scenarios import SCENARIOS, bdd_async_hetero, kitti_sync
from fedsim.task import LocalDataset

from reference import async_one_at_a_time, from_line, read_back


def small_doc(**overrides):
    doc = {
        "schema_version": 1,
        "strategy": "fedavg",
        "rounds": 4,
        "master_seed": 0,
        "train": {"local_epochs": 1, "batch_size": 8, "learning_rate": 0.05},
        "task": {"n_classes": 8, "n_features": 16, "noise_sigma": 1.0},
        "plan": {"builtin": "kitti-4", "scale_divisor": 64},
        "eval": {"per_class": 50},
    }
    doc.update(overrides)
    return doc


def capture(cfg, runner=run_sync, **kw):
    buf = io.StringIO()
    result = runner(cfg, MetricsWriter(buf), **kw)
    return result, buf.getvalue()


class TestApplyDropout:
    def test_always_on(self):
        rules = {"C1": DropoutRule(), "C2": DropoutRule()}
        assert apply_dropout(rules, 1, 0) == ["C1", "C2"]

    def test_absent_rounds(self):
        rules = {
            "C1": DropoutRule(mode="absent_rounds", absent_rounds=frozenset({2, 3})),
            "C2": DropoutRule(),
        }
        assert apply_dropout(rules, 1, 0) == ["C1", "C2"]
        assert apply_dropout(rules, 2, 0) == ["C2"]
        assert apply_dropout(rules, 3, 0) == ["C2"]
        assert apply_dropout(rules, 4, 0) == ["C1", "C2"]

    def test_stochastic_deterministic_per_seed(self):
        rules = {"C1": DropoutRule(mode="stochastic", p=0.5, q=0.5)}
        for rnd in range(1, 20):
            a = apply_dropout(rules, rnd, 7)
            b = apply_dropout(rules, rnd, 7)
            assert a == b

    def test_stochastic_query_order_independent(self):
        # presence at round r must not depend on which rounds were queried before
        rules = {"C1": DropoutRule(mode="stochastic", p=0.4, q=0.6)}
        forward = [apply_dropout(rules, r, 3) for r in range(1, 15)]
        backward = [apply_dropout(rules, r, 3) for r in range(14, 0, -1)][::-1]
        assert forward == backward

    def test_stochastic_extremes(self):
        never = {"C1": DropoutRule(mode="stochastic", p=1.0, q=0.0)}
        assert apply_dropout(never, 1, 0) == ["C1"]  # present initially
        assert apply_dropout(never, 2, 0) == []
        assert apply_dropout(never, 10, 0) == []
        sticky = {"C1": DropoutRule(mode="stochastic", p=0.0, q=0.0)}
        assert apply_dropout(sticky, 10, 0) == ["C1"]


class TestRunSync:
    def test_deterministic_logs(self):
        cfg = config_from_dict(small_doc())
        _, log_a = capture(cfg)
        _, log_b = capture(cfg)
        assert log_a == log_b

    @pytest.mark.parametrize("stop", [0, -3])
    def test_non_positive_stop_round_rejected_before_any_record(self, stop):
        cfg = config_from_dict(small_doc())
        buf = io.StringIO()
        with pytest.raises(ConfigError, match="stop_after_round must be at least 1"):
            run_sync(cfg, MetricsWriter(buf), stop_after_round=stop)
        assert buf.getvalue() == ""

    def test_seed_changes_outcome(self):
        a = run_sync(config_from_dict(small_doc(master_seed=1)))
        b = run_sync(config_from_dict(small_doc(master_seed=2)))
        assert not np.array_equal(a.params, b.params)

    def test_history_one_eval_per_round(self):
        result, _ = capture(config_from_dict(small_doc()))
        assert [r for r, _ in result.history] == [1, 2, 3, 4]
        assert result.rounds_completed == 4

    def test_log_is_complete_report(self):
        cfg = config_from_dict(small_doc())
        buf = io.StringIO()
        run_sync(cfg, MetricsWriter(buf))
        report = build_report(read_back(buf))
        assert report.complete
        assert len(report.clients) == 4

    def test_clock_advances_by_slowest_participant(self):
        cfg = config_from_dict(small_doc(rounds=1))
        buf = io.StringIO()
        run_sync(cfg, MetricsWriter(buf))
        records = read_back(buf)
        trains = [r for r in records if r.event == "train_window"]
        aggregate = next(r for r in records if r.event == "aggregate")
        assert aggregate.t_start_s == pytest.approx(
            max(r.t_end_s for r in trains)
        )

    def test_dropout_emits_events_and_excludes_client(self):
        doc = small_doc(clients=[
            {"client_id": "C1",
             "dropout": {"mode": "absent_rounds", "rounds": [1, 2]}},
            {"client_id": "C2"}, {"client_id": "C3"}, {"client_id": "C4"},
        ])
        cfg = config_from_dict(doc)
        buf = io.StringIO()
        sink = MetricsWriter(buf)
        run_sync(cfg, sink)
        records = read_back(buf)
        drops = [r for r in records if r.event == "dropout"]
        assert [(r.round, r.client_id) for r in drops] == [(1, "C1"), (2, "C1")]
        trained = {(r.round, r.client_id) for r in records
                   if r.event == "train_window"}
        assert (1, "C1") not in trained
        assert (3, "C1") in trained

    def test_oom_client_skipped(self):
        doc = small_doc(clients=[
            {"client_id": "C1", "resolution": 960},  # 50892 MiB > default capacity
            {"client_id": "C2"}, {"client_id": "C3"}, {"client_id": "C4"},
        ])
        buf = io.StringIO()
        sink = MetricsWriter(buf)
        run_sync(config_from_dict(doc), sink)
        records = read_back(buf)
        ooms = [r for r in records if r.event == "oom"]
        assert len(ooms) == 4  # every round
        assert all(r.client_id == "C1" for r in ooms)
        assert not any(
            r.client_id == "C1" for r in records if r.event == "train_window"
        )

    def test_all_absent_round_stalls_and_carries_model(self):
        doc = small_doc(clients=[
            {"client_id": cid, "dropout": {"mode": "absent_rounds", "rounds": [2]}}
            for cid in ("C1", "C2", "C3", "C4")
        ])
        buf = io.StringIO()
        sink = MetricsWriter(buf)
        result = run_sync(config_from_dict(doc), sink)
        stalled = [r for r in read_back(buf) if r.event == "stalled"]
        assert [r.round for r in stalled] == [2]
        accs = dict(result.history)
        assert accs[2] == accs[1]  # unchanged model, same eval set

    def test_nothing_can_run_raises(self):
        doc = small_doc(clients=[
            {"client_id": cid,
             "dropout": {"mode": "absent_rounds", "rounds": [1, 2, 3, 4]}}
            for cid in ("C1", "C2", "C3", "C4")
        ])
        with pytest.raises(SimulationError):
            run_sync(config_from_dict(doc))

    def test_wrong_strategy_rejected(self):
        cfg = config_from_dict(small_doc(strategy="fedasync"))
        with pytest.raises(ConfigError):
            run_sync(cfg)

    def test_energy_consistency_in_log(self):
        buf = io.StringIO()
        sink = MetricsWriter(buf)
        run_sync(config_from_dict(small_doc()), sink)
        for r in read_back(buf):
            if r.event == "train_window":
                assert r.energy_j == pytest.approx(
                    r.power_w * (r.t_end_s - r.t_start_s)
                )

    def test_overlap_clients_share_samples(self):
        doc = small_doc(
            plan={"overlap": {"n_clients": 4, "window": 2,
                              "per_partition_counts": [4] * 8}},
            rounds=1,
        )
        cfg = config_from_dict(doc)
        from fedsim.orchestrator import _build_datasets

        datasets = _build_datasets(cfg)
        # C1 holds partitions (1,2), C2 holds (2,3): the shared partition's
        # samples appear verbatim in both
        c1 = datasets["C1"].features
        c2 = datasets["C2"].features
        assert len(datasets["C1"]) == 64
        shared_in_c1 = c1[32:]
        shared_in_c2 = c2[:32]
        assert np.array_equal(shared_in_c1, shared_in_c2)


class TestRunAsync:
    def async_doc(self, **overrides):
        doc = small_doc(strategy="fedasync", **overrides)
        return doc

    def test_budget_respected(self):
        cfg = config_from_dict(self.async_doc())
        buf = io.StringIO()
        sink = MetricsWriter(buf)
        run_async(cfg, sink)
        applications = [r for r in read_back(buf) if r.event == "aggregate"]
        assert len(applications) == 4 * 4  # the default: rounds x clients
        cfg = config_from_dict(self.async_doc(**{"async": {"applications": 7}}))
        buf = io.StringIO()
        sink = MetricsWriter(buf)
        run_async(cfg, sink)
        assert [r.event for r in read_back(buf)].count("aggregate") == 7

    def test_eval_cadence(self):
        cfg = config_from_dict(self.async_doc())
        result, _ = capture(cfg, runner=run_async)
        # one eval every n_clients applications: 16 applications / 4
        assert len(result.history) == 4

    def test_deterministic(self):
        cfg = config_from_dict(self.async_doc())
        _, a = capture(cfg, runner=run_async)
        _, b = capture(cfg, runner=run_async)
        assert a == b

    def test_staleness_recorded_nonnegative(self):
        cfg = config_from_dict(self.async_doc())
        buf = io.StringIO()
        sink = MetricsWriter(buf)
        run_async(cfg, sink)
        staleness = [r.staleness for r in read_back(buf) if r.event == "aggregate"]
        assert all(s >= 0 for s in staleness)
        assert any(s > 0 for s in staleness)  # concurrency produces staleness

    def test_fast_clients_complete_more(self):
        doc = self.async_doc(clients=[
            {"client_id": "C1"},
            {"client_id": "C2"},
            {"client_id": "C3"},
            {"client_id": "C4", "device": {"speed_factor": 50.0}},
        ])
        buf = io.StringIO()
        sink = MetricsWriter(buf)
        run_async(config_from_dict(doc), sink)
        counts = {}
        for r in read_back(buf):
            if r.event == "aggregate":
                counts[r.client_id] = counts.get(r.client_id, 0) + 1
        assert counts["C4"] == max(counts.values())

    def test_event_order_is_time_then_id(self):
        cfg = config_from_dict(self.async_doc())
        buf = io.StringIO()
        sink = MetricsWriter(buf)
        run_async(cfg, sink)
        completions = [
            (r.t_end_s, r.client_id) for r in read_back(buf) if r.event == "train_window"
        ]
        assert completions == sorted(completions)

    def test_no_feasible_client_raises(self):
        doc = self.async_doc(clients=[
            {"client_id": cid, "resolution": 960} for cid in ("C1", "C2", "C3", "C4")
        ])
        with pytest.raises(SimulationError):
            run_async(config_from_dict(doc))

    def test_wrong_strategy_rejected(self):
        with pytest.raises(ConfigError):
            run_async(config_from_dict(small_doc()))

    def test_run_dispatcher(self):
        sync_result = run(config_from_dict(small_doc()))
        async_result = run(config_from_dict(self.async_doc()))
        assert sync_result.rounds_completed == 4
        assert async_result.version == 16

    def test_run_dispatcher_stops_sync_only(self):
        assert run(config_from_dict(small_doc()), stop_after_round=2).rounds_completed == 2
        buf = io.StringIO()
        sink = MetricsWriter(buf)
        with pytest.raises(ConfigError, match="sync runs only"):
            run(config_from_dict(self.async_doc()), sink, stop_after_round=2)
        assert read_back(buf) == []


def _uncalibrated_sync():
    """C2 at an uncalibrated resolution, absent in rounds 1-2: the run
    could log both rounds before C2 is first looked up."""
    doc = kitti_sync()
    for client in doc["clients"]:
        if client["client_id"] == "C2":
            client["resolution"] = 480
            client["dropout"] = {"mode": "absent_rounds", "rounds": [1, 2]}
    return doc


def _uncalibrated_async():
    doc = bdd_async_hetero()
    for client in doc["clients"]:
        if client["client_id"] == "C2":
            client["resolution"] = 480
    return doc


class TestRunSetUp:
    @pytest.mark.parametrize("build", [_uncalibrated_sync, _uncalibrated_async])
    def test_uncalibrated_client_fails_before_any_record(self, build):
        buf = io.StringIO()
        with pytest.raises(ConfigError, match="resolution 480 is not calibrated"):
            run(config_from_dict(build()), MetricsWriter(buf))
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("strategy", ["fedavg", "fedasync"])
    def test_no_client_fits_memory_fails_before_any_record(self, strategy):
        doc = kitti_sync(strategy=strategy)
        for client in doc["clients"]:
            client["resolution"] = 960  # batch 32 at 960 px exceeds the default device
        buf = io.StringIO()
        with pytest.raises(SimulationError, match="no client fits"):
            run(config_from_dict(doc), MetricsWriter(buf))
        assert buf.getvalue() == ""

    def test_fitting_clients_never_present_fails_before_any_record(self):
        doc = kitti_sync()
        for client in doc["clients"]:
            if client["client_id"] == "C2":
                client["dropout"] = {"mode": "absent_rounds", "rounds": list(range(1, 11))}
            else:
                client["resolution"] = 960
        buf = io.StringIO()
        with pytest.raises(SimulationError, match="present in any round"):
            run(config_from_dict(doc), MetricsWriter(buf))
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("strategy", ["fedavg", "fedasync"])
    def test_cost_lookup_once_per_client(self, monkeypatch, strategy):
        calls = []
        lookup = costs.lookup

        def counting_lookup(profile, resolution, batch, **kw):
            calls.append((profile.architecture, resolution, batch))
            return lookup(profile, resolution, batch, **kw)

        monkeypatch.setattr(costs, "lookup", counting_lookup)
        cfg = config_from_dict(small_doc(strategy=strategy, rounds=4))
        run(cfg)
        assert len(calls) == len(cfg.clients)


def _interleaved_groups_doc():
    """Eight clients, listed out of name order, in four dataset shape groups
    whose members alternate; each of plan row, resolution and scenario mix
    alone tells group 0 from one other group."""
    ids = ["C8", "C3", "C5", "C1", "C7", "C2", "C6", "C4"]
    row_a, row_b = [2, 0, 3, 1, 1, 0, 2, 4], [1] * 8
    shapes = [(row_a, 640, 32, {"day": 1.0}), (row_a, 640, 32, None),
              (row_a, 960, 16, {"day": 1.0}), (row_b, 640, 32, {"day": 1.0})]
    doc = small_doc(rounds=1)
    doc["task"]["scenario_tags"] = ["day"]
    doc["plan"] = {"inline": {"client_ids": ids, "class_names": [f"k{j}" for j in range(8)],
                              "counts": [shapes[i % 4][0] for i in range(8)]}}
    doc["clients"] = [
        {"client_id": cid, "resolution": resolution, "batch": batch, "architecture": "v8",
         "scenario_mix": mix}
        for i, cid in enumerate(ids)
        for _, resolution, batch, mix in [shapes[i % 4]]
    ]
    return doc


class TestBuildDatasets:
    def test_groups_drawn_once_each_in_config_order(self, monkeypatch):
        cfg = config_from_dict(_interleaved_groups_doc())
        calls = []
        draw = orchestrator.generate_datasets

        def counting_draw(task, row, mix, seeds, client_ids):
            calls.append(list(client_ids))
            return draw(task, row, mix, seeds, client_ids)

        monkeypatch.setattr(orchestrator, "generate_datasets", counting_draw)
        datasets = orchestrator._build_datasets(cfg)
        ids = [c.client_id for c in cfg.clients]
        assert list(datasets) == ids
        assert calls == [ids[g::4] for g in range(4)]
        keys = streams.derive(0, orchestrator._DATA, [streams.client_key(cid) for cid in ids])
        for client, key in zip(cfg.clients, keys):
            factor = cfg.resolution_noise[client.resolution]
            one = orchestrator.generate_dataset(
                cfg.task.with_noise_scale(factor), cfg.plan.row(client.client_id),
                client.scenario_mix, key, client.client_id,
            )
            data = datasets[client.client_id]
            assert data.client_id == client.client_id
            assert np.array_equal(data.features, one.features)
            assert np.array_equal(data.labels, one.labels)
            assert data.scenarios == one.scenarios

    def test_overlap_partitions_drawn_in_one_call(self, monkeypatch):
        doc = small_doc(plan={"overlap": {"n_clients": 4, "window": 2,
                                          "per_partition_counts": [4] * 8}})
        calls = []
        draw = orchestrator.generate_datasets

        def counting_draw(*args):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(orchestrator, "generate_datasets", counting_draw)
        cfg = config_from_dict(doc)
        datasets = orchestrator._build_datasets(cfg)
        assert list(datasets) == [c.client_id for c in cfg.clients]
        assert len(calls) == 1

    @pytest.mark.parametrize("window, held_bytes", [
        # (60 + window - 1) partitions of 48 samples by 16 float64 features,
        # and one labels array of window * 48 int64, for all 60 holders
        (5, 64 * 48 * 16 * 8 + 5 * 48 * 8),
        (1, 60 * 48 * 16 * 8 + 48 * 8),
    ])
    def test_overlap_holders_view_one_block(self, window, held_bytes):
        cfg = config_from_dict(SCENARIOS["overlap-60"][0](window=window, seed=0))
        datasets = orchestrator._build_datasets(cfg)
        held = cfg.plan.assignment
        assert held["C60"] == (60, *range(1, window))  # wraps
        parts = {
            p: orchestrator.generate_dataset(cfg.task, cfg.plan.per_partition_counts, None,
                                             key, f"partition-{p}")
            for p, key in zip(range(1, 61), streams.derive(0, orchestrator._DATA, range(1, 61)))
        }
        block, labels = datasets["C1"].features.base, datasets["C1"].labels
        for cid, data in datasets.items():
            mine = [parts[p] for p in held[cid]]
            assert data.client_id == cid
            assert np.array_equal(data.features, np.concatenate([p.features for p in mine]))
            assert np.array_equal(data.labels, np.concatenate([p.labels for p in mine]))
            assert data.scenarios == sum((p.scenarios for p in mine), ())
            assert not data.features.flags.writeable and not data.labels.flags.writeable
            assert data.features.base is block and np.shares_memory(data.features, block)
            assert data.labels is labels
        assert block.nbytes + labels.nbytes == held_bytes


class TestCheckpoint:
    def test_resume_is_bit_identical(self):
        cfg = config_from_dict(small_doc(rounds=6))
        _, full_log = capture(cfg)
        full = run_sync(cfg)

        part, log_a = capture(cfg, stop_after_round=3)
        cp = checkpoint_save(part, cfg)
        resumed, log_b = capture(cfg, runner=lambda c, s: checkpoint_resume(cp, c, s))
        assert log_a + log_b == full_log
        assert np.array_equal(resumed.params, full.params)
        assert resumed.history == full.history
        assert resumed.clock == full.clock

    def test_stop_before_any_participation_resumes_exactly(self):
        # Every client is absent in rounds 1-2: the stopped run holds two
        # stalled rounds, and the full run is still valid.
        doc = kitti_sync()
        for client in doc["clients"]:
            client["dropout"] = {"mode": "absent_rounds", "rounds": [1, 2]}
        cfg = config_from_dict(doc)
        _, full_log = capture(cfg)
        part, log_a = capture(cfg, stop_after_round=2)
        assert len(log_a.splitlines()) == 12
        cp = checkpoint_save(part, cfg)
        _, log_b = capture(cfg, runner=lambda c, s: checkpoint_resume(cp, c, s))
        assert log_a + log_b == full_log

    def test_file_round_trip_exact(self, tmp_path):
        cfg = config_from_dict(small_doc())
        result = run_sync(cfg, stop_after_round=2)
        cp = checkpoint_save(result, cfg)
        path = tmp_path / "cp.json"
        write_checkpoint(cp, path)
        again = read_checkpoint(path)
        assert again.config_digest == cp.config_digest
        assert again.round == cp.round
        assert again.clock == cp.clock  # hex float round-trip is exact
        assert np.array_equal(again.params, cp.params)
        assert again.history == cp.history

    def test_log_on_disk_not_behind_stopped_run(self, tmp_path):
        # a checkpoint written as soon as run_sync returns, before the log
        # is closed, must not be ahead of what the log file holds
        cfg = config_from_dict(small_doc(rounds=6))
        path = tmp_path / "m.jsonl"
        sink, fh = open_log_writer(path)
        try:
            result = run_sync(cfg, sink, stop_after_round=3)
            on_disk = path.read_text()
        finally:
            fh.close()
        _, expected = capture(cfg, stop_after_round=3)
        assert on_disk == expected
        last = from_line(on_disk.splitlines()[-1])
        assert (last.event, last.round) == ("eval", result.rounds_completed)

    def test_digest_mismatch_refused(self):
        cfg = config_from_dict(small_doc())
        cp = checkpoint_save(run_sync(cfg, stop_after_round=2), cfg)
        other = config_from_dict(small_doc(master_seed=99))
        with pytest.raises(ConfigError, match="different configuration"):
            checkpoint_resume(cp, other)

    @pytest.mark.parametrize("params", [lambda p: p[:-3], lambda p: np.append(p, 0.0)],
                             ids=["short", "long"])
    def test_params_of_another_length_refused(self, params):
        cfg = config_from_dict(small_doc())
        cp = checkpoint_save(run_sync(cfg, stop_after_round=2), cfg)
        buf = io.StringIO()
        with pytest.raises(ConfigError, match="field 'params' holds"):
            checkpoint_resume(dataclasses.replace(cp, params=params(cp.params)), cfg,
                              MetricsWriter(buf))
        assert buf.getvalue() == ""

    def test_unsupported_version_rejected(self, tmp_path):
        cfg = config_from_dict(small_doc())
        cp = checkpoint_save(run_sync(cfg, stop_after_round=1), cfg)
        doc = cp.to_json().replace('"checkpoint_version": 1', '"checkpoint_version": 2')
        with pytest.raises(ConfigError):
            Checkpoint.from_json(doc)

    @pytest.mark.parametrize("field, value", [
        ("round", 2.7), ("round", 2.0), ("round", True), ("round", "2"),
        ("version", 1.0), ("version", False), ("config_digest", 5),
        ("params", "abc"), ("params", {}), ("params", [0.5, 1.0]),
        ("history", {}), ("history", "ab"), ("history", [[1.0, "0x1.0p-1"]]),
        ("history", [[True, "0x1.0p-1"]]), ("history", [[1, 0.5]]),
        ("history", [[1, "0x1.0p-1", 3]]), ("history", [1]),
    ])
    def test_decodes_only_the_json_types_it_writes(self, field, value):
        # a float or bool round, or params given as a string, would decode
        # into a run that resumes from the wrong place or fails later
        cfg = config_from_dict(small_doc())
        cp = checkpoint_save(run_sync(cfg, stop_after_round=2), cfg)
        doc = json.loads(cp.to_json())
        assert doc["history"]
        Checkpoint.from_json(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            Checkpoint.from_json(json.dumps({**doc, field: value}))


def replay(rule, cid, round_idx, seed):
    """Reference presence: the chain run from round 1 on every query."""
    state = True
    for k in range(1, round_idx):
        key = [seed & 0x7FFFFFFFFFFFFFFF, orchestrator._DROPOUT, streams.client_key(cid), k]
        u = np.random.default_rng(np.random.SeedSequence(key)).random()
        state = (u >= rule.p) if state else (u < rule.q)
    return state


# A first query at round k (as a resumed run makes), forward steps with
# repeats and gaps, then arbitrary rounds, backward ones included.
round_queries = st.tuples(
    st.integers(0, 30),
    st.lists(st.integers(0, 6), max_size=12),
    st.lists(st.integers(0, 40), max_size=6),
).map(lambda t: list(itertools.accumulate([t[0], *t[1]])) + t[2])


class TestPresenceChain:
    @given(
        p=st.floats(0.0, 1.0),
        q=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**63 - 1),
        rounds=round_queries,
    )
    @settings(max_examples=60, deadline=None)
    def test_carried_chain_matches_replay(self, p, q, seed, rounds):
        rule = DropoutRule(mode="stochastic", p=p, q=q)
        rules = {"C1": rule, "C2": DropoutRule()}
        presence = orchestrator._Presence(rules, seed)
        absorbing = DropoutRule(mode="stochastic", p=p, q=0.0)
        absorbed = orchestrator._Presence({"C1": absorbing}, seed)
        for r in rounds:
            expect = replay(rule, "C1", r, seed)
            assert presence.is_present("C1", r) == expect
            assert (apply_dropout(rules, r, seed) == ["C1", "C2"]) == expect
            assert presence.absorbed("C1", r) == (q == 0.0 and not expect)
            assert absorbed.absorbed("C1", r) == (not replay(absorbing, "C1", r, seed))

    @pytest.mark.parametrize("rounds", [3, 12])
    def test_coin_draws_linear_in_attempts(self, monkeypatch, rounds):
        draws = 0
        uniforms = streams.uniforms

        def counting_uniforms(n, head, stream, *parts):
            nonlocal draws
            drawn = uniforms(n, head, stream, *parts)
            draws += len(drawn) if stream == orchestrator._DROPOUT else 0
            return drawn

        monkeypatch.setattr(streams, "uniforms", counting_uniforms)
        ids = ("C1", "C2", "C3", "C4")
        doc = small_doc(strategy="fedasync", rounds=rounds, eval={"per_class": 10})
        doc["clients"] = [
            {"client_id": cid, "dropout": {"mode": "stochastic", "p": 0.3, "q": 0.4}}
            for cid in ids
        ]
        buf = io.StringIO()
        sink = MetricsWriter(buf)
        run_async(config_from_dict(doc), sink)
        records = read_back(buf)
        attempts = sum(r.event in ("train_window", "dropout") for r in records)
        assert sum(r.event == "dropout" for r in records) > 0
        block = -(-orchestrator._BLOCK_KEYS // len(ids))  # attempts in a block
        assert 0 < draws <= attempts + block * len(ids)
        # Each block is drawn once, up to the last coin the furthest client read.
        last = max(r.round for r in records if r.event in ("train_window", "dropout"))
        assert draws == -(-(last - 1) // block) * block * len(ids)


class TestAsyncTermination:
    def test_all_clients_absorbed_raises_in_bounded_time(self):
        # Every client trains once, then is absent for good: the budget can
        # never be met, so the run must fail with a typed error, not spin.
        script = (
            "from fedsim.config import config_from_dict\n"
            "from fedsim.errors import SimulationError\n"
            "from fedsim.orchestrator import run_async\n"
            "from fedsim.scenarios import bdd_async_hetero\n"
            "doc = bdd_async_hetero()\n"
            "for c in doc['clients']:\n"
            "    c['dropout'] = {'mode': 'stochastic', 'p': 1.0, 'q': 0.0}\n"
            "try:\n"
            "    run_async(config_from_dict(doc))\n"
            "except SimulationError as exc:\n"
            "    print('SimulationError:', exc)\n"
        )
        src = str(Path(fedsim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("SimulationError: every client is permanently absent")

    def test_one_absorbed_client_does_not_stop_the_run(self):
        doc = bdd_async_hetero()
        doc["rounds"] = 2
        doc["train"]["local_epochs"] = 1
        gone = doc["clients"][-1]  # a fast client: it comes back often
        gone["dropout"] = {"mode": "stochastic", "p": 1.0, "q": 0.0}
        cfg = config_from_dict(doc)
        buf = io.StringIO()
        sink = MetricsWriter(buf)
        run_async(cfg, sink)
        records = read_back(buf)
        trained = [r.client_id for r in records if r.event == "train_window"]
        dropped = [r.client_id for r in records if r.event == "dropout"]
        assert len(trained) == 2 * 8  # the default budget: rounds x clients
        assert [r.event for r in records].count("aggregate") == 2 * 8
        assert trained.count(gone["client_id"]) == 1
        assert dropped and set(dropped) == {gone["client_id"]}


def _diverging(cid):
    """Scale `cid`'s features so far that its training overflows."""
    def mutate(doc, monkeypatch):
        build = orchestrator._build_datasets

        def scaled(cfg):
            datasets = build(cfg)
            data = datasets[cid]
            datasets[cid] = LocalDataset(cid, data.features * 1e200, data.labels, data.scenarios)
            return datasets

        monkeypatch.setattr(orchestrator, "_build_datasets", scaled)
    return mutate


def _all_absorbed(doc, monkeypatch):
    for client in doc["clients"]:
        client["dropout"] = {"mode": "stochastic", "p": 0.5, "q": 0.0}


def _stochastic_dropout(doc, monkeypatch):
    for client in doc["clients"]:
        client["dropout"] = {"mode": "stochastic", "p": 0.3, "q": 0.4}


class TestBatchedExecutor:
    """`run_async` trains applications in batches ahead of their records;
    its records and its error equal those of a loop that trains each
    application as it pops (`reference.async_one_at_a_time`)."""

    @pytest.mark.parametrize("mutate, error", [
        # C6's first application is the third of the first batch of four
        (_diverging("C6"), "non-finite parameters"),
        # C1, the slowest client, first completes in a later window
        (_diverging("C1"), "non-finite parameters"),
        (_all_absorbed, "every client is permanently absent"),
        (_stochastic_dropout, None),
    ], ids=["diverges-mid-batch", "diverges-late", "all-absorbed", "stochastic"])
    def test_equals_one_at_a_time(self, monkeypatch, mutate, error):
        doc = bdd_async_hetero()
        mutate(doc, monkeypatch)
        cfg = config_from_dict(doc)
        outcomes = []
        for runner in (async_one_at_a_time, run_async):
            buf = io.StringIO()
            with np.errstate(all="ignore"):
                try:
                    runner(cfg, MetricsWriter(buf))
                    raised = None
                except SimulationError as exc:
                    raised = str(exc)
            outcomes.append((buf.getvalue(), raised))
        assert outcomes[0] == outcomes[1]
        log, raised = outcomes[1]
        assert log.count("\n") >= 4  # C8's and C7's records at least
        assert (raised is None) if error is None else raised.startswith(error)

    def test_failing_batch_trained_once(self, monkeypatch):
        sizes = []
        train_cohort = orchestrator.train_cohort

        def spy(w0, datasets, seeds, cfg):
            sizes.append(len(datasets))
            return train_cohort(w0, datasets, seeds, cfg)

        monkeypatch.setattr(orchestrator, "train_cohort", spy)
        doc = bdd_async_hetero()
        _diverging("C6")(doc, monkeypatch)
        with np.errstate(all="ignore"), pytest.raises(SimulationError):
            run_async(config_from_dict(doc), MetricsWriter(None))
        # C8, C7, C6 and C5 fetch version 0 and train together, once: C6's
        # diverged training raises when its application is reached
        assert sizes == [4]


class TestSyncTrainingFailure:
    def test_records_before_the_failing_participant(self, monkeypatch):
        """A sync round trains as one batch, once.  When C3's training
        overflows, C1's and C2's train_window records are written before
        the error, as in an async window."""
        sizes = []
        train_cohort = orchestrator.train_cohort

        def spy(w0, datasets, seeds, cfg):
            sizes.append(len(datasets))
            return train_cohort(w0, datasets, seeds, cfg)

        monkeypatch.setattr(orchestrator, "train_cohort", spy)
        doc = kitti_sync()
        _diverging("C3")(doc, monkeypatch)
        buf = io.StringIO()
        sink = MetricsWriter(buf)
        with np.errstate(all="ignore"), pytest.raises(SimulationError,
                                                      match="^non-finite parameters"):
            run_sync(config_from_dict(doc), sink)
        assert [(r.event, r.round, r.client_id) for r in read_back(buf)] == [
            ("train_window", 1, "C1"), ("train_window", 1, "C2"),
        ]
        assert sizes == [4]


def _async_dropout_long(seed=0):
    """FedAsync over bdd-async-hetero's 8 clients for 800 applications,
    every client under stochastic dropout (perfbench's async-dropout-long)."""
    doc = bdd_async_hetero(seed=seed)
    doc["rounds"] = 100
    doc["train"]["local_epochs"] = 1
    for client in doc["clients"]:
        client["dropout"] = {"mode": "stochastic", "p": 0.1, "q": 0.5}
    return doc


class TestKernelCalls:
    """`train_cohort` and `_sgd_chunk` calls per run at seed 0.  A sync
    round is one cohort; an async run one cohort per dependency batch.  A
    fall back to one client per call would raise these counts."""

    @pytest.mark.parametrize("name, cohorts, chunks", [
        ("kitti-sync", 10, 10),
        ("bdd-dropout-dual", 10, 10),
        ("bdd-async-hetero", 29, 29),
        ("overlap-60", 10, 20),
        ("hetero-resolution", 10, 10),
        ("lighting-crossdomain", 10, 10),
        ("scale-800", 3, 12),
        # two six-client batches hold a 729-sample client; their padded
        # size, 4374, stays within COHORT_SAMPLES, so each is one chunk
        ("async-dropout-long", 306, 306),
        # 1600 clients of 16 samples: seven chunks a round, at most
        # COHORT_CLIENTS each
        ("fleet-1600", 3, 21),
        # 60 clients of 240 samples: chunks of 34 and 26
        ("sgd-cohort", 20, 40),
    ])
    def test_calls_at_seed_0(self, monkeypatch, name, cohorts, chunks):
        counts = {"cohorts": 0, "chunks": 0}
        train_cohort, sgd_chunk = orchestrator.train_cohort, fedsim.task._sgd_chunk

        def count(key, fn):
            def counted(*args):
                counts[key] += 1
                return fn(*args)
            return counted

        def refuse(*args):
            raise AssertionError("local_train called")

        monkeypatch.setattr(orchestrator, "train_cohort", count("cohorts", train_cohort))
        monkeypatch.setattr(fedsim.task, "_sgd_chunk", count("chunks", sgd_chunk))
        monkeypatch.setattr(orchestrator, "local_train", refuse)
        monkeypatch.setattr(fedsim.task, "local_train", refuse)
        doc = _WORKLOADS[name]() if name in _WORKLOADS else SCENARIOS[name][0](seed=0)
        run(config_from_dict(doc), MetricsWriter(None))
        assert counts == {"cohorts": cohorts, "chunks": chunks}

    @pytest.mark.parametrize("name, batches, shuffles", [
        # 3 rounds of 1600 clients of 16 samples, 1 epoch: one batched
        # shuffle per round, where each client built a Generator before
        ("fleet-1600", 3, 0),
        # 20 rounds of 60 clients of 240 samples, 3 epochs
        ("sgd-cohort", 0, 3600),
        # 800 applications, 1 epoch, about 2.6 to a batch
        ("async-dropout-long", 0, 800),
    ])
    def test_shuffle_generators_at_seed_0(self, monkeypatch, name, batches, shuffles):
        """`streams.permutations` calls and numpy Generators built inside
        `train_cohort`, which builds them only to shuffle: a wide group of
        small clients is drawn up front by the batched kernel, any other
        client epoch by epoch from numpy's own Generator per key."""
        made, training, batched = [], [], []
        default_rng, train_cohort = np.random.default_rng, orchestrator.train_cohort
        permutations = streams.permutations

        def counted_rng(*args):
            made.append(bool(training))
            return default_rng(*args)

        def flagged(*args):
            training.append(1)
            try:
                return train_cohort(*args)
            finally:
                training.pop()

        monkeypatch.setattr(np.random, "default_rng", counted_rng)
        monkeypatch.setattr(orchestrator, "train_cohort", flagged)
        monkeypatch.setattr(streams, "permutations",
                            lambda *args: batched.append(1) or permutations(*args))
        run(config_from_dict(_WORKLOADS[name]()), MetricsWriter(None))
        assert (len(batched), sum(made)) == (batches, shuffles)


def _fleet_1600():
    """scale-800 widened to 1600 clients of one minibatch each."""
    doc = SCENARIOS["scale-800"][0](seed=0)
    ids = [fedsim.partition.client_name(i) for i in range(1, 1601)]
    inline = doc["plan"]["inline"]
    inline["client_ids"] = ids
    inline["counts"] = [[2] * len(inline["class_names"]) for _ in ids]
    doc["clients"] = [dict(doc["clients"][0], client_id=cid) for cid in ids]
    return doc


def _sgd_cohort():
    """overlap-60 under FedProx for 20 rounds."""
    doc = SCENARIOS["overlap-60"][0](window=5, seed=0)
    doc["strategy"] = "fedprox"
    doc["rounds"] = 20
    return doc


# perfbench's workloads at seed 0.
_WORKLOADS = {"fleet-1600": _fleet_1600, "async-dropout-long": _async_dropout_long,
              "sgd-cohort": _sgd_cohort}


# Scenario -> `costs.sample_power_and_util` calls and the keys they draw at
# seed 0: one call per block of ceil(128 / fitting clients) attempts, for
# every fitting client; a sync run's last block ends at its last round.
POWER_BLOCKS = {
    "kitti-sync": (1, 40),
    "bdd-dropout-dual": (1, 80),
    "bdd-async-hetero": (2, 256),
    "overlap-60": (4, 600),
    "hetero-resolution": (1, 40),
    "lighting-crossdomain": (1, 40),
    "scale-800": (3, 2400),
    "fleet-1600": (3, 4800),
    "async-dropout-long": (21, 2688),
    "sgd-cohort": (7, 1200),
}


class TestPowerCalls:
    """Trained batches (`train_cohort` calls) and power draws per run at
    seed 0.  The draws are made a block at a time, on the first training
    inside the block, whatever the batches: a draw per trained batch or per
    training window would raise the call count, and a block drawn twice
    would raise both the calls and the keys."""

    @pytest.mark.parametrize("name, cohorts", [
        ("kitti-sync", 10),
        ("bdd-dropout-dual", 10),
        ("bdd-async-hetero", 29),
        ("overlap-60", 10),
        ("hetero-resolution", 10),
        ("lighting-crossdomain", 10),
        ("scale-800", 3),
        ("fleet-1600", 3),
        ("async-dropout-long", 306),
        ("sgd-cohort", 20),
    ])
    def test_calls_at_seed_0(self, monkeypatch, name, cohorts):
        made, trained = [], []
        sample, train_cohort = costs.sample_power_and_util, orchestrator.train_cohort

        def counted(entries, *key):
            made.append(len(entries))
            return sample(entries, *key)

        def counted_cohort(*args):
            trained.append(1)
            return train_cohort(*args)

        monkeypatch.setattr(costs, "sample_power_and_util", counted)
        monkeypatch.setattr(orchestrator, "train_cohort", counted_cohort)
        doc = _WORKLOADS[name]() if name in _WORKLOADS else SCENARIOS[name][0](seed=0)
        run(config_from_dict(doc), MetricsWriter(None))
        calls, keys = POWER_BLOCKS[name]
        assert len(trained) == cohorts
        assert len(made) == calls
        assert sum(made) == keys


def _power_pair(cfg, client_id, attempt):
    """numpy's own (power, utilization) draw for a training window."""
    client = next(c for c in cfg.clients if c.client_id == client_id)
    cal = costs.load_calibration()
    entry = costs.lookup(cal.profile(client.architecture), client.resolution, client.batch,
                         allow_extrapolation=True)
    rng = np.random.default_rng(np.random.SeedSequence(
        [cfg.master_seed, orchestrator._POWER, attempt, streams.client_key(client_id)]))
    return rng.uniform(*entry.power_w_range), rng.uniform(*entry.util_pct_range)


class TestPowerDraws:
    """Training windows log what numpy's own Generator draws from each
    window's key.  No BLAS call touches these fields, so this holds on any
    x86 host."""

    @pytest.mark.parametrize("seed", [0, 2**40 + 3])
    def test_batched_round_equals_numpy_generator(self, seed):
        """Each training window of a 60-client round, drawn in one batch."""
        cfg = config_from_dict(SCENARIOS["overlap-60"][0](seed=seed))
        buf = io.StringIO()
        sink = MetricsWriter(buf)
        run_sync(cfg, sink, stop_after_round=1)
        windows = [r for r in read_back(buf) if r.event == "train_window"]
        assert len(windows) == 60 >= streams.BATCH_MIN
        assert sorted(r.client_id for r in windows) == sorted(c.client_id for c in cfg.clients)
        for record in windows:
            assert (record.power_w, record.util_pct) == _power_pair(cfg, record.client_id, 1)

    @pytest.mark.parametrize("seed", [0, 2**40 + 3])
    def test_async_blocks_equal_numpy_generator(self, seed):
        """Each of async-dropout-long's 800 training windows, whose draws
        come from blocks of 16 attempts for all 8 clients, read out of
        attempt order: a mis-indexed block logs another key's draw."""
        cfg = config_from_dict(_async_dropout_long(seed))
        buf = io.StringIO()
        sink = MetricsWriter(buf)
        run_async(cfg, sink)
        windows = [r for r in read_back(buf) if r.event == "train_window"]
        assert len(windows) == 800
        for record in windows:
            pair = _power_pair(cfg, record.client_id, record.round)
            assert (record.power_w, record.util_pct) == pair


class TestBlocks:
    """A keyed stream's values do not depend on how its blocks fall."""

    @pytest.mark.parametrize("name", [*SCENARIOS, "async-dropout-long"])
    def test_log_independent_of_block_size(self, monkeypatch, name):
        doc = _async_dropout_long() if name == "async-dropout-long" else SCENARIOS[name][0](seed=0)
        logs = []
        for keys in (1, 7, orchestrator._BLOCK_KEYS):
            monkeypatch.setattr(orchestrator, "_BLOCK_KEYS", keys)
            logs.append(capture(config_from_dict(doc), run)[1])
        assert logs[0] == logs[1] == logs[2]

    @given(
        n=st.integers(1, 20),
        seed=st.sampled_from([0, 2**32, 2**40 + 3, 2**63 - 1]),
        block_keys=st.integers(1, 160),
        last=st.one_of(st.none(), st.integers(1, 70)),
        reads=st.lists(st.tuples(st.integers(1, 70), st.integers(0, 19), st.booleans()),
                       min_size=1, max_size=30),
    )
    # a block of 32 attempts capped at 10, read on both sides of the cap,
    # then past it in the capped block's span and in the next block's
    @example(n=4, seed=2**40 + 3, block_keys=128, last=10,
             reads=[(9, 0, False), (10, 1, False), (11, 2, False), (32, 3, False),
                    (33, 0, False), (42, 1, True), (10, 2, False), (43, 3, True)])
    @settings(max_examples=40, deadline=None)
    def test_reads_in_any_order_equal_numpy_draws(self, n, seed, block_keys, last, reads):
        """Seeds, power draws and coins read in any (attempt, client) order,
        each read after an optional release of the attempts before it, equal
        numpy's own per-key draws, with passes on both sides of BATCH_MIN,
        and with blocks capped at a last attempt that reads pass."""
        ids = [f"C{i}" for i in range(1, n + 1)]
        doc = small_doc(master_seed=seed, eval={"per_class": 2})
        doc["task"]["n_classes"] = 2
        doc["plan"] = {"inline": {"client_ids": ids, "class_names": ["a", "b"],
                                  "counts": [[2, 2]] * n}}
        doc["clients"] = [{"client_id": cid, "dropout": {"mode": "stochastic", "p": 0.5,
                                                         "q": 0.5}} for cid in ids]
        cfg = config_from_dict(doc)
        with unittest.mock.patch.object(orchestrator, "_BLOCK_KEYS", block_keys):
            ctx = orchestrator._Run(cfg, None, "run_sync", ("fedavg",), last)
        for attempt, i, release in reads:
            cid = ids[i % n]
            if release:
                ctx.release(attempt)
            key = streams.client_key(cid)
            assert ctx.seeds.take([attempt], [cid]) == [int(np.random.SeedSequence(
                [seed, orchestrator._TRAIN, attempt, key]).generate_state(1)[0])]
            assert ctx.power.take([attempt], [cid]) == [_power_pair(cfg, cid, attempt)]
            assert ctx.presence.coins.take([attempt], [cid]) == [np.random.default_rng(
                np.random.SeedSequence([seed, orchestrator._DROPOUT, key, attempt])).random()]


class TestRunLifetime:
    @pytest.mark.parametrize("name", ["kitti-sync-stochastic", "async-dropout-long"])
    def test_finished_run_freed_without_the_collector(self, monkeypatch, name):
        """A run's `_Run`, with its datasets and drawn blocks, is freed as
        the run returns, with the garbage collector off: a reference cycle
        would hold it until a collection, so back-to-back runs would pile
        up in memory."""
        made = []
        init = orchestrator._Run.__init__

        def tracked(self, *args):
            init(self, *args)
            made.append(weakref.ref(self))

        monkeypatch.setattr(orchestrator._Run, "__init__", tracked)
        if name == "async-dropout-long":
            doc = _async_dropout_long()
        else:
            doc = kitti_sync(seed=0)
            for client in doc["clients"]:
                client["dropout"] = {"mode": "stochastic", "p": 0.3, "q": 0.4}
        enabled = gc.isenabled()
        gc.disable()
        try:
            run(config_from_dict(doc), MetricsWriter(None))
            assert len(made) == 1 and made[0]() is None
        finally:
            if enabled:
                gc.enable()


class TestCheckpointWrite:
    @pytest.mark.parametrize("failure", ["serialise", "write"])
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch, failure):
        cfg = config_from_dict(small_doc())
        path = tmp_path / "cp.json"
        write_checkpoint(checkpoint_save(run_sync(cfg, stop_after_round=1), cfg), path)
        before = path.read_bytes()
        newer = checkpoint_save(run_sync(cfg, stop_after_round=2), cfg)
        if failure == "serialise":
            newer = dataclasses.replace(newer, params=np.array([0.5, object()], dtype=object))
            error = TypeError
        else:
            def disk_full(fd):
                raise OSError("disk full")

            monkeypatch.setattr(orchestrator.os, "fsync", disk_full)
            error = OSError
        with pytest.raises(error):
            write_checkpoint(newer, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["cp.json"]
