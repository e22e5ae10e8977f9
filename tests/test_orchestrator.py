"""Orchestration: sync rounds, async event loop, dropout, checkpointing."""

import dataclasses
import io
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim
from fedsim import costs, orchestrator, streams
from fedsim.config import DropoutRule, config_from_dict
from fedsim.errors import ConfigError, SimulationError
from fedsim.metrics import MetricsRecord, MetricsWriter, build_report, open_log_writer
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
from fedsim.scenarios import bdd_async_hetero, kitti_sync


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


def parse(buf):
    return [MetricsRecord.from_line(line) for line in buf.getvalue().splitlines()]


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
        report = build_report(parse(buf))
        assert report.complete
        assert len(report.clients) == 4

    def test_clock_advances_by_slowest_participant(self):
        cfg = config_from_dict(small_doc(rounds=1))
        buf = io.StringIO()
        run_sync(cfg, MetricsWriter(buf))
        records = parse(buf)
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
        sink = MetricsWriter(None)
        run_sync(cfg, sink)
        drops = [r for r in sink.records if r.event == "dropout"]
        assert [(r.round, r.client_id) for r in drops] == [(1, "C1"), (2, "C1")]
        trained = {(r.round, r.client_id) for r in sink.records
                   if r.event == "train_window"}
        assert (1, "C1") not in trained
        assert (3, "C1") in trained

    def test_oom_client_skipped(self):
        doc = small_doc(clients=[
            {"client_id": "C1", "resolution": 960},  # 50892 MiB > default capacity
            {"client_id": "C2"}, {"client_id": "C3"}, {"client_id": "C4"},
        ])
        sink = MetricsWriter(None)
        run_sync(config_from_dict(doc), sink)
        ooms = [r for r in sink.records if r.event == "oom"]
        assert len(ooms) == 4  # every round
        assert all(r.client_id == "C1" for r in ooms)
        assert not any(
            r.client_id == "C1" for r in sink.records if r.event == "train_window"
        )

    def test_all_absent_round_stalls_and_carries_model(self):
        doc = small_doc(clients=[
            {"client_id": cid, "dropout": {"mode": "absent_rounds", "rounds": [2]}}
            for cid in ("C1", "C2", "C3", "C4")
        ])
        sink = MetricsWriter(None)
        result = run_sync(config_from_dict(doc), sink)
        stalled = [r for r in sink.records if r.event == "stalled"]
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
        sink = MetricsWriter(None)
        run_sync(config_from_dict(small_doc()), sink)
        for r in sink.records:
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
        sink = MetricsWriter(None)
        run_async(cfg, sink)
        applications = [r for r in sink.records if r.event == "aggregate"]
        assert len(applications) == cfg.applications_budget()

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
        sink = MetricsWriter(None)
        run_async(cfg, sink)
        staleness = [r.staleness for r in sink.records if r.event == "aggregate"]
        assert all(s >= 0 for s in staleness)
        assert any(s > 0 for s in staleness)  # concurrency produces staleness

    def test_fast_clients_complete_more(self):
        doc = self.async_doc(clients=[
            {"client_id": "C1"},
            {"client_id": "C2"},
            {"client_id": "C3"},
            {"client_id": "C4", "device": {"speed_factor": 50.0}},
        ])
        sink = MetricsWriter(None)
        run_async(config_from_dict(doc), sink)
        counts = {}
        for r in sink.records:
            if r.event == "aggregate":
                counts[r.client_id] = counts.get(r.client_id, 0) + 1
        assert counts["C4"] == max(counts.values())

    def test_event_order_is_time_then_id(self):
        cfg = config_from_dict(self.async_doc())
        sink = MetricsWriter(None)
        run_async(cfg, sink)
        completions = [
            (r.t_end_s, r.client_id) for r in sink.records if r.event == "train_window"
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
        sink = MetricsWriter(None)
        with pytest.raises(ConfigError, match="sync strategies only"):
            run(config_from_dict(self.async_doc()), sink, stop_after_round=2)
        assert sink.records == []


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
        last = MetricsRecord.from_line(on_disk.splitlines()[-1])
        assert (last.event, last.round) == ("eval", result.rounds_completed)

    def test_digest_mismatch_refused(self):
        cfg = config_from_dict(small_doc())
        cp = checkpoint_save(run_sync(cfg, stop_after_round=2), cfg)
        other = config_from_dict(small_doc(master_seed=99))
        with pytest.raises(ConfigError, match="different configuration"):
            checkpoint_resume(cp, other)

    def test_unsupported_version_rejected(self, tmp_path):
        cfg = config_from_dict(small_doc())
        cp = checkpoint_save(run_sync(cfg, stop_after_round=1), cfg)
        doc = cp.to_json().replace('"checkpoint_version": 1', '"checkpoint_version": 2')
        with pytest.raises(ConfigError):
            Checkpoint.from_json(doc)


def replay(rule, cid, round_idx, seed):
    """Reference presence: the chain run from round 1 on every query."""
    state = True
    for k in range(1, round_idx):
        key = [seed & 0x7FFFFFFFFFFFFFFF, orchestrator._DROPOUT, orchestrator._cid_key(cid), k]
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
        for r in rounds:
            expect = replay(rule, "C1", r, seed)
            assert presence.is_present("C1", r) == expect
            assert (apply_dropout(rules, r, seed) == ["C1", "C2"]) == expect

    @pytest.mark.parametrize("rounds", [3, 12])
    def test_coin_draws_linear_in_attempts(self, monkeypatch, rounds):
        draws = 0
        derive = streams.derive

        def counting_derive(head, stream, *parts):
            nonlocal draws
            keys = derive(head, stream, *parts)
            draws += len(keys) if stream == orchestrator._DROPOUT else 0
            return keys

        monkeypatch.setattr(streams, "derive", counting_derive)
        doc = small_doc(strategy="fedasync", rounds=rounds, eval={"per_class": 10})
        doc["clients"] = [
            {"client_id": cid, "dropout": {"mode": "stochastic", "p": 0.3, "q": 0.4}}
            for cid in ("C1", "C2", "C3", "C4")
        ]
        sink = MetricsWriter(None)
        run_async(config_from_dict(doc), sink)
        attempts = sum(r.event in ("train_window", "dropout") for r in sink.records)
        assert sum(r.event == "dropout" for r in sink.records) > 0
        assert draws <= attempts


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
        sink = MetricsWriter(None)
        run_async(cfg, sink)
        trained = [r.client_id for r in sink.records if r.event == "train_window"]
        dropped = [r.client_id for r in sink.records if r.event == "dropout"]
        assert len(trained) == cfg.applications_budget()
        assert trained.count(gone["client_id"]) == 1
        assert dropped and set(dropped) == {gone["client_id"]}


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
