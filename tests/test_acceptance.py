"""End-to-end acceptance gate.

Each test checks one release criterion at its stated tolerance and prints a
single PASS line (run with ``pytest -s`` to see them; a failure carries the
observed values in the assertion message).
"""

import io
import json
import time
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from fedsim.aggregate import ClientUpdate, fedavg_aggregate
from fedsim.config import config_from_dict
from fedsim.costs import load_calibration
from fedsim.metrics import MetricsWriter
from fedsim.orchestrator import checkpoint_resume, checkpoint_save, run_async, run_sync
from fedsim.partition import overlap_split
from fedsim.scenarios import kitti_sync, scenario_config
from fedsim.task import (
    default_task,
    generate_dataset,
    loss_and_gradient,
    param_length,
)

SEEDS = (0, 1, 2)


def report(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def test_01_fedavg_matches_brute_force_weighted_mean():
    rng = np.random.default_rng(20240901)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        n_clients = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 65))
        updates = [
            ClientUpdate(f"C{i + 1}", rng.standard_normal(dim),
                         int(rng.integers(1, 10_000)))
            for i in range(n_clients)
        ]
        got = fedavg_aggregate(updates)
        total = sum(u.n_samples for u in updates)
        expect = sum(u.n_samples * u.params for u in updates) / total
        worst = max(worst, float(np.max(np.abs(got - expect))))
        assert worst <= 1e-12, f"weighted-mean deviation {worst}"
        # order invariance, bit for bit
        perm = rng.permutation(n_clients)
        assert np.array_equal(fedavg_aggregate([updates[i] for i in perm]), got)
        # common scaling of the counts changes nothing
        scaled = [ClientUpdate(u.client_id, u.params, u.n_samples * 7)
                  for u in updates]
        assert np.array_equal(fedavg_aggregate(scaled), got)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"aggregation oracle suite took {elapsed:.1f}s"
    report("01 aggregation-oracle", f"(max dev {worst:.2e}, {elapsed:.1f}s)")


def test_02_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    start = time.monotonic()
    eps = 1e-6
    worst = 0.0
    mus = (0.0, 0.01, 1.0)
    for draw in range(100):
        n_classes = int(rng.integers(2, 5))
        n_features = int(rng.integers(2, 7))
        task = default_task(n_classes=n_classes, n_features=n_features,
                            means_seed=draw + 1)
        counts = rng.integers(1, 6, size=n_classes)
        data = generate_dataset(task, counts, None, draw, "C1")
        w = rng.standard_normal(param_length(n_features, n_classes))
        anchor = rng.standard_normal(w.size)
        mu = mus[draw % 3]
        _, grad = loss_and_gradient(w, data, np.arange(len(data)), anchor, mu)
        for j in range(w.size):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            lp, _ = loss_and_gradient(wp, data, np.arange(len(data)), anchor, mu)
            lm, _ = loss_and_gradient(wm, data, np.arange(len(data)), anchor, mu)
            err = abs(grad[j] - (lp - lm) / (2 * eps))
            worst = max(worst, err)
            assert err < 1e-5, f"gradient error {err} at draw {draw}, mu={mu}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    report("02 gradient-check", f"(max err {worst:.2e}, {elapsed:.1f}s)")


def test_03_fedprox_reductions():
    for seed in SEEDS:
        doc = kitti_sync(seed=seed, strategy="fedprox")
        doc["train"]["prox_mu"] = 0.0
        prox_zero = run_sync(config_from_dict(doc))
        plain = run_sync(config_from_dict(kitti_sync(seed=seed)))
        assert np.array_equal(prox_zero.params, plain.params), (
            f"mu=0 differs from plain averaging at seed {seed}"
        )
        for rnd in range(1, 11):
            norms = {}
            for mu in (0.0, 10.0):
                doc = kitti_sync(seed=seed, strategy="fedprox")
                doc["train"]["prox_mu"] = mu
                result = run_sync(config_from_dict(doc), stop_after_round=rnd)
                norms[mu] = float(np.linalg.norm(result.params))  # w0 is zero
            assert norms[10.0] < norms[0.0], (
                f"seed {seed} round {rnd}: ||w-w0|| {norms[10.0]:.4f} with mu=10 "
                f"not below {norms[0.0]:.4f} with mu=0"
            )
    report("03 fedprox-reductions")


def test_04_cost_model_golden_data():
    cal = load_calibration()
    v8 = cal.profile("v8").entries
    assert [v8[(r, 32)].train_time_s for r in (320, 640, 960)] == [468.0, 936.0, 1764.0]
    assert [v8[(960, b)].train_time_s for b in (4, 8, 16)] == [2488.0, 2052.0, 1872.0]
    mem = {
        "v5": {320: 9113, 640: 27750, 960: 58675},
        "v8": {320: 7680, 640: 23552, 960: 50892},
        "v11": {320: 10340, 640: 30617, 960: 67379},
    }
    for arch, by_res in mem.items():
        for res, mib in by_res.items():
            assert cal.profile(arch).entries[(res, 32)].peak_mem_mib == mib
    mem_batch = {
        "v5": {4: 11090, 8: 17920, 16: 31436},
        "v8": {4: 8294, 8: 16290, 16: 26726},
        "v11": {4: 10035, 8: 18841, 16: 35635.2},
    }
    for arch, by_batch in mem_batch.items():
        for batch, mib in by_batch.items():
            assert cal.profile(arch).entries[(960, batch)].peak_mem_mib == mib
    doc = json.loads(
        resources.files("fedsim.data").joinpath("cost_calibration.json").read_text()
    )
    power = {"v5": (335.0, 360.0), "v8": (350.0, 375.0), "v11": (325.0, 350.0)}
    for arch, power_range in power.items():
        assert tuple(doc["architectures"][arch]["power_w_range"]) == power_range
        assert tuple(doc["architectures"][arch]["util_pct_range"]) == (85.0, 95.0)
        for entry in cal.profile(arch).entries.values():
            assert entry.power_w_range == power_range
            assert entry.util_pct_range == (85.0, 95.0)
    inference = doc["inference_ms"]
    assert inference["kitti"]["320"] == {"v5": 0.4, "v8": 0.5, "v11": 0.6}
    assert inference["kitti"]["640"] == {"v5": 0.9, "v8": 1.1, "v11": 1.2}
    assert inference["kitti"]["960"] == {"v5": 1.7, "v8": 1.9, "v11": 2.1}
    assert inference["bdd"]["320"] == {"v5": 0.7, "v8": 0.8, "v11": 1.0}
    assert inference["bdd"]["640"] == {"v5": 1.3, "v8": 1.6, "v11": 1.7}
    assert inference["bdd"]["960"] == {"v5": 2.4, "v8": 2.6, "v11": 3.1}
    prox_time = v8[(640, 32)].train_time_s * cal.fedprox_time_factor
    assert prox_time == pytest.approx(1076.40, rel=5e-3)
    report("04 cost-golden-data", f"(v8 prox 640x32 {prox_time:.2f}s)")


def test_05_async_degrades_under_speed_heterogeneity():
    start = time.monotonic()
    pairs = []
    for seed in SEEDS:
        slow = run_async(scenario_config("bdd-async-hetero", seed=seed))
        sync = run_sync(scenario_config("bdd-async-hetero", seed=seed,
                                        strategy="fedavg"))
        pairs.append((slow.final_accuracy, sync.final_accuracy))
        assert slow.final_accuracy < sync.final_accuracy, (
            f"seed {seed}: async {slow.final_accuracy:.4f} "
            f">= sync {sync.final_accuracy:.4f}"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    detail = " ".join(f"[{a:.3f}<{s:.3f}]" for a, s in pairs)
    report("05 async-degradation", f"({detail}, {elapsed:.1f}s)")


def test_06_dropout_impact_ordering():
    start = time.monotonic()
    pairs = [("C1", "C2"), ("C3", "C4"), ("C5", "C6"), ("C7", "C8")]
    for seed in SEEDS:
        accs = [
            run_sync(scenario_config("bdd-dropout-dual", seed=seed, pair=p)
                     ).final_accuracy
            for p in pairs
        ]
        assert all(a < b for a, b in zip(accs, accs[1:])), (
            f"seed {seed}: accuracies {[f'{a:.4f}' for a in accs]} not strictly "
            "increasing from largest to smallest dropped share"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    report("06 dropout-ordering", f"({elapsed:.1f}s)")


def test_07_overlap_beats_disjoint():
    start = time.monotonic()
    plan = overlap_split(60, 5)
    holders = {}
    for parts in plan.assignment.values():
        for p in parts:
            holders[p] = holders.get(p, 0) + 1
    assert set(holders) == set(range(1, 61))
    assert all(v == 5 for v in holders.values()), "multiplicity violated"
    for seed in SEEDS:
        w5 = run_sync(scenario_config("overlap-60", seed=seed, window=5))
        w1 = run_sync(scenario_config("overlap-60", seed=seed, window=1))
        assert w5.final_accuracy > w1.final_accuracy, (
            f"seed {seed}: window-5 {w5.final_accuracy:.4f} "
            f"<= disjoint {w1.final_accuracy:.4f}"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report("07 overlap-benefit", f"({elapsed:.1f}s)")


def test_08_roundwise_convergence():
    for seed in SEEDS:
        history = run_sync(scenario_config("kitti-sync", seed=seed)).history
        accs = [a for _, a in history]
        assert len(accs) == 10
        non_decreasing = sum(1 for a, b in zip(accs, accs[1:]) if b >= a)
        # 10 round-values: the first plus 9 transitions; require at least 8
        # of the 10 rounds to not regress on the previous one
        assert non_decreasing + 1 >= 8, (
            f"seed {seed}: only {non_decreasing + 1}/10 non-decreasing rounds "
            f"({[f'{a:.3f}' for a in accs]})"
        )
    report("08 roundwise-convergence")


def test_09_checkpoint_resume_byte_identical():
    cfg = scenario_config("kitti-sync", seed=2)
    full_buf = io.StringIO()
    run_sync(cfg, MetricsWriter(full_buf))

    head_buf = io.StringIO()
    half = run_sync(cfg, MetricsWriter(head_buf), stop_after_round=5)
    cp = checkpoint_save(half, cfg)
    tail_buf = io.StringIO()
    checkpoint_resume(cp, cfg, MetricsWriter(tail_buf))

    combined = head_buf.getvalue() + tail_buf.getvalue()
    assert combined == full_buf.getvalue(), "resumed log differs from full run"
    report("09 checkpoint-resume", f"({len(combined.splitlines())} records)")


def test_10_scale_800_clients():
    tracemalloc.start()
    start = time.monotonic()
    result = run_sync(scenario_config("scale-800", seed=0))
    elapsed = time.monotonic() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert result.rounds_completed == 3
    assert elapsed < 600.0, f"800-client run took {elapsed:.1f}s"
    assert peak < 512 * 1024 * 1024, f"peak traced memory {peak / 2**20:.0f} MiB"
    report("10 scale-800", f"({elapsed:.1f}s, peak {peak / 2**20:.0f} MiB)")


def test_11_cross_domain_degradation():
    for seed in SEEDS:
        for train, other in (("night", "day"), ("day", "night")):
            cross = run_sync(scenario_config(
                "lighting-crossdomain", seed=seed,
                train_scenario=train, eval_scenario=other,
            )).final_accuracy
            indom = run_sync(scenario_config(
                "lighting-crossdomain", seed=seed,
                train_scenario=train, eval_scenario=train,
            )).final_accuracy
            assert cross < indom, (
                f"seed {seed}: {train}->{other} {cross:.4f} not below "
                f"in-domain {indom:.4f}"
            )
    report("11 cross-domain")
