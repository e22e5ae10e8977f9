"""Seed-0 metrics logs are pinned byte for byte.

A run is a pure function of its config and seed, so a change that keeps
every log below identical cannot have changed behaviour.  A digest here
changes only with a deliberate, documented change to what a run does.
Two more pins run at master seeds of 2**32 and above, which enter every
random key as two 32-bit entropy words instead of one, and one pins a run
whose training diverges.

The digests were taken under the SkylakeX core of numpy's bundled
OpenBLAS, which picks its kernels per CPU: under another core the matrix
products round differently, so a failing pin names the active core.
"""

import ctypes
import glob
import hashlib
import importlib.util
import io
import os
import sys
import warnings
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from fedsim.config import config_from_dict
from fedsim.metrics import (
    MetricsWriter,
    open_log_writer,
    render_comparison,
    render_report,
    report_from_log,
)
from fedsim.orchestrator import run
from fedsim.scenarios import (
    SCENARIOS,
    bdd_async_hetero,
    hetero_resolution,
    kitti_sync,
    lighting_crossdomain,
    overlap_60,
)


def _stochastic(doc, rounds, p, q):
    doc["rounds"] = rounds
    doc["train"]["local_epochs"] = 1
    for client in doc["clients"]:
        client["dropout"] = {"mode": "stochastic", "p": p, "q": q}
    return doc


def _oom_midround(seed):
    """C2 at 960 px keeps batch 32, over the device budget: every round logs
    C1 trained, C2 out of memory, then C3 and C4 trained, and the trained
    clients hold three different sample counts."""
    doc = hetero_resolution(upgrade="C2", resolution=960, seed=seed)
    for client in doc["clients"]:
        if client["client_id"] == "C2":
            client["batch"] = 32
    return doc


def _async_oom(seed):
    """C2 at 960 px and batch 32 does not fit its device: the async run logs
    one round-0 `oom` for C2 and runs the other seven clients."""
    doc = bdd_async_hetero(seed=seed)
    for client in doc["clients"]:
        if client["client_id"] == "C2":
            client["resolution"] = 960
            client["batch"] = 32
    return doc


def _overlap_fedprox(seed):
    """overlap-60 under FedProx for 3 rounds: 60 equal clients of 240
    samples train in chunks of 17, 17, 17 and 9, so the proximal step runs
    on stacked clients."""
    doc = overlap_60(window=5, seed=seed)
    doc["strategy"] = "fedprox"
    doc["rounds"] = 3
    return doc


def _mixed_shape_groups(seed):
    """lighting-crossdomain widened to 24 clients in 12 dataset shape groups
    of (plan row, resolution noise factor, scenario mix); the two members
    of each group sit 12 places apart in client order."""
    doc = lighting_crossdomain(seed=seed)
    rows = ([3, 2, 0, 1, 4, 2, 2, 1], [2] * 8, [0, 5, 1, 0, 0, 3, 2, 6])
    mixes = ({"night": 1.0}, {"day": 0.4, "night": 0.6})
    ids = [f"C{i}" for i in range(1, 25)]
    inline = {"client_ids": ids, "class_names": [f"class{j}" for j in range(8)],
              "counts": [list(rows[i % 3]) for i in range(24)]}
    doc["plan"] = {"inline": inline}
    doc["clients"] = [
        {"client_id": cid, "resolution": (640, 960)[i % 2], "batch": (32, 16)[i % 2],
         "architecture": "v8", "scenario_mix": mixes[(i // 2) % 2]}
        for i, cid in enumerate(ids)
    ]
    doc["rounds"] = 3
    doc["train"]["local_epochs"] = 1
    return doc


CONFIGS = {name: builder for name, (builder, _) in SCENARIOS.items()}
CONFIGS["kitti-sync-stochastic"] = lambda seed: _stochastic(kitti_sync(seed), 30, 0.3, 0.4)
CONFIGS["bdd-async-stochastic"] = lambda seed: _stochastic(bdd_async_hetero(seed), 6, 0.2, 0.5)
CONFIGS["hetero-resolution-oom"] = _oom_midround
CONFIGS["bdd-async-oom"] = _async_oom
CONFIGS["kitti-sync-fedprox"] = lambda seed: kitti_sync(seed, strategy="fedprox")
CONFIGS["mixed-shape-groups"] = _mixed_shape_groups
CONFIGS["overlap-60-fedprox"] = _overlap_fedprox

DIGESTS = {
    "bdd-async-hetero": "1164e65bc19955c7d5db042790c916609066d25a0e41a056c62b793e778131d4",
    "bdd-async-oom": "e9bfef3a9e14b981e478b4a05305df009e65df254235e369a056d222269e87ba",
    "bdd-async-stochastic": "29cf49b16b193449dc05bb03823ceac7444bf780407844e5d5c0c5384357e534",
    "bdd-dropout-dual": "e76aacc0807c84a9d8cc56795b7df2d258096388cb3f4b77ef846a6d9a40c89e",
    "hetero-resolution": "0bb52723cf35a016a0685a6bc11845b8b9470a58b23f35129009e7aaab2d2989",
    "hetero-resolution-oom": "6c08e6e68c893aadc41d7cfbe0b95b898ceef1e2bd06e96aba6cd49cccded2d1",
    "kitti-sync": "8ffd1beb0fa06f8aa51a3f3db61a943903f5f16e3e175d237e887af7a873b70a",
    "kitti-sync-fedprox": "d5e6de17998e344208dcc566d21d1dcd078e35520ed19b23bc76b954509f8430",
    "kitti-sync-stochastic": "b0caf9f018bb604d3d1bbecd384e227898b03a705f1525c346d134c2e932f752",
    "lighting-crossdomain": "dee42e5b8a886bd2af3f41b85a3b31d62f5fc1b147360556199b70eef1320521",
    "mixed-shape-groups": "55689e997df981521ee4c65c658f90303af49a3fb1bc552997302ccca261d4da",
    "overlap-60": "fe6857da1b4ef91b94c00eb1d9b74dbd618d3a2429758e49274fad402af463ca",
    "overlap-60-fedprox": "a86ddd82112b700a3ab4c83e223d158666b578e17502c9235ea1f8d75d12a11a",
    "scale-800": "8e2414867efd665f987e0a78266ffb5875137e37b072460e70851a663fc9c0cb",
}


# (scenario, master seed) -> digest.  scale-800 derives its keys in large
# batches, kitti-sync (4 clients) each key's state from numpy's SeedSequence.
WIDE_MASTER_DIGESTS = {
    ("scale-800", 2**40 + 3): "d9c6f2fcf14158f1a4b39d7014c4526fc060ca431733c13e957cb2d701ab643a",
    ("kitti-sync", 2**32): "9d21b58693e2df314fc9f2a367dc6ec5022d8c10290b04fe857087699afff7ca",
}


# kitti-sync at learning rate 1e300: the weights grow huge but stay finite,
# so the run finishes, and every train_window record from round 1 on logs
# "loss": NaN.
DIVERGED_DIGEST = "a169314b79fdb98a66dd81098d6cb874bfe2277aae470d3c2529a36f2592f589"


def _diverged(seed):
    doc = kitti_sync(seed=seed)
    doc["train"]["learning_rate"] = 1e300
    return doc


def _log_digest(doc) -> str:
    buf = io.StringIO()
    run(config_from_dict(doc), MetricsWriter(buf))
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _openblas_core() -> str:
    """The core numpy's bundled OpenBLAS runs on this host."""
    numpy_libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        (path,) = glob.glob(os.path.join(numpy_libs, "libscipy_openblas64_*.so"))
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
    except (ValueError, OSError, AttributeError) as exc:
        return f"unknown ({exc})"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _mismatch() -> str:
    core = _openblas_core()
    return f"log digest differs under OpenBLAS core {core}; the pins hold under SkylakeX"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_seed0_log_digest(name):
    assert _log_digest(CONFIGS[name](seed=0)) == DIGESTS[name], _mismatch()


@pytest.mark.parametrize("name, seed", sorted(WIDE_MASTER_DIGESTS))
def test_two_word_master_log_digest(name, seed):
    assert _log_digest(CONFIGS[name](seed=seed)) == WIDE_MASTER_DIGESTS[name, seed], _mismatch()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_run_log_digest():
    assert _log_digest(_diverged(seed=0)) == DIVERGED_DIGEST, _mismatch()


def _perfbench_workloads() -> dict:
    """The benchmark's workloads, loaded from perfbench/workloads.py alone
    (perfbench is not a package, and its other files are not imported)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _perfbench_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_pins(tmp_path, name):
    """The benchmark's correctness gate at seed 0: each workload's log file,
    written as perfbench writes it, and its final accuracy and clock equal
    the workload's `Pinned` values."""
    workload, path = WORKLOADS[name], tmp_path / "log.jsonl"
    sink, fh = open_log_writer(path)
    with closing(fh):
        result = run(config_from_dict(workload.build(0)), sink)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == workload.pinned.log_sha256, _mismatch()
    assert result.final_accuracy == workload.pinned.final_accuracy
    assert result.clock == workload.pinned.clock


# numpy SeedSequences each seed-0 run builds: its dataset and evaluation
# keys, and the rows of key batches below `streams.BATCH_MIN` or of mixed
# head widths.  A batch that fell back to numpy's objects key by key would
# raise a count.
SEED_SEQUENCES = {
    "kitti-sync": 135, "bdd-dropout-dual": 19, "bdd-async-hetero": 249, "overlap-60": 11,
    "hetero-resolution": 135, "lighting-crossdomain": 135, "scale-800": 4,
    "fleet-1600": 4, "async-dropout-long": 809, "sgd-cohort": 21,
}


@pytest.mark.parametrize("name", sorted(SEED_SEQUENCES))
def test_seed_sequences_built(monkeypatch, name):
    doc = WORKLOADS[name].build(0) if name in WORKLOADS else CONFIGS[name](seed=0)
    cfg, built = config_from_dict(doc), []
    seed_sequence = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence",
                        lambda *args: built.append(args) or seed_sequence(*args))
    run(cfg, MetricsWriter(io.StringIO()))
    assert len(built) == SEED_SEQUENCES[name]


# Logs whose reports are pinned: a sync and an async scenario and the
# diverged run, whose train_window lines hold "loss": NaN.
REPORT_LOGS = {"kitti-sync": kitti_sync, "bdd-async-hetero": bdd_async_hetero,
               "diverged": _diverged}

# (log, format) -> sha256 of `render_report` on the report read back from
# the log file; (None, format) for `render_comparison` of all three.
REPORT_DIGESTS = {
    ("bdd-async-hetero", "csv"): "d8c95ad160acbf0de2d8f124e5f602700d3e5bd79a7394a6f010b5d8c8c3bf31",
    ("bdd-async-hetero", "json"): "5ca59241453d39593b6583f8dbac40ec269e23b347ed62b48e5a251e490c5c00",
    ("bdd-async-hetero", "table"): "177aabcca48eacc1dea57c3d841cffde0f64418f0e71cbeb22da7cd60436bad4",
    ("diverged", "csv"): "8835f1fba83dc7b57b7a9206d42cd51db214d0081add45cebabf03017cd60f43",
    ("diverged", "json"): "a1c7a3efb5fc9a72714c79ee5445c8fa31899890bbeba127bde8b0981e2c49d1",
    ("diverged", "table"): "f7ba711efce983adcf4fcd1923e38f91c59e67100bdb2ec228d9f887e3d91337",
    ("kitti-sync", "csv"): "bd4b22fc43a8904362b4d5a02c6c25e5410ea643d359857e726b58ab8f2cda99",
    ("kitti-sync", "json"): "fb90eee17b07895a6994464eea566eb944ab6ed39b6be930fd0ee9b98e9a7148",
    ("kitti-sync", "table"): "1b6e25da8c2489c7cea2bfe9fffbe58bf31049eeadd1368d0ff9597ac899a6b1",
    (None, "csv"): "e5de91a23019f3bc899067710aabb1af306edd680a12388f54e18dd4a45a5765",
    (None, "json"): "7aae9f5615d7a1564252943e801e00c892c571baf0f7fa84976400d78be3544d",
    (None, "table"): "b12cff68e1881d83442d3609795d98b020bab3ce0c4de876fa4cbee4a5265b7a",
}


@pytest.fixture(scope="module")
def report_logs(tmp_path_factory):
    """Each pinned log's report, read back from a file written by a run."""
    reports = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, builder in REPORT_LOGS.items():
            path = tmp_path_factory.mktemp("logs") / f"{name}.jsonl"
            sink, fh = open_log_writer(path)
            with closing(fh):
                run(config_from_dict(builder(seed=0)), sink)
            reports[name] = report_from_log(path)
    return reports


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name, fmt", sorted((n, f) for n, f in REPORT_DIGESTS if n))
def test_report_bytes(report_logs, name, fmt):
    assert report_logs[name].complete
    assert _sha(render_report(report_logs[name], fmt)) == REPORT_DIGESTS[name, fmt], _mismatch()


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_comparison_bytes(report_logs, fmt):
    text = render_comparison(list(report_logs.values()), fmt)
    assert _sha(text) == REPORT_DIGESTS[None, fmt], _mismatch()
