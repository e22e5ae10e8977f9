"""The package namespace: `import fedsim` loads every submodule, and the
names and arguments perfbench's tracer relies on."""

import importlib.util
import io
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import fedsim
from fedsim import orchestrator
from fedsim.config import config_from_dict
from fedsim.metrics import MetricsWriter
from fedsim.scenarios import bdd_async_hetero, kitti_sync

from reference import read_back

MODULES = ("aggregate", "config", "costs", "errors", "metrics", "orchestrator",
           "partition", "scenarios", "streams", "task")


def test_import_exposes_submodules():
    # A fresh interpreter, so no other test's imports can bind the names.
    script = (
        "import types, fedsim\n"
        f"for name in {MODULES!r}:\n"
        "    assert isinstance(getattr(fedsim, name), types.ModuleType), name\n"
        "print(fedsim.__version__)\n"
    )
    src = str(Path(fedsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == fedsim.__version__


def test_every_tracer_target_resolves():
    # perfbench's tracer wraps these names in place (`--trace 1`); a name
    # deleted or moved in fedsim would fail every traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.targets(fedsim)
    assert targets
    for name, owner, attr in targets:
        assert attr in vars(owner), f"{name}: {owner!r} has no attribute {attr!r}"


def test_benchmark_operation_reports_no_problem(tmp_path, monkeypatch):
    # perfbench times evaluations by wrapping `MetricsWriter.emit` and counts
    # the eval records that reached it; a writer that wrote `eval` some other
    # way would fail every benchmark operation.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    for name in ("hostspeed", "tracer", "workloads"):  # worker's imports, dropped after the test
        monkeypatch.setitem(sys.modules, name, None)
        del sys.modules[name]
    spec = importlib.util.spec_from_file_location("perfbench_worker", perfbench / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, worker)  # its dataclasses look it up
    spec.loader.exec_module(worker)
    doc = kitti_sync(seed=0)
    doc["rounds"] = 2
    workload = sys.modules["workloads"].Workload(
        "kitti-sync-2", lambda seed: doc, {"eval": 2, "aggregate": 2, "oom": 0, "stalled": 0},
        None)
    op = worker.run_op(fedsim, workload, doc, tmp_path / "m.jsonl")
    assert op.problems == []
    assert op.run_s is not None and op.first_eval_s > 0 and len(op.round_s) == 1


def _stochastic(doc):
    doc["train"]["local_epochs"] = 1
    for client in doc["clients"]:
        client["dropout"] = {"mode": "stochastic", "p": 0.3, "q": 0.4}
    return config_from_dict(doc)


def _counting(monkeypatch, name, count):
    """Wrap `orchestrator.<name>` as perfbench's tracer does, at the place
    the engines look it up, recording `count(args)` per call."""
    seen, original = [], getattr(orchestrator, name)

    def traced(*args, **kwargs):
        seen.append(count(args))
        return original(*args, **kwargs)

    monkeypatch.setattr(orchestrator, name, traced)
    return seen


def test_traced_fedavg_sees_each_rounds_updates(monkeypatch):
    # The tracer counts sync updates as len() of fedavg_aggregate's first
    # argument (`aggregate.updates` under --trace 1).
    sizes = _counting(monkeypatch, "fedavg_aggregate", lambda args: len(args[0]))
    buf = io.StringIO()
    sink = MetricsWriter(buf)
    orchestrator.run(_stochastic(kitti_sync(seed=0)), sink)
    records = read_back(buf)
    windows = Counter(r.round for r in records if r.event == "train_window")
    aggregated = [r.round for r in records if r.event == "aggregate"]
    assert any(r.event == "stalled" for r in records)
    assert sizes == [windows[rnd] for rnd in aggregated]
    assert len(set(sizes)) > 1


def test_traced_fedasync_called_once_per_aggregate_record(monkeypatch):
    # The tracer counts async updates as fedasync_update's calls.
    calls = _counting(monkeypatch, "fedasync_update", lambda args: None)
    buf = io.StringIO()
    sink = MetricsWriter(buf)
    orchestrator.run(_stochastic(bdd_async_hetero(seed=0)), sink)
    events = Counter(r.event for r in read_back(buf))
    assert events["dropout"] > 0
    assert len(calls) == events["aggregate"] > 0
