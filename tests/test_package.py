"""The package namespace: `import fedsim` loads every submodule, and the
names and arguments perfbench's tracer relies on."""

import importlib.util
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
    sink = MetricsWriter(None)
    orchestrator.run(_stochastic(kitti_sync(seed=0)), sink)
    windows = Counter(r.round for r in sink.records if r.event == "train_window")
    aggregated = [r.round for r in sink.records if r.event == "aggregate"]
    assert any(r.event == "stalled" for r in sink.records)
    assert sizes == [windows[rnd] for rnd in aggregated]
    assert len(set(sizes)) > 1


def test_traced_fedasync_called_once_per_aggregate_record(monkeypatch):
    # The tracer counts async updates as fedasync_update's calls.
    calls = _counting(monkeypatch, "fedasync_update", lambda args: None)
    sink = MetricsWriter(None)
    orchestrator.run(_stochastic(bdd_async_hetero(seed=0)), sink)
    events = Counter(r.event for r in sink.records)
    assert events["dropout"] > 0
    assert len(calls) == events["aggregate"] > 0
