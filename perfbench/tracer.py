"""Per-layer spans recorded from outside fedsim.

The tracer replaces each layer entry point with a wrapper at the place where
its caller looks it up (``orchestrator`` imports its helpers by name, so they
are wrapped there), records one span per call in memory, and puts every
original back when it is uninstalled. Nothing in fedsim is edited.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def targets(fedsim_modules) -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) for every traced entry point."""
    m = fedsim_modules
    orch = m.orchestrator
    return [
        ("task.generate_dataset", orch, "generate_dataset"),
        ("task.local_train", orch, "local_train"),
        ("task.evaluate", orch, "evaluate"),
        ("task.loss_and_gradient", m.task, "loss_and_gradient"),
        ("aggregate.fedavg_aggregate", orch, "fedavg_aggregate"),
        ("aggregate.fedasync_update", orch, "fedasync_update"),
        ("orchestrator.apply_dropout", orch, "apply_dropout"),
        ("costs.lookup", m.costs, "lookup"),
        ("costs.sample_power_and_util", m.costs, "sample_power_and_util"),
        ("costs.client_round_time", m.costs, "client_round_time"),
        ("costs.check_memory", m.costs, "check_memory"),
        ("partition.total_samples", m.partition.PartitionPlan, "total_samples"),
        ("partition.row", m.partition.PartitionPlan, "row"),
        ("partition.from_json_dict", m.partition.PartitionPlan, "from_json_dict"),
        ("partition.overlap_split", m.config, "overlap_split"),
        ("metrics.emit", m.metrics.MetricsWriter, "emit"),
        ("metrics.read_log", m.metrics, "read_log"),
        ("metrics.build_report", m.metrics, "build_report"),
        ("metrics.render_report", m.metrics, "render_report"),
        ("config.config_from_dict", m.config, "config_from_dict"),
        ("config.digest", m.config.ExperimentConfig, "digest"),
    ]


# Work counted at a boundary besides its calls: span name -> size of the
# call's first argument, summed into Tracer.items.
ITEM_COUNTS = {"aggregate.fedavg_aggregate": len}


class Tracer:
    """Spans as (name, start, end, parent index) tuples, kept in memory."""

    def __init__(self, fedsim_modules):
        self._targets = targets(fedsim_modules)
        self._saved: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.items: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @contextmanager
    def span(self, name: str):
        index = self._name_index(name)
        slot = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(slot)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[slot] = (index, start, end, parent)

    def _wrap(self, name: str, fn):
        index = self._name_index(name)
        counter = ITEM_COUNTS.get(name)
        spans, stack, items, clock = self.spans, self._stack, self.items, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                items[name] += counter(args[0])
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent)

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, owner, attr in self._targets:
            original = vars(owner)[attr]
            if isinstance(original, property):
                wrapped = property(self._wrap(name, original.fget))
            elif isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds for every span name.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        child_time = [0.0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for slot, (index, start, end, _) in enumerate(self.spans):
            entry = out[self.names[index]]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[slot]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
