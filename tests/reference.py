"""Reference computations the tests compare the simulator's kernels with."""

import heapq
import io
import json
from operator import attrgetter

import numpy as np

from fedsim import orchestrator
from fedsim.aggregate import ClientUpdate, fedasync_update
from fedsim.errors import SimulationError
from fedsim.metrics import _REQUIRED, _SIGNATURES, MetricsRecord, MetricsWriter, _check, _misfit
from fedsim.task import LocalDataset, local_train, loss_and_gradient, zero_params


def dataset_loss(w: np.ndarray, data: LocalDataset, w_anchor=None, mu: float = 0.0) -> float:
    """`loss_and_gradient`'s loss over the whole dataset (anchored at w
    itself unless `w_anchor` is given)."""
    if w_anchor is None:
        w_anchor = w
    loss, _ = loss_and_gradient(w, data, np.arange(len(data)), w_anchor, mu)
    return loss


def reference_line(run_id: str, round_idx: int, event: str, **fields) -> str:
    """A record's log line as `json.dumps` writes it: every record key in
    field order, each absent one at its default."""
    doc = {k: MetricsRecord._field_defaults.get(k) for k in MetricsRecord._fields}
    doc.update(run_id=run_id, round=round_idx, event=event, **fields)
    return json.dumps(doc) + "\n"


def from_line(line: str) -> MetricsRecord:
    """The record a log line holds, built by `MetricsRecord` with its checks;
    keys that are no record field are dropped."""
    doc = json.loads(line)
    if not isinstance(doc, dict):
        raise ValueError("a log line must be a JSON object")
    return MetricsRecord(**{k: v for k, v in doc.items() if k in MetricsRecord._fields})


def written(*records: MetricsRecord) -> str:
    """The log text a writer writes of `records`, one line each."""
    buf = io.StringIO()
    sink = MetricsWriter(buf)
    for record in records:
        sink.emit(record)
    return buf.getvalue()


def read_back(buf: io.StringIO) -> list[MetricsRecord]:
    """The records a writer into `buf` wrote, in order."""
    return [from_line(line) for line in buf.getvalue().splitlines()]


UNPARSEABLE = "unparseable record (truncated log?)"
# The least int `float` refuses: halfway from the largest float, 2**1024 - 2**971,
# to 2**1024, which the tie rounds to.
FLOAT_OVERFLOW = 2**1024 - 2**970


def _past_float_range(event: str, required) -> bool:
    """Whether a required float field of `event` holds an int too large in
    magnitude to convert to a float."""
    return any(type(v) is int and float in admits and abs(v) >= FLOAT_OVERFLOW
               for v, admits in zip(required, _REQUIRED[event].values()))


def _refused(line: str) -> str:
    """Why `from_line` refused `line`: a known event's misfit
    required values or broken record check, or no record."""
    try:
        doc = json.loads(line)
        event = doc["event"]
        values = {**MetricsRecord._field_defaults, **doc}
        required = tuple(map(values.get, _REQUIRED[event]))
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError):
        return UNPARSEABLE
    if tuple(map(type, required)) not in _SIGNATURES[event]:
        return f"{event} record {_misfit(event, required)}"
    try:
        _check(event, *map(values.get, ("t_start_s", "t_end_s", "power_w", "energy_j")))
    except ValueError as exc:
        return f"{event} record breaks a rule: {exc}"
    except (TypeError, OverflowError):
        pass
    return UNPARSEABLE


def read_log(path) -> tuple[list, list[str]]:
    """`metrics.read_log` one line at a time: each stripped, non-blank line
    of the text file goes through `from_line` on its own."""
    records, problems = [], []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode()
            except UnicodeEncodeError:  # a byte that is not UTF-8, escaped on reading
                problems.append(f"line {lineno}: {UNPARSEABLE}")
                continue
            try:
                rec = from_line(line)
            except (json.JSONDecodeError, TypeError, ValueError, OverflowError, RecursionError):
                problems.append(f"line {lineno}: {_refused(line)}")
                continue
            values = attrgetter(*_REQUIRED[rec.event])(rec)
            if tuple(map(type, values)) not in _SIGNATURES[rec.event]:
                problems.append(f"line {lineno}: {rec.event} record {_misfit(rec.event, values)}")
                continue
            if _past_float_range(rec.event, values):
                problems.append(f"line {lineno}: {UNPARSEABLE}")
                continue
            records.append(rec)
    return records, problems


def async_one_at_a_time(cfg, sink) -> None:
    """`run_async` as one loop that trains each application with
    `local_train` as it pops off the event heap: the reference whose
    records and errors the scheduled, batched executor reproduces."""
    ctx = orchestrator._Run(cfg, sink, "run_async", ("fedasync",))
    budget = cfg.async_cfg.applications or cfg.rounds * cfg.n_clients
    eval_every = cfg.async_cfg.eval_every or cfg.n_clients
    for cid in ctx.entries:
        if cid not in ctx.durations:
            ctx.write("oom", 0, *ctx.oom(cid))
    w = zero_params(cfg.task.n_features, cfg.task.n_classes)
    version = evals = 0
    fetched = dict.fromkeys(ctx.durations, (0, w))
    attempts = dict.fromkeys(ctx.durations, 0)
    heap = [(d, cid) for cid, d in ctx.durations.items()]
    heapq.heapify(heap)
    while version < budget:
        clock, cid = heapq.heappop(heap)
        duration = ctx.durations[cid]
        heapq.heappush(heap, (clock + duration, cid))
        attempt = attempts[cid] = attempts[cid] + 1
        if not ctx.presence.is_present(cid, attempt):
            ctx.write("dropout", attempt, cid, clock, clock)
            if all(ctx.presence.absorbed(c, attempts[c]) for c in ctx.durations):
                raise SimulationError(
                    f"every client is permanently absent after {version} of "
                    f"{budget} applications; the run cannot finish"
                )
            continue
        base, model = fetched[cid]
        seed = int(np.random.SeedSequence([cfg.master_seed, orchestrator._TRAIN, attempt,
                                           orchestrator._cid_key(cid)]).generate_state(1)[0])
        w_new, n, loss = local_train(model, ctx.datasets[cid], seed, cfg.train)
        if w_new is None:
            raise SimulationError("non-finite parameters after local training")
        rng = np.random.default_rng(np.random.SeedSequence(
            [cfg.master_seed, orchestrator._POWER, attempt, orchestrator._cid_key(cid)]))
        entry = ctx.entries[cid]
        power = float(rng.uniform(*entry.power_w_range))
        util = float(rng.uniform(*entry.util_pct_range))
        ctx.train_window(attempt, cid, clock - duration, clock, n, loss, power, util)
        staleness = version - base
        w = fedasync_update(w, ClientUpdate(cid, w_new, n), staleness, cfg.async_cfg)
        version += 1
        ctx.write("aggregate", attempt, cid, clock, clock, None, None, None, n, staleness, False)
        if version % eval_every == 0 or version == budget:
            evals += 1
            ctx.evaluate(evals, w, clock)
        fetched[cid] = (version, w)
