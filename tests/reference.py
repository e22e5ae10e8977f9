"""Reference computations the tests compare the simulator's kernels with."""

import heapq
import io
import json
from operator import attrgetter

import numpy as np

from fedsim import costs, orchestrator, streams
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


def reference_sgd(w0, data, seed, cfg):
    """The documented one-client procedure, one `loss_and_gradient` per batch."""
    w = np.asarray(w0, dtype=np.float64).copy()
    anchor = w.copy()
    for epoch in range(cfg.local_epochs):
        perm = np.random.default_rng(
            np.random.SeedSequence([seed & 0x7FFFFFFFFFFFFFFF, epoch])
        ).permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            _, grad = loss_and_gradient(w, data, batch, anchor, cfg.prox_mu)
            w -= cfg.learning_rate * grad
    return w, len(data), dataset_loss(w, data, anchor, cfg.prox_mu)


def fedavg_loop(updates) -> np.ndarray:
    """FedAvg as one running sum: in ascending client_id order, each update
    scaled by n_k / N (N an exact integer sum) and added in turn."""
    updates = sorted(updates, key=attrgetter("client_id"))
    total = sum(int(u.n_samples) for u in updates)
    out = np.zeros(updates[0].params.size, dtype=np.float64)
    for u in updates:
        out += (u.n_samples / total) * u.params
    return out


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


def _coin(seed: int, cid: str, k: int) -> float:
    """The dropout coin k of client `cid`, which decides its attempt k + 1:
    numpy's own draw from the key, one key at a time."""
    key = [seed, orchestrator._DROPOUT, streams.client_key(cid), k]
    return float(np.random.default_rng(np.random.SeedSequence(key)).random())


def _present(rule, cid: str, attempt: int, was: bool, seed: int) -> bool:
    """Whether `cid` is present at `attempt`, given its presence at the
    attempt before."""
    if rule.mode == "absent_rounds":
        return attempt not in rule.absent_rounds
    if rule.mode == "stochastic" and attempt > 1:
        u = _coin(seed, cid, attempt - 1)
        return u >= rule.p if was else u < rule.q
    return was


def _training_seed(seed: int, attempt: int, cid: str) -> int:
    """The training seed of `cid`'s `attempt`: numpy's first state word."""
    key = [seed, orchestrator._TRAIN, attempt, streams.client_key(cid)]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _power_pair(seed: int, attempt: int, cid: str, entry) -> tuple[float, float]:
    """`cid`'s (power, utilization) at `attempt`: two uniforms from numpy's Generator."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, orchestrator._POWER, attempt, streams.client_key(cid)]))
    return float(rng.uniform(*entry.power_w_range)), float(rng.uniform(*entry.util_pct_range))


def async_one_at_a_time(cfg, sink) -> None:
    """`run_async` as one loop that trains each application with
    `local_train` as it pops off the event heap, and keeps each client's
    presence from its own coins: the reference whose records and errors
    the scheduled, batched executor reproduces."""
    ctx = orchestrator._Run(cfg, sink, "run_async", ("fedasync",))
    budget = cfg.async_cfg.applications or cfg.rounds * cfg.n_clients
    eval_every = cfg.async_cfg.eval_every or cfg.n_clients
    rules = {c.client_id: c.dropout for c in cfg.clients}

    def write(*row):
        ctx.sink.write_rows(ctx.run_id, [row])

    for cid in ctx.entries:
        if cid not in ctx.durations:
            write("oom", 0, *ctx.oom(cid))
    w = zero_params(cfg.task.n_features, cfg.task.n_classes)
    version = evals = 0
    fetched = dict.fromkeys(ctx.durations, (0, w))
    attempts = dict.fromkeys(ctx.durations, 0)
    present = dict.fromkeys(ctx.durations, True)
    heap = [(d, cid) for cid, d in ctx.durations.items()]
    heapq.heapify(heap)
    while version < budget:
        clock, cid = heapq.heappop(heap)
        duration = ctx.durations[cid]
        heapq.heappush(heap, (clock + duration, cid))
        attempt = attempts[cid] = attempts[cid] + 1
        rule = rules[cid]
        present[cid] = _present(rule, cid, attempt, present[cid], cfg.master_seed)
        if not present[cid]:
            write("dropout", attempt, cid, clock, clock)
            if not any(present[c] or rules[c].mode != "stochastic" or rules[c].q > 0.0
                       for c in ctx.durations):
                raise SimulationError(
                    f"every client is permanently absent after {version} of "
                    f"{budget} applications; the run cannot finish"
                )
            continue
        base, model = fetched[cid]
        w_new, n, loss = local_train(model, ctx.datasets[cid],
                                     _training_seed(cfg.master_seed, attempt, cid), cfg.train)
        if w_new is None:
            raise SimulationError("non-finite parameters after local training")
        power, util = _power_pair(cfg.master_seed, attempt, cid, ctx.entries[cid])
        write(*ctx.train_row(attempt, cid, clock - duration, clock, n, loss, power, util))
        staleness = version - base
        w = fedasync_update(w, ClientUpdate(cid, w_new, n), staleness, cfg.async_cfg)
        version += 1
        write("aggregate", attempt, cid, clock, clock, None, None, None, n, staleness, False)
        if version % eval_every == 0 or version == budget:
            evals += 1
            ctx.evaluate(evals, w, clock)
        fetched[cid] = (version, w)


def sync_one_at_a_time(cfg, sink) -> None:
    """`run_sync` as one loop over rounds and, in each, over the clients in
    id order: presence kept per client from its own coins, every draw from
    numpy's own SeedSequence one key at a time, each participant trained
    alone by `reference_sgd` and the updates averaged by `fedavg_loop`.
    The reference whose records and errors the scheduled, batched executor
    reproduces; it leaves out `run_sync`'s refusals before the first
    record."""
    ctx = orchestrator._Run(cfg, sink, "run_sync", ("fedavg", "fedprox"))
    seed, ids = cfg.master_seed, sorted(ctx.entries)

    def write(*row):
        ctx.sink.write_rows(ctx.run_id, [row])

    w = zero_params(cfg.task.n_features, cfg.task.n_classes)
    clock = 0.0
    present = dict.fromkeys(ids, True)
    for rnd in range(1, cfg.rounds + 1):
        for cid in ids:
            present[cid] = _present(ctx.rules[cid], cid, rnd, present[cid], seed)
        for cid in ids:
            if not present[cid]:
                write("dropout", rnd, cid, None, None)
        end, updates = clock, []
        for cid in ids:
            if not present[cid]:
                continue
            if cid not in ctx.durations:
                write("oom", rnd, *ctx.oom(cid))
                continue
            w_new, n, loss = reference_sgd(w, ctx.datasets[cid], _training_seed(seed, rnd, cid),
                                           cfg.train)
            if not np.isfinite(w_new).all():
                raise SimulationError("non-finite parameters after local training")
            power, util = _power_pair(seed, rnd, cid, ctx.entries[cid])
            stop = clock + ctx.durations[cid]
            write(*ctx.train_row(rnd, cid, clock, stop, n, loss, power, util))
            updates.append(ClientUpdate(cid, w_new, n))
            end = max(end, stop)
        clock, idle = end, cfg.aggregate_time_s
        if updates:
            w = fedavg_loop(updates)
            idle_power, idle_util = costs.sample_idle_power_and_util(
                np.random.SeedSequence([seed, orchestrator._POWER, rnd, 0]), ctx.cal)
            write("aggregate", rnd, None, clock, clock + idle, idle_power, idle_util,
                  idle_power * idle, sum(u.n_samples for u in updates), None, True)
        else:
            write("stalled", rnd, clock, clock + idle)
        clock += idle
        ctx.evaluate(rnd, w, clock)
