"""Federated state machine over a virtual clock.

Synchronous rounds (FedAvg / FedProx) advance the clock by the slowest
participant per round; asynchronous runs (FedAsync) process client
completions in (time, client_id) order and apply each update on arrival.
All randomness is keyed from (master_seed, stream, round, client) by
`streams`, bit-identical to numpy's SeedSequence, so any round can be
recomputed in isolation and checkpoint/resume is exact.

A run is one `_Run` (its datasets, evaluation set, presence chains and
per-client costs, all built before any record) and two passes.  Its
schedule, `_sync_schedule` or `_async_schedule`, says who trains when on
which model version and builds every record that reads no model, one
evaluation window at a time; a sync round is one window whose clients all
train on the previous round's model.  One executor, `_execute`, runs
either schedule: each batch of applications whose base models exist
trains in one `train_cohort` call, with its training seeds and power
draws keyed in one batch, and records are written in schedule order; a
client whose training diverged raises at its application.  A window's
records reach the writer in one `MetricsWriter.write_rows` call, made
also when the window raises, so the records before the raise are
written; its `eval` record follows through `emit`.
Only aggregation depends on the strategy; it takes plain `ClientUpdate`s,
whose finiteness the executor guarantees, and checks each result once.
`run` picks the schedule from the config's strategy.  `local_train` and
`apply_dropout` are kept for callers and perfbench's tracer; the engines
call neither.
"""

from __future__ import annotations

import heapq
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from . import costs, streams
from .aggregate import ClientUpdate, fedasync_update, fedavg_aggregate
from .config import DropoutRule, ExperimentConfig
from .errors import ConfigError, SimulationError, array, integer, string
from .metrics import MetricsRecord, MetricsWriter
from .task import (
    LocalDataset,
    evaluate,
    generate_dataset,
    generate_datasets,
    local_train,
    param_length,
    train_cohort,
    zero_params,
)

# Seed stream tags.
_DATA, _TRAIN, _DROPOUT, _EVAL, _POWER = 1, 2, 3, 4, 5


def _cid_key(client_id: str) -> int:
    return zlib.crc32(client_id.encode())


@dataclass
class RunResult:
    run_id: str
    params: np.ndarray
    history: list[tuple[int, float]] = field(default_factory=list)
    clock: float = 0.0
    rounds_completed: int = 0
    version: int = 0

    @property
    def final_accuracy(self) -> float:
        return self.history[-1][1] if self.history else float("nan")


class _Presence:
    """Participant sets under dropout rules.

    A stochastic rule is a presence chain from round 1: a participating
    client drops with probability p afterwards, an absent one rejoins with
    probability q the next round.  Coins are keyed per (seed, client,
    round), so presence at round r never depends on how it was queried.
    Each chain keeps its states from round 0 (present, as at round 1): a
    later round draws only the coins past the last state kept, an earlier
    one is read back.
    """

    def __init__(self, rules: dict[str, DropoutRule], seed: int):
        self._rules = rules
        self._seed = seed
        self._states = {cid: [True, True] for cid in rules}  # read under a stochastic rule

    def is_present(self, cid: str, round_idx: int) -> bool:
        rule = self._rules[cid]
        if rule.mode == "always_on":
            return True
        if rule.mode == "absent_rounds":
            return round_idx not in rule.absent_rounds
        states = self._states[cid]
        for coin in streams.derive(self._seed, _DROPOUT, _cid_key(cid),
                                   range(len(states) - 1, round_idx)):
            u = np.random.default_rng(coin).random()
            states.append((u >= rule.p) if states[-1] else (u < rule.q))
        return states[max(round_idx, 0)]

    def participants(self, round_idx: int) -> list[str]:
        return [cid for cid in sorted(self._rules) if self.is_present(cid, round_idx)]

    def absorbed(self, cid: str, round_idx: int) -> bool:
        """Absent at `round_idx`, and never to rejoin."""
        rule = self._rules[cid]
        return rule.mode == "stochastic" and rule.q == 0.0 and not self.is_present(cid, round_idx)


def apply_dropout(rules: dict[str, DropoutRule], round_idx: int, seed: int) -> list[str]:
    """Participant set for one round; deterministic in (rules, round, seed).

    A fresh `_Presence` advanced to `round_idx`, so every stochastic chain
    runs from round 1 (see `_Presence` for the state machine).  The engines
    keep one `_Presence` per run instead, which draws each coin once.
    """
    return _Presence(rules, seed).participants(round_idx)


def _build_datasets(cfg: ExperimentConfig) -> dict[str, LocalDataset]:
    """Per-client datasets in config order, pure in (master_seed, client, plan).

    Matrix plans scale each client's noise by its resolution quality
    factor.  Clients with the same noise factor, plan row and scenario mix
    have same-shaped datasets, so each such group is drawn in one
    `generate_datasets` call.  Overlap plans share partition-level datasets
    verbatim between clients, so overlapping clients hold identical samples.
    """
    plan = cfg.plan
    if plan.draws_per_client:
        keys = streams.derive(cfg.master_seed, _DATA, [_cid_key(c.client_id) for c in cfg.clients])
        groups: dict[tuple, tuple[dict | None, list, list]] = {}
        for client, key in zip(cfg.clients, keys):
            factor = cfg.resolution_noise.get(client.resolution, 1.0)
            mix = client.scenario_mix
            shape = (factor, plan.row(client.client_id),
                     None if mix is None else tuple(sorted(mix.items())))
            _, cids, group_keys = groups.setdefault(shape, (mix, [], []))
            cids.append(client.client_id)
            group_keys.append(key)
        tasks, drawn = {}, {}
        for (factor, row, _), (mix, cids, group_keys) in groups.items():
            if factor not in tasks:
                tasks[factor] = cfg.task.with_noise_scale(factor)
            for data in generate_datasets(tasks[factor], row, mix, group_keys, cids):
                drawn[data.client_id] = data
        return {c.client_id: drawn[c.client_id] for c in cfg.clients}
    ids = range(1, plan.n_partitions + 1)
    parts = dict(zip(ids, generate_datasets(
        cfg.task, plan.per_partition_counts, None,
        streams.derive(cfg.master_seed, _DATA, ids), [f"partition-{p}" for p in ids],
    )))
    held = plan.assignment
    return {
        c.client_id: LocalDataset.concat(c.client_id, [parts[p] for p in held[c.client_id]])
        for c in cfg.clients
    }


class _Run:
    """One run's fixed inputs and the records both engines emit.

    Built before anything is logged: every client's cost entry is looked
    up once here, so an uncalibrated client, or a run in which no client
    fits its device memory, fails with no record written.  `durations`
    holds a client exactly when it fits its device memory; its value is
    the client's modeled training window.
    """

    def __init__(self, cfg: ExperimentConfig, sink: MetricsWriter | None, engine: str,
                 strategies: tuple[str, ...]):
        if cfg.strategy not in strategies:
            raise ConfigError(f"{engine} cannot execute strategy {cfg.strategy!r}")
        self.cfg = cfg
        self.sink = sink or MetricsWriter(None)
        self.cal = costs.load_calibration()
        self.entries = {
            c.client_id: costs.lookup(
                self.cal.profile(c.architecture), c.resolution, c.batch,
                allow_extrapolation=True,
            )
            for c in cfg.clients
        }
        self.run_id = f"{cfg.strategy}-{cfg.digest()[:10]}-s{cfg.master_seed}"
        self.datasets = _build_datasets(cfg)
        self.eval_ds = generate_dataset(
            cfg.task,
            [cfg.eval.per_class] * cfg.task.n_classes,
            cfg.eval.scenario_mix(),
            streams.derive(cfg.master_seed, _EVAL, cfg.eval.seed)[0],
            "eval",
        )
        pool = cfg.plan.total_samples
        self.durations = {
            c.client_id: costs.client_round_time(
                self.entries[c.client_id], len(self.datasets[c.client_id]) / pool,
                c.device, cfg.strategy, self.cal.fedprox_time_factor,
            )
            for c in cfg.clients
            if costs.check_memory(self.entries[c.client_id], c.device)
        }
        if not self.durations:
            raise SimulationError("no client fits its device memory budget; nothing can run")
        self.presence = _Presence({c.client_id: c.dropout for c in cfg.clients}, cfg.master_seed)
        self.history: list[tuple[int, float]] = []

    def write(self, event: str, round_idx: int, *values) -> None:
        """One record of `event`, its `SCHEMA` fields given in key order."""
        self.sink.write(event, self.run_id, round_idx, *values)

    def oom(self, cid: str) -> tuple:
        """The fields of `cid`'s `oom` record that follow its round."""
        entry = self.entries[cid]
        return cid, entry.peak_mem_mib, entry.estimated

    def train_row(self, round_idx: int, cid: str, t_start: float, t_end: float,
                  n: int, loss: float, power: float, util: float) -> tuple:
        """The row of a `train_window` record, as the writer takes it.  Both
        ends are given: async's (t - d) + d need not round back to t."""
        entry = self.entries[cid]
        return ("train_window", round_idx, cid, t_start, t_end, entry.peak_mem_mib,
                power, util, power * self.durations[cid], n, loss, entry.estimated)

    def train_window(self, *args) -> None:
        """Write the `train_window` record `train_row` gives."""
        self.write(*self.train_row(*args))

    def evaluate(self, round_idx: int, w: np.ndarray, clock: float) -> None:
        acc = evaluate(w, self.eval_ds)
        self.sink.emit(MetricsRecord(
            run_id=self.run_id, round=round_idx, event="eval", t_start_s=clock,
            t_end_s=clock, n_samples=len(self.eval_ds), accuracy=acc,
        ))
        self.history.append((round_idx, acc))


class _Application(NamedTuple):
    """One training in a schedule: the client's attempt (a sync run's
    round), its window, and the model version it trains on."""

    attempt: int
    client_id: str
    start: float
    end: float
    base: int


# A schedule window: its items in record order (an `_Application`, or a
# model-free record as (event, round, *fields)), the clock at which it
# ends, and the error to raise after its records, if any.
_Window = tuple[list, float, SimulationError | None]


def _sync_schedule(ctx: _Run, first: int, last: int, clock: float) -> Iterator[_Window]:
    """Rounds `first` to `last` from `clock`, one window each: the absent
    clients' dropouts in id order, then each participant's `oom` record or
    its application on the previous round's model.  A window ends with its
    slowest participant; the next starts after the aggregation."""
    durations = ctx.durations
    for rnd in range(first, last + 1):
        participants = ctx.presence.participants(rnd)
        window: list = [("dropout", rnd, cid, None, None)
                        for cid in sorted(ctx.entries.keys() - set(participants))]
        window += [_Application(rnd, cid, clock, clock + durations[cid], rnd - 1)
                   if cid in durations else ("oom", rnd, *ctx.oom(cid)) for cid in participants]
        clock += max([durations[c] for c in participants if c in durations], default=0.0)
        yield window, clock, None
        clock += ctx.cfg.aggregate_time_s


def _async_schedule(ctx: _Run) -> Iterator[_Window]:
    """An async run's events, one evaluation window at a time, the first
    opening with the `oom` records.

    Completions pop from a heap in (time, client_id) order.  A present
    client's event is an application on the version it fetched when its
    last application was applied; an absent one's is a dropout.  Each
    window ends at an application an evaluation follows; if every client
    is absorbed, the last window ends at its dropout and comes with the
    `SimulationError` to raise.
    """
    cfg = ctx.cfg
    budget = cfg.async_cfg.applications or cfg.rounds * cfg.n_clients
    eval_every = cfg.async_cfg.eval_every or cfg.n_clients
    fetched = dict.fromkeys(ctx.durations, 0)
    attempts = dict.fromkeys(ctx.durations, 0)
    heap = [(d, cid) for cid, d in ctx.durations.items()]
    heapq.heapify(heap)
    version = 0  # the number of applications scheduled
    window: list = [("oom", 0, *ctx.oom(cid)) for cid in ctx.entries if cid not in ctx.durations]
    while version < budget:
        clock, cid = heapq.heappop(heap)
        duration = ctx.durations[cid]
        heapq.heappush(heap, (clock + duration, cid))
        attempt = attempts[cid] = attempts[cid] + 1
        if not ctx.presence.is_present(cid, attempt):
            window.append(("dropout", attempt, cid, clock, clock))
            if all(ctx.presence.absorbed(c, attempts[c]) for c in ctx.durations):
                yield window, clock, SimulationError(
                    f"every client is permanently absent after {version} of "
                    f"{budget} applications; the run cannot finish"
                )
                return
            continue
        window.append(_Application(attempt, cid, clock - duration, clock, fetched[cid]))
        version += 1
        fetched[cid] = version
        if version % eval_every == 0 or version == budget:
            yield window, clock, None
            window = []


def _train(ctx: _Run, apps: list[_Application], models: dict[int, np.ndarray]) -> list[tuple]:
    """Train `apps` in one cohort, each from its base version's model:
    (params, sample count, loss, power, utilization) per application.
    Seeds and power are keyed (master, stream, attempt, client); an
    attempt or a base model that every application shares is passed once."""
    cids = [a.client_id for a in apps]
    keys = [_cid_key(c) for c in cids]
    attempts, bases = {a.attempt for a in apps}, {a.base for a in apps}
    rounds = attempts.pop() if len(attempts) == 1 else [a.attempt for a in apps]
    w0 = models[bases.pop()] if len(bases) == 1 else np.stack([models[a.base] for a in apps])
    seed = ctx.cfg.master_seed
    trained = train_cohort(w0, [ctx.datasets[c] for c in cids],
                           streams.first_words(seed, _TRAIN, rounds, keys), ctx.cfg.train)
    drawn = costs.sample_power_and_util([ctx.entries[c] for c in cids], seed, _POWER, rounds, keys)
    return [t + d for t, d in zip(trained, drawn)]


def _execute(ctx: _Run, schedule: Iterator[_Window], w: np.ndarray, version: int,
             clock: float) -> RunResult:
    """Run `schedule` from model `w` at `version` and `clock`.

    Records are written in schedule order, a window's in one call at its
    end or at a raise inside it.  At a window's first untrained
    application, every untrained application of the window whose base
    version exists trains in one batch, once; a diverged client raises at
    its application, after the same records as a loop that trains each in
    turn.  FedAsync mixes each update in on arrival; FedAvg and FedProx
    average a window's updates at its end and move the version up by one.
    Every window ends with an evaluation, numbered on from `version`.
    """
    cfg = ctx.cfg
    on_arrival = cfg.strategy == "fedasync"
    evals = version
    models = {version: w}  # version -> global model, while some client holds it
    held = dict.fromkeys(ctx.durations, version)  # fedasync: client -> version it trains on
    for window, end, failure in schedule:
        # Both are emptied before the window trains and `trained` is popped
        # as rows are made, so no window's results outlive it.
        trained: dict[int, tuple] = {}  # window index -> what `_train` gives
        updates = []
        rows: list[tuple] = []  # the window's records, written in one call
        try:
            for i, item in enumerate(window):
                if type(item) is not _Application:
                    rows.append(item)
                    continue
                if i not in trained:
                    batch = [j for j in range(i, len(window)) if j not in trained
                             and type(window[j]) is _Application and window[j].base <= version]
                    trained.update(zip(batch, _train(ctx, [window[j] for j in batch], models)))
                attempt, cid, start, stop, base = item
                w_new, n, loss, power, util = trained.pop(i)
                if w_new is None:
                    raise SimulationError("non-finite parameters after local training")
                rows.append(ctx.train_row(attempt, cid, start, stop, n, loss, power, util))
                if not on_arrival:
                    updates.append(ClientUpdate(cid, w_new, n))
                    continue
                staleness = version - base
                w = fedasync_update(w, ClientUpdate(cid, w_new, n), staleness, cfg.async_cfg)
                version += 1
                # No power, util or energy: the client and its update's staleness.
                rows.append(("aggregate", attempt, cid, stop, stop, None, None, None, n,
                             staleness, False))
                held[cid] = version
                models[version] = w
                if base not in held.values():
                    del models[base]
            if failure is not None:
                raise failure
            clock = end
            if not on_arrival:
                version += 1
                if updates:
                    w = fedavg_aggregate(updates)
                    idle_power, idle_util = costs.sample_idle_power_and_util(
                        streams.derive(cfg.master_seed, _POWER, version, 0)[0], ctx.cal
                    )
                    # No client or staleness: the idle server's power, and estimated.
                    rows.append(("aggregate", version, None, clock, clock + cfg.aggregate_time_s,
                                 idle_power, idle_util, idle_power * cfg.aggregate_time_s,
                                 sum(u.n_samples for u in updates), None, True))
                else:
                    rows.append(("stalled", version, clock, clock + cfg.aggregate_time_s))
                clock += cfg.aggregate_time_s
                models = {version: w}  # the next round trains on it
        finally:  # a raise writes the rows made before it
            ctx.sink.write_rows(ctx.run_id, rows)
        evals += 1
        ctx.evaluate(evals, w, clock)
    return RunResult(ctx.run_id, w, ctx.history, clock, evals, version)


def run_sync(
    cfg: ExperimentConfig,
    sink: MetricsWriter | None = None,
    stop_after_round: int | None = None,
    _checkpoint: Checkpoint | None = None,
) -> RunResult:
    """Synchronous rounds (FedAvg / FedProx): `_sync_schedule` run by `_execute`.

    Per round: dropout rules pick participants, infeasible configurations
    fail with an OOM event, the rest train from the current global model
    in one batch, their updates are averaged, and the held-out accuracy is
    logged.  Zero-participant rounds carry the model forward as a stalled
    round.  A `stop_after_round` below 1 is a `ConfigError`, and a run in
    which no client that fits its memory is present in any of the config's
    rounds a `SimulationError`, both raised before any record.
    """
    if stop_after_round is not None and stop_after_round < 1:
        raise ConfigError(f"stop_after_round must be at least 1, got {stop_after_round}")
    ctx = _Run(cfg, sink, "run_sync", ("fedavg", "fedprox"))
    if not any(ctx.presence.is_present(cid, rnd)
               for cid in ctx.durations for rnd in range(1, cfg.rounds + 1)):
        raise SimulationError(
            "no client that fits its device memory is present in any round; nothing can run"
        )
    last = cfg.rounds if stop_after_round is None else min(stop_after_round, cfg.rounds)
    if _checkpoint is None:
        w, done, clock = zero_params(cfg.task.n_features, cfg.task.n_classes), 0, 0.0
    else:
        w, done, clock = _checkpoint.params.copy(), _checkpoint.round, _checkpoint.clock
        ctx.history = list(_checkpoint.history)
    return _execute(ctx, _sync_schedule(ctx, done + 1, last, clock), w, done, clock)


def run_async(cfg: ExperimentConfig, sink: MetricsWriter | None = None) -> RunResult:
    """Asynchronous run (FedAsync): `_async_schedule` run by `_execute`.

    Each client repeatedly fetches the global model, trains for its modeled
    duration, and its completion is applied via staleness-weighted convex
    mixing.  Completions are processed in (time, client_id) order; the run
    ends after `async.applications` server applications (default rounds x
    clients), evaluating every `async.eval_every` (default the client count).
    """
    ctx = _Run(cfg, sink, "run_async", ("fedasync",))
    w = zero_params(cfg.task.n_features, cfg.task.n_classes)
    return _execute(ctx, _async_schedule(ctx), w, 0, 0.0)


def run(
    cfg: ExperimentConfig,
    sink: MetricsWriter | None = None,
    stop_after_round: int | None = None,
) -> RunResult:
    """Run `cfg` on the engine its strategy names.  Only a sync run can
    stop early: an async run has no round boundary to stop at."""
    if cfg.strategy != "fedasync":
        return run_sync(cfg, sink, stop_after_round)
    if stop_after_round is not None:
        raise ConfigError("stop_after_round applies to sync runs only, not fedasync")
    return run_async(cfg, sink)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def _at_least(low: float, values):
    """`values` if each is finite and at least `low`."""
    if not (np.isfinite(values).all() and np.all(values >= low)):
        raise ValueError(f"expected finite values of at least {low}")
    return values


def _evaluation(entry) -> tuple[int, float]:
    """A history entry: [round of at least 1, hex accuracy in [0, 1]]."""
    if type(entry) is not list or len(entry) != 2:
        raise TypeError(f"expected a [round, accuracy] pair, got {entry!r}")
    round_idx, accuracy = integer(entry[0]), float.fromhex(entry[1])
    if not (round_idx >= 1 and 0.0 <= accuracy <= 1.0):  # NaN fails it too
        raise ValueError(f"expected a round >= 1 and an accuracy in [0, 1], got {entry!r}")
    return round_idx, accuracy


# Each checkpoint field, in file order, with its JSON encoder and strict decoder.
_CHECKPOINT_FIELDS = {
    "config_digest": (str, string),
    "round": (int, lambda r: _at_least(0, integer(r))),
    "version": (int, lambda v: _at_least(0, integer(v))),
    "clock": (lambda c: float(c).hex(), lambda c: _at_least(0.0, float.fromhex(c))),
    "params": (lambda p: [float(x).hex() for x in p],
               lambda xs: _at_least(-np.inf, np.array(array(float.fromhex)(xs)))),
    "history": (lambda h: [[r, float(a).hex()] for r, a in h], array(_evaluation)),
}


@dataclass(frozen=True)
class Checkpoint:
    """Sync-run snapshot at a round boundary.

    Floats are hex-encoded so the file round-trips bit-exactly regardless
    of locale or formatting library.
    """

    config_digest: str
    round: int
    version: int
    clock: float
    params: np.ndarray
    history: tuple[tuple[int, float], ...]

    def to_json(self) -> str:
        doc = {k: encode(getattr(self, k)) for k, (encode, _) in _CHECKPOINT_FIELDS.items()}
        return json.dumps({"checkpoint_version": CHECKPOINT_VERSION, **doc}, indent=2)

    @staticmethod
    def from_json(text: str) -> "Checkpoint":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"checkpoint is not valid JSON: {exc}") from None
        if not isinstance(doc, dict) or doc.get("checkpoint_version") != CHECKPOINT_VERSION:
            raise ConfigError(f"not a checkpoint_version {CHECKPOINT_VERSION} object")
        values = {}
        for name, (_, decode) in _CHECKPOINT_FIELDS.items():
            try:
                values[name] = decode(doc[name])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"checkpoint field {name!r} is missing or malformed") from exc
        return Checkpoint(**values)


def checkpoint_save(result: RunResult, cfg: ExperimentConfig) -> Checkpoint:
    return Checkpoint(
        config_digest=cfg.digest(),
        round=result.rounds_completed,
        version=result.version,
        clock=result.clock,
        params=np.asarray(result.params, dtype=np.float64).copy(),
        history=tuple(result.history),
    )


def checkpoint_resume(
    cp: Checkpoint, cfg: ExperimentConfig, sink: MetricsWriter | None = None
) -> RunResult:
    """Continue a checkpointed sync run to completion.

    Refuses, before any record, to resume under a different configuration,
    past the config's last round, at a version other than the round (a sync
    run's version counts its rounds) or from parameters not the task's
    length; the continuation is bit-identical to the uninterrupted run.
    """
    if cp.config_digest != cfg.digest():
        raise ConfigError(
            "checkpoint was written under a different configuration "
            f"(digest {cp.config_digest[:12]}... != {cfg.digest()[:12]}...)"
        )
    if cp.round > cfg.rounds:
        raise ConfigError(f"checkpoint field 'round' is {cp.round}, past the config's "
                          f"{cfg.rounds} rounds")
    if cp.version != cp.round:
        raise ConfigError(f"checkpoint field 'version' is {cp.version}, not its round {cp.round}")
    expect = param_length(cfg.task.n_features, cfg.task.n_classes)
    if len(cp.params) != expect:
        raise ConfigError(f"checkpoint field 'params' holds {len(cp.params)} values, not {expect}")
    return run_sync(cfg, sink, _checkpoint=cp)


def write_checkpoint(cp: Checkpoint, path) -> None:
    """Replace the file at `path` atomically: a reader, or a run resumed
    after a crash, sees the previous checkpoint or this one, never a
    partial file."""
    text = cp.to_json() + "\n"
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_checkpoint(path) -> Checkpoint:
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"checkpoint file not found: {path}") from None
    return Checkpoint.from_json(text)
