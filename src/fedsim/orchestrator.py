"""Federated state machine over a virtual clock.

Synchronous rounds (FedAvg / FedProx) advance the clock by the slowest
participant per round; asynchronous runs (FedAsync) process client
completions in (time, client_id) order and apply each update on arrival.
All randomness is keyed from (master_seed, stream, round, client) by
`streams`, bit-identical to numpy's SeedSequence, so any round can be
recomputed in isolation and checkpoint/resume is exact.

A run is one `_Run` (its datasets, evaluation set, presence chains,
per-client costs and keyed streams, all built before any record) and two
passes.  Its schedule, `_sync_schedule` or `_async_schedule`, says who
trains when on which model version and builds every record that reads no
model, one evaluation window at a time; a sync round is one window whose
clients all train on the previous round's model.  One executor, `_execute`,
runs either schedule: each batch of applications whose base models exist
trains in one `train_cohort` call, and records are written in schedule
order; a client whose training diverged raises at its application.  The
training seeds, power draws and dropout coins are read from `_Blocks`, each
drawn a block of attempts for every client in one batched `streams` pass,
a sync run's last block ending at its last round; the schedules release
the blocks behind them.  A window's
records reach the writer as rows in one `MetricsWriter.write_rows` call,
made also when the window raises, so the records before the raise are
written; its `eval` record follows through `emit`.  The engine reaches
the writer by no other path.
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
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple

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


# Keys from which one batched `streams` pass costs about 2 µs a key, against
# about 12 µs for numpy's own SeedSequence per key.
_BLOCK_KEYS = 128


class _Blocks:
    """One keyed stream's values for any (attempt, client) of a run.

    Attempts count from 1 and fall in blocks of ceil(_BLOCK_KEYS / clients)
    attempts.  The first read inside a block draws it for every client in
    one `draw(attempts, keys, clients)` call, key k being (attempts[k],
    keys[k]) with keys[k] the `streams.client_key` of clients[k], so each
    call holds at least _BLOCK_KEYS keys.  A block that holds `last`, the
    last attempt a run reads, ends there; a read past it draws a whole
    block.  Each value comes from its own key, so the block size changes
    none.  `release` drops the blocks no read will reach; a read into a
    dropped block draws it again.
    """

    def __init__(self, clients: list[str], draw: Callable[[np.ndarray, np.ndarray, list], list],
                 last: int | None = None):
        self._last = last
        self._column = {cid: i for i, cid in enumerate(clients)}
        self._size = -(-_BLOCK_KEYS // max(len(clients), 1))
        # Every block's clients and their keys, attempt by attempt.
        self._clients = clients * self._size
        self._keys = np.tile(np.array([streams.client_key(c) for c in clients], np.uint64),
                             self._size)
        self._draw = draw
        self._held: dict[int, list] = {}  # first attempt -> the block's values, attempt by attempt

    def take(self, attempts: Iterable[int], cids: Iterable[str]) -> list:
        """The values of the keys (attempt, client) that `attempts` and
        `cids` pair up; a run of equal attempts finds its block once."""
        column, out, last = self._column, [], None
        for attempt, cid in zip(attempts, cids):
            if attempt != last:
                values, start = self._row(attempt)
                last = attempt
            out.append(values[start + column[cid]])
        return out

    def _row(self, attempt: int) -> tuple[list, int]:
        """The block that holds `attempt`, drawn on its first read, and the
        index of the attempt's first value in it.  Blocks past `last` count
        from `last`, so none of them overlaps the block that ends there."""
        last = self._last
        base = last if last is not None and attempt > last else 0
        first = attempt - (attempt - 1 - base) % self._size
        values = self._held.get(first)
        if values is None:
            stop = first + self._size
            if last is not None and first <= last:
                stop = min(stop, last + 1)
            attempts = np.repeat(np.arange(first, stop), len(self._column))
            count = len(attempts)
            values = self._held[first] = self._draw(attempts, self._keys[:count],
                                                    self._clients[:count])
        return values, (attempt - first) * len(self._column)

    def release(self, attempt: int) -> None:
        """Drop the blocks that end before `attempt`."""
        for first in [f for f in self._held if f + self._size <= attempt]:
            del self._held[first]


class _Presence:
    """Participant sets under dropout rules.

    A stochastic rule is a presence chain from round 1: a participating
    client drops with probability p afterwards, an absent one rejoins with
    probability q the next round.  Coins are keyed per (seed, client,
    round), so presence at round r never depends on how it was queried;
    `coins` draws them a block of rounds at a time for every stochastic
    client, up to round `last` if given.  Each chain keeps its states from
    round 0 (present, as at round 1): a later round reads only the coins
    past the last state kept, an earlier one is read back.
    """

    def __init__(self, rules: dict[str, DropoutRule], seed: int, last: int | None = None):
        self._rules = rules
        chains = [cid for cid, rule in rules.items() if rule.mode == "stochastic"]
        self.coins = _Blocks(chains, lambda rounds, keys, _: streams.uniforms(
            1, seed, _DROPOUT, keys, rounds)[:, 0].tolist(), last)
        self._states = {cid: [True, True] for cid in chains}

    def is_present(self, cid: str, round_idx: int) -> bool:
        rule = self._rules[cid]
        if rule.mode == "always_on":
            return True
        if rule.mode == "absent_rounds":
            return round_idx not in rule.absent_rounds
        states = self._states[cid]
        rounds = range(len(states) - 1, round_idx)
        for u in self.coins.take(rounds, repeat(cid, len(rounds))):
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
    keep one `_Presence` per run instead, which draws each block of coins once.
    """
    return _Presence(rules, seed).participants(round_idx)


def _build_datasets(cfg: ExperimentConfig) -> dict[str, LocalDataset]:
    """Per-client datasets in config order, pure in (master_seed, client, plan).

    Matrix plans scale each client's noise by its resolution quality
    factor.  Clients with the same noise factor, plan row and scenario mix
    have same-shaped datasets, so each such group is drawn in one
    `generate_datasets` call.  Overlap plans draw each partition once and
    share it verbatim: a holder's features are a read-only row window of
    one block of the partitions, and all holders share one labels array.
    """
    plan = cfg.plan
    if plan.draws_per_client:
        keys = streams.derive(cfg.master_seed, _DATA,
                              [streams.client_key(c.client_id) for c in cfg.clients])
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
    parts = generate_datasets(cfg.task, plan.per_partition_counts, None,
                              streams.derive(cfg.master_seed, _DATA, ids),
                              [f"partition-{p}" for p in ids])
    # Every partition, then the first window - 1 again: one row window a holder.
    n, w, scenarios = len(parts[0]), plan.window, parts[0].scenarios * plan.window
    block = np.concatenate([parts[k % len(parts)].features for k in range(len(parts) + w - 1)])
    labels = np.tile(parts[0].labels, w)
    block.flags.writeable = labels.flags.writeable = False
    starts = {c.client_id: (plan.assignment[c.client_id][0] - 1) * n for c in cfg.clients}
    return {cid: LocalDataset(cid, block[lo : lo + w * n], labels, scenarios)
            for cid, lo in starts.items()}


class _Run:
    """One run's fixed inputs and the rows of its client records.

    Built before anything is logged: every client's cost entry is looked
    up once here, so an uncalibrated client, or a run in which no client
    fits its device memory, fails with no record written.  `durations`
    holds a client exactly when it fits its device memory; its value is
    the client's modeled training window.  `seeds` and `power` hold the
    training seed and the (power, utilization) draw of any (attempt, fitting
    client), and `release` drops the drawn values the schedule is past.  A
    sync run passes its last round as `last_attempt`, where these blocks and
    the presence coins end.  `oom` and `train_row` build rows; the engine
    writes them through `sink.write_rows` and its `eval` records through
    `evaluate`, which hands them to `sink.emit`.
    """

    def __init__(self, cfg: ExperimentConfig, sink: MetricsWriter | None, engine: str,
                 strategies: tuple[str, ...], last_attempt: int | None = None):
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
        self.presence = _Presence({c.client_id: c.dropout for c in cfg.clients}, cfg.master_seed,
                                  last_attempt)
        # The draws hold no reference to `self`: a cycle would keep each
        # finished run's datasets alive until the garbage collector ran.
        seed, fit, entries = cfg.master_seed, list(self.durations), self.entries
        self.seeds = _Blocks(fit, lambda attempts, keys, _: streams.first_words(
            seed, _TRAIN, attempts, keys), last_attempt)
        self.power = _Blocks(fit, lambda attempts, keys, cids: costs.sample_power_and_util(
            [entries[c] for c in cids], seed, _POWER, attempts, keys), last_attempt)
        self.history: list[tuple[int, float]] = []

    def release(self, attempt: int) -> None:
        """Drop the drawn seeds, power draws and coins of the attempts before
        `attempt`: the schedule asks for none of them again."""
        for blocks in (self.seeds, self.power, self.presence.coins):
            blocks.release(attempt)

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
        ctx.release(rnd - 1)
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
            ctx.release(min(attempts.values()))  # no client reads below its last attempt again


def _train(ctx: _Run, apps: list[_Application], models: dict[int, np.ndarray]) -> list[tuple]:
    """Train `apps` in one cohort, each from its base version's model:
    (params, sample count, loss, power, utilization) per application.
    Each application's training seed and power draw, keyed (master, stream,
    attempt, client), are read from the run's blocks; a base model that
    every application shares is passed once."""
    attempts, cids, bases = zip(*[(a.attempt, a.client_id, a.base) for a in apps])
    distinct = set(bases)
    w0 = models[distinct.pop()] if len(distinct) == 1 else np.stack([models[b] for b in bases])
    trained = train_cohort(w0, [ctx.datasets[c] for c in cids],
                           ctx.seeds.take(attempts, cids), ctx.cfg.train)
    return [t + d for t, d in zip(trained, ctx.power.take(attempts, cids))]


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
    ctx = _Run(cfg, sink, "run_sync", ("fedavg", "fedprox"), cfg.rounds)
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
