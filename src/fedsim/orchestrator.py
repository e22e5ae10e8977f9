"""Federated state machine over a virtual clock.

Synchronous rounds (FedAvg / FedProx) advance the clock by the slowest
participant per round; asynchronous runs process client completion events
in (time, client_id) order and apply each update on arrival.  All
randomness is keyed from (master_seed, stream, round, client), so any
round can be recomputed in isolation and checkpoint/resume is exact.
`streams` makes the keys, bit-identical to numpy's SeedSequence: a sync
round derives each stream's keys for all its clients in one batch, takes
the training seeds as the batch's first state word column and draws every
training window's power and utilization in one `costs.sample_power_and_util`
call, which runs PCG64 over the power batch; an async run does the same
once per trained batch.

Both engines first build one `_Run`: the run's datasets (one draw per
group of same-shaped client datasets), evaluation set, presence chains and
per-client costs (looked up once, before any record), and the `oom`,
`train_window` and `eval` records they share.  Every record but `eval`
goes to the writer as values (`MetricsWriter.write`); `eval` records stay
`MetricsRecord`s, which a caller's sink may observe.  Both engines hand
`aggregate` plain `ClientUpdate`s; finiteness is guaranteed by the kernel
and by one check of each aggregate's result.

Both engines train through `train_cohort`, whose ragged stacks take
clients of any sizes, each from its own starting model.  A sync round is
one cohort from the global model, a barrier whose records follow
participant order.  An async run is two passes: `_async_schedule` yields
its events (who completes when, on which version, or drops out) one
evaluation window at a time without reading any model, and `run_async`
executes each window, training every application whose base version
exists in one cohort and applying the updates in arrival order.  `run` picks the engine
from the config's strategy.  `local_train` and `apply_dropout` are kept
for callers and perfbench's tracer; the engines call neither.
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
from .errors import ConfigError, SimulationError
from .metrics import MetricsRecord, MetricsWriter
from .task import (
    LocalDataset,
    evaluate,
    generate_dataset,
    generate_datasets,
    local_train,
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
    """Participant sets under dropout rules, carried forward round by round.

    A stochastic rule is a presence chain from round 1: a participating
    client drops with probability p afterwards, an absent one rejoins with
    probability q the next round.  Coins are keyed per (seed, client,
    round), so presence at round r never depends on how it was queried.
    Each chain keeps the last round asked about and the state there: a
    later round draws only the coins in between, an earlier one restarts
    the chain from round 1.
    """

    def __init__(self, rules: dict[str, DropoutRule], seed: int):
        self._rules = rules
        self._seed = seed
        self._chains = {
            cid: (1, True) for cid, rule in rules.items() if rule.mode == "stochastic"
        }

    def is_present(self, cid: str, round_idx: int) -> bool:
        rule = self._rules[cid]
        if rule.mode == "always_on":
            return True
        if rule.mode == "absent_rounds":
            return round_idx not in rule.absent_rounds
        at, state = self._chains[cid]
        if round_idx < at:
            at, state = 1, True
        coins = streams.derive(self._seed, _DROPOUT, _cid_key(cid), range(at, round_idx))
        for coin in coins:
            u = np.random.default_rng(coin).random()
            state = (u >= rule.p) if state else (u < rule.q)
        self._chains[cid] = (max(at, round_idx), state)
        return state

    def participants(self, round_idx: int) -> list[str]:
        return [cid for cid in sorted(self._rules) if self.is_present(cid, round_idx)]

    def absorbed(self, cid: str) -> bool:
        """Absent at the last round asked about, and never to rejoin."""
        rule = self._rules[cid]
        return rule.mode == "stochastic" and rule.q == 0.0 and not self._chains[cid][1]


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

    def train_seeds(self, round_key, cids: list[str]) -> list[int]:
        """Training seeds keyed (master, stream, round, client), one per
        client; `round_key` is one round for all or a list, one per client."""
        return streams.first_words(self.cfg.master_seed, _TRAIN, round_key,
                                   [_cid_key(c) for c in cids])

    def power_draws(self, round_key, cids: list[str]) -> list[tuple[float, float]]:
        """(watts, utilization %) of each client's training window, keyed as
        `train_seeds` and drawn in one call."""
        return costs.sample_power_and_util([self.entries[c] for c in cids], self.cfg.master_seed,
                                           _POWER, round_key, [_cid_key(c) for c in cids])

    def write(self, event: str, round_idx: int, *values) -> None:
        """One record of `event`, its `SCHEMA` fields given in key order."""
        self.sink.write(event, self.run_id, round_idx, *values)

    def dropout(self, round_idx: int, cid: str, t: float | None = None) -> None:
        self.write("dropout", round_idx, cid, t, t)

    def oom(self, round_idx: int, cid: str) -> None:
        entry = self.entries[cid]
        self.write("oom", round_idx, cid, entry.peak_mem_mib, entry.estimated)

    def train_window(self, round_idx: int, cid: str, t_start: float, t_end: float,
                     n: int, loss: float, power: float, util: float) -> None:
        """Both ends are given: async's (t - d) + d need not round back to t."""
        entry = self.entries[cid]
        self.write("train_window", round_idx, cid, t_start, t_end, entry.peak_mem_mib,
                   power, util, power * self.durations[cid], n, loss, entry.estimated)

    def evaluate(self, round_idx: int, w: np.ndarray, clock: float) -> None:
        acc = evaluate(w, self.eval_ds)
        self.sink.emit(MetricsRecord(
            run_id=self.run_id, round=round_idx, event="eval", t_start_s=clock,
            t_end_s=clock, n_samples=len(self.eval_ds), accuracy=acc,
        ))
        self.history.append((round_idx, acc))

    def result(self, w: np.ndarray, clock: float, rounds: int, version: int) -> RunResult:
        return RunResult(run_id=self.run_id, params=w, history=self.history, clock=clock,
                         rounds_completed=rounds, version=version)


def run_sync(
    cfg: ExperimentConfig,
    sink: MetricsWriter | None = None,
    stop_after_round: int | None = None,
    _checkpoint: Checkpoint | None = None,
) -> RunResult:
    """Synchronous round loop (FedAvg / FedProx).

    Per round: dropout rules pick participants, infeasible configurations
    fail with an OOM event, the rest train from the current global model
    (as one `train_cohort` call), survivors are averaged, and the held-out
    accuracy is logged.  Records follow participant order.  Zero-participant
    rounds carry the model forward as a stalled round.  A `stop_after_round`
    below 1 is a `ConfigError`, and a run in which no client that fits its
    memory is present in any of the config's rounds a `SimulationError`,
    both raised before any record.
    """
    if stop_after_round is not None and stop_after_round < 1:
        raise ConfigError(f"stop_after_round must be at least 1, got {stop_after_round}")
    ctx = _Run(cfg, sink, "run_sync", ("fedavg", "fedprox"))
    if not any(ctx.presence.is_present(cid, rnd)
               for cid in ctx.durations for rnd in range(1, cfg.rounds + 1)):
        raise SimulationError(
            "no client that fits its device memory is present in any round; nothing can run"
        )
    if _checkpoint is None:
        w = zero_params(cfg.task.n_features, cfg.task.n_classes)
        clock = 0.0
        start_round = 1
    else:
        w = _checkpoint.params.copy()
        clock = _checkpoint.clock
        start_round = _checkpoint.round + 1
        ctx.history = list(_checkpoint.history)
    last_round = cfg.rounds if stop_after_round is None else min(stop_after_round, cfg.rounds)

    for rnd in range(start_round, last_round + 1):
        participants = ctx.presence.participants(rnd)
        for cid in sorted(ctx.entries.keys() - set(participants)):
            ctx.dropout(rnd, cid)
        # The last round's updates go before this round trains, and results
        # are popped as records are emitted, so no round's results outlive it.
        updates = []
        max_duration = 0.0
        fits = [c for c in participants if c in ctx.durations]
        trained = dict(zip(fits, train_cohort(
            w, [ctx.datasets[c] for c in fits], ctx.train_seeds(rnd, fits), cfg.train
        )))
        drawn = dict(zip(fits, ctx.power_draws(rnd, fits)))
        for cid in participants:
            if cid not in trained:
                ctx.oom(rnd, cid)
                continue
            w_new, n, loss = trained.pop(cid)
            duration = ctx.durations[cid]
            ctx.train_window(rnd, cid, clock, clock + duration, n, loss, *drawn[cid])
            max_duration = max(max_duration, duration)
            updates.append(ClientUpdate(cid, w_new, n))
        clock += max_duration
        if updates:
            w = fedavg_aggregate(updates)
            idle_power, idle_util = costs.sample_idle_power_and_util(
                streams.derive(cfg.master_seed, _POWER, rnd, 0)[0], ctx.cal
            )
            # No client or staleness: the idle server's power, and estimated.
            ctx.write("aggregate", rnd, None, clock, clock + cfg.aggregate_time_s,
                      idle_power, idle_util, idle_power * cfg.aggregate_time_s,
                      sum(u.n_samples for u in updates), None, True)
        else:
            ctx.write("stalled", rnd, clock, clock + cfg.aggregate_time_s)
        clock += cfg.aggregate_time_s
        ctx.evaluate(rnd, w, clock)

    return ctx.result(w, clock, last_round, last_round)


class _Event(NamedTuple):
    """One completion of the async schedule: the client's attempt, its
    completion time, and the version it trained on, None if it dropped."""

    attempt: int
    client_id: str
    clock: float
    base: int | None


def _async_schedule(
    ctx: _Run, budget: int, eval_every: int
) -> Iterator[tuple[list[_Event], SimulationError | None]]:
    """The async run's events in order, computed without any model, one
    evaluation window at a time.

    Completions pop from a heap in (time, client_id) order.  A present
    client's event is an application on the version it fetched when its
    last application was applied; an absent one's is a dropout.  Who
    completes when, on which version and whether present depend only on
    the durations, the keyed presence coins and the budget.  Each window
    ends at an application an evaluation follows, and comes with None; if
    every client is absorbed, the last window comes with the
    `SimulationError` to raise once its records are written.
    """
    fetched = dict.fromkeys(ctx.durations, 0)
    attempts = dict.fromkeys(ctx.durations, 0)
    heap = [(d, cid) for cid, d in ctx.durations.items()]
    heapq.heapify(heap)
    version, window = 0, []  # version: the number of applications scheduled
    while version < budget:
        clock, cid = heapq.heappop(heap)
        heapq.heappush(heap, (clock + ctx.durations[cid], cid))
        attempt = attempts[cid] = attempts[cid] + 1
        if not ctx.presence.is_present(cid, attempt):
            window.append(_Event(attempt, cid, clock, None))
            if all(map(ctx.presence.absorbed, ctx.durations)):
                yield window, SimulationError(
                    f"every client is permanently absent after {version} of "
                    f"{budget} applications; the run cannot finish"
                )
                return
            continue
        window.append(_Event(attempt, cid, clock, fetched[cid]))
        version += 1
        fetched[cid] = version
        if version % eval_every == 0 or version == budget:
            yield window, None
            window = []


def _train(ctx: _Run, apps: list[_Event], models: dict[int, np.ndarray]) -> list[tuple]:
    """Train `apps` in one cohort, each from its base version's model:
    (params, sample count, loss, power, utilization) per application."""
    attempts, cids = [a.attempt for a in apps], [a.client_id for a in apps]
    trained = train_cohort(
        np.stack([models[a.base] for a in apps]), [ctx.datasets[c] for c in cids],
        ctx.train_seeds(attempts, cids), ctx.cfg.train,
    )
    return [t + drawn for t, drawn in zip(trained, ctx.power_draws(attempts, cids))]


def run_async(cfg: ExperimentConfig, sink: MetricsWriter | None = None) -> RunResult:
    """Asynchronous run: updates applied on arrival.

    Each client repeatedly fetches the global model, trains for its modeled
    duration, and its completion is applied via staleness-weighted convex
    mixing.  Completions are processed in (time, client_id) order; the run
    ends after `async.applications` server applications (default rounds x
    clients), evaluating every `async.eval_every` (default the client count).

    `_async_schedule` gives the events one evaluation window at a time.
    At the window's first untrained application, every untrained
    application of the window whose base version exists trains in one
    `train_cohort` call, each from its own base model; records are then
    written in schedule order.  A batch that fails is retrained one
    application at a time, so a failure surfaces at the same application,
    after the same records, as in a loop that trains each on arrival.
    """
    ctx = _Run(cfg, sink, "run_async", ("fedasync",))
    budget = cfg.async_cfg.applications or cfg.rounds * cfg.n_clients
    eval_every = cfg.async_cfg.eval_every or cfg.n_clients
    for cid in ctx.entries:
        if cid not in ctx.durations:
            ctx.oom(0, cid)

    w = zero_params(cfg.task.n_features, cfg.task.n_classes)
    version = evals = 0  # version: the number of updates applied
    clock = 0.0
    models = {0: w}  # version -> global model, while some client holds it
    held = dict.fromkeys(ctx.durations, 0)  # client -> the version it trains on
    one_at_a_time = False
    for window, failure in _async_schedule(ctx, budget, eval_every):
        trained: dict[int, tuple] = {}  # window index -> what `_train` gives
        for i, (attempt, cid, clock, base) in enumerate(window):
            if base is None:
                ctx.dropout(attempt, cid, clock)
                continue
            while i not in trained:
                batch = [i] if one_at_a_time else [
                    j for j in range(i, len(window))
                    if j not in trained and window[j].base is not None
                    and window[j].base <= version
                ]
                try:
                    trained.update(zip(batch, _train(ctx, [window[j] for j in batch], models)))
                except SimulationError:
                    if len(batch) == 1:
                        raise
                    one_at_a_time = True
            w_new, n, loss, power, util = trained.pop(i)
            ctx.train_window(attempt, cid, clock - ctx.durations[cid], clock, n, loss, power, util)
            staleness = version - base
            w = fedasync_update(w, ClientUpdate(cid, w_new, n), staleness, cfg.async_cfg)
            version += 1
            # No power, util or energy: the client and its update's staleness.
            ctx.write("aggregate", attempt, cid, clock, clock, None, None, None, n, staleness,
                      False)
            held[cid] = version
            models[version] = w
            if base not in held.values():
                del models[base]
        if failure is not None:
            raise failure
        evals += 1
        ctx.evaluate(evals, w, clock)

    return ctx.result(w, clock, evals, version)


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


def _only(kind: type, value):
    """`value` if its JSON type is `kind`: no float or bool passes as an int."""
    if type(value) is not kind:
        raise TypeError(f"expected a JSON {kind.__name__}")
    return value


def _at_least(low: float, values):
    """`values` if each is finite and at least `low`."""
    if not (np.isfinite(values).all() and np.all(values >= low)):
        raise ValueError(f"expected finite values of at least {low}")
    return values


# Each checkpoint field, in file order, with its JSON encoder and strict decoder.
_CHECKPOINT_FIELDS = {
    "config_digest": (str, lambda d: _only(str, d)),
    "round": (int, lambda r: _at_least(0, _only(int, r))),
    "version": (int, lambda v: _at_least(0, _only(int, v))),
    "clock": (lambda c: float(c).hex(), lambda c: _at_least(0.0, float.fromhex(c))),
    "params": (lambda p: [float(x).hex() for x in p],
               lambda xs: _at_least(-np.inf, np.array(list(map(float.fromhex, _only(list, xs)))))),
    "history": (lambda h: [[r, float(a).hex()] for r, a in h],
                lambda h: tuple((_only(int, r), float.fromhex(a)) for r, a in _only(list, h))),
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

    Refuses to resume under a different configuration, past the config's
    last round, or at a version other than the round (a sync run's version
    counts its rounds); the continuation is bit-identical to the
    uninterrupted run.
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
    with open(path) as fh:
        return Checkpoint.from_json(fh.read())
