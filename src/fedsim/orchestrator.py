"""Federated state machine over a virtual clock.

Synchronous rounds (FedAvg / FedProx) advance the clock by the slowest
participant per round; asynchronous runs process client completion events
in (time, client_id) order and apply each update on arrival.  All
randomness is keyed from (master_seed, stream, round, client), so any
round can be recomputed in isolation and checkpoint/resume is exact.
`streams.derive` makes the keys' seed sequences, bit-identical to numpy's;
a sync round derives each stream's keys for all its clients in one batch.

Both engines first build one `_Run`: the run's datasets (one draw per
group of same-shaped client datasets), evaluation set, presence chains and
per-client costs (looked up once, before any record), and the `oom`,
`train_window` and `eval` records they share.  Every record but `eval`
goes to the writer as values (`MetricsWriter.write`); `eval` records stay
`MetricsRecord`s, which a caller's sink may observe.  Both engines hand
`aggregate` plain `ClientUpdate`s; finiteness is guaranteed by the kernel
and by one check of each aggregate's result.  The loops stay separate: a
sync round is a barrier whose records follow participant order, while
async applies each update in arrival order, so one event queue for both
would branch on the strategy at every step.  `run` picks the engine from
the config's strategy.
"""

from __future__ import annotations

import heapq
import json
import os
import zlib
from dataclasses import dataclass, field, replace

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
        # FedProx keeps its proximal term; the other strategies train without one.
        self.train_cfg = replace(
            cfg.train, prox_mu=cfg.train.prox_mu if cfg.strategy == "fedprox" else 0.0
        )
        self.history: list[tuple[int, float]] = []

    def keys(self, stream: int, round_key: int, cids: list[str]) -> list:
        """Seed sequences keyed (master, stream, round, client), one per client."""
        return streams.derive(self.cfg.master_seed, stream, round_key, [_cid_key(c) for c in cids])

    def train_seeds(self, round_key: int, cids: list[str]) -> list[int]:
        return [int(key.generate_state(1)[0]) for key in self.keys(_TRAIN, round_key, cids)]

    def write(self, event: str, round_idx: int, *values) -> None:
        """One record of `event`, its `SCHEMA` fields given in key order."""
        self.sink.write(event, self.run_id, round_idx, *values)

    def dropout(self, round_idx: int, cid: str, t: float | None = None) -> None:
        self.write("dropout", round_idx, cid, t, t)

    def oom(self, round_idx: int, cid: str) -> None:
        entry = self.entries[cid]
        self.write("oom", round_idx, cid, entry.peak_mem_mib, entry.estimated)

    def train_window(self, round_idx: int, cid: str, t_start: float, t_end: float,
                     n: int, loss: float, power_key) -> None:
        """Both ends are given: async's (t - d) + d need not round back to t."""
        entry = self.entries[cid]
        power, util = costs.sample_power_and_util(entry, power_key)
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
            w, [ctx.datasets[c] for c in fits], ctx.train_seeds(rnd, fits), ctx.train_cfg
        )))
        power_keys = dict(zip(fits, ctx.keys(_POWER, rnd, fits)))
        for cid in participants:
            if cid not in trained:
                ctx.oom(rnd, cid)
                continue
            w_new, n, loss = trained.pop(cid)
            duration = ctx.durations[cid]
            ctx.train_window(rnd, cid, clock, clock + duration, n, loss, power_keys.pop(cid))
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


def run_async(cfg: ExperimentConfig, sink: MetricsWriter | None = None) -> RunResult:
    """Asynchronous event loop: updates applied on arrival.

    Each client repeatedly fetches the global model, trains for its modeled
    duration, and its completion is applied via staleness-weighted convex
    mixing.  Completions are processed in (time, client_id) order; the run
    ends after the configured number of server applications, evaluating
    every `eval_every` applications.
    """
    ctx = _Run(cfg, sink, "run_async", ("fedasync",))
    budget = cfg.applications_budget()
    eval_every = cfg.eval_every()
    for cid in ctx.entries:
        if cid not in ctx.durations:
            ctx.oom(0, cid)

    w = zero_params(cfg.task.n_features, cfg.task.n_classes)
    version = 0  # the number of updates applied
    clock = 0.0
    fetched = dict.fromkeys(ctx.durations, (0, w))  # client -> (version, model) it trains on
    attempts = dict.fromkeys(ctx.durations, 0)
    heap = [(d, cid) for cid, d in ctx.durations.items()]
    heapq.heapify(heap)
    evals = 0
    while version < budget:
        clock, cid = heapq.heappop(heap)
        duration = ctx.durations[cid]
        heapq.heappush(heap, (clock + duration, cid))
        attempt = attempts[cid] = attempts[cid] + 1
        if not ctx.presence.is_present(cid, attempt):
            ctx.dropout(attempt, cid, clock)
            if all(map(ctx.presence.absorbed, ctx.durations)):
                raise SimulationError(
                    f"every client is permanently absent after {version} of "
                    f"{budget} applications; the run cannot finish"
                )
            continue
        base, model = fetched[cid]
        (seed,) = ctx.train_seeds(attempt, [cid])
        w_new, n, loss = local_train(model, ctx.datasets[cid], seed, ctx.train_cfg)
        (power_key,) = ctx.keys(_POWER, attempt, [cid])
        ctx.train_window(attempt, cid, clock - duration, clock, n, loss, power_key)
        staleness = version - base
        w = fedasync_update(w, ClientUpdate(cid, w_new, n), staleness, cfg.async_cfg)
        version += 1
        # No power, util or energy: the client and its update's staleness.
        ctx.write("aggregate", attempt, cid, clock, clock, None, None, None, n, staleness, False)
        if version % eval_every == 0 or version == budget:
            evals += 1
            ctx.evaluate(evals, w, clock)
        fetched[cid] = (version, w)

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
        raise ConfigError("stop_after_round applies to sync strategies only, not fedasync")
    return run_async(cfg, sink)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1

# Each checkpoint field, in file order, with its JSON encoder and decoder.
_CHECKPOINT_FIELDS = {
    "config_digest": (str, str),
    "round": (int, int),
    "version": (int, int),
    "clock": (lambda c: float(c).hex(), float.fromhex),
    "params": (lambda p: [float(x).hex() for x in p],
               lambda xs: np.array([float.fromhex(x) for x in xs])),
    "history": (lambda h: [[r, float(a).hex()] for r, a in h],
                lambda rows: tuple((int(r), float.fromhex(a)) for r, a in rows)),
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
        doc = json.loads(text)
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

    Refuses to resume under a different configuration; the continuation is
    bit-identical to the uninterrupted run.
    """
    if cp.config_digest != cfg.digest():
        raise ConfigError(
            "checkpoint was written under a different configuration "
            f"(digest {cp.config_digest[:12]}... != {cfg.digest()[:12]}...)"
        )
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
