"""Federated state machine over a virtual clock.

Synchronous rounds (FedAvg / FedProx) advance the clock by the slowest
participant per round; asynchronous runs process client completion events
in (time, client_id) order and apply each update on arrival.  All
randomness is keyed from (master_seed, stream, round, client), so any
round can be recomputed in isolation and checkpoint/resume is exact.
"""

from __future__ import annotations

import heapq
import json
import os
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import costs
from .aggregate import ClientUpdate, fedasync_update, fedavg_aggregate
from .config import ClientSpec, DropoutRule, ExperimentConfig
from .errors import ConfigError, SimulationError
from .metrics import MetricsRecord, MetricsWriter
from .task import (
    LocalDataset,
    evaluate,
    generate_dataset,
    local_train,
    train_cohort,
    zero_params,
)

# Seed stream tags.
_DATA, _TRAIN, _DROPOUT, _EVAL, _POWER = 1, 2, 3, 4, 5


def _cid_key(client_id: str) -> int:
    return zlib.crc32(client_id.encode())


def _seed(master: int, stream: int, *parts: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        [int(master) & 0x7FFFFFFFFFFFFFFF, stream, *[int(p) & 0xFFFFFFFF for p in parts]]
    )


def _seed_int(master: int, stream: int, *parts: int) -> int:
    return int(_seed(master, stream, *parts).generate_state(1)[0])


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
        key = _cid_key(cid)
        for k in range(at, round_idx):
            u = np.random.default_rng(_seed(self._seed, _DROPOUT, key, k)).random()
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
    """Per-client datasets, pure in (master_seed, client, plan).

    Matrix plans scale each client's noise by its resolution quality
    factor.  Overlap plans share partition-level datasets verbatim between
    clients, so overlapping clients hold identical samples.
    """
    datasets: dict[str, LocalDataset] = {}
    if cfg.plan is not None:
        tasks = {}
        for client in cfg.clients:
            factor = cfg.resolution_noise.get(client.resolution, 1.0)
            if factor not in tasks:
                tasks[factor] = cfg.task.with_noise_scale(factor)
            datasets[client.client_id] = generate_dataset(
                tasks[factor],
                cfg.plan.row(client.client_id),
                client.scenario_mix,
                _seed(cfg.master_seed, _DATA, _cid_key(client.client_id)),
                client.client_id,
            )
        return datasets
    parts = {
        p: generate_dataset(
            cfg.task,
            cfg.overlap_partition_counts,
            None,
            _seed(cfg.master_seed, _DATA, p),
            f"partition-{p}",
        )
        for p in range(1, cfg.overlap.n_partitions + 1)
    }
    for client in cfg.clients:
        held = cfg.overlap.assignment[client.client_id]
        datasets[client.client_id] = LocalDataset.concat(
            client.client_id, [parts[p] for p in held]
        )
    return datasets


def _eval_dataset(cfg: ExperimentConfig) -> LocalDataset:
    return generate_dataset(
        cfg.task,
        [cfg.eval.per_class] * cfg.task.n_classes,
        cfg.eval.scenario_mix(),
        _seed(cfg.master_seed, _EVAL, cfg.eval.seed),
        "eval",
    )


def _pool_total(cfg: ExperimentConfig) -> int:
    if cfg.plan is not None:
        return cfg.plan.total_samples
    return sum(cfg.overlap_partition_counts) * cfg.overlap.n_partitions


def _client_entry(cfg: ExperimentConfig, client: ClientSpec, cal: costs.Calibration):
    profile = cal.profile(client.architecture)
    return costs.lookup(profile, client.resolution, client.batch, allow_extrapolation=True)


def _client_duration(
    cfg: ExperimentConfig,
    client: ClientSpec,
    entry: costs.CostEntry,
    fraction: float,
    cal: costs.Calibration,
) -> float:
    return costs.client_round_time(
        entry, fraction, client.device, cfg.strategy, cal.fedprox_time_factor
    )


def _run_id(cfg: ExperimentConfig) -> str:
    return f"{cfg.strategy}-{cfg.digest()[:10]}-s{cfg.master_seed}"


def _check_not_all_absent(cfg: ExperimentConfig) -> None:
    all_rounds = set(range(1, cfg.rounds + 1))
    if all(
        c.dropout.mode == "absent_rounds" and all_rounds <= c.dropout.absent_rounds
        for c in cfg.clients
    ):
        raise SimulationError(
            "every client is configured absent for every round; nothing can run"
        )


def _train_config(cfg: ExperimentConfig):
    """Local training settings: FedProx keeps its proximal term, the other
    strategies train without one.  Each client adds its own seed."""
    return replace(cfg.train, prox_mu=cfg.train.prox_mu if cfg.strategy == "fedprox" else 0.0)


def _train_seed(cfg: ExperimentConfig, cid: str, round_key: int) -> int:
    return _seed_int(cfg.master_seed, _TRAIN, round_key, _cid_key(cid))


def run_sync(
    cfg: ExperimentConfig,
    sink: MetricsWriter | None = None,
    stop_after_round: int | None = None,
    _resume_state: dict | None = None,
) -> RunResult:
    """Synchronous round loop (FedAvg / FedProx).

    Per round: dropout rules pick participants, infeasible configurations
    fail with an OOM event, the rest train from the current global model
    (as one `train_cohort` call), survivors are averaged, and the held-out
    accuracy is logged.  Records follow participant order.  Zero-participant
    rounds carry the model forward as a stalled round.
    """
    if cfg.strategy not in ("fedavg", "fedprox"):
        raise ConfigError(f"run_sync cannot execute strategy {cfg.strategy!r}")
    _check_not_all_absent(cfg)
    sink = sink or MetricsWriter(None)
    cal = costs.load_calibration()
    datasets = _build_datasets(cfg)
    eval_ds = _eval_dataset(cfg)
    run_id = _run_id(cfg)

    if _resume_state is None:
        w = zero_params(cfg.task.n_features, cfg.task.n_classes)
        clock = 0.0
        start_round = 1
        history: list[tuple[int, float]] = []
    else:
        w = _resume_state["params"]
        clock = _resume_state["clock"]
        start_round = _resume_state["round"] + 1
        history = list(_resume_state["history"])

    rules = {c.client_id: c.dropout for c in cfg.clients}
    presence = _Presence(rules, cfg.master_seed)
    clients = {c.client_id: c for c in cfg.clients}
    pool = _pool_total(cfg)
    train_cfg = _train_config(cfg)
    any_participation = start_round > 1
    last_round = cfg.rounds if stop_after_round is None else min(stop_after_round, cfg.rounds)

    for rnd in range(start_round, last_round + 1):
        participants = presence.participants(rnd)
        for cid in sorted(set(rules) - set(participants)):
            sink.emit(MetricsRecord(run_id=run_id, round=rnd, event="dropout", client_id=cid))
        updates = []
        max_duration = 0.0
        entries = {cid: _client_entry(cfg, clients[cid], cal) for cid in participants}
        fits = [c for c in participants if costs.check_memory(entries[c], clients[c].device)]
        seeds = [_train_seed(cfg, c, rnd) for c in fits]
        # Popped as records are emitted, so no round's results outlive it.
        trained = dict(zip(fits, train_cohort(w, [datasets[c] for c in fits], seeds, train_cfg)))
        for cid in participants:
            client = clients[cid]
            entry = entries[cid]
            if cid not in trained:
                sink.emit(
                    MetricsRecord(
                        run_id=run_id, round=rnd, event="oom", client_id=cid,
                        mem_mib=entry.peak_mem_mib, estimated=entry.estimated,
                    )
                )
                continue
            w_new, n, loss = trained.pop(cid)
            duration = _client_duration(cfg, client, entry, n / pool, cal)
            power, util = costs.sample_power_and_util(
                entry,
                costs.TRAINING_PHASE,
                _seed(cfg.master_seed, _POWER, rnd, _cid_key(cid)),
                cal,
            )
            sink.emit(
                MetricsRecord(
                    run_id=run_id, round=rnd, event="train_window", client_id=cid,
                    t_start_s=clock, t_end_s=clock + duration,
                    mem_mib=entry.peak_mem_mib, power_w=power, util_pct=util,
                    energy_j=power * duration, n_samples=n, loss=loss,
                    estimated=entry.estimated,
                )
            )
            max_duration = max(max_duration, duration)
            updates.append(ClientUpdate(cid, w_new, n, base_version=rnd - 1))
        clock += max_duration
        if updates:
            any_participation = True
            w = fedavg_aggregate(updates)
            idle_power, idle_util = costs.sample_idle_power_and_util(
                _seed(cfg.master_seed, _POWER, rnd, 0), cal
            )
            sink.emit(
                MetricsRecord(
                    run_id=run_id, round=rnd, event="aggregate",
                    t_start_s=clock, t_end_s=clock + cfg.aggregate_time_s,
                    power_w=idle_power, util_pct=idle_util,
                    energy_j=idle_power * cfg.aggregate_time_s,
                    n_samples=sum(u.n_samples for u in updates),
                    estimated=True,
                )
            )
        else:
            sink.emit(
                MetricsRecord(
                    run_id=run_id, round=rnd, event="stalled",
                    t_start_s=clock, t_end_s=clock + cfg.aggregate_time_s,
                )
            )
        clock += cfg.aggregate_time_s
        acc = evaluate(w, eval_ds)
        sink.emit(
            MetricsRecord(
                run_id=run_id, round=rnd, event="eval",
                t_start_s=clock, t_end_s=clock, accuracy=acc,
                n_samples=len(eval_ds),
            )
        )
        history.append((rnd, acc))

    if not any_participation:
        raise SimulationError("no client ever participated; check dropout rules")
    return RunResult(
        run_id=run_id, params=w, history=history, clock=clock,
        rounds_completed=last_round, version=last_round,
    )


def run_async(cfg: ExperimentConfig, sink: MetricsWriter | None = None) -> RunResult:
    """Asynchronous event loop: updates applied on arrival.

    Each client repeatedly fetches the global model, trains for its modeled
    duration, and its completion is applied via staleness-weighted convex
    mixing.  Completions are processed in (time, client_id) order; the run
    ends after the configured number of server applications, evaluating
    every `eval_every` applications.
    """
    if cfg.strategy != "fedasync":
        raise ConfigError(f"run_async cannot execute strategy {cfg.strategy!r}")
    sink = sink or MetricsWriter(None)
    cal = costs.load_calibration()
    datasets = _build_datasets(cfg)
    eval_ds = _eval_dataset(cfg)
    run_id = _run_id(cfg)
    budget = cfg.applications_budget()
    eval_every = cfg.eval_every()
    clients = {c.client_id: c for c in cfg.clients}
    presence = _Presence({c.client_id: c.dropout for c in cfg.clients}, cfg.master_seed)
    pool = _pool_total(cfg)
    train_cfg = _train_config(cfg)

    w = zero_params(cfg.task.n_features, cfg.task.n_classes)
    version = 0
    clock = 0.0
    history: list[tuple[int, float]] = []

    durations: dict[str, float] = {}
    fetched: dict[str, np.ndarray] = {}
    base: dict[str, int] = {}
    attempts: dict[str, int] = {}
    heap: list[tuple[float, str]] = []
    for client in cfg.clients:
        cid = client.client_id
        entry = _client_entry(cfg, client, cal)
        if not costs.check_memory(entry, client.device):
            sink.emit(
                MetricsRecord(
                    run_id=run_id, round=0, event="oom", client_id=cid,
                    mem_mib=entry.peak_mem_mib, estimated=entry.estimated,
                )
            )
            continue
        durations[cid] = _client_duration(cfg, client, entry, len(datasets[cid]) / pool, cal)
        fetched[cid] = w
        base[cid] = 0
        attempts[cid] = 0
        heapq.heappush(heap, (durations[cid], cid))
    if not heap:
        raise SimulationError("no client fits its device memory budget; nothing can run")

    applications = 0
    evals = 0
    absorbed: set[str] = set()
    while applications < budget:
        t, cid = heapq.heappop(heap)
        clock = t
        client = clients[cid]
        attempts[cid] += 1
        if not presence.is_present(cid, attempts[cid]):
            sink.emit(
                MetricsRecord(
                    run_id=run_id, round=attempts[cid], event="dropout", client_id=cid,
                    t_start_s=t, t_end_s=t,
                )
            )
            if presence.absorbed(cid):
                absorbed.add(cid)
                if len(absorbed) == len(durations):
                    raise SimulationError(
                        f"every client is permanently absent after {applications} of "
                        f"{budget} applications; the run cannot finish"
                    )
            heapq.heappush(heap, (t + durations[cid], cid))
            continue
        entry = _client_entry(cfg, client, cal)
        w_new, n, loss = local_train(
            fetched[cid],
            datasets[cid],
            replace(train_cfg, seed=_train_seed(cfg, cid, attempts[cid])),
        )
        power, util = costs.sample_power_and_util(
            entry,
            costs.TRAINING_PHASE,
            _seed(cfg.master_seed, _POWER, attempts[cid], _cid_key(cid)),
            cal,
        )
        duration = durations[cid]
        sink.emit(
            MetricsRecord(
                run_id=run_id, round=attempts[cid], event="train_window", client_id=cid,
                t_start_s=t - duration, t_end_s=t, mem_mib=entry.peak_mem_mib,
                power_w=power, util_pct=util, energy_j=power * duration,
                n_samples=n, loss=loss, estimated=entry.estimated,
            )
        )
        update = ClientUpdate(cid, w_new, n, base_version=base[cid])
        staleness = version - base[cid]
        w, version, _ = fedasync_update(w, version, update, cfg.async_cfg)
        applications += 1
        sink.emit(
            MetricsRecord(
                run_id=run_id, round=attempts[cid], event="aggregate", client_id=cid,
                t_start_s=t, t_end_s=t, n_samples=n, staleness=staleness,
            )
        )
        if applications % eval_every == 0 or applications == budget:
            evals += 1
            acc = evaluate(w, eval_ds)
            sink.emit(
                MetricsRecord(
                    run_id=run_id, round=evals, event="eval",
                    t_start_s=clock, t_end_s=clock, accuracy=acc,
                    n_samples=len(eval_ds),
                )
            )
            history.append((evals, acc))
        fetched[cid] = w
        base[cid] = version
        heapq.heappush(heap, (t + duration, cid))

    return RunResult(
        run_id=run_id, params=w, history=history, clock=clock,
        rounds_completed=evals, version=version,
    )


def run(cfg: ExperimentConfig, sink: MetricsWriter | None = None) -> RunResult:
    if cfg.strategy == "fedasync":
        return run_async(cfg, sink)
    return run_sync(cfg, sink)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


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
        return json.dumps(
            {
                "checkpoint_version": CHECKPOINT_VERSION,
                "config_digest": self.config_digest,
                "round": self.round,
                "version": self.version,
                "clock": float(self.clock).hex(),
                "params": [float(x).hex() for x in self.params],
                "history": [[r, float(a).hex()] for r, a in self.history],
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "Checkpoint":
        doc = json.loads(text)
        if doc.get("checkpoint_version") != CHECKPOINT_VERSION:
            raise ConfigError("unsupported checkpoint version")
        return Checkpoint(
            config_digest=doc["config_digest"],
            round=int(doc["round"]),
            version=int(doc["version"]),
            clock=float.fromhex(doc["clock"]),
            params=np.array([float.fromhex(x) for x in doc["params"]]),
            history=tuple((int(r), float.fromhex(a)) for r, a in doc["history"]),
        )


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
    return run_sync(
        cfg,
        sink,
        _resume_state={
            "params": cp.params.copy(),
            "clock": cp.clock,
            "round": cp.round,
            "history": list(cp.history),
        },
    )


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
