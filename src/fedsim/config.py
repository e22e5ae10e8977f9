"""Experiment configuration: schema, validation, canonical serialization.

A run is fully reproducible from one JSON document; the canonical form
(sorted keys, defaults filled in) is hashed into a digest that checkpoints
must match on resume.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .costs import ARCHITECTURES, DEFAULT_MEM_CAPACITY_MIB, DeviceSpec
from .aggregate import AsyncConfig
from .errors import ConfigError
from .partition import (
    BUILTIN_PLAN_NAMES,
    OverlapPlan,
    PartitionPlan,
    builtin_plan,
    client_name,
    overlap_split,
)
from .task import REFERENCE_SCENARIO, SyntheticTask, TrainConfig, default_task

SCHEMA_VERSION = 1
STRATEGIES = ("fedavg", "fedprox", "fedasync")
DEFAULT_RESOLUTION_NOISE = {320: 1.5, 640: 1.0, 960: 0.67}
DEFAULT_PROX_MU = 0.01


def _require_keys(doc: dict, allowed: set[str], context: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(
            f"unknown field(s) {sorted(unknown)} in {context}; "
            f"allowed: {sorted(allowed)}"
        )


@dataclass(frozen=True)
class DropoutRule:
    mode: str = "always_on"  # always_on | absent_rounds | stochastic
    absent_rounds: frozenset[int] = frozenset()
    p: float = 0.0  # probability of dropping after a participating round
    q: float = 0.0  # probability an absent client rejoins next round

    def __post_init__(self):
        if self.mode not in ("always_on", "absent_rounds", "stochastic"):
            raise ConfigError(f"unknown dropout mode {self.mode!r}")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ConfigError("dropout probabilities must lie in [0, 1]")

    def to_dict(self) -> dict:
        doc: dict = {"mode": self.mode}
        if self.mode == "absent_rounds":
            doc["rounds"] = sorted(self.absent_rounds)
        elif self.mode == "stochastic":
            doc["p"] = self.p
            doc["q"] = self.q
        return doc

    @staticmethod
    def from_dict(doc: dict, context: str) -> "DropoutRule":
        mode = doc.get("mode", "always_on")
        if mode == "absent_rounds":
            _require_keys(doc, {"mode", "rounds"}, context)
            return DropoutRule(mode=mode, absent_rounds=frozenset(doc.get("rounds", ())))
        if mode == "stochastic":
            _require_keys(doc, {"mode", "p", "q"}, context)
            return DropoutRule(mode=mode, p=float(doc.get("p", 0.0)), q=float(doc.get("q", 0.0)))
        _require_keys(doc, {"mode"}, context)
        return DropoutRule(mode=mode)


@dataclass(frozen=True)
class ClientSpec:
    client_id: str
    resolution: int = 640
    batch: int = 32
    architecture: str = "v8"
    device: DeviceSpec = field(default_factory=DeviceSpec)
    scenario_mix: dict[str, float] | None = None
    dropout: DropoutRule = field(default_factory=DropoutRule)

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}")

    def to_dict(self) -> dict:
        return {
            "client_id": self.client_id,
            "resolution": self.resolution,
            "batch": self.batch,
            "architecture": self.architecture,
            "device": {
                "mem_capacity_mib": self.device.mem_capacity_mib,
                "speed_factor": self.device.speed_factor,
            },
            "scenario_mix": self.scenario_mix,
            "dropout": self.dropout.to_dict(),
        }

    @staticmethod
    def from_dict(doc: dict) -> "ClientSpec":
        cid = doc.get("client_id")
        if not cid:
            raise ConfigError("client entry missing client_id")
        _require_keys(
            doc,
            {"client_id", "resolution", "batch", "architecture", "device",
             "scenario_mix", "dropout"},
            f"client {cid}",
        )
        device_doc = doc.get("device", {})
        _require_keys(
            device_doc, {"mem_capacity_mib", "speed_factor"}, f"client {cid} device"
        )
        device = DeviceSpec(
            mem_capacity_mib=float(device_doc.get("mem_capacity_mib", DEFAULT_MEM_CAPACITY_MIB)),
            speed_factor=float(device_doc.get("speed_factor", 1.0)),
        )
        return ClientSpec(
            client_id=cid,
            resolution=int(doc.get("resolution", 640)),
            batch=int(doc.get("batch", 32)),
            architecture=doc.get("architecture", "v8"),
            device=device,
            scenario_mix=doc.get("scenario_mix"),
            dropout=DropoutRule.from_dict(doc.get("dropout", {}), f"client {cid} dropout"),
        )


@dataclass(frozen=True)
class EvalSpec:
    """Held-out evaluation set: balanced classes, one scenario tag or a
    weighted scenario mixture."""

    per_class: int = 500
    scenario: str | dict[str, float] = REFERENCE_SCENARIO
    seed: int = 990001

    def scenario_mix(self) -> dict[str, float]:
        if isinstance(self.scenario, str):
            return {self.scenario: 1.0}
        return dict(self.scenario)

    def to_dict(self) -> dict:
        return {"per_class": self.per_class, "scenario": self.scenario, "seed": self.seed}


@dataclass(frozen=True)
class ExperimentConfig:
    strategy: str
    rounds: int
    train: TrainConfig
    task: SyntheticTask
    clients: tuple[ClientSpec, ...]
    master_seed: int
    plan: PartitionPlan | None = None
    overlap: OverlapPlan | None = None
    overlap_partition_counts: tuple[int, ...] | None = None
    async_cfg: AsyncConfig = field(default_factory=AsyncConfig)
    async_applications: int | None = None  # default: rounds * n_clients
    async_eval_every: int | None = None  # default: n_clients
    eval: EvalSpec = field(default_factory=EvalSpec)
    resolution_noise: dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_RESOLUTION_NOISE)
    )
    aggregate_time_s: float = 1.0
    raw_task: dict | None = None
    raw_plan: dict | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if (self.plan is None) == (self.overlap is None):
            raise ConfigError("config needs exactly one of a matrix plan or an overlap plan")
        ids = [c.client_id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate client_id")
        if self.plan is not None and set(ids) != set(self.plan.client_ids):
            raise ConfigError("clients do not match the partition plan's client_ids")
        if self.overlap is not None:
            if self.overlap_partition_counts is None:
                raise ConfigError("overlap plan requires per-partition class counts")
            if len(ids) != self.overlap.n_clients:
                raise ConfigError("clients do not match the overlap plan size")
        for c in self.clients:
            if c.scenario_mix:
                for tag in c.scenario_mix:
                    if tag not in self.task.scenario_shifts:
                        raise ConfigError(
                            f"client {c.client_id} references unknown scenario {tag!r}"
                        )
                total = sum(c.scenario_mix.values())
                if abs(total - 1.0) > 1e-9:
                    raise ConfigError(
                        f"client {c.client_id} scenario_mix sums to {total}, expected 1"
                    )
        eval_mix = self.eval.scenario_mix()
        for tag in eval_mix:
            if tag not in self.task.scenario_shifts:
                raise ConfigError(f"eval scenario {tag!r} is not defined")
        if abs(sum(eval_mix.values()) - 1.0) > 1e-9:
            raise ConfigError("eval scenario mixture must sum to 1")

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    def applications_budget(self) -> int:
        return self.async_applications or self.rounds * self.n_clients

    def eval_every(self) -> int:
        return self.async_eval_every or self.n_clients

    def to_dict(self) -> dict:
        if self.raw_task is not None:
            task_doc = self.raw_task
        else:
            task_doc = {
                "n_classes": self.task.n_classes,
                "n_features": self.task.n_features,
                "noise_sigma": self.task.noise_sigma,
                "class_means": self.task.class_means.tolist(),
                "scenario_shifts": {
                    tag: vec.tolist() for tag, vec in self.task.scenario_shifts.items()
                },
            }
        if self.raw_plan is not None:
            plan_doc = self.raw_plan
        elif self.plan is not None:
            plan_doc = {"inline": self.plan.to_json_dict()}
        else:
            plan_doc = {
                "overlap": {
                    "n_clients": self.overlap.n_clients,
                    "window": self.overlap.window,
                    "per_partition_counts": list(self.overlap_partition_counts),
                }
            }
        return {
            "schema_version": SCHEMA_VERSION,
            "strategy": self.strategy,
            "rounds": self.rounds,
            "master_seed": self.master_seed,
            "train": {
                "local_epochs": self.train.local_epochs,
                "batch_size": self.train.batch_size,
                "learning_rate": self.train.learning_rate,
                "prox_mu": self.train.prox_mu,
            },
            "task": task_doc,
            "plan": plan_doc,
            "clients": [c.to_dict() for c in self.clients],
            "async": {
                "alpha": self.async_cfg.alpha,
                "staleness_exponent": self.async_cfg.staleness_exponent,
                "applications": self.async_applications,
                "eval_every": self.async_eval_every,
            },
            "eval": self.eval.to_dict(),
            "resolution_noise": {str(k): v for k, v in self.resolution_noise.items()},
            "aggregate_time_s": self.aggregate_time_s,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def with_seed(self, master_seed: int) -> "ExperimentConfig":
        doc = self.to_dict()
        doc["master_seed"] = int(master_seed)
        return config_from_dict(doc)


def _parse_task(doc: dict) -> SyntheticTask:
    allowed = {
        "n_classes", "n_features", "noise_sigma", "means_seed", "scenario_tags",
        "shift_scale", "class_means", "scenario_shifts",
    }
    _require_keys(doc, allowed, "task")
    if "class_means" in doc:
        shifts = {
            tag: np.asarray(vec, dtype=np.float64)
            for tag, vec in (doc.get("scenario_shifts") or {}).items()
        }
        means = np.asarray(doc["class_means"], dtype=np.float64)
        return SyntheticTask(
            n_classes=int(doc.get("n_classes", means.shape[0])),
            n_features=int(doc.get("n_features", means.shape[1])),
            class_means=means,
            noise_sigma=float(doc.get("noise_sigma", 1.0)),
            scenario_shifts=shifts or {REFERENCE_SCENARIO: None},
        )
    return default_task(
        n_classes=int(doc.get("n_classes", 8)),
        n_features=int(doc.get("n_features", 16)),
        noise_sigma=float(doc.get("noise_sigma", 1.0)),
        means_seed=int(doc.get("means_seed", 20240601)),
        scenario_tags=tuple(doc.get("scenario_tags", ())),
        shift_scale=float(doc.get("shift_scale", 2.0)),
    )


def _parse_plan(doc: dict):
    _require_keys(doc, {"builtin", "scale_divisor", "inline", "overlap"}, "plan")
    given = [k for k in ("builtin", "inline", "overlap") if k in doc]
    if len(given) != 1:
        raise ConfigError("plan needs exactly one of: builtin, inline, overlap")
    if "builtin" in doc:
        name = doc["builtin"]
        if name not in BUILTIN_PLAN_NAMES:
            raise ConfigError(f"plan.builtin must be one of {BUILTIN_PLAN_NAMES}")
        plan = builtin_plan(name)
        divisor = int(doc.get("scale_divisor", 1))
        if divisor > 1:
            plan = plan.scaled(divisor)
        return plan, None, None
    if "inline" in doc:
        return PartitionPlan.from_json_dict(doc["inline"]), None, None
    ov = doc["overlap"]
    _require_keys(ov, {"n_clients", "window", "per_partition_counts"}, "plan.overlap")
    try:
        overlap = overlap_split(int(ov["n_clients"]), int(ov["window"]))
        counts = tuple(int(c) for c in ov["per_partition_counts"])
    except KeyError as exc:
        raise ConfigError(f"plan.overlap missing field {exc}") from None
    return None, overlap, counts


def config_from_dict(doc: dict) -> ExperimentConfig:
    allowed = {
        "schema_version", "strategy", "rounds", "master_seed", "train", "task",
        "plan", "clients", "async", "eval", "resolution_noise", "aggregate_time_s",
    }
    _require_keys(doc, allowed, "experiment config")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    strategy = doc.get("strategy")
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")

    train_doc = doc.get("train", {})
    _require_keys(
        train_doc,
        {"local_epochs", "batch_size", "learning_rate", "prox_mu", "seed"},
        "train",
    )
    prox_mu = train_doc.get("prox_mu")
    if prox_mu is None:
        prox_mu = DEFAULT_PROX_MU if strategy == "fedprox" else 0.0
    train = TrainConfig(
        local_epochs=int(train_doc.get("local_epochs", 3)),
        batch_size=int(train_doc.get("batch_size", 32)),
        learning_rate=float(train_doc.get("learning_rate", 0.05)),
        prox_mu=float(prox_mu),
        seed=int(train_doc.get("seed", 0)),
    )

    task = _parse_task(doc.get("task", {}))
    if "plan" not in doc:
        raise ConfigError("experiment config requires a plan")
    plan, overlap, overlap_counts = _parse_plan(doc["plan"])
    if plan is not None and len(plan.class_names) != task.n_classes:
        raise ConfigError(
            f"plan has {len(plan.class_names)} classes but task has {task.n_classes}"
        )
    if overlap_counts is not None and len(overlap_counts) != task.n_classes:
        raise ConfigError("overlap per_partition_counts length must equal n_classes")

    if "clients" in doc and doc["clients"]:
        clients = tuple(ClientSpec.from_dict(c) for c in doc["clients"])
    else:
        ids = (
            plan.client_ids
            if plan is not None
            else tuple(client_name(i) for i in range(1, overlap.n_clients + 1))
        )
        clients = tuple(ClientSpec(client_id=cid) for cid in ids)

    async_doc = doc.get("async", {})
    _require_keys(
        async_doc, {"alpha", "staleness_exponent", "applications", "eval_every"}, "async"
    )
    async_cfg = AsyncConfig(
        alpha=float(async_doc.get("alpha", 0.6)),
        staleness_exponent=float(async_doc.get("staleness_exponent", 0.5)),
    )

    eval_doc = doc.get("eval", {})
    _require_keys(eval_doc, {"per_class", "scenario", "seed"}, "eval")
    eval_spec = EvalSpec(
        per_class=int(eval_doc.get("per_class", 500)),
        scenario=eval_doc.get("scenario", REFERENCE_SCENARIO),
        seed=int(eval_doc.get("seed", 990001)),
    )
    if eval_spec.per_class < 1:
        raise ConfigError("eval.per_class must be >= 1")

    res_noise_doc = doc.get("resolution_noise")
    if res_noise_doc is None:
        res_noise = dict(DEFAULT_RESOLUTION_NOISE)
    else:
        res_noise = {int(k): float(v) for k, v in res_noise_doc.items()}

    return ExperimentConfig(
        strategy=strategy,
        rounds=int(doc.get("rounds", 10)),
        train=train,
        task=task,
        clients=clients,
        master_seed=int(doc.get("master_seed", 0)),
        plan=plan,
        overlap=overlap,
        overlap_partition_counts=overlap_counts,
        async_cfg=async_cfg,
        async_applications=async_doc.get("applications"),
        async_eval_every=async_doc.get("eval_every"),
        eval=eval_spec,
        resolution_noise=res_noise,
        aggregate_time_s=float(doc.get("aggregate_time_s", 1.0)),
        raw_task=doc.get("task", {}),
        raw_plan=doc["plan"],
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(doc)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
