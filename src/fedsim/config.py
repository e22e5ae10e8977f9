"""Experiment configuration: schema, validation, canonical serialization.

A run is fully reproducible from one JSON document; the canonical form
(sorted keys, defaults filled in) is hashed into a digest that checkpoints
must match on resume.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .costs import ARCHITECTURES, DeviceSpec
from .aggregate import AsyncConfig
from .errors import ConfigError, array, integer, mapping, number, section, string
from .partition import OverlapPlan, PartitionPlan, builtin_plan, overlap_split
from .streams import client_key
from .task import REFERENCE_SCENARIO, SyntheticTask, TrainConfig, default_task

SCHEMA_VERSION = 1
STRATEGIES = ("fedavg", "fedprox", "fedasync")
DEFAULT_RESOLUTION_NOISE = {320: 1.5, 640: 1.0, 960: 0.67}
DEFAULT_PROX_MU = 0.01


# A scenario mix: tag -> weight.
_mix = mapping(number)


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
        mode = doc.get("mode") if isinstance(doc, dict) else None
        # Tested against a tuple: a mode of another JSON type may be unhashable.
        table = _DROPOUT_KEYS[mode if mode in tuple(_DROPOUT_KEYS) else "always_on"]
        fields = section(doc, table, context)
        if "rounds" in fields:
            fields["absent_rounds"] = fields.pop("rounds")
        return DropoutRule(**fields)


# Each dropout mode's keys; an unknown mode gets always_on's and is then
# refused by `DropoutRule` itself.
_DROPOUT_KEYS = {
    "always_on": {"mode": string},
    "absent_rounds": {"mode": string, "rounds": lambda rounds: frozenset(array(integer)(rounds))},
    "stochastic": {"mode": string, "p": number, "q": number},
}
_DEVICE_KEYS = {"mem_capacity_mib": number, "speed_factor": number}


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
        for key in ("resolution", "batch"):
            if getattr(self, key) < 1:
                raise ConfigError(f"client {self.client_id} {key} must be >= 1, "
                                  f"got {getattr(self, key)}")

    def to_dict(self) -> dict:
        # Spelled out rather than `asdict`, which costs about 5 µs per
        # client for the device alone, on every digest.
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
        cid = doc.get("client_id") if isinstance(doc, dict) else None
        if not cid:
            raise ConfigError("client entry must be an object with a client_id")
        context = f"client {cid}"
        return ClientSpec(**section(doc, _client_keys(context), context))


def _client_keys(context: str) -> dict:
    """A client entry's key table; `context` names the client in errors."""
    return {
        "client_id": string,
        "resolution": integer,
        "batch": integer,
        "architecture": string,
        "device": lambda d: DeviceSpec(**section(d, _DEVICE_KEYS, f"{context} device")),
        "scenario_mix": _mix,
        "dropout": lambda d: DropoutRule.from_dict(d, f"{context} dropout"),
    }


@dataclass(frozen=True)
class EvalSpec:
    """Held-out evaluation set: balanced classes, one scenario tag or a
    weighted scenario mixture."""

    per_class: int = 500
    scenario: str | dict[str, float] = REFERENCE_SCENARIO
    seed: int = 990001

    def __post_init__(self):
        if self.per_class < 1:
            raise ConfigError("eval.per_class must be >= 1")

    def scenario_mix(self) -> dict[str, float]:
        if isinstance(self.scenario, str):
            return {self.scenario: 1.0}
        return dict(self.scenario)


@dataclass(frozen=True)
class ExperimentConfig:
    strategy: str
    train: TrainConfig
    task: SyntheticTask
    clients: tuple[ClientSpec, ...]
    plan: PartitionPlan | OverlapPlan
    # The task and plan sections as given; `to_dict` writes them back as is.
    raw_task: dict
    raw_plan: dict
    rounds: int = 10
    master_seed: int = 0
    async_cfg: AsyncConfig = field(default_factory=AsyncConfig)
    eval: EvalSpec = field(default_factory=EvalSpec)
    resolution_noise: dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_RESOLUTION_NOISE)
    )
    aggregate_time_s: float = 1.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.train.prox_mu and self.strategy != "fedprox":
            raise ConfigError(f"train.prox_mu applies to fedprox only, not {self.strategy}")
        if not (math.isfinite(self.aggregate_time_s) and self.aggregate_time_s >= 0):
            raise ConfigError(
                f"aggregate_time_s must be finite and >= 0, got {self.aggregate_time_s}"
            )
        # A key the strategy never reads would change the digest and nothing else.
        if self.strategy == "fedasync" and self.aggregate_time_s != type(self).aggregate_time_s:
            raise ConfigError("aggregate_time_s applies to fedavg and fedprox only, not fedasync")
        unread = [k for k, v in asdict(self.async_cfg).items() if v != getattr(AsyncConfig, k)]
        if unread and self.strategy != "fedasync":
            raise ConfigError(f"async.{unread[0]} applies to fedasync only, not {self.strategy}")
        ids = [c.client_id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate client_id")
        keyed: dict[int, str] = {}
        for cid in ids:
            other = keyed.setdefault(client_key(cid), cid)
            if other != cid:
                raise ConfigError(f"client_ids {other!r} and {cid!r} share the stream key "
                                  f"{client_key(cid)}, so they would draw identical values")
        if set(ids) != set(self.plan.client_ids):
            raise ConfigError("clients do not match the partition plan's client_ids")
        classes = len(self.plan.class_names if self.plan.draws_per_client
                      else self.plan.per_partition_counts)
        if classes != self.task.n_classes:
            raise ConfigError(f"plan has {classes} classes but task has {self.task.n_classes}")
        for c in self.clients:
            if c.scenario_mix:
                if not self.plan.draws_per_client:
                    raise ConfigError(
                        f"client {c.client_id} has a scenario_mix, but an overlap plan's "
                        "partitions are drawn once and shared"
                    )
                self.task.check_mix(c.scenario_mix, f"client {c.client_id} scenario_mix")
        self.task.check_mix(self.eval.scenario_mix(), "eval scenario")

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "strategy": self.strategy,
            "rounds": self.rounds,
            "master_seed": self.master_seed,
            "train": asdict(self.train),
            "task": self.raw_task,
            "plan": self.raw_plan,
            "clients": [c.to_dict() for c in self.clients],
            "async": asdict(self.async_cfg),
            "eval": asdict(self.eval),
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


def _matrix(value) -> np.ndarray:
    means = np.array(array(array(number))(value))
    if means.ndim != 2:
        raise ValueError(f"expected a (n_classes, n_features) matrix, got shape {means.shape}")
    return means


# The two forms of the task section.  Without class_means the means and
# scenario shifts are drawn by `default_task`; with them, both are given.
_GENERATED_TASK_KEYS = {
    "n_classes": integer, "n_features": integer, "noise_sigma": number,
    "means_seed": integer, "scenario_tags": array(string), "shift_scale": number,
}
_GIVEN_TASK_KEYS = {
    "n_classes": integer, "n_features": integer, "noise_sigma": number,
    "class_means": _matrix, "scenario_shifts": mapping(array(number)),
}


def _parse_task(doc) -> SyntheticTask:
    if not isinstance(doc, dict) or doc.get("class_means") is None:
        return default_task(**section(doc, _GENERATED_TASK_KEYS, "task"))
    fields = section(doc, _GIVEN_TASK_KEYS, "task with class_means")
    fields.setdefault("n_classes", fields["class_means"].shape[0])
    fields.setdefault("n_features", fields["class_means"].shape[1])
    return SyntheticTask(**fields)


def parse_plan(doc) -> PartitionPlan | OverlapPlan:
    """The plan a config's plan section names, as `fedsim partition` builds it too."""
    fields = section(doc, _PLAN_KEYS, "plan")
    given = [k for k in ("builtin", "inline", "overlap") if k in fields]
    if len(given) != 1:
        raise ConfigError("plan needs exactly one of: builtin, inline, overlap")
    if "scale_divisor" in fields and "builtin" not in fields:
        raise ConfigError(f"plan.scale_divisor applies to a builtin plan, not to {given[0]}")
    if "overlap" in fields:
        ov = fields["overlap"]
        try:
            return overlap_split(ov["n_clients"], ov["window"], ov["per_partition_counts"])
        except KeyError as exc:
            raise ConfigError(f"overlap plan missing field {exc}") from None
    if "inline" in fields:
        return PartitionPlan.from_json_dict(fields["inline"])
    plan = builtin_plan(fields["builtin"])
    return plan.scaled(fields["scale_divisor"]) if "scale_divisor" in fields else plan


def _unread(message: str):
    """A converter refusing every value: `message` says why no run reads it."""
    def refuse(value):
        raise ConfigError(message)
    return refuse


_PLAN_KEYS = {
    "builtin": string, "scale_divisor": integer,
    "inline": lambda d: section(d, _INLINE_KEYS, "inline plan"),
    "overlap": lambda d: section(d, _OVERLAP_KEYS, "overlap plan"),
}
# An inline plan takes a plan file's keys, as `fedsim partition` writes them;
# its `scenario_mix` and `test_client` are accepted only as null.
_INLINE_KEYS = {
    "schema_version": integer, "client_ids": array(string), "class_names": array(string),
    "class_totals": array(integer), "counts": array(array(integer)),
    "scenario_mix": _unread("no run reads inline plan.scenario_mix; set a client's scenario_mix"),
    "test_client": _unread("no run reads inline plan.test_client; leave it out or null"),
}
_OVERLAP_KEYS = {"n_clients": integer, "window": integer, "per_partition_counts": array(integer)}
_TRAIN_KEYS = {
    "local_epochs": integer, "batch_size": integer, "learning_rate": number, "prox_mu": number,
}
_ASYNC_KEYS = {
    "alpha": number, "staleness_exponent": number, "applications": integer,
    "eval_every": integer,
}
# The eval scenario is one tag or a mix.
_EVAL_KEYS = {
    "per_class": integer, "scenario": lambda s: s if type(s) is str else _mix(s), "seed": integer,
}


def config_from_dict(doc: dict) -> ExperimentConfig:
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    fields = section(doc, {
        "schema_version": integer,
        "strategy": string,
        "rounds": integer,
        "master_seed": integer,
        "train": lambda d: section(d, _TRAIN_KEYS, "train"),
        "task": _parse_task,
        "plan": parse_plan,
        "clients": array(ClientSpec.from_dict),
        "async": lambda d: AsyncConfig(**section(d, _ASYNC_KEYS, "async")),
        "eval": lambda d: EvalSpec(**section(d, _EVAL_KEYS, "eval")),
        "resolution_noise": lambda d: {int(k): v for k, v in mapping(number)(d).items()},
        "aggregate_time_s": number,
    }, "experiment config")
    fields.pop("schema_version", None)
    if "plan" not in fields:
        raise ConfigError("experiment config requires a plan")

    train = fields.pop("train", {})
    if fields.get("strategy") == "fedprox":
        train.setdefault("prox_mu", DEFAULT_PROX_MU)
    fields["train"] = TrainConfig(**train)
    if not fields.get("clients"):
        fields["clients"] = tuple(ClientSpec(client_id=cid) for cid in fields["plan"].client_ids)

    return ExperimentConfig(
        strategy=fields.pop("strategy", None),
        task=fields.pop("task", None) or default_task(),
        async_cfg=fields.pop("async", AsyncConfig()),
        raw_task=doc.get("task") or {},
        raw_plan=doc["plan"],
        **fields,
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
