"""Experiment configuration: schema, validation, canonical serialization.

A run is fully reproducible from one JSON document; the canonical form
(sorted keys, defaults filled in) is hashed into a digest that checkpoints
must match on resume.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .costs import ARCHITECTURES, DeviceSpec
from .aggregate import AsyncConfig
from .errors import ConfigError
from .partition import OverlapPlan, PartitionPlan, builtin_plan, overlap_split
from .task import REFERENCE_SCENARIO, SyntheticTask, TrainConfig, default_task

SCHEMA_VERSION = 1
STRATEGIES = ("fedavg", "fedprox", "fedasync")
DEFAULT_RESOLUTION_NOISE = {320: 1.5, 640: 1.0, 960: 0.67}
DEFAULT_PROX_MU = 0.01


def _as_is(value):
    return value


def _integer(value) -> int:
    """A JSON integer only; `int()` would truncate 2.9, take true and parse "3"."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _integers(values) -> tuple[int, ...]:
    return tuple(map(_integer, values))


def _number(value) -> float:
    """A JSON integer or float, as a finite float; `float()` would take
    true and "0.5", and Python's JSON reader takes NaN and Infinity."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN fails it, as does an int past float range
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _section(doc, table: dict, context: str) -> dict:
    """Convert one config section through its key table.

    ``table`` maps every allowed key to a converter.  Unknown keys, and
    values a converter rejects, raise `ConfigError` naming the section.
    Absent keys and nulls are left out, so the dataclass defaults apply:
    every default lives on its dataclass (or `default_task`), not here.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(doc) - set(table)
    if unknown:
        raise ConfigError(
            f"unknown field(s) {sorted(unknown)} in {context}; allowed: {sorted(table)}"
        )
    fields = {}
    for key, value in doc.items():
        if value is not None:
            try:
                fields[key] = table[key](value)
            except (AttributeError, TypeError, ValueError) as exc:
                raise ConfigError(f"{context}.{key}: {exc}") from None
    return fields


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
        table = _DROPOUT_KEYS.get(doc.get("mode"), _DROPOUT_KEYS["always_on"])
        fields = _section(doc, table, context)
        if "rounds" in fields:
            fields["absent_rounds"] = fields.pop("rounds")
        return DropoutRule(**fields)


# Each dropout mode's keys; an unknown mode gets always_on's and is then
# refused by `DropoutRule` itself.
_DROPOUT_KEYS = {
    "always_on": {"mode": _as_is},
    "absent_rounds": {"mode": _as_is, "rounds": lambda rounds: frozenset(_integers(rounds))},
    "stochastic": {"mode": _as_is, "p": _number, "q": _number},
}
_DEVICE_KEYS = {"mem_capacity_mib": _number, "speed_factor": _number}


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
        cid = doc.get("client_id")
        if not cid:
            raise ConfigError("client entry missing client_id")
        context = f"client {cid}"
        return ClientSpec(**_section(doc, _client_keys(context), context))


def _client_keys(context: str) -> dict:
    """A client entry's key table; `context` names the client in errors."""
    return {
        "client_id": _as_is,
        "resolution": _integer,
        "batch": _integer,
        "architecture": _as_is,
        "device": lambda d: DeviceSpec(**_section(d, _DEVICE_KEYS, f"{context} device")),
        "scenario_mix": _as_is,
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
        ids = [c.client_id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate client_id")
        if set(ids) != set(self.plan.client_ids):
            raise ConfigError("clients do not match the partition plan's client_ids")
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
    means = np.asarray(value, dtype=np.float64)
    if means.ndim != 2:
        raise ValueError(f"expected a (n_classes, n_features) matrix, got shape {means.shape}")
    return means


# The two forms of the task section.  Without class_means the means and
# scenario shifts are drawn by `default_task`; with them, both are given.
_GENERATED_TASK_KEYS = {
    "n_classes": _integer, "n_features": _integer, "noise_sigma": _number,
    "means_seed": _integer, "scenario_tags": tuple, "shift_scale": _number,
}
_GIVEN_TASK_KEYS = {
    "n_classes": _integer, "n_features": _integer, "noise_sigma": _number,
    "class_means": _matrix, "scenario_shifts": dict,
}


def _parse_task(doc) -> SyntheticTask:
    if not isinstance(doc, dict) or doc.get("class_means") is None:
        return default_task(**_section(doc, _GENERATED_TASK_KEYS, "task"))
    fields = _section(doc, _GIVEN_TASK_KEYS, "task with class_means")
    fields.setdefault("n_classes", fields["class_means"].shape[0])
    fields.setdefault("n_features", fields["class_means"].shape[1])
    return SyntheticTask(**fields)


def _parse_plan(doc, n_classes: int) -> PartitionPlan | OverlapPlan:
    fields = _section(doc, {
        "builtin": _as_is, "scale_divisor": _integer,
        "inline": lambda d: _section(d, _INLINE_KEYS, "inline plan"),
        "overlap": lambda d: _section(d, _OVERLAP_KEYS, "overlap plan"),
    }, "plan")
    given = [k for k in ("builtin", "inline", "overlap") if k in fields]
    if len(given) != 1:
        raise ConfigError("plan needs exactly one of: builtin, inline, overlap")
    if "scale_divisor" in fields and "builtin" not in fields:
        raise ConfigError(f"plan.scale_divisor applies to a builtin plan, not to {given[0]}")
    if "overlap" in fields:
        ov = fields["overlap"]
        try:
            plan = overlap_split(ov["n_clients"], ov["window"], ov["per_partition_counts"])
        except KeyError as exc:
            raise ConfigError(f"overlap plan missing field {exc}") from None
        if len(plan.per_partition_counts) != n_classes:
            raise ConfigError("overlap per_partition_counts length must equal n_classes")
        return plan
    if "inline" in fields:
        if "scenario_mix" in fields["inline"]:  # null (as `fedsim partition` writes) is left out
            raise ConfigError("no run reads inline plan.scenario_mix; set a client's scenario_mix")
        if "test_client" in fields["inline"]:  # null (as older plan files hold) is left out
            raise ConfigError("no run reads inline plan.test_client; leave it out or null")
        plan = PartitionPlan.from_json_dict(fields["inline"])
    else:
        plan = builtin_plan(fields["builtin"])
        if "scale_divisor" in fields:
            plan = plan.scaled(fields["scale_divisor"])
    if len(plan.class_names) != n_classes:
        raise ConfigError(f"plan has {len(plan.class_names)} classes but task has {n_classes}")
    return plan


# An inline plan takes a plan file's keys, as `fedsim partition` writes them.
_INLINE_KEYS = {
    "schema_version": _as_is, "client_ids": _as_is, "class_names": _as_is,
    "class_totals": _integers, "counts": lambda rows: tuple(map(_integers, rows)),
    "scenario_mix": _as_is, "test_client": _as_is,
}
_OVERLAP_KEYS = {"n_clients": _integer, "window": _integer, "per_partition_counts": _integers}
_TRAIN_KEYS = {
    "local_epochs": _integer, "batch_size": _integer, "learning_rate": _number, "prox_mu": _number,
}
_ASYNC_KEYS = {
    "alpha": _number, "staleness_exponent": _number, "applications": _integer,
    "eval_every": _integer,
}
_EVAL_KEYS = {"per_class": _integer, "scenario": _as_is, "seed": _integer}


def config_from_dict(doc: dict) -> ExperimentConfig:
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    fields = _section(doc, {
        "schema_version": _as_is,
        "strategy": _as_is,
        "rounds": _integer,
        "master_seed": _integer,
        "train": lambda d: _section(d, _TRAIN_KEYS, "train"),
        "task": _as_is,
        "plan": _as_is,
        "clients": lambda docs: tuple(ClientSpec.from_dict(c) for c in docs),
        "async": lambda d: AsyncConfig(**_section(d, _ASYNC_KEYS, "async")),
        "eval": lambda d: EvalSpec(**_section(d, _EVAL_KEYS, "eval")),
        "resolution_noise": lambda d: {int(k): _number(v) for k, v in d.items()},
        "aggregate_time_s": _number,
    }, "experiment config")
    fields.pop("schema_version", None)
    if "plan" not in fields:
        raise ConfigError("experiment config requires a plan")

    train = fields.pop("train", {})
    if fields.get("strategy") == "fedprox":
        train.setdefault("prox_mu", DEFAULT_PROX_MU)
    fields["train"] = TrainConfig(**train)

    task = _parse_task(fields.setdefault("task", {}))
    plan = _parse_plan(fields["plan"], task.n_classes)
    if not fields.get("clients"):
        fields["clients"] = tuple(ClientSpec(client_id=cid) for cid in plan.client_ids)

    return ExperimentConfig(
        strategy=fields.pop("strategy", None),
        task=task,
        plan=plan,
        async_cfg=fields.pop("async", AsyncConfig()),
        raw_task=fields.pop("task"),
        raw_plan=fields.pop("plan"),
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
