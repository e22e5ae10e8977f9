"""Built-in experiment scenarios.

Each builder returns a plain config dict (the JSON schema of
``config.load_config``), so every study is one reproducible file: the
published class-skew plans at desk scale, dual-client dropout, the
60-client overlapping-window comparison, resolution heterogeneity, and
lighting cross-domain shifts.
"""

from __future__ import annotations

from .config import config_from_dict
from .costs import DEFAULT_MEM_CAPACITY_MIB
from .errors import ConfigError
from .partition import builtin_plan, client_name, fraction_split

# Desk-scale defaults: noisy enough that data volume and quality matter,
# a learning rate low enough that 10 rounds stay in the converging regime,
# and small enough that a study runs in seconds.
_TASK = {"n_classes": 8, "n_features": 16, "noise_sigma": 2.0}
_TRAIN = {"local_epochs": 3, "batch_size": 32, "learning_rate": 0.01}
_EVAL = {"per_class": 500}


def _task(n_classes: int = 8) -> dict:
    doc = dict(_TASK)
    doc["n_classes"] = n_classes
    return doc


def _client_domains(plan):
    """Per-client feature domains weighted by data share.

    Each client of the plan gets its own scenario tag; the returned eval
    mixture weights every domain by that client's share of the pool, so
    losing or degrading a large client costs proportionally more.
    """
    ids = plan.client_ids
    tags = [f"domain-{cid}" for cid in ids]
    totals = [plan.client_total(cid) for cid in ids]
    pool = sum(totals)
    eval_mix = {tag: n / pool for tag, n in zip(tags, totals)}
    # Exact unit sum for the validator.
    eval_mix[tags[0]] += 1.0 - sum(eval_mix.values())
    mixes = {cid: {tag: 1.0} for cid, tag in zip(ids, tags)}
    return tags, mixes, eval_mix


# Eight-client size skew in the style of the BDD deployment, softened so
# the two smallest clients still hold a measurable slice of the pool (the
# verbatim counts leave C7+C8 under 2%, below what a 10-round desk-scale
# run can resolve).
_BDD_STYLE_FRACTIONS = (0.27, 0.20, 0.15, 0.11, 0.10, 0.08, 0.05, 0.04)


def _bdd_style_plan():
    classes = [f"class{j}" for j in range(9)]
    return fraction_split({c: 300 for c in classes}, _BDD_STYLE_FRACTIONS)


def _inline_plan(plan) -> dict:
    return {
        "inline": {
            "client_ids": list(plan.client_ids),
            "class_names": list(plan.class_names),
            "counts": [list(plan.row(cid)) for cid in plan.client_ids],
        }
    }


def _clients(ids, **overrides):
    out = []
    for cid in ids:
        spec = {"client_id": cid, "resolution": 640, "batch": 32, "architecture": "v8"}
        spec.update(overrides.get(cid, {}))
        out.append(spec)
    return out


def kitti_sync(seed: int = 0, strategy: str = "fedavg") -> dict:
    """4-client class-skew study; convergence over 10 synchronous rounds."""
    return {
        "schema_version": 1,
        "strategy": strategy,
        "rounds": 10,
        "master_seed": seed,
        "train": dict(_TRAIN),
        "task": dict(_TASK),
        "plan": {"builtin": "kitti-4", "scale_divisor": 16},
        "clients": _clients([client_name(i) for i in range(1, 5)]),
        "eval": dict(_EVAL),
    }


def bdd_dropout_dual(pair=("C1", "C2"), seed: int = 0) -> dict:
    """8-client heavy-skew study with one client pair absent every round.

    Clients own distinct feature domains weighted by data share, so the
    cost of an absent pair tracks how much of the deployment distribution
    it held.
    """
    plan = _bdd_style_plan()
    ids = list(plan.client_ids)
    for cid in pair:
        if cid not in ids:
            raise ConfigError(f"unknown dropout client {cid!r}")
    tags, mixes, eval_mix = _client_domains(plan)
    overrides = {cid: {"scenario_mix": mixes[cid]} for cid in ids}
    for cid in pair:
        overrides[cid]["dropout"] = {
            "mode": "absent_rounds", "rounds": list(range(1, 11))
        }
    task = _task(9)
    task["n_features"] = 32
    task["scenario_tags"] = tags
    task["shift_scale"] = 3.0
    return {
        "schema_version": 1,
        "strategy": "fedavg",
        "rounds": 10,
        "master_seed": seed,
        "train": dict(_TRAIN),
        "task": task,
        "plan": _inline_plan(plan),
        "clients": _clients(ids, **overrides),
        "eval": {"per_class": 1000, "scenario": eval_mix, "seed": 990001},
    }


def bdd_async_hetero(seed: int = 0, strategy: str = "fedasync") -> dict:
    """Skewed 8-client pool with 4:1 speed heterogeneity.

    The small-data clients are the fast ones, so asynchronous aggregation
    over-represents their domains; run with strategy="fedavg" for the
    matched synchronous baseline at the same application budget.
    """
    plan = _bdd_style_plan()
    ids = list(plan.client_ids)
    tags, mixes, eval_mix = _client_domains(plan)
    overrides = {}
    for i, cid in enumerate(ids, start=1):
        speed = 4.0 if i >= 5 else 1.0
        overrides[cid] = {
            "scenario_mix": mixes[cid],
            "device": {"mem_capacity_mib": DEFAULT_MEM_CAPACITY_MIB, "speed_factor": speed},
        }
    task = _task(9)
    task["n_features"] = 32
    task["scenario_tags"] = tags
    task["shift_scale"] = 3.0
    return {
        "schema_version": 1,
        "strategy": strategy,
        "rounds": 10,
        "master_seed": seed,
        "train": dict(_TRAIN),
        "task": task,
        "plan": _inline_plan(plan),
        "clients": _clients(ids, **overrides),
        "eval": {"per_class": 1000, "scenario": eval_mix, "seed": 990001},
    }


def overlap_60(window: int = 5, seed: int = 0) -> dict:
    """60 clients over 60 shards; window=5 overlapping vs window=1 disjoint."""
    ids = [client_name(i) for i in range(1, 61)]
    return {
        "schema_version": 1,
        "strategy": "fedavg",
        "rounds": 10,
        "master_seed": seed,
        "train": dict(_TRAIN),
        "task": dict(_TASK),
        "plan": {
            "overlap": {
                "n_clients": 60,
                "window": window,
                "per_partition_counts": [6] * 8,
            }
        },
        "clients": _clients(ids),
        "eval": dict(_EVAL),
    }


def hetero_resolution(upgrade: str = "C1", resolution: int = 960, seed: int = 0) -> dict:
    """4-client class-skew plan with one client at a different resolution.

    Per-client feature domains (share-weighted at evaluation) make the
    benefit of upgrading a client scale with how much data it holds.
    """
    ids = [client_name(i) for i in range(1, 5)]
    if upgrade not in ids:
        raise ConfigError(f"unknown client {upgrade!r}")
    tags, mixes, eval_mix = _client_domains(builtin_plan("kitti-4").scaled(16))
    overrides = {cid: {"scenario_mix": mixes[cid]} for cid in ids}
    overrides[upgrade]["resolution"] = resolution
    if resolution >= 960:
        # 960px at batch 32 exceeds the default device memory budget; the
        # upgrade includes the smaller accumulation batch used at that size.
        overrides[upgrade]["batch"] = 16
    task = dict(_TASK)
    task["n_features"] = 32
    task["scenario_tags"] = tags
    task["shift_scale"] = 3.0
    return {
        "schema_version": 1,
        "strategy": "fedavg",
        "rounds": 10,
        "master_seed": seed,
        "train": dict(_TRAIN),
        "task": task,
        "plan": {"builtin": "kitti-4", "scale_divisor": 16},
        "clients": _clients(ids, **overrides),
        "eval": {"per_class": 500, "scenario": eval_mix, "seed": 990001},
    }


def lighting_crossdomain(
    train_scenario: str = "night", eval_scenario: str = "day", seed: int = 0
) -> dict:
    """Clients train under one condition; evaluation under another.

    Scenario tags shift the feature distribution, modeling the domain gap
    between lighting/weather conditions.
    """
    tags = ("day", "night", "snowy")
    for tag in (train_scenario, eval_scenario):
        if tag not in tags:
            raise ConfigError(f"scenario must be one of {tags}, got {tag!r}")
    ids = [client_name(i) for i in range(1, 5)]
    overrides = {cid: {"scenario_mix": {train_scenario: 1.0}} for cid in ids}
    task = dict(_TASK)
    task["n_features"] = 32
    task["scenario_tags"] = list(tags)
    task["shift_scale"] = 3.0
    return {
        "schema_version": 1,
        "strategy": "fedavg",
        "rounds": 10,
        "master_seed": seed,
        "train": dict(_TRAIN),
        "task": task,
        "plan": {"builtin": "kitti-4", "scale_divisor": 16},
        "clients": _clients(ids, **overrides),
        "eval": {"per_class": 500, "scenario": eval_scenario, "seed": 990001},
    }


def scale_800(seed: int = 0) -> dict:
    """800-client smoke test with tiny per-client data."""
    n = 800
    ids = [client_name(i) for i in range(1, n + 1)]
    counts = [[2] * 8 for _ in ids]
    plan = {
        "inline": {
            "client_ids": ids,
            "class_names": [f"class{j}" for j in range(8)],
            "counts": counts,
        }
    }
    return {
        "schema_version": 1,
        "strategy": "fedavg",
        "rounds": 3,
        "master_seed": seed,
        "train": {"local_epochs": 1, "batch_size": 16, "learning_rate": 0.05},
        "task": dict(_TASK),
        "plan": plan,
        "clients": _clients(ids),
        "eval": {"per_class": 100},
    }


SCENARIOS = {
    "kitti-sync": (kitti_sync, "4-client class-skew FedAvg convergence study"),
    "bdd-dropout-dual": (bdd_dropout_dual, "8-client skew with a client pair absent every round"),
    "bdd-async-hetero": (bdd_async_hetero, "async vs sync under 4:1 speed heterogeneity"),
    "overlap-60": (overlap_60, "60 clients, window-5 overlapping shards (window=1 for disjoint)"),
    "hetero-resolution": (hetero_resolution, "one client at a different capture resolution"),
    "lighting-crossdomain": (lighting_crossdomain, "train one lighting condition, test another"),
    "scale-800": (scale_800, "800-client scalability smoke test"),
}


def scenario_config(name: str, seed: int = 0, **kwargs):
    try:
        builder, _ = SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        ) from None
    return config_from_dict(builder(seed=seed, **kwargs))
