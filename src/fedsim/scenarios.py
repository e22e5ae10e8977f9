"""Built-in experiment scenarios.

Each builder returns a plain config dict (the JSON schema of
``config.load_config``), so every study is one reproducible file: the
published class-skew plans at desk scale, dual-client dropout, the
60-client overlapping-window comparison, resolution heterogeneity, and
lighting cross-domain shifts.  A builder states only what sets its study
apart; every other field takes its config default, and each call returns
fresh dicts that a caller may edit.
"""

from __future__ import annotations

from .config import config_from_dict
from .errors import ConfigError
from .partition import builtin_plan, client_name, fraction_split

# Desk-scale settings: noisy enough that data volume and quality matter,
# a learning rate low enough that 10 rounds stay in the converging regime,
# and small enough that a study runs in seconds.
_TASK = {"n_classes": 8, "n_features": 16, "noise_sigma": 2.0}
_TRAIN = {"learning_rate": 0.01}
_KITTI = {"builtin": "kitti-4", "scale_divisor": 16}


def _ids(n: int) -> list[str]:
    return [client_name(i) for i in range(1, n + 1)]


def _doc(seed: int, clients: list[dict], plan: dict = _KITTI, task: dict = _TASK,
         strategy: str = "fedavg", **fields) -> dict:
    """A scenario document: the desk-scale training settings, the study's
    task, plan and clients, and any further top-level `fields`."""
    return {"strategy": strategy, "master_seed": seed, "train": dict(_TRAIN),
            "task": dict(task), "plan": dict(plan), "clients": clients, **fields}


def _clients(ids, *settings: dict) -> list[dict]:
    """One dict per client id, holding what each settings map (client id ->
    fields) gives that client; a map naming an unknown client is an error."""
    unknown = set().union(*settings) - set(ids)
    if unknown:
        raise ConfigError(f"unknown client(s) {sorted(unknown)}")
    out = []
    for cid in ids:
        spec = {"client_id": cid}
        for fields in settings:
            spec.update(fields.get(cid, {}))
        out.append(spec)
    return out


def _domain_task(tags, n_classes: int = 8) -> dict:
    """The desk-scale task with a feature shift per scenario tag."""
    return {**_TASK, "n_classes": n_classes, "n_features": 32,
            "scenario_tags": list(tags), "shift_scale": 3.0}


def _client_domains(plan, n_classes: int = 8):
    """Per-client feature domains weighted by data share.

    Each client of the plan gets its own scenario tag.  Returns the task
    defining those tags, each client's `scenario_mix` setting, and the eval
    mixture, which weights every domain by that client's share of the pool,
    so losing or degrading a large client costs proportionally more.
    """
    ids = plan.client_ids
    tags = [f"domain-{cid}" for cid in ids]
    totals = [plan.client_total(cid) for cid in ids]
    pool = sum(totals)
    eval_mix = {tag: n / pool for tag, n in zip(tags, totals)}
    # Exact unit sum for the validator.
    eval_mix[tags[0]] += 1.0 - sum(eval_mix.values())
    mixes = {cid: {"scenario_mix": {tag: 1.0}} for cid, tag in zip(ids, tags)}
    return _domain_task(tags, n_classes), mixes, eval_mix


# Eight-client size skew in the style of the BDD deployment, softened so
# the two smallest clients still hold a measurable slice of the pool (the
# verbatim counts leave C7+C8 under 2%, below what a 10-round desk-scale
# run can resolve).
_BDD_STYLE_FRACTIONS = (0.27, 0.20, 0.15, 0.11, 0.10, 0.08, 0.05, 0.04)


def _bdd_study(seed: int, settings: dict, strategy: str = "fedavg") -> dict:
    """The BDD-style pool over nine classes, each client in its own domain,
    with `settings` (client id -> fields) on top."""
    plan = fraction_split({f"class{j}": 300 for j in range(9)}, _BDD_STYLE_FRACTIONS)
    task, mixes, eval_mix = _client_domains(plan, n_classes=9)
    inline = {
        "client_ids": list(plan.client_ids),
        "class_names": list(plan.class_names),
        "counts": [list(plan.row(cid)) for cid in plan.client_ids],
    }
    return _doc(seed, _clients(plan.client_ids, mixes, settings), {"inline": inline}, task,
                strategy, eval={"per_class": 1000, "scenario": eval_mix})


def kitti_sync(seed: int = 0, strategy: str = "fedavg") -> dict:
    """4-client class-skew study; convergence over 10 synchronous rounds."""
    return _doc(seed, _clients(_ids(4)), strategy=strategy)


def bdd_dropout_dual(pair=("C1", "C2"), seed: int = 0) -> dict:
    """8-client heavy-skew study with one client pair absent every round.

    Clients own distinct feature domains weighted by data share, so the
    cost of an absent pair tracks how much of the deployment distribution
    it held.
    """
    return _bdd_study(seed, {
        cid: {"dropout": {"mode": "absent_rounds", "rounds": list(range(1, 11))}}
        for cid in pair
    })


def bdd_async_hetero(seed: int = 0, strategy: str = "fedasync") -> dict:
    """Skewed 8-client pool with 4:1 speed heterogeneity.

    The small-data clients are the fast ones, so asynchronous aggregation
    over-represents their domains; run with strategy="fedavg" for the
    matched synchronous baseline at the same application budget.
    """
    fast = {cid: {"device": {"speed_factor": 4.0}} for cid in ("C5", "C6", "C7", "C8")}
    return _bdd_study(seed, fast, strategy)


def overlap_60(window: int = 5, seed: int = 0) -> dict:
    """60 clients over 60 shards; window=5 overlapping vs window=1 disjoint."""
    plan = {"overlap": {"n_clients": 60, "window": window, "per_partition_counts": [6] * 8}}
    return _doc(seed, _clients(_ids(60)), plan)


def hetero_resolution(upgrade: str = "C1", resolution: int = 960, seed: int = 0) -> dict:
    """4-client class-skew plan with one client at a different resolution.

    Per-client feature domains (share-weighted at evaluation) make the
    benefit of upgrading a client scale with how much data it holds.
    """
    plan = builtin_plan(_KITTI["builtin"]).scaled(_KITTI["scale_divisor"])
    task, mixes, eval_mix = _client_domains(plan)
    upgraded = {"resolution": resolution}
    if resolution >= 960:
        # 960px at batch 32 exceeds the default device memory budget; the
        # upgrade includes the smaller accumulation batch used at that size.
        upgraded["batch"] = 16
    clients = _clients(plan.client_ids, mixes, {upgrade: upgraded})
    return _doc(seed, clients, task=task, eval={"scenario": eval_mix})


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
    ids = _ids(4)
    clients = _clients(ids, {cid: {"scenario_mix": {train_scenario: 1.0}} for cid in ids})
    return _doc(seed, clients, task=_domain_task(tags), eval={"scenario": eval_scenario})


def scale_800(seed: int = 0) -> dict:
    """800-client smoke test with tiny per-client data."""
    ids = _ids(800)
    inline = {
        "client_ids": ids,
        "class_names": [f"class{j}" for j in range(8)],
        "counts": [[2] * 8 for _ in ids],
    }
    return _doc(seed, _clients(ids), {"inline": inline}, rounds=3,
                train={"local_epochs": 1, "batch_size": 16}, eval={"per_class": 100})


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
