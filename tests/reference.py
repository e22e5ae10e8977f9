"""Reference computations the tests compare the simulator's kernels with."""

import dataclasses
import heapq
import json

import numpy as np

from fedsim import orchestrator
from fedsim.aggregate import ClientUpdate, fedasync_update
from fedsim.errors import SimulationError
from fedsim.metrics import MetricsRecord
from fedsim.task import LocalDataset, local_train, loss_and_gradient, zero_params


def dataset_loss(w: np.ndarray, data: LocalDataset, w_anchor=None, mu: float = 0.0) -> float:
    """`loss_and_gradient`'s loss over the whole dataset (anchored at w
    itself unless `w_anchor` is given)."""
    if w_anchor is None:
        w_anchor = w
    loss, _ = loss_and_gradient(w, data, np.arange(len(data)), w_anchor, mu)
    return loss


def reference_line(run_id: str, round_idx: int, event: str, **fields) -> str:
    """A record's log line as `json.dumps` writes it: every record key in
    field order, each absent one at its default."""
    doc = {f.name: f.default for f in dataclasses.fields(MetricsRecord)}
    doc.update(run_id=run_id, round=round_idx, event=event, **fields)
    return json.dumps(doc) + "\n"


def async_one_at_a_time(cfg, sink) -> None:
    """`run_async` as one loop that trains each application with
    `local_train` as it pops off the event heap: the reference whose
    records and errors the scheduled, batched executor reproduces."""
    ctx = orchestrator._Run(cfg, sink, "run_async", ("fedasync",))
    budget = cfg.async_cfg.applications or cfg.rounds * cfg.n_clients
    eval_every = cfg.async_cfg.eval_every or cfg.n_clients
    for cid in ctx.entries:
        if cid not in ctx.durations:
            ctx.write("oom", 0, *ctx.oom(cid))
    w = zero_params(cfg.task.n_features, cfg.task.n_classes)
    version = evals = 0
    fetched = dict.fromkeys(ctx.durations, (0, w))
    attempts = dict.fromkeys(ctx.durations, 0)
    heap = [(d, cid) for cid, d in ctx.durations.items()]
    heapq.heapify(heap)
    while version < budget:
        clock, cid = heapq.heappop(heap)
        duration = ctx.durations[cid]
        heapq.heappush(heap, (clock + duration, cid))
        attempt = attempts[cid] = attempts[cid] + 1
        if not ctx.presence.is_present(cid, attempt):
            ctx.write("dropout", attempt, cid, clock, clock)
            if all(map(ctx.presence.absorbed, ctx.durations)):
                raise SimulationError(
                    f"every client is permanently absent after {version} of "
                    f"{budget} applications; the run cannot finish"
                )
            continue
        base, model = fetched[cid]
        seed = int(np.random.SeedSequence([cfg.master_seed, orchestrator._TRAIN, attempt,
                                           orchestrator._cid_key(cid)]).generate_state(1)[0])
        w_new, n, loss = local_train(model, ctx.datasets[cid], seed, cfg.train)
        rng = np.random.default_rng(np.random.SeedSequence(
            [cfg.master_seed, orchestrator._POWER, attempt, orchestrator._cid_key(cid)]))
        entry = ctx.entries[cid]
        power = float(rng.uniform(*entry.power_w_range))
        util = float(rng.uniform(*entry.util_pct_range))
        ctx.train_window(attempt, cid, clock - duration, clock, n, loss, power, util)
        staleness = version - base
        w = fedasync_update(w, ClientUpdate(cid, w_new, n), staleness, cfg.async_cfg)
        version += 1
        ctx.write("aggregate", attempt, cid, clock, clock, None, None, None, n, staleness, False)
        if version % eval_every == 0 or version == budget:
            evals += 1
            ctx.evaluate(evals, w, clock)
        fetched[cid] = (version, w)
