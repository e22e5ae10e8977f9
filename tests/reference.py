"""Reference computations the tests compare the simulator's kernels with."""

import dataclasses
import json

import numpy as np

from fedsim.metrics import MetricsRecord
from fedsim.task import LocalDataset, loss_and_gradient


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
