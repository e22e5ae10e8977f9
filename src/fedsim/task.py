"""Desk-scale synthetic learning task.

A multinomial logistic model over Gaussian class clusters stands in for the
heavy local detector training, so aggregation, heterogeneity and drift
effects stay observable and cheaply verifiable.

Parameter vectors are flat float64 arrays laid out as the row-major C x d
weight matrix followed by the C biases.

Client datasets have one generator, `generate_datasets`, which draws a
group of same-shaped datasets into one block with each client's noise from
its own key; `generate_dataset` is a group of one.

Local SGD has one kernel, `train_cohort`, which trains many clients with a
leading client axis on every array, from one shared starting point or one
per client.  Clients of different sizes share a ragged stack, largest
first and padded to the largest: each batch step runs over the clients
that still hold a batch of its length.  The kernel then computes each
client's final full-dataset loss, one stacked pass per distinct size;
`local_train` is a cohort of one.  `loss_and_gradient` (one batch, or a
whole dataset for the final loss) is the reference the kernel reproduces
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import groupby

import numpy as np

from . import streams
from .errors import ConfigError
from .partition import largest_remainder

REFERENCE_SCENARIO = "reference"


def param_length(n_features: int, n_classes: int) -> int:
    return n_features * n_classes + n_classes


def zero_params(n_features: int, n_classes: int) -> np.ndarray:
    return np.zeros(param_length(n_features, n_classes), dtype=np.float64)


def unpack_params(w: np.ndarray, n_features: int, n_classes: int):
    """Split a flat parameter vector into (weights C x d, biases C)."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (param_length(n_features, n_classes),):
        raise ValueError(
            f"parameter vector has length {w.size}, "
            f"expected {param_length(n_features, n_classes)}"
        )
    split = n_features * n_classes
    return w[:split].reshape(n_classes, n_features), w[split:]


@dataclass(frozen=True)
class SyntheticTask:
    """Gaussian-cluster classification task with optional scenario shifts.

    ``scenario_shifts`` maps a scenario tag to a feature-space offset added
    to every sample drawn under that tag; the reference scenario must be
    present with a zero offset.
    """

    n_classes: int
    n_features: int
    class_means: np.ndarray  # (n_classes, n_features)
    noise_sigma: float = 1.0
    scenario_shifts: dict[str, np.ndarray] = field(
        default_factory=lambda: {REFERENCE_SCENARIO: None}
    )

    def __post_init__(self):
        if self.n_classes < 1:
            raise ConfigError("n_classes must be >= 1")
        if self.n_features < 1:
            raise ConfigError("n_features must be >= 1")
        means = np.asarray(self.class_means, dtype=np.float64)
        if means.shape != (self.n_classes, self.n_features):
            raise ConfigError(
                f"class_means shape {means.shape} does not match "
                f"({self.n_classes}, {self.n_features})"
            )
        object.__setattr__(self, "class_means", means)
        if not self.noise_sigma >= 0:  # NaN fails it too
            raise ConfigError("noise_sigma must be nonnegative")
        shifts = {}
        for tag, vec in self.scenario_shifts.items():
            if vec is None:
                vec = np.zeros(self.n_features)
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (self.n_features,):
                raise ConfigError(f"scenario shift {tag!r} has wrong length")
            shifts[tag] = vec
        if REFERENCE_SCENARIO not in shifts:
            shifts[REFERENCE_SCENARIO] = np.zeros(self.n_features)
        if np.any(shifts[REFERENCE_SCENARIO] != 0.0):
            raise ConfigError("reference scenario shift must be zero")
        object.__setattr__(self, "scenario_shifts", shifts)

    def check_mix(self, mix: dict[str, float], owner: str) -> None:
        """Refuse a scenario mix with a tag this task lacks, or whose
        fractions do not sum to 1; `owner` names the mix in the error."""
        for tag in mix:
            if tag not in self.scenario_shifts:
                raise ConfigError(f"{owner} names unknown scenario tag {tag!r}")
        total = sum(mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"{owner} sums to {total}, expected 1")

    def with_noise_scale(self, factor: float) -> "SyntheticTask":
        return SyntheticTask(
            n_classes=self.n_classes,
            n_features=self.n_features,
            class_means=self.class_means,
            noise_sigma=self.noise_sigma * factor,
            scenario_shifts=dict(self.scenario_shifts),
        )


def default_task(
    n_classes: int = 8,
    n_features: int = 16,
    noise_sigma: float = SyntheticTask.noise_sigma,
    means_seed: int = 20240601,
    scenario_tags: tuple[str, ...] = (),
    shift_scale: float = 2.0,
) -> SyntheticTask:
    """Default task: class means drawn once from a seeded unit Gaussian.

    Extra scenario tags get frozen Gaussian feature offsets of magnitude
    ``shift_scale`` per dimension, derived from the same seed.
    """
    for name, value, low in (("n_classes", n_classes, 1), ("n_features", n_features, 1),
                             ("means_seed", means_seed, 0)):
        if value < low:  # before the draws, which would refuse it in numpy's words
            raise ConfigError(f"{name} must be >= {low}, got {value}")
    rng = np.random.default_rng(np.random.SeedSequence([means_seed, n_classes, n_features]))
    means = rng.standard_normal((n_classes, n_features))
    shifts: dict[str, np.ndarray | None] = {REFERENCE_SCENARIO: None}
    for i, tag in enumerate(scenario_tags):
        tag_rng = np.random.default_rng(
            np.random.SeedSequence([means_seed, 7919, i])
        )
        shifts[tag] = shift_scale * tag_rng.standard_normal(n_features)
    return SyntheticTask(
        n_classes=n_classes,
        n_features=n_features,
        class_means=means,
        noise_sigma=noise_sigma,
        scenario_shifts=shifts,
    )


@dataclass(frozen=True)
class LocalDataset:
    """One client's samples: features, integer labels, scenario tags."""

    client_id: str
    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) int
    scenarios: tuple[str, ...]

    def __len__(self) -> int:
        return self.features.shape[0]

    @staticmethod
    def concat(client_id: str, parts: list["LocalDataset"]) -> "LocalDataset":
        feats = np.concatenate([p.features for p in parts], axis=0)
        labels = np.concatenate([p.labels for p in parts], axis=0)
        scen: tuple[str, ...] = ()
        for p in parts:
            scen = scen + p.scenarios
        return LocalDataset(client_id, feats, labels, scen)


@dataclass(frozen=True)
class TrainConfig:
    local_epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 0.05
    prox_mu: float = 0.0

    def __post_init__(self):
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        # Written so that NaN fails them too.
        if not self.learning_rate >= 0:
            raise ConfigError("learning_rate must be nonnegative")
        if not self.prox_mu >= 0:
            raise ConfigError("prox_mu must be nonnegative")


def generate_dataset(
    task: SyntheticTask,
    plan_row,
    scenario_mix: dict[str, float] | None,
    seed,
    client_id: str = "",
) -> LocalDataset:
    """Draw one client dataset: a group of one, see `generate_datasets`."""
    return generate_datasets(task, plan_row, scenario_mix, [seed], [client_id])[0]


def generate_datasets(
    task: SyntheticTask,
    plan_row,
    scenario_mix: dict[str, float] | None,
    seeds,
    client_ids,
) -> list[LocalDataset]:
    """Draw one dataset per seed, all with the same exact per-class counts.

    Features are class_mean + scenario shift + sigma * N(0, I).  Each draw
    is a pure function of (task, plan_row, scenario_mix, seed); samples are
    laid out class-major, scenario tags in sorted order within each class.

    Client k's noise is one (n, d) standard-normal draw from
    ``default_rng(seeds[k])`` into row k of a (G, n, d) block; the block is
    then scaled in place by sigma, and each (class, tag) segment's centre is
    added in place to its rows of every client at once.  That equals one
    draw and one centre per segment and client bit for bit: the generator
    fills values in sequence, so one draw is the segments' draws laid end
    to end, and centre + s*z == s*z + centre in IEEE arithmetic.  The
    clients share one labels array and one scenario tuple; features and
    labels are read-only views.
    """
    counts = [int(c) for c in plan_row]
    if len(counts) != task.n_classes:
        raise ConfigError(
            f"plan row length {len(counts)} != n_classes {task.n_classes}"
        )
    if any(c < 0 for c in counts):
        raise ConfigError("per-class counts must be nonnegative")
    if len(seeds) != len(client_ids):
        raise ValueError("need one seed per client")
    if scenario_mix is None:
        scenario_mix = {REFERENCE_SCENARIO: 1.0}
    task.check_mix(scenario_mix, "dataset scenario_mix")

    tags = sorted(scenario_mix)
    fracs = [scenario_mix[t] for t in tags]
    whole = fracs == [1.0]  # one tag takes each class count whole, as the split would
    segments = [
        (cls, tag, n_tag)
        for cls, count in enumerate(counts)
        for tag, n_tag in zip(tags, [count] if whole else largest_remainder(count, fracs))
        if n_tag
    ]
    sizes = [n_tag for _, _, n_tag in segments]
    block = np.empty((len(seeds), sum(sizes), task.n_features))
    for k, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=block[k])
    block *= task.noise_sigma
    start = 0
    for cls, tag, n_tag in segments:
        block[:, start : start + n_tag] += task.class_means[cls] + task.scenario_shifts[tag]
        start += n_tag
    labels = np.repeat(np.array([cls for cls, _, _ in segments], dtype=np.int64), sizes)
    block.flags.writeable = labels.flags.writeable = False
    scen = tuple(tag for _, tag, n_tag in segments for _ in range(n_tag))
    return [
        LocalDataset(cid, features, labels, scen) for cid, features in zip(client_ids, block)
    ]


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_gradient(
    w: np.ndarray,
    data: LocalDataset,
    indices,
    w_anchor: np.ndarray,
    mu: float,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch plus (mu/2) ||w - w_anchor||^2.

    Returns the loss and its analytic gradient with respect to w.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty batch")
    n_features = data.features.shape[1]
    # d*C + C = len(w) determines C for a known d.
    n_classes = w.size // (n_features + 1)
    W, b = unpack_params(w, n_features, n_classes)
    if w_anchor.shape != w.shape:
        raise ValueError("w and w_anchor must have the same length")

    x = data.features[idx]
    y = data.labels[idx]
    scores = x @ W.T + b
    probs = _softmax(scores)
    n = idx.size
    ce = -np.mean(np.log(probs[np.arange(n), y]))
    diff = np.asarray(w, dtype=np.float64) - np.asarray(w_anchor, dtype=np.float64)
    loss = ce + 0.5 * mu * float(diff @ diff)

    delta = probs
    delta[np.arange(n), y] -= 1.0
    grad_w = (delta.T @ x) / n
    grad_b = delta.mean(axis=0)
    grad = np.concatenate([grad_w.ravel(), grad_b]) + mu * diff
    return float(loss), grad


# Samples trained together in one stacked chunk of `train_cohort`: bounds
# the per-epoch feature, label and one-hot copies to about 0.8 MiB at 16
# features and 8 classes, and the stacked samples (`STACKED_GATHER_SAMPLES`)
# to about 0.5 MiB more.
COHORT_SAMPLES = 4096
# Clients of one size holding fewer samples than this each are gathered in
# one `take` per epoch from a stack of their samples.  A larger client's own
# take costs little next to its batch steps, and stacking it would copy its
# samples once more for nothing.
STACKED_GATHER_SAMPLES = 64
# From this many rows per class on, a class-axis max runs as one `np.maximum`
# per class slice; `.max(axis=2)`, whose cost grows with the rows, is faster below.
SLICED_MAX_ROWS_PER_CLASS = 16


def local_train(
    w0: np.ndarray,
    data: LocalDataset,
    seed,
    cfg: TrainConfig,
) -> tuple[np.ndarray, int, float]:
    """Minibatch SGD (optionally proximal) from w0 for one client.

    A cohort of one: see `train_cohort` for the procedure.  Returns
    (updated params, sample count, final full-dataset loss), the params
    None if training diverged.
    """
    return train_cohort(w0, [data], [seed], cfg)[0]


def train_cohort(
    w0: np.ndarray,
    datasets: list[LocalDataset],
    seeds: list[int],
    cfg: TrainConfig,
) -> list[tuple[np.ndarray, int, float]]:
    """Minibatch SGD (optionally proximal) for several clients at once.

    `w0` is one (P,) starting point that every client shares, or a (K, P)
    array with one per client; each client starts from and is anchored at
    its own.  Each client runs the plain procedure on its own: one shuffle
    permutation per epoch, drawn from a generator keyed (seed, epoch);
    batches are consecutive slices of the permutation; every batch steps
    w -= learning_rate * gradient, with the gradient `loss_and_gradient`
    gives for the batch, anchored at the client's starting point.

    Clients of any sizes are trained together in ragged stacks
    (`_sgd_chunk`): largest first, each chunk bounded by its padded size,
    clients times its largest sample count, at `COHORT_SAMPLES`; every
    operation carries a leading client axis.  All clients' permutation
    keys are derived before that in one `streams.derive` batch, which a
    small chunk could not pay for.  Each element goes through the same
    floating-point operations as the one-client loop, so the results are
    bit-identical to it.  Returns (updated params, sample count, final
    full-dataset loss) per client, in input order.  The loss is computed
    by the kernel too, and equals `loss_and_gradient` over the whole
    dataset, anchored at the client's starting point, bit for bit.
    A client whose training leaves any parameter non-finite has diverged:
    its params are None, so every returned parameter vector is finite.
    """
    if len(datasets) != len(seeds):
        raise ValueError("need one seed per dataset")
    anchors = np.asarray(w0, dtype=np.float64)
    if anchors.ndim == 2 and len(anchors) != len(datasets):
        raise ValueError("need one starting point per dataset, or one for all")
    sizes = [len(data) for data in datasets]
    if 0 in sizes:
        raise ValueError("cannot train on an empty dataset")
    e = cfg.local_epochs
    keys = streams.derive([s for s in seeds for _ in range(e)], list(range(e)) * len(seeds))
    order = sorted(range(len(datasets)), key=sizes.__getitem__, reverse=True)
    results: list = [None] * len(datasets)
    lo = 0
    while lo < len(order):
        chunk = order[lo : lo + max(1, COHORT_SAMPLES // sizes[order[lo]])]
        lo += len(chunk)
        params, losses = _sgd_chunk(
            anchors if anchors.ndim == 1 else anchors[chunk],
            [datasets[i] for i in chunk], [keys[i * e : i * e + e] for i in chunk], cfg,
        )
        for i, w, finite, loss in zip(chunk, params, np.isfinite(params).all(axis=1), losses):
            results[i] = (w if finite else None, sizes[i], loss)
    return results


def _class_max(scores: np.ndarray) -> np.ndarray:
    """Max over the class axis of a (K, m, C) block, as a (K, m, 1) block."""
    if scores.shape[0] * scores.shape[1] < SLICED_MAX_ROWS_PER_CLASS * scores.shape[2]:
        return scores.max(axis=2, keepdims=True)
    return reduce(np.maximum, scores.transpose(2, 0, 1))[..., None]


def _sgd_chunk(
    anchor: np.ndarray,
    datasets: list[LocalDataset],
    keys: list[list],
    cfg: TrainConfig,
) -> tuple[np.ndarray, list[float]]:
    """SGD for K clients ordered largest first, given each client's
    permutation key per epoch and the anchor, one (P,) row shared by all or
    a (K, P) block; returns their params, (K, P), and final full-dataset
    losses.

    The feature, label and one-hot buffers are padded to the largest n.
    Each epoch fills the feature and label buffers with one `take` per
    size group of small clients, from its members' samples stacked once
    per chunk, each member's permutation offset to its rows of the stack;
    every other client takes from its dataset's own arrays, not copied
    (`STACKED_GATHER_SAMPLES`).  A gather copies values, so it rounds
    nothing.

    Batch step s runs over the prefix of clients that still hold a full
    batch at s; a client's last, shorter batch runs with the clients of
    its own size, the only ones whose tail has its length at that step.
    So every step runs over one contiguous range of clients, and each
    range's views are built once per chunk; a padded row is never read.

    Each batch step is the elementwise arithmetic of `loss_and_gradient`
    followed by w -= lr * grad, over a client axis and partly in place,
    which rounds the same.  The label term is subtracted as a one-hot
    block: p - 1.0 and p - 0.0 round exactly like the in-place p -= 1.0
    on the label entry, and a sum divided by m is what a mean computes.
    The gradient fills one (K, P) buffer laid out like the parameters, so
    dividing by m, adding the proximal term, scaling by lr and stepping run
    once each over weights and biases alike.  The class max (`_class_max`)
    may visit the classes in any order: a max rounds nothing, and a tie of
    -0.0 and +0.0 changes only the sign of a zero that `exp` maps to 1.0.
    """
    sizes = [len(data) for data in datasets]
    n_clients, n_max = len(datasets), sizes[0]
    n_features = datasets[0].features.shape[1]
    n_classes = anchor.shape[-1] // (n_features + 1)
    split = n_features * n_classes
    params = np.tile(anchor, (n_clients, 1)) if anchor.ndim == 1 else anchor.copy()
    grad = np.empty_like(params)
    x_all = np.empty((n_clients, n_max, n_features))
    # Padded labels stay class 0, so the one-hot scatter stays in bounds.
    y_all = np.zeros((n_clients, n_max), dtype=np.int64)
    onehot = np.empty((n_clients, n_max, n_classes))

    @cache
    def views(lo: int, hi: int) -> tuple:
        """Clients lo..hi-1's features, one-hot labels, params, weights as
        (d, C) blocks, bias rows, gradient, its two parts, and anchor."""
        p, g, stacked = params[lo:hi], grad[lo:hi], (hi - lo, n_classes, n_features)
        return (
            x_all[lo:hi], onehot[lo:hi], p, p[:, :split].reshape(stacked).transpose(0, 2, 1),
            p[:, None, split:], g, g[:, :split].reshape(stacked), g[:, split:],
            anchor if anchor.ndim == 1 else anchor[lo:hi],
        )

    groups, lo = [], 0  # (n, lo, hi) per distinct size, largest first
    for n, members in groupby(sizes):
        hi = lo + len(list(members))
        groups.append((n, lo, hi))
        lo = hi
    b, steps = cfg.batch_size, []
    for start in range(0, n_max, b):
        full = max((hi for n, _, hi in groups if n >= start + b), default=0)
        spans = [(start + b, 0, full)] if full else []
        spans += [(n, lo, hi) for n, lo, hi in groups if start < n < start + b]
        steps += [(start, stop, views(lo, hi)) for stop, lo, hi in spans]

    # The gathers, each a range of clients of one size with its (G, n, d)
    # features, (G, n) labels and each member's row offset in them: a size
    # group of small clients is stacked once per chunk; any other client is
    # a gather of its own, whose samples are views of its dataset's arrays.
    gathers = []
    for n, lo, hi in groups:
        if hi - lo > 1 and n < STACKED_GATHER_SAMPLES:
            members = datasets[lo:hi]
            gathers.append((n, lo, hi, np.stack([d.features for d in members]),
                            np.stack([d.labels for d in members]),
                            np.arange(0, (hi - lo) * n, n)[:, None]))
        else:
            gathers += [(n, k, k + 1, datasets[k].features[None], datasets[k].labels[None], 0)
                        for k in range(lo, hi)]

    mu, lr = cfg.prox_mu, cfg.learning_rate
    clients, rows = np.arange(n_clients)[:, None], np.arange(n_max)
    for epoch in range(cfg.local_epochs):
        for n, lo, hi, features, labels, offset in gathers:
            # Each member's permutation, moved to its rows of the flattened
            # samples, indexes one `take`.  "clip" never clips an index in
            # range; unlike "raise", it lets `take` write straight into a
            # contiguous target.
            perms = np.array([np.random.default_rng(k[epoch]).permutation(n)
                              for k in keys[lo:hi]])
            perms += offset
            features.reshape(-1, n_features).take(perms, axis=0, out=x_all[lo:hi, :n],
                                                  mode="clip")
            labels.reshape(-1).take(perms, out=y_all[lo:hi, :n], mode="clip")
        onehot.fill(0.0)
        onehot[clients, rows, y_all] = 1.0
        for start, stop, (xs, hots, p, W_t, b_row, g, g_W, g_b, a) in steps:
            x = xs[:, start:stop]
            delta = x @ W_t
            delta += b_row
            delta -= _class_max(delta)
            np.exp(delta, out=delta)
            delta /= delta.sum(axis=2, keepdims=True)
            delta -= hots[:, start:stop]
            np.matmul(delta.transpose(0, 2, 1), x, out=g_W)
            delta.sum(axis=1, out=g_b)
            g /= stop - start
            g += mu * (p - a)
            g *= lr
            p -= g

    # Final loss, once per distinct size: the loss half of
    # `loss_and_gradient` over each client's whole dataset in its original
    # order, copied back from its gather's samples, the same operations
    # over the client axis.  The proximal term stays one dot product per
    # client: a reduction over the stacked differences would round
    # differently.
    losses: list[float] = []
    for n, lo, hi, features, labels, _ in gathers:
        x_all[lo:hi, :n] = features
        y_all[lo:hi, :n] = labels
    for n, lo, hi in groups:
        xs, hots, p, W_t, b_row, *_, a = views(lo, hi)
        probs = np.matmul(xs[:, :n], W_t, out=hots[:, :n])
        probs += b_row
        probs -= _class_max(probs)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=2, keepdims=True)
        ce = -np.mean(np.log(probs[clients[: hi - lo], rows[:n], y_all[lo:hi, :n]]), axis=1)
        losses += [float(c + 0.5 * mu * float(d @ d)) for c, d in zip(ce, p - a)]
    return params, losses


def predict(w: np.ndarray, features: np.ndarray, n_classes: int) -> np.ndarray:
    W, b = unpack_params(w, features.shape[1], n_classes)
    scores = features @ W.T
    scores += b
    # np.argmax breaks ties toward the lowest class index.
    return np.argmax(scores, axis=1)


def evaluate(w: np.ndarray, data: LocalDataset) -> float:
    """Fraction of samples whose argmax class score matches the label."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    n_classes = np.asarray(w).size // (data.features.shape[1] + 1)
    pred = predict(np.asarray(w, dtype=np.float64), data.features, n_classes)
    return np.count_nonzero(pred == data.labels) / len(data)
