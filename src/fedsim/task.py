"""Desk-scale synthetic learning task.

A multinomial logistic model over Gaussian class clusters stands in for the
heavy local detector training, so aggregation, heterogeneity and drift
effects stay observable and cheaply verifiable.

Parameter vectors are flat float64 arrays laid out as the row-major C x d
weight matrix followed by the C biases.

Client datasets have one generator, `generate_datasets`, which draws a
group of same-shaped datasets into one block with each client's noise from
its own key; `generate_dataset` is a group of one.

Local SGD has one kernel, `train_cohort`, which trains many clients from
the same starting point with a leading client axis on every array and then
computes each client's final full-dataset loss in one more stacked pass;
`local_train` is a cohort of one.  `loss_and_gradient` (one batch, or a
whole dataset for the final loss) is the reference the kernel reproduces
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import streams
from .errors import ConfigError, SimulationError
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
        means = np.asarray(self.class_means, dtype=np.float64)
        if means.shape != (self.n_classes, self.n_features):
            raise ConfigError(
                f"class_means shape {means.shape} does not match "
                f"({self.n_classes}, {self.n_features})"
            )
        object.__setattr__(self, "class_means", means)
        if self.noise_sigma < 0:
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
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be nonnegative")
        if self.prox_mu < 0:
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
    for tag in scenario_mix:
        if tag not in task.scenario_shifts:
            raise ConfigError(f"unknown scenario tag {tag!r}")
    mix_total = sum(scenario_mix.values())
    if abs(mix_total - 1.0) > 1e-9:
        raise ConfigError(f"scenario_mix fractions sum to {mix_total}, expected 1")

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
# features and 8 classes.
COHORT_SAMPLES = 4096


def local_train(
    w0: np.ndarray,
    data: LocalDataset,
    seed,
    cfg: TrainConfig,
) -> tuple[np.ndarray, int, float]:
    """Minibatch SGD (optionally proximal) from w0 for one client.

    A cohort of one: see `train_cohort` for the procedure.  Returns
    (updated params, sample count, final full-dataset loss).
    """
    return train_cohort(w0, [data], [seed], cfg)[0]


def train_cohort(
    w0: np.ndarray,
    datasets: list[LocalDataset],
    seeds: list[int],
    cfg: TrainConfig,
) -> list[tuple[np.ndarray, int, float]]:
    """Minibatch SGD (optionally proximal) from w0 for several clients.

    Each client runs the plain procedure on its own: one shuffle
    permutation per epoch, drawn from a generator keyed (seed, epoch);
    batches are consecutive slices of the permutation; every batch steps
    w -= learning_rate * gradient, with the gradient `loss_and_gradient`
    gives for the batch, anchored at w0.

    Clients with equal sample counts share batch boundaries, so they are
    trained together in chunks of at most `COHORT_SAMPLES` samples, every
    operation carrying a leading client axis; all clients' permutation keys
    are derived before that in one `streams.derive` batch, which a small
    chunk could not pay for.  Each element goes through the same
    floating-point operations as the one-client loop, so the results are
    bit-identical to it.  Returns (updated params, sample
    count, final full-dataset loss) per client, in input order.  The loss
    is computed by the kernel too, in one stacked pass per chunk, and
    equals `loss_and_gradient` over the whole dataset, anchored at w0, bit
    for bit.  Training that leaves any parameter non-finite raises
    `SimulationError`, so every returned parameter vector is finite.
    """
    if len(datasets) != len(seeds):
        raise ValueError("need one seed per dataset")
    anchor = np.asarray(w0, dtype=np.float64)
    e = cfg.local_epochs
    keys = streams.derive([s for s in seeds for _ in range(e)], list(range(e)) * len(seeds))
    groups: dict[int, list[int]] = {}
    for i, data in enumerate(datasets):
        if len(data) == 0:
            raise ValueError("cannot train on an empty dataset")
        groups.setdefault(len(data), []).append(i)
    results: list = [None] * len(datasets)
    for n, members in groups.items():
        per_chunk = max(1, COHORT_SAMPLES // n)
        for lo in range(0, len(members), per_chunk):
            chunk = members[lo : lo + per_chunk]
            params, losses = _sgd_chunk(
                anchor, [datasets[i] for i in chunk], [keys[i * e : i * e + e] for i in chunk], cfg
            )
            for i, w, loss in zip(chunk, params, losses):
                results[i] = (w, n, loss)
    return results


def _sgd_chunk(
    anchor: np.ndarray,
    datasets: list[LocalDataset],
    keys: list[list],
    cfg: TrainConfig,
) -> tuple[np.ndarray, list[float]]:
    """SGD for K clients of n samples each, given each client's permutation
    key per epoch; returns their params, (K, P), and final full-dataset losses.

    Each batch step is the elementwise arithmetic of `loss_and_gradient`
    followed by w -= lr * grad, over a client axis and partly in place,
    which rounds the same.  The label term is subtracted as a one-hot
    block: p - 1.0 and p - 0.0 round exactly like the in-place p -= 1.0
    on the label entry, and a sum divided by m is what a mean computes.
    """
    n_clients, n = len(datasets), len(datasets[0])
    n_features = datasets[0].features.shape[1]
    n_classes = anchor.size // (n_features + 1)
    split = n_features * n_classes
    W0, b0 = unpack_params(anchor, n_features, n_classes)
    params = np.tile(anchor, (n_clients, 1))
    W = params[:, :split].reshape(n_clients, n_classes, n_features)
    b = params[:, split:]
    W_t, b_row = W.transpose(0, 2, 1), b[:, None, :]
    mu, lr = cfg.prox_mu, cfg.learning_rate
    x_all = np.empty((n_clients, n, n_features))
    y_all = np.empty((n_clients, n), dtype=np.int64)
    onehot = np.empty((n_clients, n, n_classes))
    clients, rows = np.arange(n_clients)[:, None], np.arange(n)
    for epoch in range(cfg.local_epochs):
        for k, (data, client_keys) in enumerate(zip(datasets, keys)):
            perm = np.random.default_rng(client_keys[epoch]).permutation(n)
            np.take(data.features, perm, axis=0, out=x_all[k])
            np.take(data.labels, perm, out=y_all[k])
        onehot.fill(0.0)
        onehot[clients, rows, y_all] = 1.0
        for start in range(0, n, cfg.batch_size):
            x = x_all[:, start : start + cfg.batch_size]
            m = x.shape[1]
            delta = x @ W_t
            delta += b_row
            delta -= delta.max(axis=2, keepdims=True)
            np.exp(delta, out=delta)
            delta /= delta.sum(axis=2, keepdims=True)
            delta -= onehot[:, start : start + m]
            grad_W = delta.transpose(0, 2, 1) @ x
            grad_W /= m
            grad_W += mu * (W - W0)
            grad_b = delta.sum(axis=1)
            grad_b /= m
            grad_b += mu * (b - b0)
            grad_W *= lr
            W -= grad_W
            grad_b *= lr
            b -= grad_b
    if not np.all(np.isfinite(params)):
        raise SimulationError("non-finite parameters after local training")

    # Final loss: the loss half of `loss_and_gradient` over each client's
    # whole dataset in its original order, the same operations over the
    # client axis.  The proximal term stays one dot product per client: a
    # reduction over the stacked differences would round differently.
    for k, data in enumerate(datasets):
        x_all[k] = data.features
        y_all[k] = data.labels
    probs = np.matmul(x_all, W_t, out=onehot)
    probs += b_row
    probs -= probs.max(axis=2, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=2, keepdims=True)
    ce = -np.mean(np.log(probs[clients, rows, y_all]), axis=1)
    losses = []
    for k in range(n_clients):
        diff = params[k] - anchor
        losses.append(float(ce[k] + 0.5 * mu * float(diff @ diff)))
    return params, losses


def predict(w: np.ndarray, features: np.ndarray, n_classes: int) -> np.ndarray:
    W, b = unpack_params(w, features.shape[1], n_classes)
    scores = features @ W.T + b
    # np.argmax breaks ties toward the lowest class index.
    return np.argmax(scores, axis=1)


def evaluate(w: np.ndarray, data: LocalDataset) -> float:
    """Fraction of samples whose argmax class score matches the label."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    n_features = data.features.shape[1]
    n_classes = np.asarray(w).size // (n_features + 1)
    pred = predict(np.asarray(w, dtype=np.float64), data.features, n_classes)
    return float(np.mean(pred == data.labels))
