"""Desk-scale synthetic learning task.

A multinomial logistic model over Gaussian class clusters stands in for the
heavy local detector training, so aggregation, heterogeneity and drift
effects stay observable and cheaply verifiable.

Parameter vectors are flat float64 arrays laid out as the row-major C x d
weight matrix followed by the C biases.

Local SGD has one kernel, `train_cohort`, which trains many clients from
the same starting point with a leading client axis on every array;
`local_train` is a cohort of one.  `loss_and_gradient` is the one-batch
reference the kernel reproduces bit for bit; `dataset_loss` uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    noise_sigma: float
    scenario_shifts: dict[str, np.ndarray] = field(
        default_factory=lambda: {REFERENCE_SCENARIO: None}
    )

    def __post_init__(self):
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

    @property
    def param_len(self) -> int:
        return param_length(self.n_features, self.n_classes)

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
    noise_sigma: float = 1.0,
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

    def class_counts(self, n_classes: int) -> np.ndarray:
        return np.bincount(self.labels, minlength=n_classes)

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
    seed: int = 0

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
    """Draw a client dataset with exact per-class counts.

    Features are class_mean + scenario shift + sigma * N(0, I).  The draw is
    a pure function of (task, plan_row, scenario_mix, seed); samples are laid
    out class-major, scenario tags in sorted order within each class.
    """
    counts = [int(c) for c in plan_row]
    if len(counts) != task.n_classes:
        raise ConfigError(
            f"plan row length {len(counts)} != n_classes {task.n_classes}"
        )
    if any(c < 0 for c in counts):
        raise ConfigError("per-class counts must be nonnegative")
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
    rng = np.random.default_rng(seed)

    feats, labels, scen = [], [], []
    for cls, count in enumerate(counts):
        per_tag = largest_remainder(count, fracs)
        for tag, n_tag in zip(tags, per_tag):
            if n_tag == 0:
                continue
            center = task.class_means[cls] + task.scenario_shifts[tag]
            x = center + task.noise_sigma * rng.standard_normal((n_tag, task.n_features))
            feats.append(x)
            labels.append(np.full(n_tag, cls, dtype=np.int64))
            scen.extend([tag] * n_tag)
    if feats:
        features = np.concatenate(feats, axis=0)
        label_arr = np.concatenate(labels, axis=0)
    else:
        features = np.zeros((0, task.n_features))
        label_arr = np.zeros(0, dtype=np.int64)
    return LocalDataset(client_id, features, label_arr, tuple(scen))


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


def dataset_loss(w: np.ndarray, data: LocalDataset, w_anchor=None, mu: float = 0.0) -> float:
    if w_anchor is None:
        w_anchor = w
    loss, _ = loss_and_gradient(w, data, np.arange(len(data)), w_anchor, mu)
    return loss


# Samples trained together in one stacked chunk of `train_cohort`: bounds
# the per-epoch feature and label copies to a few hundred KiB.
COHORT_SAMPLES = 1024


def local_train(
    w0: np.ndarray,
    data: LocalDataset,
    cfg: TrainConfig,
) -> tuple[np.ndarray, int, float]:
    """Minibatch SGD (optionally proximal) from w0 for one client.

    A cohort of one: see `train_cohort` for the procedure.  Returns
    (updated params, sample count, final full-dataset loss).
    """
    return train_cohort(w0, [data], [cfg.seed], cfg)[0]


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
    gives for the batch, anchored at w0.  ``cfg.seed`` is not read.

    Clients with equal sample counts share batch boundaries, so they are
    trained together in chunks of at most `COHORT_SAMPLES` samples, every
    operation carrying a leading client axis.  Each element goes through
    the same floating-point operations as the one-client loop, so the
    results are bit-identical to it.  Returns (updated params, sample
    count, final full-dataset loss) per client, in input order.
    """
    if len(datasets) != len(seeds):
        raise ValueError("need one seed per dataset")
    anchor = np.asarray(w0, dtype=np.float64)
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
            params = _sgd_chunk(
                anchor, [datasets[i] for i in chunk], [seeds[i] for i in chunk], cfg
            )
            if not np.all(np.isfinite(params)):
                raise FloatingPointError("non-finite parameters after local training")
            for i, w in zip(chunk, params):
                results[i] = (w, n, dataset_loss(w, datasets[i], anchor, cfg.prox_mu))
    return results


def _sgd_chunk(
    anchor: np.ndarray,
    datasets: list[LocalDataset],
    seeds: list[int],
    cfg: TrainConfig,
) -> np.ndarray:
    """SGD for K clients of n samples each; returns their params, (K, P).

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
    onehot = np.empty((n_clients, n, n_classes))
    rows = np.arange(n)
    for epoch in range(cfg.local_epochs):
        onehot.fill(0.0)
        for k, (data, seed) in enumerate(zip(datasets, seeds)):
            perm = np.random.default_rng(
                np.random.SeedSequence([int(seed) & 0x7FFFFFFFFFFFFFFF, epoch])
            ).permutation(n)
            np.take(data.features, perm, axis=0, out=x_all[k])
            onehot[k, rows, data.labels[perm]] = 1.0
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
    return params


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
