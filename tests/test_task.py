"""Synthetic task: data generation, gradients, training, evaluation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim import streams
from fedsim import task as task_module
from fedsim.errors import ConfigError
from fedsim.partition import largest_remainder
from fedsim.task import (
    LocalDataset,
    SyntheticTask,
    TrainConfig,
    default_task,
    evaluate,
    generate_dataset,
    generate_datasets,
    local_train,
    loss_and_gradient,
    param_length,
    predict,
    train_cohort,
    unpack_params,
    zero_params,
)

from reference import dataset_loss


def reference_loss(w, x, y, w_anchor, mu):
    """Independent loss: explicit per-sample log-softmax plus proximal term."""
    n_classes = w.size // (x.shape[1] + 1)
    W = w[: x.shape[1] * n_classes].reshape(n_classes, x.shape[1])
    b = w[x.shape[1] * n_classes:]
    total = 0.0
    for xi, yi in zip(x, y):
        scores = W @ xi + b
        scores = scores - scores.max()
        log_probs = scores - np.log(np.exp(scores).sum())
        total -= log_probs[yi]
    diff = w - w_anchor
    return total / len(y) + 0.5 * mu * float(diff @ diff)


class TestParams:
    def test_length_and_unpack(self):
        assert param_length(16, 8) == 16 * 8 + 8
        w = np.arange(param_length(3, 2), dtype=float)
        W, b = unpack_params(w, 3, 2)
        assert W.shape == (2, 3)
        assert np.array_equal(W[0], [0, 1, 2])
        assert np.array_equal(b, [6, 7])

    def test_unpack_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            unpack_params(np.zeros(5), 3, 2)

    def test_zero_params(self):
        assert np.all(zero_params(16, 8) == 0)


class TestTaskConstruction:
    def test_default_task_deterministic(self):
        a = default_task()
        b = default_task()
        assert np.array_equal(a.class_means, b.class_means)

    def test_scenario_shifts_have_reference(self):
        task = default_task(scenario_tags=("day", "night"))
        assert set(task.scenario_shifts) == {"reference", "day", "night"}
        assert np.all(task.scenario_shifts["reference"] == 0)
        assert np.any(task.scenario_shifts["day"] != 0)
        assert not np.array_equal(
            task.scenario_shifts["day"], task.scenario_shifts["night"]
        )

    def test_shift_scale_is_multiplicative(self):
        small = default_task(scenario_tags=("day",), shift_scale=1.0)
        big = default_task(scenario_tags=("day",), shift_scale=3.0)
        assert np.allclose(3.0 * small.scenario_shifts["day"], big.scenario_shifts["day"])

    def test_rejects_nonzero_reference_shift(self):
        with pytest.raises(ConfigError):
            SyntheticTask(
                n_classes=2, n_features=2, class_means=np.zeros((2, 2)),
                noise_sigma=1.0, scenario_shifts={"reference": np.ones(2)},
            )

    @pytest.mark.parametrize("n_features", [0, -1])
    def test_rejects_no_features(self, n_features):
        with pytest.raises(ConfigError, match="n_features must be >= 1"):
            SyntheticTask(n_classes=2, n_features=n_features,
                          class_means=np.zeros((2, max(n_features, 0))))
        with pytest.raises(ConfigError, match="n_features must be >= 1"):
            default_task(n_features=n_features)

    def test_rejects_negative_means_seed(self):
        with pytest.raises(ConfigError, match="means_seed must be >= 0, got -1"):
            default_task(means_seed=-1)

    def test_rejects_bad_means_shape(self):
        with pytest.raises(ConfigError):
            SyntheticTask(
                n_classes=2, n_features=3, class_means=np.zeros((2, 2)), noise_sigma=1.0
            )

    def test_with_noise_scale(self):
        task = default_task(noise_sigma=2.0)
        assert task.with_noise_scale(0.67).noise_sigma == pytest.approx(1.34)


class TestGenerateDataset:
    def test_exact_class_counts(self):
        task = default_task(n_classes=4, n_features=8)
        data = generate_dataset(task, (5, 0, 13, 2), None, 42, "C1")
        assert len(data) == 20
        assert list(np.bincount(data.labels, minlength=4)) == [5, 0, 13, 2]

    def test_deterministic_in_seed(self):
        task = default_task()
        a = generate_dataset(task, [3] * 8, None, 7, "C1")
        b = generate_dataset(task, [3] * 8, None, 7, "C1")
        c = generate_dataset(task, [3] * 8, None, 8, "C1")
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_scenario_mix_exact_split(self):
        task = default_task(scenario_tags=("day", "night"))
        data = generate_dataset(
            task, [10] * 8, {"day": 0.7, "night": 0.3}, 0, "C1"
        )
        assert data.scenarios.count("day") == 56
        assert data.scenarios.count("night") == 24

    def test_scenario_shift_moves_features(self):
        task = default_task(n_classes=2, n_features=4, noise_sigma=0.0,
                            scenario_tags=("far",), shift_scale=5.0)
        ref = generate_dataset(task, (100, 0), {"reference": 1.0}, 0, "C1")
        far = generate_dataset(task, (100, 0), {"far": 1.0}, 0, "C1")
        assert np.allclose(
            far.features.mean(axis=0) - ref.features.mean(axis=0),
            task.scenario_shifts["far"],
        )

    def test_unknown_tag_rejected(self):
        task = default_task()
        with pytest.raises(ConfigError):
            generate_dataset(task, [1] * 8, {"fog": 1.0}, 0, "C1")

    def test_mix_must_sum_to_one(self):
        task = default_task(scenario_tags=("day",))
        with pytest.raises(ConfigError):
            generate_dataset(task, [1] * 8, {"day": 0.6}, 0, "C1")

    @pytest.mark.parametrize("mix, problem", [
        ({"fog": 1.0}, "names unknown scenario tag 'fog'"),
        ({"day": 0.6}, "sums to 0.6, expected 1"),
    ])
    def test_mix_check_names_the_dataset_mix(self, mix, problem):
        task = default_task(scenario_tags=("day",))
        with pytest.raises(ConfigError, match=f"dataset scenario_mix {problem}"):
            generate_datasets(task, [1] * 8, mix, [0, 1], ["C1", "C2"])

    def test_row_length_checked(self):
        with pytest.raises(ConfigError):
            generate_dataset(default_task(), [1] * 7, None, 0, "C1")


def reference_dataset(task, plan_row, scenario_mix, seed):
    """The per-segment draw: one normal draw and one centre per (class, tag)."""
    tags = sorted(scenario_mix)
    fracs = [scenario_mix[t] for t in tags]
    rng = np.random.default_rng(seed)
    feats, labels, scen = [], [], []
    for cls, count in enumerate(plan_row):
        for tag, n_tag in zip(tags, largest_remainder(count, fracs)):
            if n_tag == 0:
                continue
            center = task.class_means[cls] + task.scenario_shifts[tag]
            feats.append(center + task.noise_sigma * rng.standard_normal((n_tag, task.n_features)))
            labels.append(np.full(n_tag, cls, dtype=np.int64))
            scen.extend([tag] * n_tag)
    if not feats:
        return np.zeros((0, task.n_features)), np.zeros(0, dtype=np.int64), ()
    return np.concatenate(feats), np.concatenate(labels), tuple(scen)


class TestSingleDrawDataset:
    @given(
        shape=st.sampled_from([(1, 1), (3, 2), (8, 16), (4, 32)]),
        row=st.lists(st.integers(min_value=0, max_value=40), min_size=8, max_size=8),
        weights=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3)
        .filter(any),
        sigma=st.sampled_from([0.0, 1.0, 0.37, 2.5]),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        seed_sequence=st.booleans(),
    )
    @example(shape=(8, 16), row=[0] * 8, weights=[1], sigma=1.0, seed=0, seed_sequence=False)
    @example(shape=(3, 2), row=[5, 0, 3, 0, 0, 0, 0, 0], weights=[0, 3, 1], sigma=1.0,
             seed=7, seed_sequence=True)
    @settings(max_examples=80, deadline=None)
    def test_equals_per_segment_draws(self, shape, row, weights, sigma, seed, seed_sequence):
        # zero weights give tags with zero count; the all-zero row is an example
        c, d = shape
        task = default_task(
            n_classes=c, n_features=d, scenario_tags=("night", "rain"), shift_scale=3.0
        ).with_noise_scale(sigma)
        tags = ("reference", "night", "rain")[: len(weights)]
        mix = {t: w / sum(weights) for t, w in zip(tags, weights)}
        row = row[:c]
        rng_seed = np.random.SeedSequence([seed, 1, 2]) if seed_sequence else seed
        data = generate_dataset(task, row, mix, rng_seed, "C1")
        features, labels, scen = reference_dataset(task, row, mix, rng_seed)
        assert np.array_equal(data.features, features)
        assert data.features.shape == features.shape
        assert np.array_equal(data.labels, labels)
        assert data.labels.dtype == np.int64
        assert data.scenarios == scen


    @given(count=st.integers(min_value=0, max_value=2**53))
    def test_whole_mix_split_is_the_count(self, count):
        assert largest_remainder(count, [1.0]) == [count]

    @given(
        row=st.lists(st.integers(min_value=0, max_value=60), min_size=3, max_size=3),
        tag=st.sampled_from(["reference", "night"]),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_tag_mix_takes_counts_whole(self, row, tag, seed):
        """A one-tag mix at 1.0 skips `largest_remainder` and still equals
        the per-segment draws that use it."""
        task = default_task(n_classes=3, n_features=4, scenario_tags=("night",))
        features, labels, scen = reference_dataset(task, row, {tag: 1.0}, seed)
        with mock.patch.object(task_module, "largest_remainder", side_effect=AssertionError):
            data = generate_dataset(task, row, {tag: 1.0}, seed, "C1")
        assert np.array_equal(data.features, features)
        assert np.array_equal(data.labels, labels)
        assert data.scenarios == scen

def reference_generate_dataset(task, plan_row, scenario_mix, seed):
    """The one-client draw `generate_datasets` replaced: one (n, d) normal
    draw scaled in place, then each segment's centre added to its rows."""
    tags = sorted(scenario_mix)
    fracs = [scenario_mix[t] for t in tags]
    segments = [
        (cls, tag, n_tag)
        for cls, count in enumerate(plan_row)
        for tag, n_tag in zip(tags, largest_remainder(count, fracs))
        if n_tag
    ]
    sizes = [n_tag for _, _, n_tag in segments]
    features = np.random.default_rng(seed).standard_normal((sum(sizes), task.n_features))
    features *= task.noise_sigma
    start = 0
    for cls, tag, n_tag in segments:
        features[start : start + n_tag] += task.class_means[cls] + task.scenario_shifts[tag]
        start += n_tag
    labels = np.repeat(np.array([cls for cls, _, _ in segments], dtype=np.int64), sizes)
    scen = tuple(tag for _, tag, n_tag in segments for _ in range(n_tag))
    return features, labels, scen


class TestGenerateDatasets:
    @given(
        n_clients=st.integers(min_value=1, max_value=40),
        shape=st.sampled_from([(1, 1), (3, 2), (8, 16), (4, 32)]),
        row=st.lists(st.integers(min_value=0, max_value=12), min_size=8, max_size=8),
        weights=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3)
        .filter(any),
        sigma=st.sampled_from([0.0, 0.37, 2.5]),
        master=st.integers(min_value=0, max_value=2**64 - 1),
        derived=st.booleans(),
    )
    @example(n_clients=3, shape=(8, 16), row=[0] * 8, weights=[1], sigma=0.37, master=0,
             derived=False)
    @example(n_clients=17, shape=(3, 2), row=[5, 0, 3, 0, 0, 0, 0, 0], weights=[0, 3, 1],
             sigma=2.5, master=7, derived=True)
    @settings(max_examples=60, deadline=None)
    def test_equals_per_client_draws(self, n_clients, shape, row, weights, sigma, master,
                                     derived):
        # zero weights give tags with zero count; the all-zero row is an
        # example; 16 or more derived keys take the batched key path
        c, d = shape
        task = default_task(
            n_classes=c, n_features=d, scenario_tags=("night", "rain"), shift_scale=3.0
        ).with_noise_scale(sigma)
        tags = ("reference", "night", "rain")[: len(weights)]
        mix = {t: w / sum(weights) for t, w in zip(tags, weights)}
        row = row[:c]
        if derived:
            seeds = streams.derive(master, 1, range(n_clients))
        else:
            seeds = [(master + k) % 2**64 for k in range(n_clients)]
        ids = [f"C{k}" for k in range(n_clients)]
        got = generate_datasets(task, row, mix, seeds, ids)
        assert [data.client_id for data in got] == ids
        for data, seed in zip(got, seeds):
            features, labels, scen = reference_generate_dataset(task, row, mix, seed)
            assert data.features.shape == features.shape
            assert np.array_equal(data.features, features)
            assert np.array_equal(data.labels, labels)
            assert data.labels.dtype == np.int64
            assert data.scenarios == scen

    def test_arrays_are_read_only(self):
        task = default_task(n_classes=3, n_features=4)
        group = generate_datasets(task, [2, 0, 3], None, [1, 2], ["C1", "C2"])
        for data in group + [generate_dataset(task, [2, 0, 3], None, 1, "C1")]:
            with pytest.raises(ValueError, match="read-only"):
                data.features[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                data.features *= 2.0
            with pytest.raises(ValueError, match="read-only"):
                data.labels[0] = 1

    def test_one_seed_per_client(self):
        with pytest.raises(ValueError):
            generate_datasets(default_task(), [1] * 8, None, [1, 2], ["C1"])


class TestGradient:
    def test_against_central_finite_differences(self):
        rng = np.random.default_rng(0)
        task = default_task(n_classes=3, n_features=5)
        data = generate_dataset(task, (4, 3, 5), None, 11, "C1")
        eps = 1e-6
        for mu in (0.0, 0.01, 1.0):
            w = rng.standard_normal(param_length(5, 3))
            anchor = rng.standard_normal(param_length(5, 3))
            loss, grad = loss_and_gradient(w, data, np.arange(len(data)), anchor, mu)
            assert loss == pytest.approx(
                reference_loss(w, data.features, data.labels, anchor, mu), rel=1e-12
            )
            for j in range(w.size):
                wp, wm = w.copy(), w.copy()
                wp[j] += eps
                wm[j] -= eps
                fd = (
                    reference_loss(wp, data.features, data.labels, anchor, mu)
                    - reference_loss(wm, data.features, data.labels, anchor, mu)
                ) / (2 * eps)
                assert grad[j] == pytest.approx(fd, abs=1e-5)

    def test_empty_batch_rejected(self):
        task = default_task()
        data = generate_dataset(task, [2] * 8, None, 0, "C1")
        w = zero_params(16, 8)
        with pytest.raises(ValueError):
            loss_and_gradient(w, data, [], w, 0.0)

    def test_anchor_shape_checked(self):
        task = default_task()
        data = generate_dataset(task, [2] * 8, None, 0, "C1")
        w = zero_params(16, 8)
        with pytest.raises(ValueError):
            loss_and_gradient(w, data, [0], np.zeros(3), 0.0)

    @given(mu=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=25)
    def test_proximal_term_vanishes_at_anchor(self, mu):
        task = default_task(n_classes=3, n_features=4)
        data = generate_dataset(task, (3, 3, 3), None, 5, "C1")
        w = np.random.default_rng(1).standard_normal(param_length(4, 3))
        base, _ = loss_and_gradient(w, data, np.arange(9), w, 0.0)
        prox, _ = loss_and_gradient(w, data, np.arange(9), w, mu)
        assert prox == pytest.approx(base)


class TestLocalTrain:
    def test_matches_plain_sgd_reference(self):
        task = default_task(n_classes=4, n_features=6)
        data = generate_dataset(task, (9, 4, 7, 11), None, 3, "C1")
        cfg = TrainConfig(local_epochs=2, batch_size=8, learning_rate=0.1)
        got, n, _ = local_train(zero_params(6, 4), data, 17, cfg)

        # straightforward re-implementation of the documented procedure
        w = zero_params(6, 4)
        anchor = w.copy()
        for epoch in range(2):
            perm = np.random.default_rng(
                np.random.SeedSequence([17, epoch])
            ).permutation(len(data))
            for start in range(0, len(data), 8):
                batch = perm[start : start + 8]
                _, grad = loss_and_gradient(w, data, batch, anchor, 0.0)
                w = w - 0.1 * grad
        assert n == len(data)
        assert np.array_equal(got, w)

    def test_proximal_pull_shrinks_step(self):
        task = default_task(n_classes=4, n_features=6)
        data = generate_dataset(task, [20] * 4, None, 9, "C1")
        w0 = zero_params(6, 4)
        free, _, _ = local_train(w0, data, 1, TrainConfig(learning_rate=0.1))
        tied, _, _ = local_train(w0, data, 1, TrainConfig(learning_rate=0.1, prox_mu=10.0))
        assert np.linalg.norm(tied - w0) < np.linalg.norm(free - w0)

    def test_training_reduces_loss(self):
        task = default_task(n_classes=4, n_features=6)
        data = generate_dataset(task, [25] * 4, None, 2, "C1")
        w0 = zero_params(6, 4)
        w1, _, final_loss = local_train(w0, data, 0, TrainConfig())
        assert final_loss < dataset_loss(w0, data)

    def test_empty_dataset_rejected(self):
        empty = LocalDataset("C1", np.zeros((0, 16)), np.zeros(0, dtype=np.int64), ())
        with pytest.raises(ValueError):
            local_train(zero_params(16, 8), empty, 0, TrainConfig())

    def test_deterministic(self):
        task = default_task()
        data = generate_dataset(task, [10] * 8, None, 0, "C1")
        a, _, _ = local_train(zero_params(16, 8), data, 5, TrainConfig())
        b, _, _ = local_train(zero_params(16, 8), data, 5, TrainConfig())
        assert np.array_equal(a, b)


def _cohort(shape, sizes, per_client, seed):
    """Datasets of the given sizes, a seed each, and a starting point: one
    shared (P,) vector, or a (K, P) block of distinct ones."""
    d, c = shape
    task = default_task(n_classes=c, n_features=d)
    rng = np.random.default_rng(seed)
    datasets = [
        generate_dataset(
            task, np.bincount(rng.integers(0, c, n), minlength=c), None,
            int(rng.integers(2**32)), f"C{i}",
        )
        for i, n in enumerate(sizes)
    ]
    seeds = [int(x) for x in rng.integers(0, 2**63, len(sizes))]
    w0 = 0.3 * rng.standard_normal((len(sizes), param_length(d, c)) if per_client
                                   else param_length(d, c))
    return datasets, seeds, w0


def reference_sgd(w0, data, seed, cfg):
    """The documented one-client procedure, one `loss_and_gradient` per batch."""
    w = np.asarray(w0, dtype=np.float64).copy()
    anchor = w.copy()
    for epoch in range(cfg.local_epochs):
        perm = np.random.default_rng(
            np.random.SeedSequence([seed & 0x7FFFFFFFFFFFFFFF, epoch])
        ).permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            _, grad = loss_and_gradient(w, data, batch, anchor, cfg.prox_mu)
            w -= cfg.learning_rate * grad
    return w, len(data), dataset_loss(w, data, anchor, cfg.prox_mu)


class TestTrainCohort:
    @given(
        shape=st.sampled_from([(1, 2), (3, 2), (16, 8), (5, 11)]),
        sizes=st.lists(st.sampled_from([1, 2, 7, 33]), min_size=1, max_size=9),
        batch=st.sampled_from([1, 2, 5, 32]),
        mu=st.sampled_from([0.0, 0.3]),
        epochs=st.integers(min_value=1, max_value=2),
        budget=st.sampled_from([1, 16, 1024]),
        per_client=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        batched=st.booleans(),
    )
    # eight equal clients take the sliced class max in full batches and the
    # final loss, `.max` in the short last batch; the two-sample client
    # takes `.max` throughout (see TestClassMax)
    @example(shape=(3, 2), sizes=[33] * 8 + [2], batch=5, mu=0.3, epochs=2, budget=1024,
             per_client=False, seed=1, batched=False)
    @example(shape=(5, 11), sizes=[33] * 8 + [2], batch=32, mu=0.3, epochs=1, budget=1024,
             per_client=False, seed=2, batched=False)
    # one ragged chunk: sizes that are multiples of the batch (64, 32, 10,
    # 5), one short of one (31, 9), below it (7, 3) and of one sample, in
    # an order the kernel sorts, several to a size, each client from its
    # own starting point
    @example(shape=(3, 2), sizes=[7, 64, 1, 33, 31, 32, 7, 64, 1], batch=32, mu=0.3, epochs=2,
             budget=1024, per_client=True, seed=5, batched=False)
    @example(shape=(5, 11), sizes=[3, 10, 1, 7, 9, 5, 12, 10, 3], batch=5, mu=0.3, epochs=2,
             budget=1024, per_client=True, seed=6, batched=False)
    # 300 equal clients of 16 samples at the default budget: one stacked
    # gather per epoch in each of two chunks, of 256 clients (COHORT_CLIENTS)
    # and 44
    @example(shape=(16, 8), sizes=[16] * 300, batch=5, mu=0.3, epochs=2,
             budget=task_module.COHORT_SAMPLES, per_client=False, seed=7, batched=False)
    # groups of one (7, 1) and of two clients too large to stack (70) beside
    # stacked groups (16 and 2), short of the padded size; then the same cut
    # into small chunks, some holding only groups of one
    @example(shape=(5, 11), sizes=[16, 2, 70, 16, 7, 2, 1, 16, 70], batch=5, mu=0.3, epochs=2,
             budget=1024, per_client=True, seed=8, batched=False)
    @example(shape=(5, 11), sizes=[16, 2, 70, 16, 7, 2, 1, 16, 70], batch=5, mu=0.3, epochs=2,
             budget=24, per_client=True, seed=9, batched=False)
    # the same cohorts, each size group's shuffles drawn by the batched
    # kernel, cut into chunks that split size groups
    @example(shape=(16, 8), sizes=[16] * 300, batch=5, mu=0.3, epochs=2,
             budget=task_module.COHORT_SAMPLES, per_client=False, seed=7, batched=True)
    @example(shape=(5, 11), sizes=[16, 2, 70, 16, 7, 2, 1, 16, 70], batch=5, mu=0.3, epochs=2,
             budget=24, per_client=True, seed=9, batched=True)
    @settings(max_examples=60, deadline=None)
    def test_equals_independent_reference_runs(
        self, shape, sizes, batch, mu, epochs, budget, per_client, seed, batched
    ):
        # mixed sizes stack raggedly; small budgets cut a cohort into
        # several chunks; n = 1, batch 1 and partial last batches all occur.
        # `batched` forces the shuffle crossover and BATCH_MIN low, so every
        # size group whose heads share a word count takes the batched kernel;
        # `reference_sgd` keeps numpy's own permutation.
        d, c = shape
        datasets, seeds, w0 = _cohort(shape, sizes, per_client, seed)
        cfg = TrainConfig(
            local_epochs=epochs, batch_size=batch, learning_rate=0.1, prox_mu=mu
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(task_module, "COHORT_SAMPLES", budget)
            if batched:
                mp.setattr(streams, "SHUFFLE_BATCH_MIN", 0)
                mp.setattr(streams, "BATCH_MIN", 1)
            got = train_cohort(w0, datasets, seeds, cfg)
        assert len(got) == len(datasets)
        for i, (data, s, (w, n, loss)) in enumerate(zip(datasets, seeds, got)):
            ref_w, ref_n, ref_loss = reference_sgd(w0[i] if per_client else w0, data, s, cfg)
            assert np.array_equal(w, ref_w)
            assert n == ref_n
            assert loss == ref_loss

    def test_one_anchor_per_client_required(self):
        task = default_task()
        datasets = [generate_dataset(task, [2] * 8, None, i, f"C{i}") for i in range(3)]
        with pytest.raises(ValueError):
            train_cohort(np.zeros((2, param_length(16, 8))), datasets, [0, 1, 2], TrainConfig())

    def test_shared_anchor_equals_per_client_copies(self):
        task = default_task()
        datasets = [generate_dataset(task, [n] * 8, None, n, f"C{n}") for n in (1, 9, 4, 9)]
        w0 = np.linspace(-1.0, 1.0, param_length(16, 8))
        cfg = TrainConfig(local_epochs=2, prox_mu=0.5)
        shared = train_cohort(w0, datasets, [0, 1, 2, 3], cfg)
        copies = train_cohort(np.tile(w0, (4, 1)), datasets, [0, 1, 2, 3], cfg)
        for (a, n, loss), (b, m, ref_loss) in zip(shared, copies):
            assert np.array_equal(a, b) and n == m and loss == ref_loss

    def test_chunks_larger_than_one_client(self):
        # 60 equal clients of 240 samples at the default budget: several
        # multi-client chunks, as in a 60-client overlapping-window round
        task = default_task()
        datasets = [generate_dataset(task, [30] * 8, None, i, f"C{i}") for i in range(60)]
        cfg = TrainConfig(local_epochs=1, prox_mu=0.01)
        got = train_cohort(zero_params(16, 8), datasets, list(range(60)), cfg)
        for i in (0, 3, 4, 59):
            ref_w, _, ref_loss = reference_sgd(zero_params(16, 8), datasets[i], i, cfg)
            assert np.array_equal(got[i][0], ref_w)
            assert got[i][2] == ref_loss

    def test_empty_cohort(self):
        assert train_cohort(zero_params(16, 8), [], [], TrainConfig()) == []

    def test_rejects_empty_dataset_and_seed_mismatch(self):
        task = default_task()
        data = generate_dataset(task, [2] * 8, None, 0, "C1")
        empty = LocalDataset("C2", np.zeros((0, 16)), np.zeros(0, dtype=np.int64), ())
        with pytest.raises(ValueError):
            train_cohort(zero_params(16, 8), [data, empty], [0, 1], TrainConfig())
        with pytest.raises(ValueError):
            train_cohort(zero_params(16, 8), [data], [0, 1], TrainConfig())

    def test_diverged_client_gets_none(self):
        """A client whose training leaves a parameter non-finite gets None
        params; its finite chunk-mates equal training alone, bit for bit."""
        task = default_task()
        datasets = [generate_dataset(task, [4] * 8, None, i, f"C{i}") for i in range(4)]
        bad = datasets[2]
        datasets[2] = LocalDataset("C2", bad.features * 1e200, bad.labels, bad.scenarios)
        w0 = 0.1 * np.random.default_rng(0).standard_normal((4, param_length(16, 8)))
        w0[1] = np.inf
        cfg = TrainConfig()
        with np.errstate(all="ignore"):
            got = train_cohort(w0, datasets, [0, 1, 2, 3], cfg)
            alone = [local_train(w0[k], datasets[k], k, cfg) for k in range(4)]
        assert [w is None for w, _, _ in got] == [False, True, True, False]
        assert [w is None for w, _, _ in alone] == [False, True, True, False]
        for k in (0, 3):
            assert np.array_equal(got[k][0], alone[k][0])
            assert got[k][1:] == alone[k][1:]


class TestCohortFinalLoss:
    @given(
        shape=st.sampled_from([(1, 2), (3, 2), (16, 8), (5, 11)]),
        sizes=st.lists(st.sampled_from([1, 2, 7, 33, 150]), min_size=1, max_size=7),
        batch=st.sampled_from([1, 5, 32]),
        mu=st.sampled_from([0.0, 0.3]),
        lr=st.sampled_from([0.1, 1.0]),
        budget=st.sampled_from([1, 16, 1024]),
        per_client=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @example(shape=(3, 2), sizes=[150] * 6 + [2], batch=32, mu=0.3, lr=1.0, budget=1024,
             per_client=False, seed=3)
    @example(shape=(5, 11), sizes=[150] * 6 + [2], batch=32, mu=0.3, lr=1.0, budget=1024,
             per_client=False, seed=4)
    # one ragged chunk, as in TestTrainCohort's examples
    @example(shape=(3, 2), sizes=[7, 64, 1, 150, 31, 32, 7, 64, 1], batch=32, mu=0.3, lr=1.0,
             budget=1024, per_client=True, seed=7)
    @example(shape=(5, 11), sizes=[3, 10, 1, 7, 9, 5, 12, 10, 3], batch=5, mu=0.3, lr=1.0,
             budget=1024, per_client=True, seed=8)
    @settings(max_examples=60, deadline=None)
    def test_equals_full_dataset_loss_and_gradient(
        self, shape, sizes, batch, mu, lr, budget, per_client, seed
    ):
        # n = 150 sums past numpy's 128-element pairwise block; lr = 1.0
        # moves w far enough from w0 that the proximal term's rounding shows
        datasets, seeds, w0 = _cohort(shape, sizes, per_client, seed)
        cfg = TrainConfig(local_epochs=1, batch_size=batch, learning_rate=lr, prox_mu=mu)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(task_module, "COHORT_SAMPLES", budget)
            got = train_cohort(w0, datasets, seeds, cfg)
        for i, (data, (w, n, loss)) in enumerate(zip(datasets, got)):
            ref, _ = loss_and_gradient(w, data, np.arange(n), w0[i] if per_client else w0, mu)
            assert type(loss) is float
            assert loss == ref

    def test_does_not_call_the_reference(self):
        task = default_task()
        datasets = [generate_dataset(task, [2] * 8, None, i, f"C{i}") for i in range(5)]

        def refuse(*args, **kwargs):
            raise AssertionError("final loss computed outside the kernel")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(task_module, "loss_and_gradient", refuse)
            got = train_cohort(zero_params(16, 8), datasets, list(range(5)), TrainConfig())
        assert len(got) == 5


def _spy_max_branches(mp):
    """Record, per `_class_max` call, whether it took the sliced branch."""
    taken = []
    real_max, real_reduce = task_module._class_max, task_module.reduce

    def class_max(scores):
        taken.append(False)
        return real_max(scores)

    def sliced(*args):
        taken[-1] = True
        return real_reduce(*args)

    mp.setattr(task_module, "_class_max", class_max)
    mp.setattr(task_module, "reduce", sliced)
    return taken


def _assert_feeds_exp_alike(scores):
    got = task_module._class_max(scores)
    ref = scores.max(axis=2, keepdims=True)
    assert np.array_equal(got, ref)
    bits = [np.exp(scores - top).view(np.uint64) for top in (got, ref)]
    assert np.array_equal(*bits)


class TestClassMax:
    """`_class_max` runs as one `np.maximum` per class slice over many rows
    and as `.max(axis=2)` over few; either must feed `exp` the same bits."""

    @given(
        dims=st.tuples(
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=1, max_value=40),
            st.integers(min_value=1, max_value=11),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_the_reduction(self, dims, seed):
        # few distinct values make ties, signed zeros among them, common
        values = np.array([-0.0, 0.0, -1.5, 0.25, 3.0])
        _assert_feeds_exp_alike(np.random.default_rng(seed).choice(values, size=dims))

    def test_signed_zero_tie(self):
        # every row's maximum ties -0.0 against +0.0, in both orders, over
        # enough rows (4 x 16 at 3 classes) for the sliced branch
        rows = [[-0.0, 0.0, -1.0], [0.0, -0.0, -2.0], [-1.0, -0.0, 0.0], [0.0, -3.0, -0.0]]
        scores = np.array(rows * 16).reshape(4, 16, 3)
        with pytest.MonkeyPatch.context() as mp:
            taken = _spy_max_branches(mp)
            _assert_feeds_exp_alike(scores)
        assert taken == [True]

    @pytest.mark.parametrize(
        "shape, sizes, batch",
        [((3, 2), [33] * 8 + [2], 5), ((5, 11), [33] * 8 + [2], 32),
         ((3, 2), [150] * 6 + [2], 32), ((5, 11), [150] * 6 + [2], 32)],
    )
    def test_cohort_examples_take_both_branches(self, shape, sizes, batch):
        # the shapes of the explicit examples of TestTrainCohort and
        # TestCohortFinalLoss
        d, c = shape
        task = default_task(n_classes=c, n_features=d)
        datasets = [
            generate_dataset(task, np.bincount(np.arange(n) % c, minlength=c), None, i, f"C{i}")
            for i, n in enumerate(sizes)
        ]
        cfg = TrainConfig(local_epochs=1, batch_size=batch, prox_mu=0.3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(task_module, "COHORT_SAMPLES", 1024)
            taken = _spy_max_branches(mp)
            train_cohort(zero_params(d, c), datasets, list(range(len(sizes))), cfg)
        assert set(taken) == {True, False}


class TestEvaluate:
    def test_recount_oracle(self):
        task = default_task(n_classes=3, n_features=5)
        data = generate_dataset(task, (40, 40, 40), None, 21, "eval")
        w = np.random.default_rng(4).standard_normal(param_length(5, 3))
        acc = evaluate(w, data)
        W, b = unpack_params(w, 5, 3)
        hits = 0
        for xi, yi in zip(data.features, data.labels):
            if int(np.argmax(W @ xi + b)) == yi:
                hits += 1
        assert acc == hits / len(data)

    def test_argmax_tie_breaks_low(self):
        # all-zero weights score every class identically -> class 0 predicted
        preds = predict(zero_params(4, 3), np.ones((5, 4)), 3)
        assert np.all(preds == 0)

    def test_perfect_separation(self):
        task = default_task(n_classes=2, n_features=4, noise_sigma=0.01)
        data = generate_dataset(task, (50, 50), None, 0, "eval")
        w, _, _ = local_train(
            zero_params(4, 2), data, 0, TrainConfig(local_epochs=20, learning_rate=0.5)
        )
        assert evaluate(w, data) == 1.0

    def test_empty_rejected(self):
        empty = LocalDataset("e", np.zeros((0, 4)), np.zeros(0, dtype=np.int64), ())
        with pytest.raises(ValueError):
            evaluate(zero_params(4, 2), empty)


class TestTrainConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(local_epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(prox_mu=-1.0)
