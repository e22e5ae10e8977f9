"""Batched key derivation and PCG64 draws against numpy's own SeedSequence
and Generator.

Warnings are errors here: numpy warns on scalar uint32 overflow, and such
a warning would mean a hash constant is computed as a scalar, not as an
array.  The one exception is the DeprecationWarning the hypothesis plugin
raises while it reports a failing example: as an error it becomes a pytest
INTERNALERROR, which hides the results of every later test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import streams

pytestmark = [
    pytest.mark.filterwarnings("error"),
    pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"),
]

HEAD_MASK, PART_MASK = 2**63 - 1, 2**32 - 1
EDGE_MASTERS = [0, 2**32 - 1, 2**32, 2**40 + 3, 2**63 - 1]
EDGE_KS = [1, streams.BATCH_MIN - 1, streams.BATCH_MIN, streams.BATCH_MIN + 1]

words = st.one_of(st.sampled_from([0, 1, PART_MASK]), st.integers(0, PART_MASK))
masters = st.one_of(st.sampled_from(EDGE_MASTERS), st.integers(-(2**64), 2**70))


def reference(head, *parts):
    return np.random.SeedSequence([head & HEAD_MASK, *[p & PART_MASK for p in parts]])


def assert_same_state(got, ref):
    assert np.array_equal(got.generate_state(1), ref.generate_state(1))
    assert np.array_equal(got.generate_state(4, np.uint64), ref.generate_state(4, np.uint64))


@given(
    k=st.integers(1, 24),
    length=st.integers(1, 9),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_state_word_rows_match_numpy(k, length, data):
    entropy = np.array(
        data.draw(st.lists(st.lists(words, min_size=length, max_size=length),
                           min_size=k, max_size=k)),
        dtype=np.uint32,
    )
    for row, got in zip(entropy, streams.state_words(entropy)):
        assert np.array_equal(got, np.random.SeedSequence(row).generate_state(8))


@given(
    master=masters,
    stream=st.integers(1, 5),
    k=st.sampled_from(EDGE_KS),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_keys_match_seed_sequence(master, stream, k, data):
    rnd = data.draw(st.sampled_from([0, 7, PART_MASK]))
    clients = data.draw(st.lists(words, min_size=k, max_size=k))
    got = streams.derive(master, stream, rnd, clients)
    assert len(got) == k
    for key, client in zip(got, clients):
        assert_same_state(key, reference(master, stream, rnd, client))


@given(
    seeds=st.lists(st.one_of(words, st.integers(0, 2**64)), min_size=1, max_size=3),
    epochs=st.sampled_from([1, 3, streams.BATCH_MIN, 2 * streams.BATCH_MIN]),
)
@settings(max_examples=40, deadline=None)
def test_head_column_matches_seed_sequence(seeds, epochs):
    """A column of heads, as the shuffle keys (seed, epoch) are derived;
    heads of one and two words may mix."""
    heads = [s for s in seeds for _ in range(epochs)]
    got = streams.derive(heads, list(range(epochs)) * len(seeds))
    for key, head, epoch in zip(got, heads, list(range(epochs)) * len(seeds)):
        assert_same_state(key, reference(head, epoch))


@pytest.mark.parametrize("master", EDGE_MASTERS)
def test_fleet_sized_batch(master):
    clients = [0, PART_MASK, *range(1, 1599)]
    got = streams.derive(master, 2, 3, clients)
    assert len(got) == 1600
    for key, client in zip(got, clients):
        assert_same_state(key, reference(master, 2, 3, client))


@pytest.mark.parametrize("k", EDGE_KS)
def test_cut_over(k):
    """numpy's own objects below `BATCH_MIN` keys, the batch from it on."""
    got = streams.derive(2**40 + 3, 1, list(range(k)))
    own = all(isinstance(key, np.random.SeedSequence) for key in got)
    assert own == (k < streams.BATCH_MIN)


def test_scalar_key_is_one_key():
    (key,) = streams.derive(2**32, 4, 0)
    assert_same_state(key, reference(2**32, 4, 0))


def test_empty_column_gives_no_keys():
    assert streams.derive(5, 3, 9, range(4, 4)) == []


def test_long_and_other_requests_match_numpy():
    """Requests beyond the precomputed words go to numpy over the key's
    entropy, so they also match; a returned array is the caller's own."""
    key = streams.derive(2**40 + 3, 5, list(range(streams.BATCH_MIN)))[3]
    ref = reference(2**40 + 3, 5, 3)
    for n, dtype in [(0, np.uint32), (8, np.uint32), (20, np.uint32), (9, np.uint64)]:
        assert np.array_equal(key.generate_state(n, dtype), ref.generate_state(n, dtype))
    with pytest.raises(ValueError):
        key.generate_state(2, np.float64)
    key.generate_state(4, np.uint64)[:] = 0
    assert np.array_equal(key.generate_state(4, np.uint64), ref.generate_state(4, np.uint64))


@pytest.mark.parametrize("master", [2**32 - 1, 2**40 + 3])
def test_generators_match_numpy(master):
    """Every draw fedsim makes, from a generator on a batched key."""
    keys = streams.derive(master, 2, 11, list(range(300)))
    for n, key in enumerate(keys, start=1):
        ref = reference(master, 2, 11, n - 1)
        got, want = np.random.default_rng(key), np.random.default_rng(ref)
        assert np.array_equal(got.permutation(n), want.permutation(n))
        assert got.uniform(20.0, 30.0) == want.uniform(20.0, 30.0)
        assert got.uniform(40.0, 90.0) == want.uniform(40.0, 90.0)
        assert got.random() == want.random()
        assert np.array_equal(got.standard_normal((3, 4)), want.standard_normal((3, 4)))
        pcg = np.random.PCG64(key).state
        assert pcg == np.random.PCG64(ref).state


def numpy_doubles(n, keys):
    return np.array([np.random.default_rng(key).random(n) for key in keys]).reshape(-1, n)


@given(
    master=st.sampled_from(EDGE_MASTERS),
    n=st.sampled_from([1, 2, 3]),
    k=st.sampled_from([0, *EDGE_KS]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_uniforms_match_generator(master, n, k, data):
    """The PCG64 kernel draws what numpy's Generator draws from each key:
    one- and two-word heads, a round shared or one per key, and no keys."""
    rnd = data.draw(st.one_of(words, st.lists(words, min_size=k, max_size=k)))
    clients = data.draw(st.lists(words, min_size=k, max_size=k))
    got = streams.uniforms(n, master, 5, rnd, clients)
    rounds = rnd if isinstance(rnd, list) else [rnd] * k
    assert got.shape == (k, n)
    assert np.array_equal(got, numpy_doubles(n, map(reference, [master] * k, [5] * k,
                                                     rounds, clients)))


@given(
    seeds=st.lists(st.one_of(words, st.integers(0, 2**64)), min_size=1, max_size=3),
    n=st.sampled_from([1, 2, 3]),
)
@settings(max_examples=40, deadline=None)
def test_uniforms_over_head_column(seeds, n):
    """A column of heads, of one width (a batch) or of both (numpy's draws)."""
    heads = [s for s in seeds for _ in range(streams.BATCH_MIN)]
    epochs = list(range(streams.BATCH_MIN)) * len(seeds)
    got = streams.uniforms(n, heads, epochs)
    assert np.array_equal(got, numpy_doubles(n, map(reference, heads, epochs)))


@pytest.mark.parametrize("master", EDGE_MASTERS)
def test_uniforms_of_scalar_key_and_fleet(master):
    want = numpy_doubles(2, [reference(master, 4, 0)])
    assert np.array_equal(streams.uniforms(2, master, 4, 0), want)
    clients = [0, PART_MASK, *range(1, 1599)]
    want = numpy_doubles(2, (reference(master, 5, 3, c) for c in clients))
    assert np.array_equal(streams.uniforms(2, master, 5, 3, clients), want)


@pytest.mark.parametrize("k", EDGE_KS)
def test_uniforms_cut_over(monkeypatch, k):
    """A batch makes no Generator; below `BATCH_MIN` keys each key makes one."""
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda key: made.append(key) or default_rng(key))
    streams.uniforms(2, 2**40 + 3, 5, 1, list(range(k)))
    assert len(made) == (k if k < streams.BATCH_MIN else 0)


@given(
    master=masters,
    k=st.sampled_from([0, *EDGE_KS]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_first_words_are_each_keys_first_state_word(master, k, data):
    clients = data.draw(st.lists(words, min_size=k, max_size=k))
    got = streams.first_words(master, 2, 9, clients)
    want = [int(key.generate_state(1)[0]) for key in streams.derive(master, 2, 9, clients)]
    assert got == want == [int(reference(master, 2, 9, c).generate_state(1)[0]) for c in clients]
    assert all(type(word) is int for word in got)
