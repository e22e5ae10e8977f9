"""Batched key derivation and PCG64 draws against numpy's own SeedSequence
and Generator.

Warnings are errors here: numpy warns on scalar uint32 overflow, and such
a warning would mean a hash constant is computed as a scalar, not as an
array.  The one exception is the DeprecationWarning the hypothesis plugin
raises while it reports a failing example: as an error it becomes a pytest
INTERNALERROR, which hides the results of every later test.
"""

import unittest.mock

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


@given(
    master=masters,
    k=st.sampled_from(EDGE_KS),
    dtype=st.sampled_from([np.uint64, np.int64]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_array_columns_match_lists(master, k, dtype, data):
    """An integer array column is masked as its list of ints is, negative
    values and values past 32 bits included, in a head column too."""
    # Columns count down from a value that each dtype holds, so a head
    # column keeps one entropy word count and goes through the batch.
    top = {np.uint64: [2**64 - 1, 2**63 + 2**40, 2**63 - 1, 2**32 + 99],
           np.int64: [-1, -(2**40), -(2**62), 2**63 - 1]}[dtype]
    info = np.iinfo(dtype)
    starts = st.one_of(st.sampled_from(top), st.integers(int(info.min) + k, int(info.max)))
    head, rnd = data.draw(starts), data.draw(starts)
    heads, rounds = [head - i for i in range(k)], [rnd - i for i in range(k)]
    clients = data.draw(st.lists(words, min_size=k, max_size=k))
    as_arrays = np.array(rounds, dtype), np.array(clients, np.uint64)
    for got, ref in zip(streams.derive(master, 3, *as_arrays),
                        streams.derive(master, 3, rounds, clients)):
        assert_same_state(got, ref)
    for got, ref in zip(streams.derive(np.array(heads, dtype), 3, *as_arrays),
                        streams.derive(heads, 3, rounds, clients)):
        assert_same_state(got, ref)
    assert np.array_equal(streams.uniforms(2, master, 3, *as_arrays),
                          streams.uniforms(2, master, 3, rounds, clients))
    assert streams.first_words(master, 3, *as_arrays) == streams.first_words(
        master, 3, rounds, clients)


@pytest.mark.parametrize("master", EDGE_MASTERS)
def test_fleet_sized_batch(master):
    clients = [0, PART_MASK, *range(1, 1599)]
    got = streams.derive(master, 2, 3, clients)
    assert len(got) == 1600
    for key, client in zip(got, clients):
        assert_same_state(key, reference(master, 2, 3, client))


def head_columns(k):
    """K heads of one entropy word, of two, and of both widths mixed."""
    return [[7] * k, [2**40 + 3] * k, [2**40 + i if i % 2 else i for i in range(k)]]


@pytest.mark.parametrize("k", [0, *EDGE_KS])
def test_cut_over(k):
    """Every key is a row of one block, below `BATCH_MIN` keys and from it
    on, and when the heads mix widths: its uint32 and uint64 state words
    and a request past them equal numpy's object's."""
    for heads in head_columns(k):
        got = streams.derive(heads, 1, list(range(k)))
        assert len(got) == k
        for key, head, i in zip(got, heads, range(k)):
            assert type(key) is streams._Derived
            ref = reference(head, 1, i)
            assert np.array_equal(key.generate_state(8), ref.generate_state(8))
            assert np.array_equal(key.generate_state(4, np.uint64),
                                  ref.generate_state(4, np.uint64))
            assert np.array_equal(key.generate_state(12), ref.generate_state(12))


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


def spy_generators(monkeypatch) -> list:
    """The keys every `np.random.default_rng` call is made with, from now on."""
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda key: made.append(key) or default_rng(key))
    return made


@pytest.mark.parametrize("k", [0, *EDGE_KS])
def test_uniforms_cut_over(monkeypatch, k):
    """`uniforms` and `first_words` make no Generator at any K, whatever
    the heads' widths."""
    made = spy_generators(monkeypatch)
    for heads in head_columns(k):
        streams.uniforms(2, heads, 5, 1, list(range(k)))
        streams.first_words(heads, 5, 1, list(range(k)))
    assert made == []


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


def numpy_permutations(n, keys):
    return np.array([np.random.default_rng(key).permutation(n) for key in keys],
                    dtype=np.int64).reshape(-1, n)


def batch_min_for(n):
    """The fewest keys whose batch shuffles n indices itself."""
    return next(k for k in range(streams.BATCH_MIN, 10**6) if streams.shuffles_in_batch(k, n))


# One and two, powers of two and their neighbours, up to past the n at
# which a batch of a few hundred keys stops shuffling itself.
EDGE_NS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33]
FORCED_NS = [*EDGE_NS, 63, 64, 65, 127, 128, 129, 240]


@given(
    master=st.sampled_from(EDGE_MASTERS),
    n=st.sampled_from(EDGE_NS),
    side=st.sampled_from([-1, 0, 1]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_permutations_match_generator(master, n, side, data):
    """Row k is numpy's `default_rng(key k).permutation(n)`, with K on both
    sides of `BATCH_MIN` and of the batch's crossover for n."""
    k = data.draw(st.sampled_from([0, *EDGE_KS, batch_min_for(n) + side]))
    rnd = data.draw(st.one_of(words, st.lists(words, min_size=k, max_size=k)))
    clients = data.draw(st.lists(words, min_size=k, max_size=k))
    got = streams.permutations(n, master, 4, rnd, clients)
    rounds = rnd if isinstance(rnd, list) else [rnd] * k
    assert got.shape == (k, n) and got.dtype == np.int64
    assert np.array_equal(got, numpy_permutations(n, map(reference, [master] * k, [4] * k,
                                                         rounds, clients)))


@given(
    master=st.sampled_from(EDGE_MASTERS),
    n=st.sampled_from(FORCED_NS),
    k=st.sampled_from(EDGE_KS + [40]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_forced_batch_permutations_match_generator(master, n, k, data):
    """The batched kernel itself, forced on from `BATCH_MIN` keys at any n."""
    clients = data.draw(st.lists(words, min_size=k, max_size=k))
    with unittest.mock.patch.object(streams, "SHUFFLE_BATCH_MIN", 0):
        got = streams.permutations(n, master, 4, 7, clients)
    assert np.array_equal(got, numpy_permutations(n, (reference(master, 4, 7, c)
                                                      for c in clients)))


@given(
    seeds=st.lists(st.one_of(words, st.integers(0, 2**64)), min_size=1, max_size=3),
    n=st.sampled_from([1, 2, 16, 17, 33]),
    epochs=st.sampled_from([1, 3]),
)
@settings(max_examples=40, deadline=None)
def test_permutations_over_head_column(seeds, n, epochs):
    """Heads of one and two words, as a cohort's (seed, epoch) keys: a batch
    when they share a width, numpy's own Generators when they mix."""
    heads = [s for s in seeds for _ in range(streams.BATCH_MIN * epochs)]
    rounds = list(range(streams.BATCH_MIN * epochs)) * len(seeds)
    with unittest.mock.patch.object(streams, "SHUFFLE_BATCH_MIN", 0):
        got = streams.permutations(n, heads, rounds)
    assert np.array_equal(got, numpy_permutations(n, map(reference, heads, rounds)))


@pytest.mark.parametrize("master", EDGE_MASTERS)
@pytest.mark.parametrize("n, spare, every", [
    (2, -2, True), (3, -2, False), (8, -4, False), (16, -6, False), (33, -11, False),
    (33, -33, True),
])
def test_exhausted_lanes_match_numpy(monkeypatch, master, n, spare, every):
    """Blocks too short for some lanes' shuffles, or for every lane's (a
    margin below n): those lanes are numpy's own Generator's, the rest the
    kernel's, all equal to numpy's."""
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda key: made.append(key) or default_rng(key))
    monkeypatch.setattr(streams, "_SPARE_OUTPUTS", spare)
    monkeypatch.setattr(streams, "SHUFFLE_BATCH_MIN", 0)
    clients = list(range(64))
    got = streams.permutations(n, master, 4, 7, clients)
    assert 0 < len(made) <= len(clients)
    assert (len(made) == len(clients)) == every
    assert np.array_equal(got, numpy_permutations(n, (reference(master, 4, 7, c)
                                                      for c in clients)))


@pytest.mark.parametrize("n", [2, 16, 33])
def test_permutations_cut_over(monkeypatch, n):
    """`permutations` shuffles every lane itself at any K, on either side of
    `BATCH_MIN` and of the crossover for n: it makes a Generator only for
    a lane that rejects past its block, here every lane once the block
    holds no word."""
    cross = batch_min_for(n)
    made = spy_generators(monkeypatch)
    for k in sorted({0, *EDGE_KS, cross - 1, cross, cross + 1}):
        for heads in head_columns(k):
            streams.permutations(n, heads, 4, list(range(k)))
    assert made == []
    monkeypatch.setattr(streams, "_SPARE_OUTPUTS", -n)
    for k in [0, *EDGE_KS]:
        made.clear()
        got = streams.permutations(n, 2**40 + 3, 4, list(range(k)))
        assert len(made) == k
        assert np.array_equal(got, numpy_permutations(n, (reference(2**40 + 3, 4, c)
                                                          for c in range(k))))
