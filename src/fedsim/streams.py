"""Seed sequences, uniform draws and permutations for many random keys at
once, bit-identical to numpy's.

Every draw of a run is numpy's `default_rng(SeedSequence(key))`, or equal
to it bit for bit.  `derive` mixes K keys' entropy and generates their state
in one pass over a (K, L) uint32 matrix, each key wrapped in an
`ISeedSequence` that `default_rng` and `PCG64` take as they take numpy's.
`first_words` reads each key's first state word from the same pass, and
`uniforms` runs PCG64 itself over the pass's uint64 state words, so a batch
of K keys draws its doubles with no Generator at all.  A pass costs about
0.2 ms and numpy about 12 µs a key, so below `BATCH_MIN` keys all three are
numpy's own.  `permutations` replays numpy's shuffle over the same PCG64
outputs, every lane at once; that costs about 30 µs an index however few
the lanes, so only a batch wide enough for its n (`shuffles_in_batch`)
shuffles itself, and every other key is shuffled by numpy's own Generator.
"""

import zlib
from itertools import repeat

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's constants (numpy/random/bit_generator.pyx); its pool is 4 words.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
BATCH_MIN = 16  # key count from which one batch beats a SeedSequence per key
_HEAD_MASK, _PART_MASK = 2**63 - 1, 2**32 - 1


def client_key(client_id: str) -> int:
    """The key part that stands for a client in every per-client stream.
    Two ids with one key would draw the same values, so a config refuses
    them."""
    return zlib.crc32(client_id.encode())


def _hashmix(values: np.ndarray, init: int, mult: int, call: int) -> np.ndarray:
    """`hashmix` calls call, call+1, ... along the last axis; array constants wrap."""
    js = range(call, call + values.shape[-1] + 1)
    consts = np.array([init * pow(mult, j, 2**32) % 2**32 for j in js], dtype=np.uint32)
    out = (values ^ consts[:-1]) * consts[1:]
    return out ^ (out >> _SHIFT)


def state_words(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(row).generate_state(8)` for each row of a (K, L) uint32
    entropy matrix: `mix_entropy`, then `generate_state`, column by column."""
    length = entropy.shape[1]
    pool = np.zeros((len(entropy), 4), dtype=np.uint32)
    pool[:, :length] = entropy[:, :4]
    pool, call = _hashmix(pool, _INIT_A, _MULT_A, 0), 4
    # Each pool word's hash into the other three, then each further word's into all.
    for src in range(max(4, length)):
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix((pool if src < 4 else entropy)[:, [src] * len(dst)],
                          _INIT_A, _MULT_A, call)
        mixed = pool[:, dst] * _MIX_L - hashed * _MIX_R
        pool[:, dst] = mixed ^ (mixed >> _SHIFT)
        call += len(dst)
    return _hashmix(pool[:, np.arange(8) % 4], _INIT_B, _MULT_B, 0)


@ISeedSequence.register  # registered, not inherited, so that __slots__ holds
class _Derived:
    """Key i of a batch (entropy, uint32 state words, the uint64 words PCG64
    reads); a longer request goes to numpy's SeedSequence over its entropy."""

    __slots__ = ("_batch", "_i")

    def __init__(self, batch: tuple, i: int):
        self._batch, self._i = batch, i

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        entropy, words, state = self._batch
        held = {np.uint32: words, np.uint64: state}.get(np.dtype(dtype).type)
        if held is not None and n_words <= held.shape[1]:
            return held[self._i, :n_words].copy()
        return np.random.SeedSequence(entropy[self._i]).generate_state(n_words, dtype)


def _entropy(head, parts) -> np.ndarray:
    """One key's entropy words, as a uint32 array SeedSequence takes uncoerced."""
    h = int(head) & _HEAD_MASK
    words = [h & _PART_MASK, h >> 32] if h > _PART_MASK else [h]
    return np.array(words + [int(p) & _PART_MASK for p in parts], dtype=np.uint32)


def _keys(head, parts) -> tuple | list:
    """The K keys (head, *parts) as one state block (entropy, uint32 state
    words, the uint64 words PCG64 reads), or as numpy's own SeedSequences
    below `BATCH_MIN` keys or when the heads differ in word count."""
    columns = (head, *parts)
    scalar = [isinstance(c, (int, np.integer)) for c in columns]
    k = max((len(c) for c, s in zip(columns, scalar) if not s), default=1)
    if k >= BATCH_MIN:
        cols = [
            np.full(k, int(c) & m, dtype=np.uint64) if s
            else c.astype(np.uint64) & np.uint64(m) if isinstance(c, np.ndarray)
            else np.fromiter((int(v) & m for v in c), np.uint64, k)
            for c, s, m in zip(columns, scalar, [_HEAD_MASK] + [_PART_MASK] * len(parts))
        ]
        wide = cols[0] > _PART_MASK
        if wide.all() or not wide.any():
            head_words = [cols[0] & _PART_MASK, cols[0] >> np.uint64(32)] if wide[0] else cols[:1]
            entropy = np.stack(head_words + cols[1:], axis=1).astype(np.uint32)
            words = state_words(entropy)
            # numpy's uint64 layout: little-endian word pairs, native values.
            return entropy, words, words.astype("<u4", order="C").view("<u8").astype(np.uint64)
    rows = zip(*(repeat(c, k) if s else c for c, s in zip(columns, scalar)))
    return [np.random.SeedSequence(_entropy(h, ps)) for h, *ps in rows]


def derive(head, *parts) -> list:
    """Seed sequences for K keys (head, *parts).  Each argument is an int
    shared by every key or a length-K sequence, such as an integer array,
    which a batch masks in one pass (K is 1 with none).  Key k is
    `SeedSequence([h, *p])`, h the head masked to 63 bits (two entropy words
    from 2**32 on), each part masked to 32 bits; numpy's own objects below
    `BATCH_MIN` keys or when the heads differ in word count."""
    keys = _keys(head, parts)
    if isinstance(keys, list):
        return keys
    return [_Derived(keys, i) for i in range(len(keys[0]))]


def first_words(head, *parts) -> list[int]:
    """`int(key.generate_state(1)[0])` for each key `derive(head, *parts)`
    makes: a batch's first state word column."""
    keys = _keys(head, parts)
    if isinstance(keys, list):
        return [int(key.generate_state(1)[0]) for key in keys]
    return keys[1][:, 0].tolist()


# PCG64's 128-bit multiplier (numpy/random/src/pcg64/pcg64.h), its low word
# also as 32-bit limbs for the high half of a 64 x 64-bit product.
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_LIMB, _32 = np.uint64(_PART_MASK), np.uint64(32)
_MULT_LO_0, _MULT_LO_1 = _MULT_LO & _LIMB, _MULT_LO >> _32


def _add128(hi, lo, add_hi, add_lo) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) + (add_hi, add_lo) mod 2**128, word arrays."""
    low = lo + add_lo
    return hi + add_hi + (low < lo), low


def _step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 step: state * multiplier + inc mod 2**128."""
    a0, a1 = lo & _LIMB, lo >> _32
    p00, p01, p10 = a0 * _MULT_LO_0, a0 * _MULT_LO_1, a1 * _MULT_LO_0
    carry = ((p00 >> _32) + (p01 & _LIMB) + (p10 & _LIMB)) >> _32
    lo_hi = a1 * _MULT_LO_1 + (p01 >> _32) + (p10 >> _32) + carry  # high word of lo * MULT_LO
    return _add128(lo_hi + hi * _MULT_LO + lo * _MULT_HI, lo * _MULT_LO, inc_hi, inc_lo)


def _outputs(w: np.ndarray, n: int) -> np.ndarray:
    """The first n PCG64 outputs, (K, n) uint64, of K keys' uint64 state
    words, seeded as `pcg64_set_seed` does: state = (w0, w1), inc = (w2, w3),
    then `srandom`; each output a step and then XSL-RR."""
    one = np.uint64(1)
    inc_hi, inc_lo = (w[:, 2] << one) | (w[:, 3] >> np.uint64(63)), (w[:, 3] << one) | one
    # srandom: a step from state 0 leaves inc; add the seed's state; step.
    hi, lo = _step(*_add128(inc_hi, inc_lo, w[:, 0], w[:, 1]), inc_hi, inc_lo)
    out = np.empty((len(w), n), dtype=np.uint64)
    for j in range(n):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)  # XSL-RR: xor the words, rotate by the top 6 bits
        out[:, j] = (x >> rot) | (x << (-rot & np.uint64(63)))
    return out


def uniforms(n: int, head, *parts) -> np.ndarray:
    """`default_rng(key).random(n)` for each key `derive(head, *parts)`
    makes, as a (K, n) array.  A batch runs PCG64 over all its keys at once
    (`_outputs`), each double an output's top 53 bits; numpy's own draws
    below `BATCH_MIN`."""
    keys = _keys(head, parts)
    if isinstance(keys, list):
        return np.array([np.random.default_rng(key).random(n) for key in keys]).reshape(-1, n)
    return (_outputs(keys[2], n) >> np.uint64(11)) * 2.0**-53


# Outputs a lane draws past n for its shuffle.  numpy's n - 1 interval draws
# take under 1.5 words each on average, two words an output, so n + 4
# outputs leave a lane short only after a long run of rejections.
_SPARE_OUTPUTS = 4
# Keys from which one batch of 16-index shuffles beats numpy's Generator per
# key.  A batch costs about 30 µs an index plus 0.05 µs an index a key, numpy
# about 5 µs a key, so the crossover grows with n: measured near 12 keys an
# index up to n = 48, about 20 at n = 64, and none by n = 128.  Scaling it
# with n squared keeps every batch inside the measured gain.
SHUFFLE_BATCH_MIN = 256


def shuffles_in_batch(lanes: int, n: int) -> bool:
    """Whether a batch of `lanes` keys shuffles n indices itself."""
    return lanes >= SHUFFLE_BATCH_MIN * (n / 16) ** 2


def permutations(n: int, head, *parts) -> np.ndarray:
    """`default_rng(key).permutation(n)` for each key `derive(head, *parts)`
    makes, as a (K, n) int64 array.

    numpy shuffles `arange(n)` by swapping entry i with entry
    j = `random_interval(i)` for i = n - 1 down to 1, where j is the first
    `next_uint32` draw whose bits under the smallest mask 2**b - 1 >= i are
    at most i; PCG64 hands out each 64-bit output's low half, then its high
    half.  A batch wide enough for its n (`shuffles_in_batch`) replays
    that over all its lanes at once, from a block of n + `_SPARE_OUTPUTS`
    outputs per lane (`_outputs`); a lane that rejects past its block is
    shuffled by numpy's own Generator.  Other keys are numpy's own
    `default_rng(key).permutation(n)`.
    """
    keys = _keys(head, parts)
    lanes = len(keys) if isinstance(keys, list) else len(keys[0])
    if isinstance(keys, list) or not shuffles_in_batch(lanes, n):
        own = keys if isinstance(keys, list) else [_Derived(keys, i) for i in range(lanes)]
        return np.array([np.random.default_rng(key).permutation(n) for key in own],
                        dtype=np.int64).reshape(lanes, n)
    drawn = 2 * (n + _SPARE_OUTPUTS)
    # Each lane's words, then n zero words that every draw accepts, so a
    # lane past its block reads no other lane's words.
    words = np.zeros((lanes, drawn + n), dtype="<u4")
    words[:, :drawn] = _outputs(keys[2], n + _SPARE_OUTPUTS).astype("<u8").view("<u4")
    start = np.arange(lanes) * (drawn + n)
    at, words = start.copy(), words.ravel()  # each lane's next word
    perms, rows = np.tile(np.arange(n, dtype=np.int64), lanes), np.arange(lanes) * n
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = words[at] & mask
        at += 1
        late = np.flatnonzero(j > i)
        while late.size:
            again = words[at[late]] & mask
            at[late] += 1
            j[late] = again
            late = late[again > i]
        row_i, row_j = rows + i, rows + j
        held = perms[row_j]
        perms[row_j] = perms[row_i]
        perms[row_i] = held
    perms = perms.reshape(lanes, n)
    for lane in np.flatnonzero(at - start > drawn):
        perms[lane] = np.random.default_rng(_Derived(keys, lane)).permutation(n)
    return perms
