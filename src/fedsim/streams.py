"""Seed sequences for many random keys at once, bit-identical to numpy's.

Every draw of a run comes from numpy's `default_rng(SeedSequence(key))`.
`derive` mixes K keys' entropy and generates their state in one pass over a
(K, L) uint32 matrix, each key wrapped in an `ISeedSequence` that
`default_rng` and `PCG64` take as they take numpy's.  The pass costs about
0.2 ms and numpy about 12 µs a key, so below `BATCH_MIN` keys it is numpy's.
"""

from itertools import repeat

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's constants (numpy/random/bit_generator.pyx); its pool is 4 words.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
BATCH_MIN = 16  # key count from which one batch beats a SeedSequence per key
_HEAD_MASK, _PART_MASK = 2**63 - 1, 2**32 - 1


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


def derive(head, *parts) -> list:
    """Seed sequences for K keys (head, *parts).  Each argument is an int
    shared by every key or a length-K sequence (K is 1 with none).  Key k is
    `SeedSequence([h, *p])`, h the head masked to 63 bits (two entropy words
    from 2**32 on), each part masked to 32 bits; numpy's own objects below
    `BATCH_MIN` keys or when the heads differ in word count."""
    columns = (head, *parts)
    scalar = [isinstance(c, (int, np.integer)) for c in columns]
    k = max((len(c) for c, s in zip(columns, scalar) if not s), default=1)
    if k >= BATCH_MIN:
        cols = [
            np.full(k, int(c) & m, dtype=np.uint64) if s
            else np.fromiter((int(v) & m for v in c), np.uint64, k)
            for c, s, m in zip(columns, scalar, [_HEAD_MASK] + [_PART_MASK] * len(parts))
        ]
        wide = cols[0] > _PART_MASK
        if wide.all() or not wide.any():
            head_words = [cols[0] & _PART_MASK, cols[0] >> np.uint64(32)] if wide[0] else cols[:1]
            entropy = np.stack(head_words + cols[1:], axis=1).astype(np.uint32)
            words = state_words(entropy)
            # numpy's uint64 layout: little-endian word pairs, native values.
            batch = (entropy, words, words.astype("<u4", order="C").view("<u8").astype(np.uint64))
            return [_Derived(batch, i) for i in range(k)]
    rows = zip(*(repeat(c, k) if s else c for c, s in zip(columns, scalar)))
    return [np.random.SeedSequence(_entropy(h, ps)) for h, *ps in rows]
