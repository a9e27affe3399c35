"""Vectorized counter-based streams: numpy's ``SeedSequence`` and Philox.

Each row of an (N, w) uint32 entropy array keys one lane: the stream of
``Philox(SeedSequence(row))``. The kernel reproduces ``SeedSequence``'s pool
mixing (``hashmix``/``mix`` over a pool of 4 uint32 words, for any number of
entropy words), its ``generate_state(2, uint64)`` key, and Philox4x64-10
(Salmon et al. 2011) on the counters numpy uses, (1, 0, 0, 0) for the first
block and one more for each block after it, for all N lanes in one call.

- ``philox_first_words(entropy)``: each lane's first 64-bit word,
  ``Philox(SeedSequence(row)).random_raw()``.
- ``permutations(entropy, n)``: each lane's
  ``Generator(Philox(SeedSequence(row))).permutation(n)``. numpy shuffles
  ``arange(n)`` for i = n - 1 ... 1, each j drawn by ``random_interval``:
  a 32-bit word (the low half of each 64-bit word, then its high half)
  masked to the next power of two minus one, rejected while above i.

numpy's compatibility policy (NEP 19) keeps ``SeedSequence`` and Philox
streams fixed across releases, and numpy itself remains the test oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["int_words", "permutations", "philox_first_words"]

_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_MASK32 = np.uint64(0xFFFFFFFF)
_S16, _S32 = np.uint32(16), np.uint64(32)
LANE_CHUNK = 2048  # lanes per shuffle, so the word arrays stay bounded


def int_words(n: int) -> list[int]:
    """The uint32 entropy words ``SeedSequence`` takes from a non-negative
    int: least significant first, ``[0]`` for zero."""
    words = [n & 0xFFFFFFFF]
    while n >= 1 << 32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def _consts(init: int, mult: int, n: int) -> np.ndarray:
    """A hash constant and its next ``n`` values, as an (n + 1, 1) column."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """``hashmix`` of each row ``i`` of ``values``: xor with ``consts[i]``,
    multiply by ``consts[i + 1]``, xor-shift."""
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ (v >> _S16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _S16)


def _pool(entropy: np.ndarray) -> np.ndarray:
    """The (4, N) mixed pools of N ``SeedSequence``s from (w, N) entropy."""
    w, n = entropy.shape
    a = _consts(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(w - _POOL, 0))
    first = np.zeros((_POOL, n), dtype=np.uint32)
    first[:min(w, _POOL)] = entropy[:_POOL]
    pool = _hash(first, a[:_POOL + 1])
    k = _POOL  # index of the next hash constant
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[[src] * len(dst)], a[k:k + len(dst) + 1]))
        k += len(dst)
    for src in range(_POOL, w):
        pool = _mix(pool, _hash(entropy[[src] * _POOL], a[k:k + _POOL + 1]))
        k += _POOL
    return pool


def _mulhilo(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``a * b``, from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> _S32
    b0, b1 = b & _MASK32, b >> _S32
    lo_lo, lo_hi, hi_lo = b0 * a0, b1 * a0, b0 * a1
    mid = (lo_lo >> _S32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    return b1 * a1 + (lo_hi >> _S32) + (hi_lo >> _S32) + (mid >> _S32), b * a


def _as_entropy(entropy) -> np.ndarray:
    entropy = np.asarray(entropy, dtype=np.uint32)
    if entropy.ndim != 2:
        raise ValueError(f"expected (N, w) entropy words, got shape {entropy.shape}")
    return entropy


def _keys(entropy: np.ndarray) -> np.ndarray:
    """The (2, N) Philox keys of N lanes: ``generate_state(2, uint64)``, 4
    words hashed from each pool, read little-endian as the two key words."""
    state = _hash(_pool(entropy.T), _consts(_INIT_B, _MULT_B, _POOL)).astype(np.uint64)
    return state[0::2] | (state[1::2] << _S32)


def _blocks(key: np.ndarray, first: int, count: int) -> np.ndarray:
    """Blocks ``first`` ... ``first + count - 1`` (0-based; block b runs on
    counter b + 1) of each lane's stream, as (N, 4 * count) uint64 words in
    stream order."""
    lanes = key.shape[1]
    if count > 1:
        key = np.repeat(key, count, axis=1)
    c0 = np.tile(np.arange(first + 1, first + count + 1, dtype=np.uint64), lanes)
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            key = key + _PHILOX_W
        hi, lo = _mulhilo(_PHILOX_M, np.stack([c0, c2]))
        c0, c1, c2, c3 = hi[1] ^ c1 ^ key[0], lo[1], hi[0] ^ c3 ^ key[1], lo[0]
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(lanes, 4 * count)


def _words32(key: np.ndarray, first: int, count: int) -> np.ndarray:
    """The 32-bit words of ``_blocks``, low half first, as (N, 8 * count)
    int64 values."""
    words = _blocks(key, first, count)
    return np.stack([words & _MASK32, words >> _S32], axis=-1).reshape(len(words), -1).astype(np.int64)


def philox_first_words(entropy) -> np.ndarray:
    """``Philox(SeedSequence(e)).random_raw()`` for each row ``e`` of an
    (N, w) array of uint32 entropy words, as an (N,) uint64 array."""
    return _blocks(_keys(_as_entropy(entropy)), 0, 1)[:, 0]


def permutations(entropy, n: int) -> np.ndarray:
    """``Generator(Philox(SeedSequence(e))).permutation(n)`` for each row
    ``e`` of an (N, w) array of uint32 entropy words, as an (N, n) int64
    array. Lanes are shuffled LANE_CHUNK at a time, so the word arrays stay
    bounded."""
    entropy = _as_entropy(entropy)
    out = np.empty((len(entropy), n), dtype=np.int64)
    for lo in range(0, len(entropy), LANE_CHUNK):
        out[lo:lo + LANE_CHUNK] = _shuffle(_keys(entropy[lo:lo + LANE_CHUNK]), n)
    return out


def _shuffle(key: np.ndarray, n: int) -> np.ndarray:
    """numpy's shuffle of ``arange(n)`` on each lane keyed by (2, L) ``key``.

    All lanes take step i together; a lane whose word is rejected draws its
    next word until every lane has its j. Blocks are drawn ahead by the
    expected word count and more are drawn whenever a lane runs out.
    """
    lanes = key.shape[1]
    rows = np.arange(lanes)
    perm = np.tile(np.arange(n, dtype=np.int64), (lanes, 1))
    expected = sum((1 << i.bit_length()) / (i + 1) for i in range(1, n))
    count = int(expected / 8) + 2
    words = _words32(key, 0, count)
    pos = np.zeros(lanes, dtype=np.intp)  # next unread word of each lane
    j = np.empty(lanes, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        todo = rows
        while todo.size:
            at = pos[todo]
            if at.max() >= words.shape[1]:
                more = count // 2 + 1
                words = np.concatenate([words, _words32(key, count, more)], axis=1)
                count += more
            value = words[todo, at] & mask
            pos[todo] = at + 1
            ok = value <= i
            j[todo[ok]] = value[ok]
            todo = todo[~ok]
        swap = perm[rows, j]
        perm[rows, j] = perm[:, i]
        perm[:, i] = swap
    return perm
