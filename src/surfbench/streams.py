"""Vectorized counter-based streams: numpy's ``SeedSequence`` and Philox.

``philox_first_words(entropy)`` returns, for each row of an (N, w) uint32
entropy array, ``Philox(SeedSequence(row)).random_raw()``: the first 64-bit
word of the stream, for all N keys in one call. It reproduces
``SeedSequence``'s pool mixing (``hashmix``/``mix`` over a pool of 4 uint32
words, for any number of entropy words), its ``generate_state(2, uint64)``
key, and Philox4x64-10 (Salmon et al. 2011) on the counter numpy uses for
the first block, (1, 0, 0, 0). numpy's compatibility policy (NEP 19) keeps
those streams fixed across releases, and numpy itself remains the test
oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["int_words", "philox_first_words"]

_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_MASK32 = np.uint64(0xFFFFFFFF)
_S16, _S32 = np.uint32(16), np.uint64(32)


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


def philox_first_words(entropy) -> np.ndarray:
    """``Philox(SeedSequence(e)).random_raw()`` for each row ``e`` of an
    (N, w) array of uint32 entropy words, as an (N,) uint64 array."""
    entropy = np.asarray(entropy, dtype=np.uint32)
    if entropy.ndim != 2:
        raise ValueError(f"expected (N, w) entropy words, got shape {entropy.shape}")
    # generate_state(2, uint64): 4 words hashed from the pool, read
    # little-endian as the two key words.
    state = _hash(_pool(entropy.T), _consts(_INIT_B, _MULT_B, _POOL)).astype(np.uint64)
    key = state[0::2] | (state[1::2] << _S32)
    zero = np.zeros(len(entropy), dtype=np.uint64)
    c0, c1, c2, c3 = zero + np.uint64(1), zero, zero, zero
    for r in range(10):
        if r:
            key = key + _PHILOX_W
        hi, lo = _mulhilo(_PHILOX_M, np.stack([c0, c2]))
        c0, c1, c2, c3 = hi[1] ^ c1 ^ key[0], lo[1], hi[0] ^ c3 ^ key[1], lo[0]
    return c0
