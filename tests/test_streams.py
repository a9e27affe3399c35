import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence

from surfbench import streams
from surfbench.streams import int_words, permutations, philox_first_words

# Seeds at and across the uint32 word boundaries: 2**32 and 2**63 + 5 take
# two entropy words, so their noise keys are 5 words long and their split
# keys 8, past the pool.
SEEDS = [0, 42, 2**32 - 1, 2**32, 2**63 + 5]


def numpy_first_words(keys):
    """The oracle: numpy's own SeedSequence and Philox, one key at a time."""
    return np.array([Philox(SeedSequence(key)).random_raw() for key in keys], dtype=np.uint64)


@pytest.mark.parametrize("seed", SEEDS + [2**64 - 1, 2**70 + 3])
def test_int_words_match_seed_sequence_coercion(seed):
    assert np.array_equal(SeedSequence(int_words(seed)).pool, SeedSequence(seed).pool)


def split_tuples(seed, block):
    """Split derivation tuples (seed, 2, regime, output, axis, level,
    repeat): every (regime, output, axis, level) of the default design,
    with repeats 3 * block ... 3 * block + 2; 216 tuples."""
    return [(seed, 2, regime, output, axis, level, repeat)
            for regime in range(2) for output in (1, 2, 3) for axis in range(3)
            for level in range(4) for repeat in range(3 * block, 3 * block + 3)]


def test_permutations_match_numpy(monkeypatch):
    # 5 seeds x 5 sizes x 216 tuples = 5400 lanes. n = 60 and 100 run past
    # the blocks drawn ahead, so lanes are refilled.
    first = []
    words32 = streams._words32
    monkeypatch.setattr(streams, "_words32",
                        lambda key, start, count: first.append(start) or words32(key, start, count))
    lanes = 0
    for seed in SEEDS:
        for block, n in enumerate([5, 12, 16, 60, 100]):
            keys = split_tuples(seed, block)
            entropy = [int_words(seed) + list(key[1:]) for key in keys]
            expected = np.array([Generator(Philox(SeedSequence(key))).permutation(n) for key in keys])
            got = permutations(entropy, n)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected), (seed, n)
            assert np.array_equal(philox_first_words(entropy), numpy_first_words(keys))
            lanes += len(keys)
    assert lanes >= 5000
    assert max(first) > 0


def test_blocks_are_the_raw_stream():
    entropy = np.array([[42, 2, 1, 3, 2, 0, 7], [0, 2, 0, 1, 0, 3, 39]], dtype=np.uint32)
    words = streams._blocks(streams._keys(entropy), 0, 5)
    later = streams._blocks(streams._keys(entropy), 3, 2)
    for row, got, tail in zip(entropy, words, later):
        expected = Philox(SeedSequence([int(w) for w in row])).random_raw(20)
        assert np.array_equal(got, expected)
        assert np.array_equal(tail, expected[12:])


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_permutations(n):
    entropy = [[7, 2, 0, 0, 0, 0, r] for r in range(4)]
    expected = [Generator(Philox(SeedSequence(row))).permutation(n) for row in entropy]
    assert np.array_equal(permutations(entropy, n), np.array(expected, dtype=np.int64).reshape(4, n))


def test_lanes_are_shuffled_in_chunks(monkeypatch):
    monkeypatch.setattr(streams, "LANE_CHUNK", 3)
    entropy = [[42, 2, 1, 1, 0, 0, r] for r in range(8)]
    expected = [Generator(Philox(SeedSequence(row))).permutation(12) for row in entropy]
    assert np.array_equal(permutations(entropy, 12), expected)
    assert permutations(np.empty((0, 7)), 12).shape == (0, 12)


def test_noise_keys_match_numpy():
    # 5 seeds x 400 rows (row 0 included) x 3 channels = 6000 keys.
    keys = [(seed, 1, row, k) for seed in SEEDS for row in range(400) for k in range(3)]
    got = np.concatenate([
        philox_first_words([int_words(seed) + [1, row, k] for row in range(400) for k in range(3)])
        for seed in SEEDS
    ])
    assert len(keys) >= 5000
    assert np.array_equal(got, numpy_first_words(keys))


@pytest.mark.parametrize("n_words", [0, 1, 2, 3, 4, 5, 8, 11])
def test_random_entropy_of_any_length_matches_numpy(n_words):
    rng = np.random.default_rng(n_words)
    entropy = rng.integers(0, 2**32, size=(200, n_words), dtype=np.uint64).astype(np.uint32)
    keys = [[int(w) for w in row] for row in entropy]
    assert np.array_equal(philox_first_words(entropy), numpy_first_words(keys))


def test_entropy_must_be_two_dimensional():
    with pytest.raises(ValueError, match="entropy"):
        philox_first_words(np.zeros(4, dtype=np.uint32))
    with pytest.raises(ValueError, match="entropy"):
        permutations(np.zeros(4, dtype=np.uint32), 5)
