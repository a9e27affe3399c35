import numpy as np
import pytest
from numpy.random import Philox, SeedSequence

from surfbench.streams import int_words, philox_first_words

# Seeds at and across the uint32 word boundaries: 2**32 and 2**63 + 5 take
# two entropy words, so their noise keys are 5 words long, past the pool.
SEEDS = [0, 42, 2**32 - 1, 2**32, 2**63 + 5]


def numpy_first_words(keys):
    """The oracle: numpy's own SeedSequence and Philox, one key at a time."""
    return np.array([Philox(SeedSequence(key)).random_raw() for key in keys], dtype=np.uint64)


@pytest.mark.parametrize("seed", SEEDS + [2**64 - 1, 2**70 + 3])
def test_int_words_match_seed_sequence_coercion(seed):
    assert np.array_equal(SeedSequence(int_words(seed)).pool, SeedSequence(seed).pool)


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
