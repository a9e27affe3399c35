import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.random import Generator, Philox, SeedSequence

from surfbench import metrics
from surfbench.metrics import (
    DEFAULT_RESAMPLES,
    RESAMPLE_ELEMENTS,
    _resample_means,
    bootstrap_ci,
    compute_metrics,
    metric_stack,
)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestComputeMetrics:
    def test_perfect_prediction(self):
        m = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m.rmse == 0.0
        assert m.mae == 0.0
        assert m.r2 == 1.0
        assert m.n_points == 3

    def test_worked_example_constant_predictor(self):
        # ss_res = ss_tot = 2, so r2 is exactly 0
        m = compute_metrics([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        assert m.rmse == pytest.approx(0.816496580927726, abs=1e-12)
        assert m.mae == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert m.r2 == pytest.approx(0.0, abs=1e-12)

    def test_worked_example_two_points(self):
        m = compute_metrics([0.0, 2.0], [1.0, 1.0])
        assert m.rmse == pytest.approx(1.0, abs=1e-12)
        assert m.mae == pytest.approx(1.0, abs=1e-12)
        assert m.r2 == pytest.approx(0.0, abs=1e-12)

    def test_worse_than_mean_gives_negative_r2(self):
        m = compute_metrics([0.0, 2.0], [3.0, 3.0])
        assert m.r2 == pytest.approx(-4.0, abs=1e-12)

    def test_non_finite_pairs_dropped(self):
        m = compute_metrics([1.0, 2.0, 3.0, 4.0], [1.0, math.nan, 3.0, 4.0])
        assert m.n_points == 3
        assert m.rmse == 0.0

    def test_fewer_than_two_retained_is_undefined(self):
        assert compute_metrics([1.0, 2.0], [math.nan, 2.0]) is None
        assert compute_metrics([1.0], [1.0]) is None

    def test_zero_target_variance_is_undefined(self):
        assert compute_metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            compute_metrics([1.0, 2.0], [1.0])

    @given(
        y=st.lists(finite_floats, min_size=2, max_size=30),
        noise=st.lists(finite_floats, min_size=2, max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_rmse_dominates_mae(self, y, noise):
        n = min(len(y), len(noise))
        m = compute_metrics(y[:n], [a + b for a, b in zip(y[:n], noise[:n])])
        if m is not None:
            assert m.rmse >= m.mae - 1e-15 * max(1.0, m.rmse)

    @given(
        seed=st.integers(0, 100_000),
        k=st.floats(1e-3, 1e3),
        shift=st.floats(-100.0, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_equivariance_and_shift_invariance(self, seed, k, shift):
        rng = np.random.default_rng(seed)
        y = rng.normal(0.0, 1.0, 12)
        pred = y + rng.normal(0.0, 0.5, 12)
        base = compute_metrics(y, pred)
        scaled = compute_metrics(k * y, k * pred)
        assert scaled.rmse == pytest.approx(k * base.rmse, rel=1e-12)
        assert scaled.mae == pytest.approx(k * base.mae, rel=1e-12)
        assert scaled.r2 == pytest.approx(base.r2, rel=1e-9, abs=1e-12)
        shifted = compute_metrics(y + shift, pred + shift)
        assert shifted.r2 == pytest.approx(base.r2, rel=1e-9, abs=1e-12)


def scalar_metrics(yt, yp):
    """The oracle: one run's metrics by 1-D arithmetic, (rmse, mae, r2),
    None when undefined."""
    if yt.size < 2:
        return None
    ss_tot = float(np.sum((yt - yt.mean()) ** 2))
    if ss_tot == 0.0:
        return None
    err = yt - yp
    ss_res = float(err @ err)
    return float(np.sqrt(ss_res / yt.size)), float(np.mean(np.abs(err))), 1.0 - ss_res / ss_tot


def bits(values):
    return np.array(values, dtype=np.float64).tobytes()


@st.composite
def metric_stacks(draw, min_k=2):
    """(B, k) targets and predictions, k = min_k ... 11; some target rows
    constant (zero variance), values from a small pool so ties occur."""
    b = draw(st.integers(1, 12))
    k = draw(st.integers(min_k, 11))
    values = st.one_of(st.sampled_from([0.0, 1.0, -2.5, 1e-300]), finite_floats)
    y_true = draw(arrays(np.float64, (b, k), elements=values))
    constant = draw(arrays(np.bool_, b))
    y_true[constant] = y_true[constant, :1]
    y_pred = draw(arrays(np.float64, (b, k), elements=values))
    return y_true, y_pred


class TestMetricStack:
    @given(stacks=metric_stacks())
    @settings(max_examples=300, deadline=None)
    def test_each_row_equals_the_row_alone_bit_for_bit(self, stacks):
        y_true, y_pred = stacks
        rmse, mae, r2, defined = metric_stack(y_true, y_pred)
        for i, (yt, yp) in enumerate(zip(y_true, y_pred)):
            expected = scalar_metrics(yt, yp)
            alone = compute_metrics(yt, yp)
            assert defined[i] == (expected is not None) == (alone is not None)
            if expected is None:
                assert np.isnan(r2[i])
                continue
            assert bits([rmse[i], mae[i], r2[i]]) == bits(expected)
            assert bits([alone.rmse, alone.mae, alone.r2]) == bits(expected)
            assert alone.n_points == yt.size

    @pytest.mark.parametrize("k", [0, 1])
    def test_fewer_than_two_columns_are_undefined(self, k):
        rmse, mae, r2, defined = metric_stack(np.ones((3, k)), np.ones((3, k)))
        assert not defined.any()
        assert np.isnan(np.concatenate([rmse, mae, r2])).all()

    def test_no_rows(self):
        assert all(v.shape == (0,) for v in metric_stack(np.empty((0, 4)), np.empty((0, 4))))


class TestBootstrap:
    def test_constant_samples_give_degenerate_ci(self):
        ci = bootstrap_ci([4.2] * 10, resamples=200, seed=1)
        assert ci.lower == ci.upper
        assert ci.lower == pytest.approx(4.2, rel=1e-15)

    def test_two_point_sample(self):
        ci = bootstrap_ci([0.0, 1.0], resamples=500, seed=2)
        assert 0.0 <= ci.lower <= ci.upper <= 1.0

    def test_empty_is_undefined(self):
        assert bootstrap_ci([]) is None

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], resamples=0)

    def test_deterministic_for_fixed_seed(self):
        samples = list(np.random.default_rng(3).normal(0, 1, 40))
        a = bootstrap_ci(samples, seed=(7, 1))
        b = bootstrap_ci(samples, seed=(7, 1))
        assert (a.lower, a.upper) == (b.lower, b.upper)
        c = bootstrap_ci(samples, seed=(7, 2))
        assert (a.lower, a.upper) != (c.lower, c.upper)

    def test_bounds_inside_resample_distribution(self):
        rng = np.random.default_rng(4)
        samples = rng.normal(0.0, 1.0, 25)
        ci = bootstrap_ci(samples, resamples=300, seed=9)
        means = _resample_means(samples, 300, 9)
        assert means.min() <= ci.lower <= ci.upper <= means.max()
        assert ci.resamples == 300

    def test_normal_sample_ci_width_matches_clt(self):
        # 95% CI for the mean of 100 standard normals: width about 2*1.96/10
        rng = np.random.default_rng(5)
        samples = rng.standard_normal(100)
        ci = bootstrap_ci(samples, resamples=2000, seed=11)
        expected = 2.0 * 1.96 / 10.0
        assert (ci.upper - ci.lower) == pytest.approx(expected, rel=0.30)

    @staticmethod
    def assert_chunked_draws_match_one_shot_draw(n, resamples):
        samples = np.random.default_rng(n).normal(0.0, 1.0, n)
        seed = (42, 3, 1, 2, 0, 1)
        idx = Generator(Philox(SeedSequence(seed))).integers(0, n, size=(resamples, n))
        expected = samples[idx].mean(axis=1)
        assert _resample_means(samples, resamples, seed).tobytes() == expected.tobytes()

    # 165 resamples are three draws at n = 440 (64 rows each), 1000 are
    # three at n = 65 (433 rows each).
    @pytest.mark.parametrize("resamples", [DEFAULT_RESAMPLES, 165, 5])
    @pytest.mark.parametrize("n", [2, 7, 65, 440])
    def test_chunked_draws_match_one_shot_draw(self, n, resamples):
        self.assert_chunked_draws_match_one_shot_draw(n, resamples)

    @pytest.mark.parametrize("n", [2, 7, 65, 440, RESAMPLE_ELEMENTS + 1])
    def test_draws_cross_a_chunk_boundary_at_every_size(self, n):
        # At least two chunk boundaries, whatever the rows per draw.
        self.assert_chunked_draws_match_one_shot_draw(n, 2 * max(1, RESAMPLE_ELEMENTS // n) + 37)

    def test_index_draws_never_exceed_the_chunk(self, monkeypatch):
        shapes = []

        class Recording:
            def __init__(self, bit_generator):
                self.rng = Generator(bit_generator)

            def integers(self, low, high, size):
                shapes.append(size)
                return self.rng.integers(low, high, size=size)

        monkeypatch.setattr(metrics, "Generator", Recording)
        chunk = RESAMPLE_ELEMENTS // 30
        resamples = 4 * chunk + 1
        _resample_means(np.arange(30.0), resamples, 0)
        assert sum(rows for rows, _ in shapes) == resamples
        assert max(rows for rows, _ in shapes) == chunk
