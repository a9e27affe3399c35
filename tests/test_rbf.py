import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import min_separated
from surfbench.errors import (
    IllConditionedWarning,
    InsufficientNodes,
    InterpolationError,
    NonFiniteInput,
    SingularSystem,
)
from surfbench.rbf import (
    CONDITION_WARN_THRESHOLD,
    ILL_CONDITIONED_MESSAGE,
    RbfConfig,
    _fit_systems,
    _kernel_matrix,
    _saddle_systems,
    eval_rbf,
    eval_stack,
    fit_rbf,
    kernel_mq,
)


def stack_fit(pts, values, config=RbfConfig()):
    """The stack path the protocol runs, ``_fit_systems`` over
    ``_saddle_systems``, on (B, n, 2) finite centers and (B, n) values;
    its warnings name the caller's line."""
    return _fit_systems(*_saddle_systems(pts, config), values, np.isfinite(values).all(axis=1),
                        stacklevel=3)


def naive_saddle_solve(points, values, epsilon=1.0):
    """Independent oracle: assemble the positive-convention saddle system and
    solve it by plain Gauss-Jordan elimination with partial pivoting."""
    n = len(points)
    size = n + 3
    a = [[0.0] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            r = math.hypot(points[i][0] - points[j][0], points[i][1] - points[j][1])
            a[i][j] = math.sqrt(1.0 + (epsilon * r) ** 2)
        a[i][n], a[i][n + 1], a[i][n + 2] = 1.0, points[i][0], points[i][1]
        a[n][i], a[n + 1][i], a[n + 2][i] = 1.0, points[i][0], points[i][1]
    b = list(values) + [0.0, 0.0, 0.0]
    for col in range(size):
        piv = max(range(col, size), key=lambda r: abs(a[r][col]))
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for row in range(size):
            if row != col and a[row][col] != 0.0:
                f = a[row][col] / a[col][col]
                for c2 in range(col, size):
                    a[row][c2] -= f * a[col][c2]
                b[row] -= f * b[col]
    sol = [b[i] / a[i][i] for i in range(size)]
    return np.array(sol[:n]), np.array(sol[n:])


def naive_eval(points, weights, tail, query, epsilon=1.0):
    total = tail[0] + tail[1] * query[0] + tail[2] * query[1]
    for (px, py), w in zip(points, weights):
        r = math.hypot(query[0] - px, query[1] - py)
        total += w * math.sqrt(1.0 + (epsilon * r) ** 2)
    return total


class TestKernel:
    def test_origin(self):
        assert kernel_mq(0.0, 3.7) == 1.0

    def test_unit(self):
        assert kernel_mq(1.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_calculator_oracle(self):
        assert kernel_mq(3.0, 2.0) == pytest.approx(6.082762530298219, rel=1e-15)
        assert kernel_mq(3.0, 2.0) == pytest.approx(6.08276, abs=5e-6)

    def test_vectorized(self):
        out = kernel_mq(np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, math.sqrt(2.0)])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(), (1,), (5,)]), st.integers(1, 40),
           st.integers(1, 20), st.floats(-6.0, 6.0), st.floats(0.01, 10.0))
    def test_kernel_matrix_matches_the_difference_stack(self, seed, batch, k, n, log_scale, epsilon):
        # the (..., k, n, 2) difference stack the kernel was computed from
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        a = (rng.random(batch + (k, 2)) + rng.normal()) * scale
        b = (rng.random(batch + (n, 2)) + rng.normal()) * scale
        d = a[..., :, None, :] - b[..., None, :, :]
        expected = kernel_mq(np.hypot(d[..., 0], d[..., 1]), epsilon)
        got = _kernel_matrix(a, b, epsilon)
        assert got.shape == expected.shape == batch + (k, n)
        assert got.tobytes() == expected.tobytes()


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": -1.0},
            {"smoothing": -0.5},
            {"epsilon": math.inf},
            {"smoothing": math.nan},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RbfConfig(**kwargs)


class TestFit:
    def test_linear_data_has_zero_weights_and_exact_tail(self):
        rng = np.random.default_rng(0)
        pts = min_separated(rng, 6, 0.2)
        values = 3.0 + pts[:, 0] - 2.0 * pts[:, 1]
        surface = fit_rbf(pts, values)
        np.testing.assert_allclose(surface.tail_coeffs, [3.0, 1.0, -2.0], atol=1e-8)
        assert np.linalg.norm(surface.weights) <= 1e-8

    def test_interpolates_at_centers(self):
        rng = np.random.default_rng(1)
        pts = min_separated(rng, 10, 0.15)
        values = rng.normal(0.0, 2.0, len(pts))
        surface = fit_rbf(pts, values)
        assert np.abs(eval_rbf(surface, pts) - values).max() <= 1e-8

    def test_orthogonality_constraints(self):
        rng = np.random.default_rng(2)
        pts = min_separated(rng, 9, 0.15)
        surface = fit_rbf(pts, rng.normal(0.0, 1.0, len(pts)))
        tail_basis = np.column_stack([np.ones(len(pts)), pts])
        residual = tail_basis.T @ surface.weights
        assert np.abs(residual).max() <= 1e-8 * max(1.0, np.linalg.norm(surface.weights))

    def test_matches_naive_saddle_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = min_separated(rng, int(rng.integers(5, 11)), 0.2)
            values = rng.uniform(-1.0, 1.0, len(pts))
            surface = fit_rbf(pts, values)
            w, c = naive_saddle_solve(pts.tolist(), values.tolist())
            assert np.abs(surface.weights - w).max() <= 1e-10 * max(1.0, np.abs(w).max())
            np.testing.assert_allclose(surface.tail_coeffs, c, atol=1e-10)

    def test_eval_matches_naive_oracle_at_fixed_query(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.4, 0.6]]
        values = [0.0, 1.0, 2.0, -1.0, 0.5]
        surface = fit_rbf(np.array(pts), np.array(values))
        w, c = naive_saddle_solve(pts, values)
        expected = naive_eval(pts, w, c, (0.7, 0.3))
        assert eval_rbf(surface, np.array([[0.7, 0.3]]))[0] == pytest.approx(expected, abs=1e-10)

    def test_kernel_block_symmetric_exactly(self):
        # IEEE subtraction and hypot are sign-symmetric, so the block needs
        # no explicit symmetrization.
        rng = np.random.default_rng(4)
        pts = min_separated(rng, 8, 0.1)
        k = _kernel_matrix(pts, pts, 1.0)
        assert (k == k.T).all()

    def test_collinear_with_degree1_tail_is_singular(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularSystem):
            fit_rbf(pts, np.zeros(4))

    def test_duplicate_centers_are_singular(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(SingularSystem):
            fit_rbf(pts, np.zeros(4))

    def test_caller_points_stay_writeable(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.4, 0.6]])
        surface = fit_rbf(pts, np.arange(5.0))
        before = eval_rbf(surface, np.array([[0.25, 0.5]]))
        pts[0] = (9.0, 9.0)
        np.testing.assert_array_equal(eval_rbf(surface, np.array([[0.25, 0.5]])), before)

    def test_too_few_nodes(self):
        with pytest.raises(InsufficientNodes):
            fit_rbf(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros(2))

    def test_ill_conditioned_warning_names_the_caller(self):
        pts = np.array([[0.0, 0.0], [1e-11, 1e-11], [1.0, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno + 1
            fit_rbf(pts, np.array([0.0, 0.0, 1.0, 1.0]))
        assert [(w.filename, w.lineno) for w in caught
                if issubclass(w.category, IllConditionedWarning)] == [(__file__, line)]

    def test_ill_conditioned_fit_is_flagged_but_returned(self):
        pts = np.array([[0.0, 0.0], [1e-11, 1e-11], [1.0, 0.0], [0.0, 1.0]])
        values = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.warns(IllConditionedWarning):
            surface = fit_rbf(pts, values)
        assert surface.ill_conditioned
        assert surface.condition_estimate > 1e12

    def test_default_filter_shows_one_ill_conditioned_warning_per_call(self):
        rng = np.random.default_rng(8)
        base = min_separated(rng, 7, 0.1)
        pts = np.stack([base * 1e-3, base * 1e-3 + 0.5, base])  # two nearly flat kernels
        values = rng.normal(0.0, 1.0, (3, 7))
        for action, expected in (("always", 4), ("default", 1)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                for _ in range(2):  # the same call site twice
                    cond = stack_fit(pts, values)[1]
            assert (cond > CONDITION_WARN_THRESHOLD).tolist() == [True, True, False]
            ill = [w for w in caught if issubclass(w.category, IllConditionedWarning)]
            assert len(ill) == expected
            assert {str(w.message) for w in ill} == {ILL_CONDITIONED_MESSAGE}

    def test_well_conditioned_fit_not_flagged(self):
        rng = np.random.default_rng(5)
        pts = min_separated(rng, 8, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            surface = fit_rbf(pts, rng.normal(0.0, 1.0, len(pts)))
        assert not surface.ill_conditioned


class TestEval:
    def test_linear_reproduction_everywhere_including_outside_hull(self):
        rng = np.random.default_rng(6)
        pts = min_separated(rng, 7, 0.2)
        values = 2.0 - 0.5 * pts[:, 0] + 4.0 * pts[:, 1]
        surface = fit_rbf(pts, values)
        queries = rng.uniform(-3.0, 5.0, (60, 2))
        truth = 2.0 - 0.5 * queries[:, 0] + 4.0 * queries[:, 1]
        assert np.abs(eval_rbf(surface, queries) - truth).max() <= 1e-8 * 20.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = min_separated(rng, 8, 0.15)
        if len(pts) < 8:
            return
        values = rng.normal(0.0, 1.0, len(pts))
        shift = rng.uniform(-50.0, 50.0, 2)
        surface = fit_rbf(pts, values)
        shifted = fit_rbf(pts + shift, values)
        queries = rng.uniform(0.0, 1.0, (20, 2))
        scale = max(1.0, np.abs(values).max())
        assert np.abs(
            eval_rbf(surface, queries) - eval_rbf(shifted, queries + shift)
        ).max() <= 1e-10 * scale * 100.0

    def test_matches_scipy_rbf_interpolator(self):
        # scipy solves with the negated kernel (-phi), so agreement also shows
        # that the kernel's sign is absorbed by the weights. Both solve the
        # same system by different factorizations, so the gap scales with
        # its condition number (at most 11 cond eps measured on these sets).
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(12)
        for _ in range(200):
            pts = min_separated(rng, int(rng.integers(4, 25)), 0.05)
            values = rng.normal(0.0, 1.0, len(pts))
            surface = fit_rbf(pts, values)
            oracle = interpolate.RBFInterpolator(
                pts, values, kernel="multiquadric", epsilon=1.0, degree=1
            )
            queries = rng.uniform(-0.5, 1.5, (40, 2))
            gap = np.abs(eval_rbf(surface, queries) - oracle(queries)).max()
            scale = max(1.0, np.abs(values).max())
            assert gap <= 50.0 * surface.condition_estimate * np.finfo(float).eps * scale


class TestStack:
    def test_stack_items_equal_their_batch_of_one(self):
        rng = np.random.default_rng(12)
        for n, k in ((8, 4), (11, 5), (30, 300)):
            pts = np.stack([min_separated(rng, n, 0.05) for _ in range(7)])
            values = rng.normal(0.0, 1.0, (7, n))
            queries = rng.uniform(-0.5, 1.5, (7, k, 2))
            coeffs, cond, errors = stack_fit(pts, values)
            pred = eval_stack(pts, coeffs, queries, RbfConfig().epsilon)
            assert errors == [None] * 7
            for i in range(7):
                surface = fit_rbf(pts[i], values[i])
                assert coeffs[i].tobytes() == np.concatenate(
                    [surface.weights, surface.tail_coeffs]).tobytes()
                assert cond[i] == surface.condition_estimate
                assert pred[i].tobytes() == eval_rbf(surface, queries[i]).tobytes()

    def test_failing_items_fail_alone(self):
        rng = np.random.default_rng(13)
        pts = np.stack([min_separated(rng, 6, 0.15) for _ in range(4)])
        pts[1, :, 1] = 0.25  # collinear
        pts[2, 3] = pts[2, 0]  # duplicate centers: a singular system
        values = rng.normal(0.0, 1.0, (4, 6))
        coeffs, cond, errors = stack_fit(pts, values)
        assert errors[0] is None and errors[3] is None
        assert isinstance(errors[1], SingularSystem) and "collinear" in str(errors[1])
        assert isinstance(errors[2], SingularSystem) and "is singular" in str(errors[2])
        for i in (0, 3):
            surface = fit_rbf(pts[i], values[i])
            assert coeffs[i, :6].tobytes() == surface.weights.tobytes()
            assert cond[i] == surface.condition_estimate

    def test_each_item_fails_as_fit_rbf_does_alone(self):
        rng = np.random.default_rng(14)
        pts = np.stack([min_separated(rng, 6, 0.15) for _ in range(4)])
        values = rng.normal(0.0, 1.0, (4, 6))
        values[1, 2] = np.nan  # non-finite value
        pts[2, :, 1] = 0.25  # collinear
        pts[3, :, 1] = 0.5
        values[3, 4] = np.inf  # collinear and non-finite: non-finite wins
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            coeffs, cond, errors = stack_fit(pts, values)
        expected = [None, NonFiniteInput, SingularSystem, NonFiniteInput]
        assert [type(e) if e else None for e in errors] == expected
        for i in range(1, 4):
            with pytest.raises(InterpolationError) as raised:
                fit_rbf(pts[i], values[i])
            assert type(raised.value) is type(errors[i])
        alone = stack_fit(pts[:1], values[:1])
        assert coeffs[0].tobytes() == alone[0][0].tobytes()
        assert cond[0] == alone[1][0]

    @pytest.mark.parametrize("seed", [16, 17, 18])
    def test_repeated_center_sets_equal_their_batch_of_one(self, seed):
        # center sets repeat with other values, among them an ill-conditioned
        # set, a singular one (duplicate centers: the item-by-item fallback
        # runs) and a set that differs from another only by the sign of a zero
        rng = np.random.default_rng(seed)
        base = [min_separated(rng, 7, 0.1) for _ in range(3)]
        base[0][0] = 0.0
        signed = base[0].copy()
        signed[0, 1] = -0.0
        ill = base[1] * 1e-3  # at epsilon 1, nearly flat kernel rows
        singular = base[2].copy()
        singular[4] = singular[1]
        sets = [base[0], signed, ill, singular, base[1]]
        which = rng.integers(0, len(sets), 14)
        which[:len(sets) + 2] = [*rng.permutation(len(sets)), 2, 3]  # ill and singular twice
        pts = np.stack([sets[i] for i in which])
        values = rng.normal(0.0, 1.0, (len(which), 7))
        values[rng.integers(len(which)), 2] = np.nan
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno + 1
            coeffs, cond, errors = stack_fit(pts, values)
        ill = [w for w in caught if issubclass(w.category, IllConditionedWarning)]
        warned = len(ill)
        # the item-by-item fallback names the caller's line too
        assert {(w.filename, w.lineno) for w in ill} == {(__file__, line)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            for i in range(len(which)):
                c, k, err = stack_fit(pts[i:i + 1], values[i:i + 1])
                assert coeffs[i].tobytes() == c[0].tobytes()
                assert cond[i:i + 1].tobytes() == k.tobytes()
                assert (type(errors[i]), str(errors[i])) == (type(err[0]), str(err[0]))
        flagged = [e is None and c > CONDITION_WARN_THRESHOLD for e, c in zip(errors, cond)]
        assert warned == sum(flagged) > 0
        singular_rows = (which == 3) & np.isfinite(values).all(axis=1)
        assert [isinstance(e, SingularSystem) for e in errors] == singular_rows.tolist()

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_centers_are_insufficient(self, n):
        rng = np.random.default_rng(15)
        pts = rng.uniform(0.0, 1.0, (3, n, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, _, errors = stack_fit(pts, np.zeros((3, n)))
        assert all(isinstance(e, InsufficientNodes) for e in errors)


class TestSmoothing:
    def test_zero_smoothing_has_zero_data_residual(self):
        rng = np.random.default_rng(9)
        pts = min_separated(rng, 10, 0.15)
        values = rng.normal(0.0, 1.0, len(pts))
        surface = fit_rbf(pts, values)
        resid = values - eval_rbf(surface, pts)
        data_residual = float(resid @ resid)
        assert data_residual <= 1e-12 * max(1.0, float(values @ values))

    def test_residual_monotone_in_lambda(self):
        rng = np.random.default_rng(10)
        pts = min_separated(rng, 10, 0.15)
        values = rng.normal(0.0, 1.0, len(pts))
        previous = -1.0
        for lam in (0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0):
            surface = fit_rbf(pts, values, RbfConfig(smoothing=lam))
            resid = values - eval_rbf(surface, pts)
            data_residual = float(resid @ resid)
            assert data_residual >= previous - 1e-12
            previous = data_residual

    def test_large_lambda_approaches_least_squares_line(self):
        rng = np.random.default_rng(11)
        pts = min_separated(rng, 12, 0.12)
        values = rng.normal(0.0, 1.0, len(pts))
        values -= values.mean()
        with warnings.catch_warnings():
            # a huge ridge term dominates the system scale; the conditioning
            # flag is expected here
            warnings.simplefilter("ignore", IllConditionedWarning)
            surface = fit_rbf(pts, values, RbfConfig(smoothing=1e9))
        basis = np.column_stack([np.ones(len(pts)), pts])
        ols = np.linalg.lstsq(basis, values, rcond=None)[0]
        assert np.abs(surface.weights).max() <= 1e-6
        np.testing.assert_allclose(surface.tail_coeffs, ols, atol=1e-6)
