import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import min_separated, neighbors
from surfbench import cubic, geometry
from surfbench.cubic import _eval_located, estimate_gradients, fit_cubic
from surfbench.errors import DegenerateGeometry, InsufficientNodes
from surfbench.geometry import locate, triangulate

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def random_nodes(rng, n, minsep=0.06):
    pts = min_separated(rng, n, minsep)
    return pts if len(pts) >= 3 else None


class TestGradients:
    def test_affine_data_gives_exact_gradients(self):
        tri = triangulate(UNIT_SQUARE)
        values = 2.0 * UNIT_SQUARE[:, 0] + 3.0 * UNIT_SQUARE[:, 1] + 1.0
        grads = estimate_gradients(tri, values)
        np.testing.assert_allclose(grads, np.tile([2.0, 3.0], (4, 1)), atol=1e-9)

    def test_constant_data_gives_zero_gradients(self):
        tri = triangulate(UNIT_SQUARE)
        grads = estimate_gradients(tri, np.full(4, 7.5))
        np.testing.assert_allclose(grads, 0.0, atol=1e-12)

    def test_parabola_on_regular_grid_interior(self):
        xs = np.linspace(0.0, 1.0, 8)
        grid = np.array([[x, y] for x in xs for y in xs])
        tri = triangulate(grid)
        grads = estimate_gradients(tri, grid[:, 0] ** 2)
        hull = set(tri.hull.tolist())
        for v in range(len(grid)):
            if v in hull:
                continue
            expected = np.array([2.0 * grid[v, 0], 0.0])
            assert np.abs(grads[v] - expected).max() <= 0.05 * max(
                1.0, abs(expected[0])
            )

    def test_value_length_mismatch(self):
        tri = triangulate(UNIT_SQUARE)
        with pytest.raises(ValueError):
            estimate_gradients(tri, np.zeros(5))


class TestFitCubic:
    def test_three_points_give_the_affine_interpolant(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        values = np.array([1.0, 3.0, 0.0])  # plane 1 + 2u - v
        surface = fit_cubic(pts, values)
        rng = np.random.default_rng(0)
        for _ in range(25):
            w = rng.dirichlet(np.ones(3))
            q = w @ pts
            assert surface.evaluate([q])[0] == pytest.approx(
                1.0 + 2.0 * q[0] - q[1], abs=1e-12
            )

    def test_node_values_reproduced_exactly(self):
        rng = np.random.default_rng(1)
        pts = random_nodes(rng, 12)
        values = rng.normal(0.0, 3.0, len(pts))
        surface = fit_cubic(pts, values)
        out = surface.evaluate(pts)
        scale = max(1.0, np.abs(values).max())
        assert np.abs(out - values).max() <= 1e-12 * scale

    def test_affine_reproduction_over_hull(self):
        rng = np.random.default_rng(2)
        pts = random_nodes(rng, 8)
        values = 4.0 - pts[:, 0] - 2.0 * pts[:, 1]
        surface = fit_cubic(pts, values)
        queries = rng.uniform(0.0, 1.0, (100, 2))
        predictions = surface.evaluate(queries)
        inside = np.isfinite(predictions)
        assert inside.any()
        truth = 4.0 - queries[inside, 0] - 2.0 * queries[inside, 1]
        assert np.abs(predictions[inside] - truth).max() <= 1e-9

    def test_quadratic_reproduction_with_exact_gradients(self):
        rng = np.random.default_rng(3)
        pts = random_nodes(rng, 14)

        def f(p):
            return 1.0 + 2.0 * p[..., 0] - p[..., 1] + 0.7 * p[..., 0] ** 2 \
                - 0.4 * p[..., 0] * p[..., 1] + 0.9 * p[..., 1] ** 2

        def grad(p):
            return np.stack(
                [2.0 + 1.4 * p[..., 0] - 0.4 * p[..., 1],
                 -1.0 - 0.4 * p[..., 0] + 1.8 * p[..., 1]],
                axis=-1,
            )

        surface = fit_cubic(pts, f(pts), gradients=grad(pts))
        queries = rng.uniform(0.0, 1.0, (200, 2))
        predictions = surface.evaluate(queries)
        inside = np.isfinite(predictions)
        assert np.abs(predictions[inside] - f(queries[inside])).max() <= 1e-9

    def test_caller_points_stay_writeable(self):
        pts = UNIT_SQUARE.copy()
        surface = fit_cubic(pts, np.arange(4.0))
        before = surface.evaluate([[0.25, 0.5]])
        pts[0] = (9.0, 9.0)
        np.testing.assert_array_equal(surface.evaluate([[0.25, 0.5]]), before)

    def test_nodes_validated_once_per_fit(self, monkeypatch):
        # the O(n^2) duplicate check in as_points runs once, in triangulate
        calls = []
        as_points = geometry.as_points

        def counting(points):
            calls.append(1)
            return as_points(points)

        for module in (geometry, cubic):
            monkeypatch.setattr(module, "as_points", counting, raising=False)
        fit_cubic(UNIT_SQUARE, np.arange(4.0))
        assert len(calls) == 1

    def test_error_propagation(self):
        with pytest.raises(InsufficientNodes):
            fit_cubic(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros(2))
        with pytest.raises(DegenerateGeometry):
            fit_cubic(np.array([[float(i), 0.0] for i in range(5)]), np.zeros(5))


class TestEvalCubic:
    def test_outside_hull_is_nan(self):
        surface = fit_cubic(UNIT_SQUARE, np.arange(4.0))
        assert np.isnan(surface.evaluate([[5.0, 5.0], [-0.2, 0.5]])).all()

    def test_hull_boundary_is_defined(self):
        surface = fit_cubic(UNIT_SQUARE, np.arange(4.0))
        assert np.isfinite(surface.evaluate([[0.5, 0.0], [1.0, 0.5]])).all()

    def test_edge_agreement_between_adjacent_triangles(self):
        # C0 check: force evaluation through both triangles sharing each edge
        rng = np.random.default_rng(4)
        pts = random_nodes(rng, 10)
        values = np.sin(3.0 * pts[:, 0]) + pts[:, 1] ** 2
        surface = fit_cubic(pts, values)
        tri = surface.tri
        nbrs = neighbors(tri)
        scale = max(1.0, np.abs(values).max())
        for t in range(tri.n_triangles):
            for k in range(3):
                t2 = nbrs[t, k]
                if t2 < 0:
                    continue
                i, j = tri.triangles[t, (k + 1) % 3], tri.triangles[t, (k + 2) % 3]
                for tau in (0.2, 0.5, 0.8):
                    p = (1.0 - tau) * tri.points[i] + tau * tri.points[j]
                    both = np.array([t, t2])
                    v1, v2 = _eval_located(surface.nets, both, tri.barycentric([p])[0, both])
                    assert abs(v1 - v2) <= 1e-9 * scale

    def test_c1_probe_across_interior_edges(self):
        # One-sided normal-direction derivatives from the two adjacent
        # triangles, by central differences at offsets inside each side.
        rng = np.random.default_rng(5)
        pts = random_nodes(rng, 9)
        values = np.cos(2.0 * pts[:, 0]) * pts[:, 1] + pts[:, 0] ** 2
        surface = fit_cubic(pts, values)
        tri = surface.tri
        nbrs = neighbors(tri)
        for t in range(tri.n_triangles):
            for k in range(3):
                t2 = nbrs[t, k]
                if t2 < 0 or t2 < t:
                    continue
                i, j = tri.triangles[t, (k + 1) % 3], tri.triangles[t, (k + 2) % 3]
                edge = tri.points[j] - tri.points[i]
                length = float(np.hypot(*edge))
                normal = np.array([-edge[1], edge[0]]) / length
                h = 1e-5 * length
                for tau in (0.3, 0.5, 0.7):
                    p = tri.points[i] + tau * edge
                    offsets = np.array([0.0, 1.0, 2.0, -1.0, -2.0])[:, None]
                    f0, f1, f2, fm1, fm2 = surface.evaluate(p + offsets * h * normal)
                    # second-order one-sided stencils into each triangle
                    d_plus = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
                    d_minus = -(-3.0 * f0 + 4.0 * fm1 - fm2) / (2.0 * h)
                    if not (math.isfinite(d_plus) and math.isfinite(d_minus)):
                        continue  # probe stepped outside the hull
                    denom = max(abs(d_plus), abs(d_minus), 1e-6)
                    assert abs(d_plus - d_minus) / denom <= 1e-4

    def test_locality_of_support(self):
        # perturbing a node outside the containing triangle's star leaves the
        # evaluation bitwise unchanged
        xs = np.linspace(0.0, 3.0, 4)
        grid = np.array([[x, y] for x in xs for y in xs], dtype=float)
        rng = np.random.default_rng(6)
        values = rng.normal(0.0, 1.0, len(grid))
        surface = fit_cubic(grid, values)
        query = np.array([0.4, 0.4])
        t = locate(surface.tri, [query])[0][0]
        tri_vertices = set(surface.tri.triangles[t].tolist())
        star = set(tri_vertices)
        for a, b in surface.tri.edges():
            if a in tri_vertices:
                star.add(b)
            if b in tri_vertices:
                star.add(a)
        outside_star = next(v for v in range(len(grid)) if v not in star)
        perturbed = values.copy()
        perturbed[outside_star] += 100.0
        surface2 = fit_cubic(grid, perturbed)
        assert surface.evaluate([query])[0] == surface2.evaluate([query])[0]

    @given(
        seed=st.integers(0, 10_000),
        coeffs=st.tuples(
            st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_affine_precision_property(self, seed, coeffs):
        rng = np.random.default_rng(seed)
        pts = random_nodes(rng, int(rng.integers(5, 12)))
        if pts is None:
            return
        a, b, c = coeffs
        values = a + b * pts[:, 0] + c * pts[:, 1]
        try:
            surface = fit_cubic(pts, values)
        except DegenerateGeometry:
            return
        queries = rng.uniform(0.0, 1.0, (40, 2))
        predictions = surface.evaluate(queries)
        inside = np.isfinite(predictions)
        truth = a + b * queries[inside, 0] + c * queries[inside, 1]
        scale = max(1.0, abs(a) + abs(b) + abs(c))
        assert np.abs(predictions[inside] - truth).max(initial=0.0) <= 1e-9 * scale
