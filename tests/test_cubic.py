import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edges, hull, min_separated, neighbors
from surfbench import cubic, geometry, protocol
from surfbench.config import ExperimentConfig
from surfbench.cubic import (
    CubicSurface,
    _control_nets,
    _eval_located,
    _lstsq_head,
    _vertex_gradients,
    evaluate_stack,
    fit_cubic,
)
from surfbench.errors import (
    DegenerateGeometry, InsufficientNodes, InterpolationError,
)
from surfbench.geometry import locate, triangulate
from surfbench.protocol import enumerate_slices, execute_experiment, make_splits
from surfbench.synthdata import DesignSpec, generate

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def neighbor_sets(tri):
    """The edge-connected neighbours of every vertex."""
    nbrs = [set() for _ in range(tri.n_vertices)]
    for a, b in edges(tri):
        nbrs[a].add(b)
        nbrs[b].add(a)
    return nbrs


def random_nodes(rng, n, minsep=0.06):
    pts = min_separated(rng, n, minsep)
    return pts if len(pts) >= 3 else None


def reference_gradients(tri, values):
    """The per-vertex ``np.linalg.lstsq`` loop that the stacked solve
    replaced. Returns the gradients (n, 2), whether the quadratic fit was
    kept (n,), and for the fit used its 2-norm condition number and its
    largest coefficient in gradient units (n,)."""
    n = tri.n_vertices
    grads = np.empty((n, 2))
    quadratic = np.zeros(n, dtype=bool)
    cond = np.empty(n)
    size = np.empty(n)
    for v, neighbor_set in enumerate(neighbor_sets(tri)):
        nb = sorted(neighbor_set)
        dx = tri.points[nb] - tri.points[v]
        dz = values[nb] - values[v]
        dist = np.hypot(dx[:, 0], dx[:, 1])
        scale = dist.mean()
        u = dx / scale
        w = 1.0 / dist
        designs = [np.column_stack([u[:, 0], u[:, 1]])]
        if len(nb) >= 5:
            designs.insert(0, np.column_stack(
                [u[:, 0], u[:, 1], 0.5 * u[:, 0] ** 2, u[:, 0] * u[:, 1], 0.5 * u[:, 1] ** 2]))
        for design in designs:
            sol, _, rank, sv = np.linalg.lstsq(design * w[:, None], dz * w, rcond=None)
            if rank == design.shape[1] or design.shape[1] == 2:
                break
        quadratic[v] = design.shape[1] == 5
        grads[v] = sol[:2] / scale
        cond[v] = sv[0] / sv[rank - 1]
        size[v] = np.abs(sol).max() / scale
    return grads, quadratic, cond, size


def covered_fits(seed):
    """(triangulation, values) of every cubic surface that the default
    experiment of ``seed`` evaluates, and so estimates gradients for."""
    fits = []
    original = protocol.evaluate_stack

    def capture(surfaces, queries):
        fits.extend((s.tri, s.values) for s in surfaces)
        return original(surfaces, queries)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "evaluate_stack", capture)
        config = ExperimentConfig(random_seed=seed)
        execute_experiment(generate(noise=config.noise_spec()), config)
    return fits


def lattice_fits():
    """Slice lattices of every 2..7 x 2..7 design, whole and as a random
    subset, with random values: cocircular cells and collinear rows give
    rank-deficient quadratic designs."""
    rng = np.random.default_rng(8)
    for rows in range(2, 8):
        for cols in range(2, 8):
            spec = DesignSpec(x1_levels=rows, x2_levels=cols)
            lattice = np.array([[u, v] for u in spec.axis_levels("x1") for v in spec.axis_levels("x2")])
            for nodes in (lattice, lattice[rng.random(len(lattice)) < 0.6]):
                try:
                    tri = triangulate(nodes)
                except InterpolationError:
                    continue
                yield tri, rng.normal(size=len(nodes))


def svd_head(a, rhs):
    """``_lstsq_head`` of one (k, c) matrix by its own SVD, as the stacked
    solve was before it factored each distinct matrix once."""
    u, s, vt = np.linalg.svd(a[None], full_matrices=False)
    keep = s > np.finfo(float).eps * max(a.shape) * s[:, :1]
    proj = np.divide((u * rhs[None, :, None]).sum(axis=1), s, out=np.zeros_like(s), where=keep)
    return (vt[:, :, :2] * proj[:, :, None]).sum(axis=1)[0], keep.sum(axis=1)[0]


class TestGradients:
    def test_affine_data_gives_exact_gradients(self):
        tri = triangulate(UNIT_SQUARE)
        values = 2.0 * UNIT_SQUARE[:, 0] + 3.0 * UNIT_SQUARE[:, 1] + 1.0
        grads = _vertex_gradients(tri.points, tri.triangles, values)[0]
        np.testing.assert_allclose(grads, np.tile([2.0, 3.0], (4, 1)), atol=1e-9)

    def test_constant_data_gives_zero_gradients(self):
        tri = triangulate(UNIT_SQUARE)
        grads = _vertex_gradients(tri.points, tri.triangles, np.full(4, 7.5))[0]
        np.testing.assert_allclose(grads, 0.0, atol=1e-12)

    def test_parabola_on_regular_grid_interior(self):
        xs = np.linspace(0.0, 1.0, 8)
        grid = np.array([[x, y] for x in xs for y in xs])
        tri = triangulate(grid)
        grads = _vertex_gradients(tri.points, tri.triangles, grid[:, 0] ** 2)[0]
        boundary = set(hull(tri).tolist())
        for v in range(len(grid)):
            if v in boundary:
                continue
            expected = np.array([2.0 * grid[v, 0], 0.0])
            assert np.abs(grads[v] - expected).max() <= 0.05 * max(
                1.0, abs(expected[0])
            )

    @pytest.mark.parametrize("shape", ["quadratic", "rank_deficient", "affine"])
    def test_repeated_matrices_are_factored_once_bit_for_bit(self, monkeypatch, shape):
        rng = np.random.default_rng(5)
        k, c = (3, 2) if shape == "affine" else (7, 5)
        distinct = rng.normal(size=(4, k, c))
        if shape == "rank_deficient":
            distinct[..., 4] = distinct[..., 3]  # rank 4 of 5
        distinct[3] = -0.0 * distinct[3]  # equal to the zero matrix, but not in its bytes
        which = rng.permutation(np.repeat(np.arange(4), [5, 1, 3, 2]))
        a = np.concatenate([distinct[which], np.zeros((1, k, c))])
        rhs = rng.normal(size=(len(a), k))
        factored = []
        original = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: factored.append(len(m)) or original(m, **kw))
        searched, alone = _lstsq_head(a, rhs, True), _lstsq_head(a, rhs, False)
        monkeypatch.undo()
        assert factored == [5, len(a)]  # without the search, every matrix
        coef, rank = searched
        for i in range(len(a)):
            expected_coef, expected_rank = svd_head(a[i], rhs[i])
            assert coef[i].tobytes() == expected_coef.tobytes() == alone[0][i].tobytes()
            assert rank[i] == expected_rank == alone[1][i]
        assert set(rank.tolist()) == ({0, 2} if shape == "affine" else {0, 4 if shape == "rank_deficient" else 5})

    def test_a_mesh_joined_to_copies_of_itself_keeps_its_gradients(self):
        # every neighbourhood appears three times, and is factored once
        tri = triangulate(min_separated(np.random.default_rng(9), 14, 0.1))
        values = np.random.default_rng(10).normal(size=tri.n_vertices)
        n = tri.n_vertices
        grads, kept = _vertex_gradients(tri.points, tri.triangles, values)
        joined, joined_kept = _vertex_gradients(
            np.tile(tri.points, (3, 1)), np.concatenate([tri.triangles + off for off in (0, n, 2 * n)]),
            np.tile(values, 3), joined=True)
        assert joined.tobytes() == np.tile(grads, (3, 1)).tobytes()
        assert joined_kept.tolist() == kept.tolist() * 3

    def test_value_length_mismatch(self):
        # the fit checks the values the gradients are estimated from
        with pytest.raises(ValueError, match="expected 4 values"):
            fit_cubic(UNIT_SQUARE, np.zeros(5))

    @pytest.mark.parametrize("source", [42, 1009, 7, "lattice"])
    def test_stacked_solve_matches_the_lstsq_loop(self, source):
        # Same quadratic/affine decision at every vertex (about 30 vertices
        # per seed and 13 lattice vertices have 5 or more neighbours but a
        # rank-deficient quadratic design); gradients within 64 * cond * eps
        # of the fit's largest coefficient. The largest gap measured is
        # 9.5 * cond * eps (seed 1009), and at most 3.1e-14 relative.
        fits = lattice_fits() if source == "lattice" else covered_fits(source)
        if source == 42:
            assert len(fits) == 402  # the cubic runs scored "ok" in the default experiment
        n_vertices = n_quadratic = 0
        for tri, values in fits:
            expected, quadratic, cond, size = reference_gradients(tri, values)
            grads, kept = _vertex_gradients(tri.points, tri.triangles, values)
            np.testing.assert_array_equal(kept, quadratic)
            gap = np.abs(grads - expected).max(axis=1)
            assert (gap <= 64.0 * cond * np.finfo(float).eps * size).all()
            n_vertices += tri.n_vertices
            n_quadratic += int(quadratic.sum())
        assert 0 < n_quadratic < n_vertices

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(4, 30), min_size=1, max_size=5),
           data=st.data())
    def test_mixed_stack_gives_each_surface_its_batch_of_one(self, seed, sizes, data):
        # a three-node surface (every vertex has 2 neighbours) among random
        # and lattice sets of 4 to 30 nodes
        rng = np.random.default_rng(seed)
        sets = [(UNIT_SQUARE[:3], rng.normal(size=3))]
        for n in sizes:
            if data.draw(st.booleans()):
                nodes = random_nodes(rng, n, minsep=0.5 / math.sqrt(n))
            else:
                lattice = np.array([[u, v] for u in range(6) for v in range(5)]) / 3.0
                nodes = lattice[np.sort(rng.permutation(len(lattice))[:n])]
            try:
                triangulate(nodes)
            except InterpolationError:
                continue
            sets.append((nodes, rng.normal(size=len(nodes))))
        if len(sets) < 2:
            return
        rng.shuffle(sets)
        queries = [rng.uniform(-0.2, 1.9, (int(rng.integers(0, 40)), 2)) for _ in sets]

        surfaces = [fit_cubic(nodes, values) for nodes, values in sets]
        assert len({len(nb) for s in surfaces for nb in neighbor_sets(s.tri)}) > 1
        solves = []
        original = cubic._vertex_gradients

        def capture(points, triangles, z, joined):
            assert joined  # a stack of several surfaces looks for repeated designs
            solved = original(points, triangles, z, joined)
            solves.append(solved[0])
            return solved

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cubic, "_vertex_gradients", capture)
            stacked = evaluate_stack(surfaces, queries)
        assert len(solves) == 1  # one gradient solve for the whole stack

        offsets = np.cumsum([0] + [s.tri.n_vertices for s in surfaces])
        for i, ((nodes, values), q) in enumerate(zip(sets, queries)):
            alone = fit_cubic(nodes, values)
            assert stacked[i].tobytes() == alone.evaluate(q).tobytes()
            rows = solves[0][offsets[i]:offsets[i + 1]]
            assert rows.tobytes() == _vertex_gradients(alone.tri.points, alone.tri.triangles,
                                                       alone.values)[0].tobytes()


def test_surfaces_sharing_a_triangulation_and_queries_share_one_locate(monkeypatch):
    rng = np.random.default_rng(17)
    tri = triangulate(random_nodes(rng, 9))
    q = rng.uniform(-0.2, 1.2, (30, 2))
    other = q[::-1].copy()
    surfaces = [CubicSurface(tri, rng.normal(size=9)) for _ in range(4)]
    surfaces.append(CubicSurface(triangulate(tri.points.copy()), rng.normal(size=9)))
    queries = [q, q.copy(), other, q, q]  # equal bytes share; another tri does not
    calls, passes = [], []
    original, kernel = cubic._locate_stack, geometry._locate_pass
    monkeypatch.setattr(cubic, "_locate_stack", lambda t, x: calls.append(t) or original(t, x))
    monkeypatch.setattr(geometry, "_locate_pass", lambda *args: passes.append(1) or kernel(*args))
    stacked = evaluate_stack(surfaces, queries)
    assert [len(tris) for tris in calls] == [3]  # three pairs, located in one call
    assert len(passes) == 1
    monkeypatch.undo()
    for s, x, got in zip(surfaces, queries, stacked):
        assert got.tobytes() == s.evaluate(x).tobytes()


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

        # the element built from exact vertex gradients, at the located
        # queries
        tri = triangulate(pts)
        queries = rng.uniform(0.0, 1.0, (200, 2))
        t, bary = locate(tri, queries)
        inside = t >= 0
        assert inside.any()
        nets = _control_nets(tri.points, tri.triangles, f(tri.points), grad(tri.points))
        predictions = _eval_located(nets, t[inside], bary[inside])
        assert np.abs(predictions - f(queries[inside])).max() <= 1e-9

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
        tri = fit_cubic(pts, values).tri
        grads = _vertex_gradients(tri.points, tri.triangles, values)[0]
        nets = _control_nets(tri.points, tri.triangles, values, grads)
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
                    v1, v2 = _eval_located(nets, both, tri.barycentric([p])[0, both])
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
        for a, b in edges(surface.tri):
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


class TestScipyOracle:
    def test_affine_data_reproduced_as_by_clough_tocher(self):
        # Both interpolants are exact on affine data, whatever their
        # gradient estimators: ours fits each vertex by least squares,
        # scipy's minimizes curvature iteratively (tolerance tightened from
        # its 1e-6 default). Measured worst: 2.7e-14 ours, 1.2e-13 scipy.
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(12)
        node_sets = [min_separated(rng, int(rng.integers(3, 40)), 0.03) for _ in range(40)]
        node_sets += [tri.points for tri, _ in lattice_fits()]
        for task in enumerate_slices(generate(), "noise-free")[::3]:
            node_sets.append(task.points)
            node_sets += [task.points[plan.train_indices] for plan in make_splits(task, 3, 0.7, 42)]
        for nodes in node_sets:
            try:
                tri = triangulate(nodes)
            except InterpolationError:
                continue
            a, b, c = rng.normal(scale=5.0, size=3)
            values = a + b * nodes[:, 0] + c * nodes[:, 1]
            # queries inside every triangle, kept off its edges
            weights = 0.9 * rng.dirichlet(np.ones(3), size=(tri.n_triangles, 5)) + 0.1 / 3.0
            queries = (weights[..., None] * tri.points[tri.triangles][:, None]).sum(axis=2).reshape(-1, 2)
            plane = a + b * queries[:, 0] + c * queries[:, 1]
            ours = fit_cubic(nodes, values).evaluate(queries)
            theirs = interpolate.CloughTocher2DInterpolator(nodes, values, tol=1e-12, maxiter=2000)(queries)
            scale = np.abs(values).max()
            assert np.abs(ours - plane).max() <= 1e-12 * scale
            assert np.abs(theirs - plane).max() <= 1e-12 * scale
