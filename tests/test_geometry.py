import math
import re
from collections import Counter
from fractions import Fraction
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    InvertedInCircle, edges, hull, hull_probes, min_separated, near_collinear, nearly_flat, neighbors,
    order_probe_sets, triangle_areas,
)
from surfbench import geometry
from surfbench.cubic import fit_cubic
from surfbench.errors import (
    DegenerateGeometry,
    DuplicateNodes,
    InsufficientNodes,
    InterpolationError,
    NonFiniteInput,
)
from surfbench.geometry import (
    LOCATE_BLOCK,
    LOCATE_TOL,
    Triangulation,
    as_points,
    as_queries,
    convex_hull_polygon,
    fill_distance,
    geometry_report,
    incircle_sign,
    locate,
    mesh_ratio,
    orient_sign,
    polygon_area,
    separation_distance,
    triangulate,
)
from surfbench.config import ExperimentConfig
from surfbench.protocol import _plan_splits, enumerate_slices
from surfbench.rbf import eval_rbf, fit_rbf
from surfbench.synthdata import DesignSpec, generate

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def circumcircle(a, b, c):
    """Independent oracle: circumcenter via the perpendicular-bisector solve."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
    center = np.array([ux, uy])
    return center, float(np.hypot(*(a - center)))


def assert_delaunay(tri, rel_tol=1e-10):
    """Empty-circumcircle check against the independent circumcenter oracle."""
    for i, j, k in tri.triangles:
        center, radius = circumcircle(tri.points[i], tri.points[j], tri.points[k])
        for m in range(tri.n_vertices):
            if m in (i, j, k):
                continue
            dist = float(np.hypot(*(tri.points[m] - center)))
            assert dist >= radius * (1.0 - rel_tol), (
                f"vertex {m} strictly inside circumcircle of triangle ({i},{j},{k})"
            )


def assert_canonical_delaunay(tri):
    """No node strictly inside any circumcircle, and every interior edge of
    a cocircular quad is the lexicographically smaller diagonal."""
    pts = [tuple(p) for p in tri.points.tolist()]
    apex = {}
    for a, b, c in tri.triangles.tolist():
        for m in range(len(pts)):
            assert incircle_sign(pts[a], pts[b], pts[c], pts[m]) <= 0
        apex[(a, b)], apex[(b, c)], apex[(c, a)] = c, a, b
    for (u, v), p in apex.items():
        q = apex.get((v, u))
        if q is not None and incircle_sign(pts[p], pts[u], pts[v], pts[q]) == 0:
            assert sorted([pts[u], pts[v]]) < sorted([pts[p], pts[q]])


def exact_incircle(a, b, c, d):
    """The in-circle determinant of four points in exact rational arithmetic
    on their float coordinates: positive when d lies strictly inside the
    circumcircle of counterclockwise (a, b, c)."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = ((Fraction(x), Fraction(y)) for x, y in (a, b, c, d))
    adx, ady, bdx, bdy, cdx, cdy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
    return ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
            + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
            + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady))


def assert_exact_delaunay(tri):
    """Exact oracle: every node lies on or outside every circumcircle by
    exact arithmetic, or the snapped in-circle test reads the four points
    as cocircular."""
    pts = [tuple(p) for p in tri.points.tolist()]
    for a, b, c in tri.triangles.tolist():
        for m in range(len(pts)):
            if m not in (a, b, c) and exact_incircle(pts[a], pts[b], pts[c], pts[m]) > 0:
                assert incircle_sign(pts[a], pts[b], pts[c], pts[m]) == 0, (
                    f"node {m} strictly inside the circumcircle of ({a}, {b}, {c})")


def canonical_order(points, triangles):
    """The rows of ``triangles`` counterclockwise, each from its (x, y)-
    smallest vertex, sorted by the (x, y)-ranks of their vertices."""
    rank = np.empty(len(points), dtype=np.intp)
    rank[np.lexsort((points[:, 1], points[:, 0]))] = np.arange(len(points))
    rows = []
    for t in triangles.tolist():
        (ax, ay), (bx, by), (cx, cy) = points[t]
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < 0:
            t = [t[0], t[2], t[1]]
        i = min(range(3), key=lambda k: rank[t[k]])
        rows.append(t[i:] + t[:i])
    rows.sort(key=lambda t: [rank[v] for v in t])
    return np.array(rows, dtype=np.intp).reshape(-1, 3)


def triangulation_outcome(pts, check_delaunay=True):
    """The coordinate triangle set and hull-node set of ``triangulate(pts)``,
    or the type of the InterpolationError it raises."""
    try:
        tri = triangulate(pts)
    except InterpolationError as exc:
        return type(exc)
    if check_delaunay:
        assert_canonical_delaunay(tri)
    return (
        {frozenset(map(tuple, tri.points[t].tolist())) for t in tri.triangles},
        {tuple(q) for q in tri.points[hull(tri)].tolist()},
    )


class TestPredicates:
    def test_orientation_signs(self):
        assert orient_sign((0, 0), (1, 0), (0, 1)) == 1
        assert orient_sign((0, 0), (0, 1), (1, 0)) == -1
        assert orient_sign((0, 0), (1, 1), (2, 2)) == 0

    def test_orientation_relative_epsilon_band(self):
        # offset far below 1e-12 relative: treated as collinear
        assert orient_sign((0, 0), (1, 0), (0.5, 1e-16)) == 0
        # offset far above the band: exact sign
        assert orient_sign((0, 0), (1, 0), (0.5, 1e-9)) == 1

    def test_incircle_signs(self):
        assert incircle_sign((0, 0), (1, 0), (0, 1), (0.2, 0.2)) == 1
        assert incircle_sign((0, 0), (1, 0), (0, 1), (5.0, 5.0)) == -1
        assert incircle_sign((0, 0), (1, 0), (1, 1), (0, 1)) == 0  # cocircular


class TestPointSet:
    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateNodes):
            as_points(np.array([[0.0, 0.0], [1.0, 1.0], [1e-13, 0.0]]))

    def test_clean_set_accepted(self):
        pts = as_points(UNIT_SQUARE.tolist())
        assert pts.shape == (4, 2)
        assert not pts.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN node must not pass as a duplicate (NaN distances compare false)
        with pytest.raises(NonFiniteInput):
            as_points(np.array([[0.0, 0.0], [1.0, 1.0], [bad, 0.0]]))

    @pytest.mark.parametrize("consume", [
        triangulate, convex_hull_polygon, fill_distance, separation_distance,
        lambda nodes: fit_cubic(nodes, []), lambda nodes: fit_rbf(nodes, []),
    ], ids=["triangulate", "convex_hull_polygon", "fill_distance", "separation_distance",
            "fit_cubic", "fit_rbf"])
    def test_empty_node_list_is_insufficient(self, consume):
        # [] is an empty (0, 2) node set, not one node without coordinates
        assert as_points([]).shape == (0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientNodes):
                consume([])


class TestTriangulate:
    def test_unit_square_two_triangles_four_hull(self):
        tri = triangulate(UNIT_SQUARE)
        assert tri.n_triangles == 2
        assert len(hull(tri)) == 4
        assert_delaunay(tri)

    def test_cocircular_tie_break_prefers_smallest_pair(self):
        # both diagonals are Delaunay; the canonical one joins (0,0)-(1,1)
        tri = triangulate(UNIT_SQUARE)
        assert (0, 2) in set(edges(tri))

    def test_three_points_one_triangle(self):
        tri = triangulate(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
        assert tri.n_triangles == 1

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateGeometry):
            triangulate(np.array([[float(i), 2.0 * i] for i in range(5)]))

    def test_too_few_points(self):
        with pytest.raises(InsufficientNodes):
            triangulate(np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_grid_euler_count(self):
        xs = np.linspace(1.0, 2.0, 4)
        ys = np.linspace(0.5, 1.5, 4)
        grid = np.array([[x, y] for x in xs for y in ys])
        tri = triangulate(grid)
        assert tri.n_triangles == 2 * 16 - len(hull(tri)) - 2
        assert len(hull(tri)) == 12  # boundary nodes, including collinear ones
        assert_delaunay(tri)

    def test_deterministic_for_fixed_input(self):
        rng = np.random.default_rng(5)
        pts = min_separated(rng, 20, 0.05)
        a = triangulate(pts)
        b = triangulate(pts)
        np.testing.assert_array_equal(a.triangles, b.triangles)
        np.testing.assert_array_equal(hull(a), hull(b))

    def test_positive_areas_and_area_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pts = min_separated(rng, int(rng.integers(4, 25)), 0.03)
            if len(pts) < 3:
                continue
            tri = triangulate(pts)
            areas = triangle_areas(tri)
            assert (areas > 0).all()
            hull_area = polygon_area(convex_hull_polygon(pts))
            assert areas.sum() == pytest.approx(hull_area, rel=1e-9)

    def test_neighbors_are_mutual(self):
        tri = triangulate(min_separated(np.random.default_rng(2), 15, 0.05))
        nbrs = neighbors(tri)
        for t in range(tri.n_triangles):
            for k in range(3):
                n = nbrs[t, k]
                if n >= 0:
                    assert t in nbrs[n]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_delaunay_property_random_sets(self, seed):
        rng = np.random.default_rng(seed)
        pts = min_separated(rng, int(rng.integers(3, 18)), 0.05)
        if len(pts) < 3:
            return
        try:
            tri = triangulate(pts)
        except DegenerateGeometry:
            return
        assert_delaunay(tri)
        assert tri.n_triangles == 2 * len(pts) - len(hull(tri)) - 2

    def test_matches_scipy_delaunay_on_general_position_sets(self):
        # Random sets only: on cocircular grids Qhull breaks ties differently.
        # Qhull's simplices, counterclockwise and in canonical order, are the
        # triangle array.
        spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(31)
        for _ in range(200):
            pts = min_separated(rng, int(rng.integers(4, 25)), 0.05)
            np.testing.assert_array_equal(triangulate(pts).triangles,
                                          canonical_order(pts, spatial.Delaunay(pts).simplices))

    @pytest.mark.parametrize("n", range(5, 13))
    def test_regular_polygon_is_the_fan_from_its_smallest_vertex(self, n):
        # every quad of its nodes is cocircular, so the tie rule alone picks
        # the diagonals: all at the lexicographically smallest node
        rng = np.random.default_rng(n)
        for _ in range(10):
            radius = 10.0 ** rng.uniform(-3.0, 3.0)
            angle = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(n) / n
            pts = radius * (rng.uniform(-10.0, 10.0, 2) + np.column_stack([np.cos(angle), np.sin(angle)]))
            assert [incircle_sign(*pts[:3], p) for p in pts[3:]] == [0] * (n - 3)
            tri = triangulate(pts)
            assert tri.n_triangles == n - 2
            assert (tri.triangles == np.lexsort((pts[:, 1], pts[:, 0]))[0]).any(axis=1).all()

    @given(pts=order_probe_sets())
    @settings(max_examples=80, deadline=None)
    def test_rows_are_in_canonical_order(self, pts):
        try:
            tri = triangulate(pts)
        except InterpolationError:
            return
        np.testing.assert_array_equal(tri.triangles, canonical_order(pts, tri.triangles))

    @given(pts=order_probe_sets(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_input_order_does_not_change_the_triangulation(self, pts, data):
        perm = np.array(data.draw(st.permutations(range(len(pts)))), dtype=np.intp)
        outcome = triangulation_outcome(pts)
        assert outcome == triangulation_outcome(pts[perm])
        if not isinstance(outcome, type):  # the same array, not only the same set
            np.testing.assert_array_equal(perm[triangulate(pts[perm]).triangles], triangulate(pts).triangles)

    def test_contradicting_in_circle_answers_raise(self):
        pts = min_separated(np.random.default_rng(3), 12, 0.05)
        with pytest.raises(DegenerateGeometry, match="^in-circle and orientation tests contradict"):
            geometry._triangulate(InvertedInCircle(as_points(pts)), range(len(pts)))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_any_in_circle_answers_give_a_planar_mesh_or_degenerate_geometry(self, seed):
        # flips are made only on convex quads, so whatever the in-circle
        # answers, flipping ends on a triangulation of the hull or raises
        rng = np.random.default_rng(seed)
        pts = min_separated(rng, int(rng.integers(3, 25)), 0.05)

        class Arbitrary(geometry._Predicates):
            def incircle(self, a, b, c, d):
                return int(rng.integers(-1, 2))

        try:
            tri = geometry._triangulate(Arbitrary(as_points(pts)), range(len(pts)))
        except DegenerateGeometry:
            return
        areas = triangle_areas(tri)
        assert (areas > 0).all()
        assert areas.sum() == pytest.approx(polygon_area(convex_hull_polygon(pts)), rel=1e-9)
        assert tri.n_triangles == 2 * len(pts) - len(hull(tri)) - 2

    @given(seed=st.integers(0, 2**32 - 1), log10_offset=st.floats(-12.0, -10.0))
    @settings(max_examples=60, deadline=None)
    def test_nodes_at_the_snap_band_fail_cleanly_and_order_free(self, seed, log10_offset):
        # Within a few times the 1e-12 band some triples snap to collinear
        # and others do not; the result may then be DegenerateGeometry, but
        # never a malformed mesh or a bare KeyError/StopIteration.
        rng = np.random.default_rng(seed)
        pts = near_collinear(rng, log10_offset)
        perm = rng.permutation(len(pts))
        assert (triangulation_outcome(pts, check_delaunay=False)
                == triangulation_outcome(pts[perm], check_delaunay=False))


class TestBuilder:
    """Inputs that take each branch of the hull chain, pinned."""

    @pytest.mark.parametrize("pts, expected", [
        # the collinear run (1, 0), (2, 0) extends the seed edge before (3.5, 1) ...
        ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [3.5, 1.0], [4.0, -0.5]],
         [[0, 1, 4], [0, 5, 1], [1, 2, 4], [1, 5, 2], [2, 3, 4], [2, 5, 3], [3, 5, 4]]),
        # ... also on a vertical line (equal x, sorted by y)
        ([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [1.0, -1.0], [2.0, 1.5]],
         [[0, 4, 5], [0, 5, 1], [1, 5, 2], [2, 5, 3]]),
        # nodes on a vertical line after the seed, each seeing one hull edge
        ([[0.0, 1.0], [2.0, 0.0], [2.0, 1.0], [2.0, 2.0], [2.0, 3.0], [3.0, 1.5]],
         [[0, 1, 2], [0, 2, 3], [0, 3, 4], [1, 5, 2], [2, 5, 3], [3, 5, 4]]),
    ])
    def test_collinear_runs_and_vertical_lines(self, pts, expected):
        pts = np.array(pts)
        tri = triangulate(pts)
        assert tri.triangles.tolist() == expected
        assert_exact_delaunay(tri)

    @pytest.mark.parametrize("seed, message", [
        (4, "point 3 could not be located"),  # sees no hull edge
        (13, "point 3 is collinear with the hull within tolerance"),  # sees two chains
    ])
    def test_insert_errors(self, seed, message):
        pts = near_collinear(np.random.default_rng(seed), -11.5)
        with pytest.raises(DegenerateGeometry, match=f"^{re.escape(message)}$"):
            triangulate(pts)

    def test_lone_builds_evaluate_each_sign_once(self, monkeypatch):
        # a lone build takes its signs from its own _Predicates, so a test
        # it asks for twice is evaluated once
        pts = lattice(4, 4)
        expected = triangulate(pts).triangles
        calls = Counter()
        for name in ("orient_sign", "incircle_sign"):
            monkeypatch.setattr(geometry, name, lambda *args, f=getattr(geometry, name):
                                calls.update([args]) or f(*args))
        np.testing.assert_array_equal(triangulate(pts).triangles, expected)
        assert calls and max(calls.values()) == 1


class TestExactOracle:
    """No node lies strictly inside a circumcircle by exact arithmetic,
    unless the snapped in-circle test calls the four nodes cocircular."""

    @pytest.mark.parametrize("axes", [("x1", "x2"), ("x1", "x3")])
    def test_default_design_lattices_and_their_subsets(self, axes):
        # 4 x 4 and 4 x 3 levels such as 4/3 and 5/6: not dyadic, so the
        # lattice's cocircular quads are not cocircular in floats
        spec = DesignSpec()
        points = np.array([[u, v] for u in spec.axis_levels(axes[0]) for v in spec.axis_levels(axes[1])])
        rng = np.random.default_rng(len(points))
        for nodes in [points] + [points[rng.random(len(points)) < 0.6] for _ in range(40)]:
            try:
                tri = triangulate(nodes)
            except InterpolationError:
                continue
            assert_exact_delaunay(tri)

    @given(pts=order_probe_sets())
    @settings(max_examples=60, deadline=None)
    def test_lattice_near_collinear_and_random_sets(self, pts):
        try:
            tri = triangulate(pts)
        except InterpolationError:
            return
        assert_exact_delaunay(tri)

    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_rings(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            angle = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(n) / n
            ring = rng.uniform(-10.0, 10.0, 2) + np.column_stack([np.cos(angle), np.sin(angle)])
            for pts in (ring, np.vstack([ring, ring.mean(axis=0)])):
                assert_exact_delaunay(triangulate(10.0 ** rng.uniform(-3.0, 3.0) * pts))


def assert_shared_builds_match(points, node_sets):
    """Each node set built on one shared ``_Predicates`` of ``points`` is
    ``triangulate(points[nodes])`` bit for bit, or fails with the same error
    type and message."""
    pred = geometry._Predicates(as_points(points))
    for nodes in node_sets:
        nodes = [int(i) for i in nodes]
        try:
            expected = triangulate(points[nodes])
        except InterpolationError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                geometry._triangulate(pred, nodes)
            continue
        got = geometry._triangulate(pred, nodes)
        assert got.triangles.dtype == expected.triangles.dtype
        assert got.triangles.shape == expected.triangles.shape
        assert got.triangles.tobytes() == expected.triangles.tobytes()
        assert got.points.tobytes() == expected.points.tobytes()
        assert got._maps.tobytes() == expected._maps.tobytes()


def lattice(nx, ny):
    """The (nx * ny, 2) lattice of the design levels of x1 and x2 (steps
    such as 1/9 that do not round to even spacing)."""
    spec = DesignSpec(x1_levels=nx, x2_levels=ny)
    return np.array([[u, v] for u in spec.axis_levels("x1") for v in spec.axis_levels("x2")])


class TestSharedPredicates:
    """Builds that share one ``_Predicates`` equal fresh ``triangulate`` calls."""

    @pytest.mark.parametrize("seed", [42, 1009])
    def test_every_training_set_of_the_default_run(self, seed):
        config = ExperimentConfig(random_seed=seed)
        dataset = generate(noise=config.noise_spec())
        tasks = [task for regime in ("noise-free", "noisy") for task in enumerate_slices(dataset, regime)]
        plans = _plan_splits(tasks, config.repeats_per_slice, config.train_fraction, seed)
        groups = {}
        for task, (train, _) in zip(tasks, plans):
            entry = groups.setdefault(task.points.tobytes(), (task.points, []))
            entry[1].append(train)
        assert len(groups) == 3
        for points, trains in groups.values():
            assert_shared_builds_match(points, np.unique(np.concatenate(trains), axis=0))

    @given(shape=st.sampled_from([(4, 4), (10, 6)]), seed=st.integers(0, 2**32 - 1),
           n_sets=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_lattice_subsets(self, shape, seed, n_sets):
        rng = np.random.default_rng(seed)
        points = lattice(*shape)
        # any order: an error names a node by its position in the set
        assert_shared_builds_match(points, [
            rng.permutation(len(points))[:rng.integers(2, len(points) + 1)] for _ in range(n_sets)])

    def test_cocircular_ring_of_a_lattice(self):
        points = lattice(4, 4)  # node 4 * i + j
        ring = [1, 2, 4, 7, 8, 11, 13, 14]  # the 8 nodes at distance sqrt(2.5) steps from the centre
        center = points[[5, 6, 9, 10]].mean(axis=0)
        radius = np.hypot(*(points[ring] - center).T)
        np.testing.assert_allclose(radius, radius[0], rtol=1e-12)
        assert_shared_builds_match(points, [ring, ring[::-1], ring + [5], ring + [5, 6, 9, 10],
                                            list(range(16)), ring[:4] + [0, 15]])

    @given(seed=st.integers(0, 2**32 - 1), log10_offset=st.floats(-12.0, -9.0))
    @example(seed=4, log10_offset=-11.5)  # "point 3 could not be located"
    @example(seed=13, log10_offset=-11.5)  # "point 3 is collinear with the hull within tolerance"
    @settings(max_examples=80, deadline=None)
    def test_near_collinear_sets_at_the_snap_band(self, seed, log10_offset):
        # from the 1e-12 band, where builds fail, to 1e-10 ... 1e-9, where
        # the snapped in-circle test is not transitive
        rng = np.random.default_rng(seed)
        points = near_collinear(rng, log10_offset)
        assume(pair_distance_oracle(points).min() >= geometry.DUPLICATE_TOL)
        n = len(points)
        assert_shared_builds_match(points, [range(n)] + [
            rng.permutation(n)[:rng.integers(3, n + 1)] for _ in range(4)])


def reference_locate(tri, query):
    """Per-row oracle: the scalar point location that batched ``locate``
    must reproduce bit for bit (first triangle whose smallest barycentric
    coordinate is at least -LOCATE_TOL)."""
    p0 = tri.points[tri.triangles[:, 0]]
    e1 = tri.points[tri.triangles[:, 1]] - p0
    e2 = tri.points[tri.triangles[:, 2]] - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    d = np.asarray(query, dtype=float) - p0
    u = e2[:, 1] / det * d[:, 0] + -e2[:, 0] / det * d[:, 1]
    v = -e1[:, 1] / det * d[:, 0] + e1[:, 0] / det * d[:, 1]
    bary = np.column_stack([1.0 - u - v, u, v])
    inside = np.nonzero(bary.min(axis=1) >= -LOCATE_TOL)[0]
    if inside.size == 0:
        return -1, None
    return int(inside[0]), bary[inside[0]]


def locate_probes(tri, rng):
    """Queries on every vertex, on every edge midpoint (shared edges
    included), just inside and outside every hull edge at about LOCATE_TOL,
    and uniformly spread over the bounding box."""
    corners = tri.points[tri.triangles]
    midpoints = 0.5 * (corners + np.roll(corners, 1, axis=1))
    probes = [tri.points, midpoints.reshape(-1, 2)]
    for t, k in zip(*np.nonzero(neighbors(tri) < 0)):
        for eps in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            w = np.full(3, 0.5 * (1.0 + eps * LOCATE_TOL))
            w[k] = -eps * LOCATE_TOL  # coordinate of the vertex opposite the hull edge
            probes.append(w @ corners[t])
    lo, hi = tri.points.min(axis=0), tri.points.max(axis=0)
    probes.append(rng.uniform(lo - 0.1, hi + 0.1, (64, 2)))
    return np.vstack(probes)


def dense_locate(tri, queries):
    """Dense oracle: every query against every triangle through the (k, m, 3)
    ``Triangulation.barycentric`` stack; the lowest-index triangle whose
    smallest coordinate is at least -LOCATE_TOL."""
    block = tri.barycentric(queries)
    inside = block.min(axis=2) >= -LOCATE_TOL
    first = inside.argmax(axis=1)
    hit = inside[np.arange(first.size), first]
    t = np.where(hit, first, -1)
    bary = np.where(hit[:, None], block[np.arange(first.size), first], np.nan)
    return t, bary


class TestLocate:
    def test_matches_the_dense_barycentric_stack_on_default_slices(self, default_dataset):
        rng = np.random.default_rng(11)
        slices = enumerate_slices(default_dataset, "noise-free")[::3]
        assert len(slices) == 11
        for task in slices:
            tri = triangulate(task.points)
            lo, hi = task.points.min(axis=0), task.points.max(axis=0)
            gu, gv = np.meshgrid(np.linspace(lo[0], hi[0], 50), np.linspace(lo[1], hi[1], 50),
                                 indexing="ij")
            # the 50 x 50 surface grid, then vertices, shared edges and the
            # band within LOCATE_TOL of the hull (locate_probes)
            queries = np.vstack([np.column_stack([gu.ravel(), gv.ravel()]), locate_probes(tri, rng)])
            t, bary = locate(tri, queries)
            t_ref, bary_ref = dense_locate(tri, queries)
            assert np.array_equal(t, t_ref)
            assert np.array_equal(np.isnan(bary), np.isnan(bary_ref))
            assert np.isnan(bary[t < 0]).all() and not np.isnan(bary[t >= 0]).any()
            assert bary[t >= 0].tobytes() == bary_ref[t >= 0].tobytes()
            assert (t < 0).any() and (t >= 0).any()

    def test_empty_and_malformed_queries(self):
        surface = fit_cubic(UNIT_SQUARE, [0.0, 1.0, 2.0, 3.0])
        rbf = fit_rbf(UNIT_SQUARE, [0.0, 1.0, 2.0, 3.0])
        for empty in ([], np.empty((0, 2))):
            assert as_queries(empty).shape == (0, 2)
            t, bary = locate(surface.tri, empty)
            assert t.shape == (0,) and bary.shape == (0, 3)
            assert surface.evaluate(empty).shape == (0,)
            assert eval_rbf(rbf, empty).shape == (0,)
        for bad in (np.zeros(3), [0.5, 0.5], np.zeros((2, 3)), np.zeros((1, 2, 2))):
            shape = np.shape(bad)
            for call in (lambda q: locate(surface.tri, q), surface.evaluate,
                         lambda q: eval_rbf(rbf, q)):
                with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                    call(bad)

    def test_nan_queries_give_nan(self):
        surface = fit_cubic(UNIT_SQUARE, [0.0, 1.0, 2.0, 3.0])
        queries = [[np.nan, 0.5], [0.5, 0.5]]
        t, bary = locate(surface.tri, queries)
        assert t[0] == -1 and np.isnan(bary[0]).all() and t[1] >= 0
        assert np.isnan(surface.evaluate(queries)[0])
        assert np.isnan(eval_rbf(fit_rbf(UNIT_SQUARE, [0.0, 1.0, 2.0, 3.0]), queries)[0])

    def test_vertex_has_unit_barycentric(self):
        tri = triangulate(UNIT_SQUARE)
        t, bary = locate(tri, [[0.0, 0.0]])
        v = tri.triangles[t[0]].tolist().index(0)
        assert bary[0, v] == pytest.approx(1.0, abs=1e-12)

    def test_centroid_is_uniform(self):
        tri = triangulate(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]))
        t, bary = locate(tri, [[1.0, 1.0]])
        np.testing.assert_allclose(bary[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_far_outside_is_none(self):
        tri = triangulate(UNIT_SQUARE)
        t, bary = locate(tri, [[10.0, -3.0]])
        assert t[0] == -1
        assert np.isnan(bary[0]).all()

    def test_barycentric_reconstruction(self):
        rng = np.random.default_rng(9)
        pts = min_separated(rng, 14, 0.05)
        tri = triangulate(pts)
        queries = rng.uniform(0, 1, (50, 2))
        t, bary = locate(tri, queries)
        hit = t >= 0
        rebuilt = np.einsum("kj,kjd->kd", bary[hit], tri.points[tri.triangles[t[hit]]])
        np.testing.assert_allclose(rebuilt, queries[hit], rtol=1e-9, atol=1e-12)

    def test_hull_tolerance_is_inclusive(self):
        # unit legs from the origin vertex: the coordinates are computed exactly
        tri = triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        # (1, LOCATE_TOL) has u = 1 and v = LOCATE_TOL, so 1 - u - v is -LOCATE_TOL
        queries = np.array([[-LOCATE_TOL, 0.5], [0.5, -LOCATE_TOL], [1.0, LOCATE_TOL],
                            [-2.0 * LOCATE_TOL, 0.5]])
        t, bary = locate(tri, queries)
        assert t.tolist() == [0, 0, 0, -1]
        assert bary[:3].min(axis=1).tolist() == [-LOCATE_TOL] * 3
        assert [reference_locate(tri, q)[0] for q in queries] == t.tolist()

    @given(
        seed=st.integers(0, 10_000),
        lattice=st.booleans(),
        n_queries=st.sampled_from(
            [1, LOCATE_BLOCK - 1, LOCATE_BLOCK, LOCATE_BLOCK + 1, 2 * LOCATE_BLOCK + 3]
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_batched_matches_scalar_reference(self, seed, lattice, n_queries):
        rng = np.random.default_rng(seed)
        if lattice:  # cocircular cells: edge midpoints lie exactly on shared edges
            pts = np.array([[x, y] for x in range(4) for y in range(3)], dtype=float)
        else:
            pts = min_separated(rng, int(rng.integers(3, 15)), 0.05)
        try:
            tri = triangulate(pts)
        except DegenerateGeometry:
            return
        probes = locate_probes(tri, rng)
        queries = np.resize(probes[rng.permutation(len(probes))], (n_queries, 2))
        t, bary = locate(tri, queries)
        assert t.shape == (n_queries,) and bary.shape == (n_queries, 3)
        for i, q in enumerate(queries):
            t_ref, bary_ref = reference_locate(tri, q)
            assert t[i] == t_ref
            if t_ref < 0:
                assert np.isnan(bary[i]).all()
            else:
                assert bary[i].tobytes() == bary_ref.tobytes()


def assert_matches_reference(tri, queries, t, bary):
    """``(t, bary)`` is ``reference_locate`` row by row: equal triangles,
    bitwise equal coordinates, NaN rows outside the hull."""
    assert t.shape == (len(queries),) and bary.shape == (len(queries), 3)
    for i, q in enumerate(queries):
        t_ref, bary_ref = reference_locate(tri, q)
        assert t[i] == t_ref
        if t_ref < 0:
            assert np.isnan(bary[i]).all()
        else:
            assert bary[i].tobytes() == bary_ref.tobytes()


class TestLocateStack:
    """``_locate_stack`` pads triangulations with different triangle counts
    and query sets of different lengths into few kernel passes."""

    @given(seed=st.integers(0, 10_000),
           sizes=st.lists(st.sampled_from([0, 1, 4, 5, LOCATE_BLOCK - 1, LOCATE_BLOCK, LOCATE_BLOCK + 1]),
                          min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_reference(self, seed, sizes):
        rng = np.random.default_rng(seed)
        tris = []
        for _ in sizes:
            if rng.random() < 0.3 and tris:  # a triangulation drawn twice
                tris.append(tris[rng.integers(len(tris))])
            elif rng.random() < 0.5:  # cocircular cells: midpoints exactly on shared edges
                tris.append(triangulate(lattice(int(rng.integers(2, 5)), int(rng.integers(2, 5)))))
            else:
                pts = min_separated(rng, int(rng.integers(4, 15)), 0.05)
                tris.append(triangulate(pts if len(pts) >= 3 else UNIT_SQUARE))
        queries = []
        for tri, n in zip(tris, sizes):
            probes = locate_probes(tri, rng)
            queries.append(np.resize(probes[rng.permutation(len(probes))], (n, 2)))
        for tri, q, (t, bary) in zip(tris, queries, geometry._locate_stack(tris, queries)):
            assert_matches_reference(tri, q, t, bary)

    @pytest.mark.parametrize("sizes, passes", [
        ([5] * 120, 3),  # 51 sets of 5 rows per pass
        ([5, 3] * 30, 2),  # 30 fives and 21 threes padded to 5 rows, then 9 threes
        ([LOCATE_BLOCK + 1, 2] + [5] * 60, 2),  # the big set by box; 51 small sets, then 10
        ([2 * LOCATE_BLOCK, 1, 1, 200], 2),  # 200 rows alone, then 1 and 1
        ([600, 200] + [100] * 3 + [5] * 60, 5),  # 200; 100 and 100; 100 and a five; 51, 8 fives
    ])
    def test_passes_are_bounded_by_the_element_budget(self, monkeypatch, sizes, passes):
        # sets of more than LOCATE_BLOCK rows take no kernel pass
        rng = np.random.default_rng(len(sizes))
        grids = [lattice(3, 3), lattice(4, 3), lattice(4, 4)]
        tris = [triangulate(grids[i % 3]) for i in range(len(sizes))]
        queries = [rng.uniform(0.4, 2.2, (n, 2)) for n in sizes]
        shapes = []
        kernel = geometry._locate_pass
        monkeypatch.setattr(geometry, "_locate_pass",
                            lambda maps, q: shapes.append(q.shape[:2] + maps.shape[2:]) or kernel(maps, q))
        got = geometry._locate_stack(tris, queries)
        assert len(shapes) == passes
        assert all(s * k <= LOCATE_BLOCK for s, k, _ in shapes)
        assert max(n for *_, n in shapes) == max(tri.n_triangles for tri, n in zip(tris, sizes)
                                                 if n <= LOCATE_BLOCK)
        monkeypatch.undo()
        for tri, q, (t, bary) in zip(tris, queries, got):
            alone = locate(tri, q)
            assert t.tobytes() == alone[0].tobytes() and bary.tobytes() == alone[1].tobytes()
            assert_matches_reference(tri, q[:40], t[:40], bary[:40])

    def test_surface_grid_is_located_by_bounding_box(self, monkeypatch):
        tri = triangulate(lattice(4, 4))
        assert tri.n_triangles == 18
        gu, gv = np.meshgrid(np.linspace(1.0, 2.0, 50), np.linspace(0.5, 1.5, 50), indexing="ij")
        grid = np.column_stack([gu.ravel(), gv.ravel()])
        passes = []
        kernel = geometry._locate_pass
        monkeypatch.setattr(geometry, "_locate_pass", lambda maps, q: passes.append(q.shape) or kernel(maps, q))
        t, bary = locate(tri, grid)
        assert passes == []  # 2500 rows: no dense kernel pass
        monkeypatch.undo()
        assert_boxed_matches_dense(tri, grid)
        assert (t >= 0).all()
        assert_matches_reference(tri, grid[::50], t[::50], bary[::50])


def assert_boxed_matches_dense(tri, queries):
    """``locate`` of more than LOCATE_BLOCK queries (by bounding box) is
    ``dense_locate`` and the dense kernel on blocks of LOCATE_BLOCK rows,
    bit for bit. Returns its result."""
    queries = np.asarray(queries, dtype=float)
    assert len(queries) > LOCATE_BLOCK
    t, bary = locate(tri, queries)
    blocks = [queries[lo:lo + LOCATE_BLOCK] for lo in range(0, len(queries), LOCATE_BLOCK)]
    dense = geometry._locate_stack([tri] * len(blocks), blocks)
    for got, expected in ((t, np.concatenate([b[0] for b in dense])),
                          (bary, np.concatenate([b[1] for b in dense])), (t, dense_locate(tri, queries)[0]),
                          (bary, dense_locate(tri, queries)[1])):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    return t, bary


def rotated(points, turn):
    rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    return np.asarray(points, dtype=float) @ rot.T


class TestLocateByBoundingBox:
    """Query sets of more than LOCATE_BLOCK rows are located triangle by
    triangle in each one's widened bounding box, bit for bit as densely."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_nearly_flat_sets(self, seed):
        rng = np.random.default_rng(seed)
        nodes = nearly_flat(rng)
        try:
            tri = triangulate(nodes)
        except DegenerateGeometry:
            return
        probes = np.vstack([locate_probes(tri, rng), hull_probes(nodes)[0]])
        assert_boxed_matches_dense(tri, np.resize(probes[rng.permutation(len(probes))],
                                                  (max(len(probes), LOCATE_BLOCK + 1), 2)))

    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-8, 8), log_shift=st.floats(-2, 8))
    @settings(max_examples=40, deadline=None)
    def test_scaled_and_shifted_sets(self, seed, log_scale, log_shift):
        # far from the origin the widened box's bounds round: they are
        # rounded outward
        rng = np.random.default_rng(seed)
        nodes = min_separated(rng, int(rng.integers(3, 12)), 0.05)
        nodes = nodes * 10.0 ** log_scale + rng.choice([-1.0, 1.0], 2) * 10.0 ** log_shift
        try:
            tri = triangulate(nodes)
        except InterpolationError:
            return
        probes = locate_probes(tri, rng)
        assert_boxed_matches_dense(tri, np.resize(probes[rng.permutation(len(probes))],
                                                  (2 * LOCATE_BLOCK + 3, 2)))

    def test_the_sliver_along_the_hull(self):
        # the unit square, its centre and a node 1e-12 inside the bottom
        # edge, rotated: locate covers probes on the edge's line past a
        # bottom corner, and the box test keeps every one of them
        nodes = rotated([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5], [0.5, 1e-12]], 0.85)
        tri = triangulate(nodes)
        past = np.logspace(-9, -2.25, 28)
        probes = rotated(np.vstack([np.column_stack([-past, 0 * past]),
                                    np.column_stack([1 + past, 0 * past])]), 0.85)
        rng = np.random.default_rng(0)
        queries = np.vstack([probes, np.resize(locate_probes(tri, rng), (LOCATE_BLOCK, 2))])
        t, _ = assert_boxed_matches_dense(tri, queries)
        assert (t[:len(probes)] >= 0).any()

    def test_too_flat_triangles_test_every_open_query(self):
        # Triangulation accepts any triangles: one with exactly collinear
        # vertices (zero determinant, non-finite maps) and one 1e-14 high
        # across a unit base, both beyond the rounding bound, beside a
        # plain one
        points = np.vstack([[[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]],
                            rotated([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-14], [2.0, 0.0], [0.5, 1.0]], 0.3)])
        rng = np.random.default_rng(1)
        along = np.vstack([
            np.repeat(rng.uniform(-0.5, 3.5, 100), 2).reshape(-1, 2),
            rotated(np.column_stack([rng.uniform(-0.5, 3.5, 200), rng.normal(scale=1e-13, size=200)]), 0.3)])
        queries = np.vstack([along, points, rng.uniform(-0.5, 3.0, (200, 2))])
        with np.errstate(divide="ignore", invalid="ignore"):  # the zero determinant
            tri = Triangulation(points, np.array([[0, 1, 2], [3, 4, 5], [3, 6, 7]]))
            assert not np.isfinite(tri._maps[:, 0]).all()
            t, _ = assert_boxed_matches_dense(tri, queries)
        assert {1, 2} <= set(t.tolist())

    def test_pruned_corner_slice_grid_with_undefined_cells(self, default_dataset):
        # the x3 = 2 slice without its (2, 1.5) corner, on the 50 x 50
        # surface grid: cells past the cut diagonal are outside
        task = enumerate_slices(default_dataset, "noise-free")[-9]
        assert task.fixed_axis == "x3" and task.fixed_level == 2.0
        nodes = task.points[~((task.points[:, 0] == 2.0) & (task.points[:, 1] == 1.5))]
        tri = triangulate(nodes)
        gu, gv = np.meshgrid(np.linspace(1.0, 2.0, 50), np.linspace(0.5, 1.5, 50), indexing="ij")
        t, _ = assert_boxed_matches_dense(tri, np.column_stack([gu.ravel(), gv.ravel()]))
        assert 0 < (t < 0).sum() < 200

    def test_non_finite_queries_are_outside(self):
        tri = triangulate(lattice(4, 4))
        rng = np.random.default_rng(2)
        special = np.array([[np.nan, 1.0], [1.5, np.nan], [np.inf, 1.0], [-np.inf, 1.0],
                            [1.5, np.inf], [1.5, -np.inf], [np.inf, np.inf], [-np.inf, np.nan],
                            [np.nan, np.nan]])
        queries = rng.uniform((0.9, 0.4), (2.1, 1.6), (LOCATE_BLOCK + 40, 2))
        rows = rng.choice(len(queries), 3 * len(special), replace=False)
        queries[rows] = np.tile(special, (3, 1))
        with np.errstate(invalid="ignore"):  # inf - inf in the dense oracles
            t, bary = assert_boxed_matches_dense(tri, queries)
        assert (t[rows] == -1).all() and np.isnan(bary[rows]).all()
        assert (t >= 0).sum() > LOCATE_BLOCK // 2


class TestFillDistance:
    def test_unit_square_corners(self):
        # farthest domain point is the center at distance sqrt(2)/2
        cell_diag = math.sqrt(2.0) / 199.0
        assert fill_distance(UNIT_SQUARE) == pytest.approx(
            math.sqrt(2.0) / 2.0, abs=cell_diag
        )

    def test_single_point_degenerate_domain(self):
        assert fill_distance(np.array([[2.0, 3.0]])) == 0.0

    def test_regular_grid_is_half_diagonal(self):
        s = 0.25
        pts = np.array([[i * s, j * s] for i in range(5) for j in range(5)])
        cell_diag = math.hypot(1.0, 1.0) / 199.0
        assert fill_distance(pts) == pytest.approx(s / math.sqrt(2.0), abs=cell_diag)

    def test_empty_set_rejected(self):
        with pytest.raises(InsufficientNodes):
            fill_distance(np.empty((0, 2)))

    def test_refinement_is_monotone_up_to_cell_diagonal(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            pts = min_separated(rng, 12, 0.05)
            coarse = fill_distance(pts, grid_resolution=50)
            fine = fill_distance(pts, grid_resolution=100)
            poly = convex_hull_polygon(pts)
            w, h = np.ptp(poly[:, 0]), np.ptp(poly[:, 1])
            diag = math.hypot(w / 49.0, h / 49.0)
            assert fine >= coarse - diag

    def test_adding_a_point_weakly_decreases_fill(self):
        rng = np.random.default_rng(22)
        pts = min_separated(rng, 10, 0.08)
        domain = convex_hull_polygon(pts)
        base = fill_distance(pts, domain=domain)
        centroid = pts.mean(axis=0)
        augmented = np.vstack([pts, centroid])
        assert fill_distance(augmented, domain=domain) <= base + 1e-12

    @pytest.mark.parametrize("scale", [1e3, 1e-3, 1e-6, 1e-9])
    def test_fill_distance_and_mesh_ratio_do_not_depend_on_the_scale(self, scale):
        # the grid is clipped to the hull with a tolerance scaled like the
        # cross products it bounds (length^2); one in length units took in
        # grid points outside the hull below unit scale
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.3, 0.3], [0.1, 0.5]])
        assert fill_distance(nodes * scale) / scale == pytest.approx(fill_distance(nodes), rel=1e-12)
        assert mesh_ratio(nodes * scale) == pytest.approx(mesh_ratio(nodes), rel=1e-12)


def fill_distance_oracle(arr, poly, grid_resolution):
    """The dense fill-distance scan: every candidate against every node in
    one (candidates, nodes) ``np.hypot`` array."""
    if poly.shape[0] == 1:
        candidates = poly
    elif poly.shape[0] == 2:
        t = np.linspace(0.0, 1.0, grid_resolution)[:, None]
        candidates = poly[0] + t * (poly[1] - poly[0])
    else:
        lo, hi = poly.min(axis=0), poly.max(axis=0)
        gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], grid_resolution),
                             np.linspace(lo[1], hi[1], grid_resolution), indexing="ij")
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        if polygon_area(poly) < 0:
            poly = poly[::-1]
        tol = 1e-12 * max(hi[0] - lo[0], hi[1] - lo[1]) ** 2
        inside = np.ones(grid.shape[0], dtype=bool)
        for k in range(poly.shape[0]):
            a, b = poly[k], poly[(k + 1) % poly.shape[0]]
            cross = (b[0] - a[0]) * (grid[:, 1] - a[1]) - (b[1] - a[1]) * (grid[:, 0] - a[0])
            inside &= cross >= -tol
        candidates = grid[inside]
    if candidates.shape[0] == 0:
        return 0.0
    nearest = np.hypot(candidates[:, 0:1] - arr[:, 0], candidates[:, 1:2] - arr[:, 1]).min(axis=1)
    return float(nearest.max())


def pair_distance_oracle(pts):
    """Pairwise node distances from one (n, n, 2) difference stack, inf on
    the diagonal."""
    d = pts[:, None, :] - pts[None, :, :]
    dist = np.hypot(d[..., 0], d[..., 1])
    dist[np.diag_indices(len(pts))] = np.inf
    return dist


@st.composite
def node_sets(draw):
    """1 to 30 nodes: uniform random, or a subset of a (possibly
    anisotropic) lattice, scaled by 1e-6 to 1e6 and shifted by up to 100
    times the scale; duplicates are possible."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 30)))
    if draw(st.booleans()):
        pts = rng.random((n, 2))
    else:
        a, b = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        height = draw(st.sampled_from([0.5, 1.0, 3.0]))
        xs, ys = np.meshgrid(np.linspace(0.0, 1.0, a), np.linspace(0.0, height, b))
        lattice = np.column_stack([xs.ravel(), ys.ravel()])
        pts = lattice[rng.choice(len(lattice), min(n, len(lattice)), replace=False)]
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    offset = np.array([draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))])
    return (pts + offset) * scale, rng, scale


@st.composite
def fill_cases(draw):
    """Valid nodes, a domain (None for their hull, or a user polygon of 1
    to 6 vertices in any order around them) and a grid resolution 2 ... 200."""
    arr, rng, scale = draw(node_sets())
    assume(len(arr) < 2 or pair_distance_oracle(arr).min() >= geometry.DUPLICATE_TOL)
    domain = None
    if draw(st.booleans()):
        domain = arr.mean(axis=0) + (rng.random((draw(st.integers(1, 6)), 2)) - 0.5) * 3.0 * scale
    return arr, domain, draw(st.integers(2, 200))


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestDistanceKernels:
    """The distance kernels equal the dense (…, n, 2)-stack expressions they
    replaced, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(fill_cases())
    def test_fill_distance_matches_the_dense_scan(self, case):
        arr, domain, res = case
        expected = fill_distance_oracle(arr, convex_hull_polygon(arr) if domain is None else domain, res)
        assert same_float(fill_distance(arr, "hull" if domain is None else domain, res), expected)
        if domain is None and len(arr) > 1:
            report = geometry_report(arr, res)
            assert same_float(report["fill_distance"], expected)
            assert same_float(report["mesh_ratio"], expected / separation_distance(arr))

    @pytest.mark.parametrize("scale, seed", [(1e-161, 6), (1e-170, 3), (1e-300, 3), (1e155, 3), (1e300, 3)])
    def test_fill_distance_outside_the_normal_square_range(self, scale, seed):
        # squares underflow or overflow: the ranking is not trusted, and every
        # candidate is measured exactly (nodes this close are duplicates to
        # as_points, so the scan is called directly); at 1e-161, seed 6, the
        # subnormal squares rank the farthest candidate out of the band
        arr = np.random.default_rng(seed).random((7, 2)) * scale
        poly = UNIT_SQUARE * scale
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the clipping overflows alike in both
            assert same_float(geometry._fill_distance(arr, poly, 50), fill_distance_oracle(arr, poly, 50))

    def test_fill_distance_measures_candidates_the_squares_rank_lower(self):
        # from the origin, the first end of this segment is at hypot 1.0 and
        # the second at 1 - 2^-53, but their rounded squares order them the
        # other way round
        domain = np.array([[0.8841738299371694, 0.4671580444070693],
                           [0.53324228931928, 0.8459625647045697]])
        origin = np.zeros((1, 2))
        assert fill_distance(origin, domain, grid_resolution=2) == 1.0
        assert fill_distance_oracle(origin, domain, 2) == 1.0

    def test_fill_distance_with_a_non_finite_domain(self):
        arr = as_points(UNIT_SQUARE)
        for poly in (np.array([[np.nan, 0.0]]), np.array([[0.0, 0.0], [np.inf, 1.0]])):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert same_float(geometry._fill_distance(arr, poly, 20), fill_distance_oracle(arr, poly, 20))

    def test_mesh_ratio_of_default_slices_matches_the_dense_scan(self, default_dataset):
        for task in enumerate_slices(default_dataset, "noise-free")[::4]:
            arr = as_points(task.points)
            expected = fill_distance_oracle(arr, geometry._hull(arr), 200)
            assert same_float(mesh_ratio(arr), expected / separation_distance(arr))

    @settings(max_examples=150, deadline=None)
    @given(node_sets(), st.booleans())
    def test_as_points_and_separation_match_the_stack(self, drawn, near_duplicate):
        pts = drawn[0]
        if near_duplicate and len(pts) > 1:
            pts = np.vstack([pts, pts[-1] + 1e-13])
        if len(pts) < 2:
            as_points(pts)
            return
        dist = pair_distance_oracle(pts)
        assert geometry._pair_distances(pts).tobytes() == dist.tobytes()
        if dist.min() < geometry.DUPLICATE_TOL:
            i, j = np.unravel_index(np.argmin(dist), dist.shape)
            with pytest.raises(DuplicateNodes, match=f"nodes {i} and {j} coincide"):
                as_points(pts)
        else:
            assert as_points(pts).tobytes() == pts.tobytes()
            assert same_float(separation_distance(pts), 0.5 * float(dist.min()))

    def test_fill_scan_memory_is_bounded(self):
        # three (40000, 100) candidate-by-node arrays would take about 96 MB
        xs = np.arange(10.0)
        pts = np.array([[x, y] for x in xs for y in xs])
        tracemalloc.start()
        try:
            for report in (fill_distance, geometry_report):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                report(pts, grid_resolution=200)
                assert tracemalloc.get_traced_memory()[1] - base < 5e6, report.__name__
        finally:
            tracemalloc.stop()


class TestSeparation:
    def test_unit_square(self):
        assert separation_distance(UNIT_SQUARE) == 0.5

    def test_two_points(self):
        assert separation_distance(np.array([[0.0, 0.0], [3.0, 0.0]])) == 1.5

    def test_slice_grid_matches_brute_force(self, default_dataset):
        # the x3=2 slice projected to (x1, x2): separation is half the minimum spacing
        rows = default_dataset.x[:, 2] == 2.0
        pts = default_dataset.x[rows][:, :2]
        brute = min(
            math.hypot(*(pts[i] - pts[j]))
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        )
        assert separation_distance(pts) == pytest.approx(0.5 * brute, rel=1e-12)
        assert separation_distance(pts) == pytest.approx(0.5 * (1.0 / 3.0), rel=1e-9)

    def test_single_point_rejected(self):
        with pytest.raises(InsufficientNodes):
            separation_distance(np.array([[0.0, 0.0]]))


class TestMeshRatio:
    def test_unit_square(self):
        assert mesh_ratio(UNIT_SQUARE) == pytest.approx(math.sqrt(2.0), abs=0.02)

    def test_two_point_segment(self):
        # exact ratio is 1 (midpoint argument); allow the segment-sampling slack
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        sampling_slack = 2.0 / 199.0 / 2.0
        assert mesh_ratio(pts) >= 1.0 - sampling_slack / separation_distance(pts)

    def test_ratio_at_least_one(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pts = min_separated(rng, int(rng.integers(4, 20)), 0.05)
            if len(pts) < 3:
                continue
            poly = convex_hull_polygon(pts)
            w, h = np.ptp(poly[:, 0]), np.ptp(poly[:, 1])
            slack = math.hypot(w / 199.0, h / 199.0)
            assert mesh_ratio(pts) >= 1.0 - slack / separation_distance(pts)


class TestGeometryReport:
    def test_report_keys_and_values(self):
        payload = geometry_report(UNIT_SQUARE)
        assert set(payload) == {
            "fill_distance",
            "separation_distance",
            "mesh_ratio",
            "n_nodes",
            "n_hull",
        }
        assert payload["n_nodes"] == 4
        assert payload["n_hull"] == 4

    def test_nodes_validated_once_and_hull_built_once(self, monkeypatch):
        calls = {"as_points": 0, "_hull": 0}

        def counted(name):
            original = getattr(geometry, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(geometry, name, counted(name))
        grid = np.array([[x, y] for x in range(4) for y in range(4)], dtype=float)
        report = geometry_report(grid, grid_resolution=30)
        assert calls == {"as_points": 1, "_hull": 1}
        assert report["fill_distance"] == fill_distance(grid, grid_resolution=30)
        assert report["separation_distance"] == separation_distance(grid)

    def test_n_hull_matches_per_point_reference(self):
        def reference_n_hull(arr):
            """Per-node, per-edge loop that the vectorized count must match."""
            poly = convex_hull_polygon(arr)
            tol = 1e-9 * max(np.ptp(arr[:, 0]), np.ptp(arr[:, 1]))
            count = 0
            for p in arr:
                for k in range(poly.shape[0]):
                    a, b = poly[k], poly[(k + 1) % poly.shape[0]]
                    ab = b - a
                    t = 0.0 if ab @ ab == 0.0 else np.clip((p - a) @ ab / (ab @ ab), 0.0, 1.0)
                    if np.hypot(*(p - (a + t * ab))) <= tol:
                        count += 1
                        break
            return count

        rng = np.random.default_rng(23)
        xs = np.linspace(0.0, 1.0, 5)
        cases = [np.array([[x, y] for x in xs for y in xs[:3]]),
                 np.column_stack([xs, 2.0 * xs])]  # collinear: the hull is a segment
        cases += [min_separated(rng, int(rng.integers(3, 20)), 0.05) for _ in range(30)]
        for pts in cases:
            assert geometry_report(pts, grid_resolution=20)["n_hull"] == reference_n_hull(pts)

    @pytest.mark.parametrize("scale", [1e3, 1e-3, 1e-9, 1e-10])
    def test_n_hull_does_not_depend_on_the_scale(self, scale):
        # the boundary tolerance is relative to the extent alone
        grid = np.array([[x, y] for x in range(4) for y in range(4)], dtype=float)
        assert geometry_report(grid * scale)["n_hull"] == 12

    def test_grid_hull_counts_collinear_boundary_nodes(self):
        xs = np.linspace(0.0, 1.0, 4)
        grid = np.array([[x, y] for x in xs for y in xs])
        assert geometry_report(grid)["n_hull"] == 12
