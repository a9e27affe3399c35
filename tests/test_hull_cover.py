"""``geometry.hull_cover`` against its split-by-split formulation, and
against Qhull away from the hull's boundary.

``reference_hull_cover`` computes every line of every split from the split's
own nodes, as ``hull_cover`` did before it read the lines from node-level
tables, and takes every ordered pair of a split's training nodes as a
candidate supporting line. Each comparison of the two is the same float
expression of the same operands, so the answers must be equal bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hull_probes, min_separated, near_collinear, nearly_flat
from surfbench import protocol
from surfbench.geometry import (
    HULL_CHUNK,
    HULL_TOL,
    PREDICATE_EPS_REL,
    SUPPORT_TOL,
    convex_hull_polygon,
    hull_cover,
)
from surfbench.protocol import execute_experiment
from surfbench.synthdata import DesignSpec


def reference_hull_cover(points, train, test):
    """``hull_cover`` with each split's lines computed from its own nodes,
    every ordered pair of its training nodes a candidate supporting line:
    (b, m, m, max(m, k)) temporaries for b splits."""
    p = np.asarray(points, dtype=float)
    train = np.asarray(train, dtype=np.intp)
    test = np.asarray(test, dtype=np.intp)
    n_sets, m = train.shape
    if m < 3:
        return np.zeros(test.shape, dtype=bool), np.zeros(n_sets, dtype=bool)
    extent = max(np.ptp(p[:, 0]), np.ptp(p[:, 1]))
    sub = p[train]  # (B, m, 2)

    # Collinear as triangulate finds it, from its first two nodes.
    first = np.take_along_axis(train, np.lexsort((sub[..., 1], sub[..., 0]))[:, :2], axis=1)
    ab = p[first[:, 1]] - p[first[:, 0]]
    ac = sub - p[first[:, :1]]
    det = ab[:, None, 0] * ac[..., 1] - ab[:, None, 1] * ac[..., 0]
    scale = np.maximum(np.maximum((ab * ab).sum(axis=1)[:, None], (ac * ac).sum(axis=2)),
                       ((ac - ab[:, None, :]) ** 2).sum(axis=2))
    collinear = (np.abs(det) <= 2.0 * PREDICATE_EPS_REL * scale).all(axis=1)

    covered = np.ones(test.shape, dtype=bool)
    step = max(1, HULL_CHUNK // (m * m * max(m, test.shape[1])))
    for lo in range(0, n_sets, step):
        s = slice(lo, lo + step)
        a = sub[s]  # (b, m, 2)
        e = a[:, None, :, :] - a[:, :, None, :]  # e[:, i, j] = a[:, j] - a[:, i]
        tol = np.sqrt((e * e).sum(axis=3))[..., None] * extent

        def left(q):
            """Twice the signed area of (a_i, a_j, q_c), (b, m, m, c)."""
            r = q[:, None, None, :, :] - a[:, :, None, None, :]
            return e[..., 0, None] * r[..., 1] - e[..., 1, None] * r[..., 0]

        support = (left(a) >= -SUPPORT_TOL * tol).all(axis=3)
        covered[s] = ~(support[..., None] & (left(p[test[s]]) < -HULL_TOL * tol)).any(axis=(1, 2))
    return covered, ~collinear


def assert_same_cover(points, train, test):
    """``hull_cover`` equals the reference on the batch, and each split
    alone gives its row of the batch."""
    got = hull_cover(points, train, test)
    expected = reference_hull_cover(points, train, test)
    for g, e in zip(got, expected):
        assert (g.dtype, g.shape) == (e.dtype, e.shape)
        np.testing.assert_array_equal(g, e)
    for b in range(len(train)):
        covered, trusted = hull_cover(points, train[b:b + 1], test[b:b + 1])
        np.testing.assert_array_equal(covered[0], got[0][b])
        assert trusted[0] == got[1][b]
    return got


def lattice(size):
    spec = DesignSpec(x1_levels=size, x2_levels=size)
    return np.array([[u, v] for u in spec.axis_levels("x1") for v in spec.axis_levels("x2")])


@st.composite
def cover_cases(draw):
    """(points, train, test) for 1 to 6 splits of a node set: subsets of
    the 4 x 4 and 10 x 10 lattices, random sets, near-collinear sets with
    offsets 1e-12 to 1e-6 and nearly flat sets, some with ``hull_probes``
    appended as test nodes; m from 1 (the m < 3 early return) up to every
    node."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["lattice", "random", "near_collinear", "nearly_flat"]))
    if kind == "lattice":
        nodes = lattice(draw(st.sampled_from([4, 10])))
    elif kind == "random":
        nodes = min_separated(rng, int(rng.integers(3, 20)), 0.05)
    elif kind == "near_collinear":
        nodes = near_collinear(rng, rng.uniform(-12, -6))
    else:
        nodes = nearly_flat(rng)
    n = len(nodes)
    if draw(st.booleans()) and len(convex_hull_polygon(nodes)) >= 3:
        nodes = np.vstack([nodes, hull_probes(nodes)[0]])
    m = min(n, draw(st.one_of(st.integers(1, 3), st.integers(3, n))))
    train = np.stack([rng.choice(n, m, replace=False) for _ in range(draw(st.integers(1, 6)))])
    test = np.stack([rng.permutation(np.setdiff1d(np.arange(len(nodes)), row)) for row in train])
    return nodes, train, test


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(case=cover_cases())
    def test_equals_the_reference_alone_and_in_a_batch(self, case):
        assert_same_cover(*case)

    def test_comparisons_at_their_thresholds(self):
        # The bottom edge of a unit-wide rectangle has length 1 and the
        # extent is 1, so a node at height y has o = y exactly: each node
        # at a tolerance sits on the threshold of one comparison. Each
        # training set is the rectangle and one of the nodes near its
        # bottom edge; the other such nodes are its test nodes.
        heights = [-3 * HULL_TOL, -HULL_TOL, SUPPORT_TOL - HULL_TOL, -SUPPORT_TOL,
                   0.5 * PREDICATE_EPS_REL, 1e-6, HULL_TOL, SUPPORT_TOL]
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.0, 0.5]])
        nodes = np.vstack([corners, [[0.25, y] for y in heights], [[0.75, y] for y in heights]])
        ties = np.arange(4, len(nodes))
        train = np.array([[0, 1, 2, 3, t] for t in ties])
        test = np.array([np.setdiff1d(ties, t) for t in ties])
        covered, trusted = assert_same_cover(nodes, train, test)
        assert trusted.all()
        # A test node within HULL_TOL - SUPPORT_TOL of the hull is covered,
        # and one 3 HULL_TOL below the bottom edge, at least 2 HULL_TOL
        # beyond a supporting line, is not. A training node 5e-13 inside
        # the edge is within the slack of the short line from a bottom
        # corner through it, which tilts below the edge: a test node
        # HULL_TOL below the edge, on the threshold of the edge itself, is
        # beyond that line.
        depth = nodes[test, 1]
        tilted = nodes[ties, 1] == 0.5 * PREDICATE_EPS_REL
        expected = (depth > -HULL_TOL) | ((depth == -HULL_TOL) & ~tilted[:, None])
        np.testing.assert_array_equal(covered, expected)

    def test_fewer_than_three_training_nodes(self):
        nodes = lattice(4)
        for m in (0, 1, 2):
            covered, trusted = assert_same_cover(nodes, np.arange(2 * m).reshape(2, m),
                                                 np.arange(10, 16).reshape(2, 3))
            assert not covered.any() and not trusted.any()

    def test_three_training_nodes(self):
        nodes = lattice(4)
        # two triangles, a lattice diagonal and a lattice column (node 4i + j)
        train = np.array([[0, 3, 12], [0, 5, 10], [1, 2, 3], [0, 7, 13]])
        test = np.array([np.setdiff1d(np.arange(16), row) for row in train])
        covered, trusted = assert_same_cover(nodes, train, test)
        assert trusted.tolist() == [True, False, False, True]

    def test_every_call_of_the_default_run(self, monkeypatch, default_dataset, default_config):
        calls = []

        def compared(points, train, test):
            calls.append(len(train))
            return assert_same_cover(points, train, test)

        monkeypatch.setattr(protocol, "hull_cover", compared)
        execute_experiment(default_dataset, default_config)
        assert sum(calls) == 1496  # every distinct training set of the run


def test_covered_agrees_with_qhull_away_from_the_boundary():
    # Random sets, lattice subsets and nearly flat sets, each split with
    # its other nodes, random points around it and probes 20 and 100 band
    # widths off each Qhull facet as test nodes. Qhull's facet equations
    # have unit normals, so their largest value at a point is minus its
    # distance to the boundary inside the hull, and positive but at most
    # its distance to the hull outside.
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(0)
    checked = 0
    for case in range(120):
        if case % 3 == 0:
            nodes = min_separated(rng, int(rng.integers(4, 30)), 0.02)
        elif case % 3 == 1:
            nodes = lattice(int(rng.choice([4, 10])))
        else:
            nodes = nearly_flat(rng)
        n = len(nodes)
        train = rng.choice(n, int(rng.integers(3, n + 1)), replace=False)
        if not hull_cover(nodes, train[None], np.zeros((1, 0), dtype=np.intp))[1][0]:
            continue
        hull = spatial.ConvexHull(nodes[train])
        normal, offset = hull.equations[:, :2], hull.equations[:, 2]
        middle = nodes[train][hull.simplices].mean(axis=1)
        band = HULL_TOL * np.ptp(nodes, axis=0).max()
        steps = np.array([-100.0, -20.0, 20.0, 100.0])[:, None, None] * band
        lo, hi = nodes.min(axis=0), nodes.max(axis=0)
        queries = np.vstack([(middle + steps * normal).reshape(-1, 2),
                             rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), (40, 2))])
        points = np.vstack([nodes, queries])
        test = np.concatenate([np.setdiff1d(np.arange(n), train), np.arange(n, len(points))])
        covered, trusted = hull_cover(points, train[None], test[None])
        signed = (points[test] @ normal.T + offset).max(axis=1)
        far = np.abs(signed) > 10 * HULL_TOL * np.ptp(points, axis=0).max()
        assert trusted[0]
        np.testing.assert_array_equal(covered[0][far], signed[far] < 0)
        checked += far.sum()
    assert checked > 5000


def test_peak_memory_on_a_ten_by_ten_node_set():
    # 108 training sets of 70 of the 100 nodes, as one node set of the
    # 10 x 10 x 6 design with three repeats gives them: about 9 MB.
    rng = np.random.default_rng(0)
    perm = np.stack([rng.permutation(100) for _ in range(108)])
    train, test = np.sort(perm[:, :70], axis=1), np.sort(perm[:, 70:], axis=1)
    nodes = lattice(10)
    tracemalloc.start()
    try:
        hull_cover(nodes, train, test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
