"""``geometry.hull_cover`` against its split-by-split formulation.

``reference_hull_cover`` computes every line of every split from the split's
own nodes, as ``hull_cover`` did before it read the lines from node-level
tables. Each comparison of the two is the same float expression of the same
operands, so the answers must be equal bit for bit.
"""

import tracemalloc

import numpy as np
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
    """``hull_cover`` with each split's lines computed from its own nodes:
    (B, h, h, max(m, k)) temporaries for h hull vertices."""
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

    # Hull vertices: the largest gap between the directions to the other
    # training nodes exceeds pi.
    d = sub[:, None, :, :] - sub[:, :, None, :]
    ang = np.arctan2(d[..., 1], d[..., 0])
    ang[:, np.arange(m), np.arange(m)] = np.inf
    ang = np.sort(ang, axis=2)[:, :, : m - 1]
    gap = np.maximum(np.diff(ang, axis=2).max(axis=2, initial=0.0),
                     2.0 * np.pi - (ang[:, :, -1] - ang[:, :, 0]))
    vertex = gap > np.pi + SUPPORT_TOL
    n_vertex = vertex.sum(axis=1)
    h = int(n_vertex.max())
    slot = np.argsort(~vertex, axis=1, kind="stable")[:, :h]
    valid = np.take_along_axis(vertex, slot, axis=1)
    corner = np.take_along_axis(train, slot, axis=1)  # (B, h) node indices

    covered = np.ones(test.shape, dtype=bool)
    step = max(1, HULL_CHUNK // max(1, h * h * max(m, test.shape[1])))
    for lo in range(0, n_sets if h else 0, step):
        s = slice(lo, lo + step)
        a = p[corner[s]]  # (b, h, 2)
        e = a[:, None, :, :] - a[:, :, None, :]  # e[:, i, j] = a[:, j] - a[:, i]
        tol = np.sqrt((e * e).sum(axis=3))[..., None] * extent

        def left(q):
            """Twice the signed area of (a_i, a_j, q_c), (b, h, h, c)."""
            r = q[:, None, None, :, :] - a[:, :, None, None, :]
            return e[..., 0, None] * r[..., 1] - e[..., 1, None] * r[..., 0]

        o = left(sub[s])
        support = (o >= -SUPPORT_TOL * tol).all(axis=3)
        support &= valid[s, :, None] & valid[s, None, :]
        support[:, np.arange(h), np.arange(h)] = False
        covered[s] = ~(support[..., None] & (left(p[test[s]]) < -HULL_TOL * tol)).any(axis=(1, 2))
    return covered, ~collinear & (n_vertex >= 3)


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
        # at a tolerance sits on the threshold of one comparison. The
        # nodes 5e-13 and 1e-6 inside the edge are nearly on it, which
        # does not matter to the hull.
        heights = [-HULL_TOL, -SUPPORT_TOL, 0.5 * PREDICATE_EPS_REL, 1e-6, HULL_TOL, SUPPORT_TOL]
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.0, 0.5]])
        nodes = np.vstack([corners, [[0.25, y] for y in heights], [[0.75, y] for y in heights]])
        ties = np.arange(4, len(nodes))
        train = np.array([[0, 1, 2, 3, t] for t in ties])
        test = np.array([np.setdiff1d(ties, t) for t in ties])
        covered, trusted = assert_same_cover(nodes, train, test)
        # Every training set has a proper hull, whatever node lies near its
        # edge, and a test node HULL_TOL below the bottom edge is still
        # covered.
        assert trusted.all()
        assert covered.all()

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


def test_peak_memory_on_a_ten_by_ten_node_set():
    # 108 training sets of 70 of the 100 nodes, as one node set of the
    # 10 x 10 x 6 design with three repeats gives them. The split-by-split
    # formulation peaks at about 29 MB here; node-level tables at about 9.
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
