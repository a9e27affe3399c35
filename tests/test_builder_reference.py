"""``geometry.triangulate`` against the edge-dict Delaunay builder it replaced.

``reference_triangulate`` keeps the triangles in a list with tombstones and
a dict from each directed edge to its triangle. On every insert it finds the
hull edges by scanning that dict, and it legalizes the new triangles in the
dict's order. ``geometry._Builder`` walks its hull chain instead, so after an
insert the flips run in another order. Within about 100 times the 1e-12 snap
band the snapped in-circle test is not transitive, and Lawson flipping could
then stop at another mesh. The two must give the same triangles, or raise
the same error with the same message, on the families that reach that band:
near-collinear sets, rings, lattice subsets, and every build of the default
experiment.
"""

import dataclasses
import re

import numpy as np
import pytest

from conftest import min_separated, near_collinear
from surfbench import protocol
from surfbench.errors import DegenerateGeometry, InsufficientNodes, InterpolationError
from surfbench.geometry import as_points, incircle_sign, orient_sign, triangulate
from surfbench.protocol import execute_experiment
from surfbench.synthdata import DesignSpec, generate


def reference_triangulate(points) -> np.ndarray:
    """The canonical triangle rows of ``triangulate(points)``, built on a
    triangle list and an edge -> triangle dict."""
    pts = list(map(tuple, as_points(points).tolist()))
    n = len(pts)
    if n < 3:
        raise InsufficientNodes(f"triangulation needs >= 3 nodes, got {n}")
    tris: list = []  # [a, b, c] or None tombstones
    edge: dict = {}  # directed edge (a, b) -> triangle index

    def orient(a, b, c):
        return orient_sign(pts[a], pts[b], pts[c])

    def add_tri(a, b, c):
        tris.append([a, b, c])
        edge[(a, b)] = edge[(b, c)] = edge[(c, a)] = len(tris) - 1
        return len(tris) - 1

    def remove_tri(t):
        a, b, c = tris[t]
        for key in ((a, b), (b, c), (c, a)):
            if edge.get(key) == t:
                del edge[key]
        tris[t] = None

    def legalize(t, p):
        stack = [t]
        while stack:
            t = stack.pop()
            tri = tris[t]
            if tri is None or p not in tri:
                continue
            i = tri.index(p)
            u, v = tri[(i + 1) % 3], tri[(i + 2) % 3]
            t2 = edge.get((v, u))
            if t2 is None:
                continue
            q = next(w for w in tris[t2] if w != u and w != v)
            sign = incircle_sign(pts[p], pts[u], pts[v], pts[q])
            if sign < 0 or (sign == 0 and min(pts[p], pts[q]) > min(pts[u], pts[v])):
                continue
            if orient(p, u, q) <= 0 or orient(p, q, v) <= 0:
                if sign > 0:
                    raise DegenerateGeometry(
                        f"in-circle and orientation tests contradict each other at point {p}")
                continue
            remove_tri(t)
            remove_tri(t2)
            stack.append(add_tri(p, u, q))
            stack.append(add_tri(p, q, v))

    order = sorted(range(n), key=pts.__getitem__)
    s0, s1 = order[0], order[1]
    k = next((j for j in range(2, n) if orient(s0, s1, order[j]) != 0), None)
    if k is None:
        raise DegenerateGeometry("all nodes are collinear")
    sk = order[k]
    add_tri(*((s0, s1, sk) if orient(s0, s1, sk) > 0 else (s0, sk, s1)))
    for p in order[2:k] + order[k + 1:]:
        boundary = [e for e in edge if (e[1], e[0]) not in edge]
        visible = [(a, b) for a, b in boundary if orient(a, b, p) < 0]
        if not visible:
            raise DegenerateGeometry(f"point {p} could not be located")
        if len({a for a, _ in visible} - {b for _, b in visible}) != 1:
            raise DegenerateGeometry(f"point {p} is collinear with the hull within tolerance")
        for t in [add_tri(b, a, p) for a, b in visible]:
            legalize(t, p)
    rank = dict(zip(order, range(n)))
    rows = []
    for tri in filter(None, tris):
        r = [rank[v] for v in tri]
        i = r.index(min(r))
        rows.append(r[i:] + r[:i])
    rows.sort()
    return np.array(order, dtype=np.intp)[np.array(rows, dtype=np.intp).reshape(-1, 3)]


def assert_same_as_reference(pts):
    """``triangulate(pts)`` has the reference's triangles bit for bit, or
    raises the reference's error type with its message. Returns whether a
    mesh was built."""
    try:
        expected = reference_triangulate(pts)
    except InterpolationError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            triangulate(pts)
        return False
    got = triangulate(pts).triangles
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    return True


@pytest.mark.parametrize("decade", [-12, -11, -10, -9])
def test_near_collinear_sets(decade):
    # offsets from 10**decade to ten times that of the extent; at 1e-12
    # all three insert and seed errors occur, and at 1e-12 and 1e-11
    # flipping stops non-Delaunay by the module's predicate in some sets
    rng = np.random.default_rng(decade + 100)
    built = sum(assert_same_as_reference(near_collinear(rng, rng.uniform(decade, decade + 1)))
                for _ in range(1500))
    assert 0 < built <= 1500


def test_rings():
    # regular polygons, with and without their centre: their cocircular
    # quads are ties within the snap band
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(4, 16))
        angle = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(n) / n
        ring = rng.uniform(-10.0, 10.0, 2) + np.column_stack([np.cos(angle), np.sin(angle)])
        if rng.random() < 0.5:
            ring = np.vstack([ring, ring.mean(axis=0)])
        assert assert_same_as_reference(10.0 ** rng.uniform(-3.0, 3.0) * ring)


def test_lattice_subsets():
    # design lattices such as the default 4 x 4 and 4 x 3 levels (4/3, 5/6:
    # not dyadic) and their subsets, whose collinear rows and cocircular
    # quads meet the snap band
    rng = np.random.default_rng(11)
    for i in range(400):
        if i < 100:
            spec, axes = DesignSpec(), [("x1", "x2"), ("x1", "x3")][i % 2]
        else:
            spec = DesignSpec(x1_levels=int(rng.integers(2, 11)), x2_levels=int(rng.integers(2, 11)),
                              x3_levels=int(rng.integers(2, 8)))
            axes = [("x1", "x2"), ("x1", "x3"), ("x2", "x3")][rng.integers(3)]
        points = np.array([[u, v] for u in spec.axis_levels(axes[0]) for v in spec.axis_levels(axes[1])])
        assert_same_as_reference(points[rng.random(len(points)) < rng.uniform(0.2, 1.0)])


def test_random_sets():
    rng = np.random.default_rng(3)
    for _ in range(200):
        assert assert_same_as_reference(min_separated(rng, int(rng.integers(3, 30)), 0.03))


@pytest.mark.parametrize("seed", [42, 1009])
def test_default_experiment_builds(monkeypatch, default_config, seed):
    # every training set the experiment triangulates, as a lone node set
    built = []
    original = protocol._triangulate

    def recording(signs, nodes):
        built.append(signs.points[nodes])
        return original(signs, nodes)
    monkeypatch.setattr(protocol, "_triangulate", recording)
    config = dataclasses.replace(default_config, random_seed=seed)
    execute_experiment(generate(noise=config.noise_spec()), config)
    assert len(built) > 200
    for pts in built:
        assert_same_as_reference(pts)
