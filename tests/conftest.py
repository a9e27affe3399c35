import dataclasses

import numpy as np
import pytest
from hypothesis import strategies as st

from surfbench.config import ExperimentConfig
from surfbench.geometry import HULL_TOL, _Predicates, convex_hull_polygon
from surfbench.protocol import RunTable, _run_tasks, execute_experiment
from surfbench.report import _fmt, summarize
from surfbench.synthdata import DesignSpec, generate


@pytest.fixture(scope="session")
def default_config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def default_dataset(default_config):
    return generate(noise=default_config.noise_spec())


@pytest.fixture(scope="session")
def full_run(default_dataset, default_config):
    """Run records of the full default experiment (computed once per session)."""
    return execute_experiment(default_dataset, default_config)


@pytest.fixture(scope="session")
def summary(full_run, default_config):
    """Summary table of the full default experiment."""
    return summarize(full_run, default_config)


def concat(tables):
    """One RunTable of the runs of ``tables``, in order; each holds every
    column."""
    tables = list(tables)
    return RunTable(**{f.name: np.concatenate([getattr(t, f.name) for t in tables])
                       for f in dataclasses.fields(RunTable)})


def per_run(table, name):
    """The entries of each run in flat column ``name`` of ``table``."""
    return np.split(getattr(table, name), np.cumsum(table.n_test)[:-1])


def one_run(y_true, y_pred, **columns):
    """The RunTable of one run: its targets and predictions, and in
    ``columns`` its entry of every other column."""
    return RunTable(**{name: np.array([value]) for name, value in columns.items()},
                    y_true=y_true, y_pred=y_pred)


def split_pairs(table):
    """Slices of the cubic runs and of the RBF runs of ``table``, one run
    per split in each, in split order. Asserts that each split's cubic run
    comes right before its RBF run."""
    cubic, rbf = slice(0, None, 2), slice(1, None, 2)
    assert len(table) % 2 == 0
    assert (table.method[cubic] == "cubic").all() and (table.method[rbf] == "rbf").all()
    for name in ("regime", "output_index", "fixed_axis", "fixed_level", "repeat"):
        np.testing.assert_array_equal(getattr(table, name)[cubic], getattr(table, name)[rbf])
    return cubic, rbf


def reference_csv(header, rows) -> bytes:
    """A table written row by row, each cell by ``report._fmt`` alone."""
    lines = [header] + [",".join(map(_fmt, row)) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


def stage(task, plans, rbf_config):
    """The run table of the experiment stage (``protocol._run_tasks``) on
    the stacked index arrays of ``plans``, splits of ``task``."""
    return _run_tasks([task], [(np.stack([plan.train_indices for plan in plans]),
                                np.stack([plan.test_indices for plan in plans]),
                                np.array([plan.repeat_index for plan in plans]))], rbf_config)


def run_split(task, plan, rbf_config):
    """The run table of one split of ``task`` by the stage on that split
    alone: its cubic run, then its RBF run."""
    return stage(task, [plan], rbf_config)


def min_separated(rng, n, minsep, box=1.0, max_tries=4000):
    """Random points with a minimum pairwise separation (rejection sampling)."""
    pts = []
    tries = 0
    while len(pts) < n and tries < max_tries:
        p = rng.uniform(0.0, box, 2)
        tries += 1
        if all(np.hypot(*(p - q)) > minsep for q in pts):
            pts.append(p)
    return np.array(pts)


def near_collinear(rng, log10_offset):
    """3 to 11 nodes on a random line through the origin, each moved off it
    by a Gaussian offset of scale 10**log10_offset."""
    n = int(rng.integers(3, 12))
    offset = rng.normal(scale=10.0 ** log10_offset, size=(n, 2))
    return np.outer(np.sort(rng.random(n)), rng.normal(size=2)) + offset


def nearly_flat(rng):
    """A rotated unit square and its centre, with one to three nodes moved
    off its edges (inward or outward) by 1e-12.5 to 1e-5.5 of the edge
    length: across the collinear band (2e-12 relative to the squared side),
    so some make sliver triangles along the hull."""
    turn = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    extra = []
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(4))
        a, b = square[k], square[(k + 1) % 4]
        inward = np.array([a[1] - b[1], b[0] - a[0]])  # left of a -> b, the square's side
        offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.5, -5.5)
        extra.append(a + rng.uniform(0.1, 0.9) * (b - a) + offset * inward)
    return np.vstack([square, [[0.5, 0.5]], extra]) @ rot.T


@st.composite
def order_probe_sets(draw):
    """Subsets of slice lattices (levels such as 4/3 and 5/3 are not evenly
    spaced in floating point), near-collinear sets and random sets.

    Near-collinear offsets stay at least 1000 times above the predicates'
    1e-12 snap band; closer to it the snapped in-circle test is not
    transitive and a node can end up strictly inside a circumcircle.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["lattice", "near_collinear", "random"]))
    if kind == "lattice":
        levels = st.integers(2, 7)
        spec = DesignSpec(x1_levels=draw(levels), x2_levels=draw(levels), x3_levels=draw(levels))
        a, b = draw(st.sampled_from([("x1", "x2"), ("x1", "x3"), ("x2", "x3")]))
        lattice = np.array([[u, v] for u in spec.axis_levels(a) for v in spec.axis_levels(b)])
        return lattice[rng.random(len(lattice)) < draw(st.floats(0.3, 1.0))]
    if kind == "near_collinear":
        return near_collinear(rng, rng.uniform(-9, -3))
    return min_separated(rng, int(rng.integers(3, 20)), 0.05)


def hull_distance(nodes, queries):
    """The signed distance of each of the (k, 2) ``queries`` to the hull of
    ``nodes`` (``convex_hull_polygon``, at least three vertices): the
    largest over the hull's edge lines, positive outside."""
    poly = convex_hull_polygon(nodes)
    edge = np.roll(poly, -1, axis=0) - poly
    length = np.hypot(edge[:, 0], edge[:, 1])
    rel = np.asarray(queries, dtype=float)[:, None, :] - poly[None, :, :]
    return ((edge[:, 1] * rel[..., 0] - edge[:, 0] * rel[..., 1]) / length).max(axis=1)


def hull_probes(nodes):
    """Probes 0, +-0.5, +-2 and +-10 band widths (HULL_TOL times the extent)
    off every hull edge, at its midpoint and a third of the way along, and
    off every hull vertex along the bisector of its edge normals. Returns
    the probes, their ``hull_distance`` and the band width."""
    poly = convex_hull_polygon(nodes)
    band = HULL_TOL * max(np.ptp(nodes[:, 0]), np.ptp(nodes[:, 1]))
    edge = np.roll(poly, -1, axis=0) - poly
    length = np.hypot(edge[:, 0], edge[:, 1])[:, None]
    normal = np.column_stack([edge[:, 1], -edge[:, 0]]) / length
    bisector = normal + np.roll(normal, 1, axis=0)
    bisector /= np.hypot(bisector[:, 0], bisector[:, 1])[:, None]
    steps = np.array([0.0, 0.5, -0.5, 2.0, -2.0, 10.0, -10.0])[None, :, None] * band
    probes = np.concatenate([
        (base[:, None, :] + steps * direction[:, None, :]).reshape(-1, 2)
        for base, direction in ((poly + 0.5 * edge, normal), (poly + edge / 3.0, normal),
                                (poly, bisector))
    ])
    return probes, hull_distance(nodes, probes), band


class InvertedInCircle(_Predicates):
    """Signs whose in-circle answers are negated: a node outside a
    circumcircle reads as inside, which no convex quad allows."""

    def incircle(self, a, b, c, d):
        return -super().incircle(a, b, c, d)


def edges(tri):
    """Undirected edges of ``tri`` as sorted index pairs, in the order the
    triangles first reach them."""
    seen = set()
    for a, b, c in tri.triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                yield key


def hull(tri):
    """Hull vertex indices of ``tri`` in counterclockwise order, from the
    smallest index, including vertices that lie on a hull edge: the walk
    along the boundary edges, which wind counterclockwise."""
    directed = {(u, v) for a, b, c in tri.triangles.tolist() for u, v in ((a, b), (b, c), (c, a))}
    succ = {a: b for a, b in directed if (b, a) not in directed}
    start = min(succ)
    chain = [start]
    cur = succ[start]
    while cur != start:
        chain.append(cur)
        cur = succ[cur]
        if len(chain) > len(succ):
            raise RuntimeError("hull walk did not close; triangulation is malformed")
    return np.array(chain, dtype=np.intp)


def neighbors(tri):
    """(m, 3) int array: ``neighbors(tri)[t, k]`` is the triangle across the
    edge opposite ``tri.triangles[t, k]``, or -1 on the hull."""
    edge_owner = {}
    for t, (a, b, c) in enumerate(tri.triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            edge_owner[(u, v)] = t
    nbrs = np.full(tri.triangles.shape, -1, dtype=np.intp)
    for t, (a, b, c) in enumerate(tri.triangles):
        nbrs[t, 0] = edge_owner.get((c, b), -1)
        nbrs[t, 1] = edge_owner.get((a, c), -1)
        nbrs[t, 2] = edge_owner.get((b, a), -1)
    return nbrs


def triangle_areas(tri):
    """Signed area of every triangle, positive when counterclockwise."""
    p = tri.points[tri.triangles]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
    )


def hull_area(points):
    """Shoelace area of the convex hull of ``points``."""
    p = convex_hull_polygon(points)
    return 0.5 * float(np.dot(p[:, 0], np.roll(p[:, 1], -1)) - np.dot(p[:, 1], np.roll(p[:, 0], -1)))
