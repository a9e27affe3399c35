"""C1 piecewise-cubic interpolation on a Delaunay triangulation.

Each macro triangle is split at its centroid into three subtriangles, and a
cubic Bernstein-Bezier patch is built on each. Corner values and gradients
pin the boundary control points; the three mid-edge control points are fixed
by requiring the derivative normal to each outer edge to vary linearly along
it, and the interior points follow from C1 matching across the split edges.
Two neighboring macro triangles share their edge curve (same endpoint values
and gradients) and both impose the linear-normal-derivative rule, so the
composite surface is C1 across macro edges as well.

Vertex gradients are always estimated, by a weighted least-squares fit of
a quadratic over each vertex's edge-connected neighbors (inverse-distance
weights), dropping to an affine fit when fewer than 5 neighbors are
available or the quadratic design is rank-deficient. Affine data is
therefore reproduced exactly. The element itself is exact on quadratics:
its patches, built from a quadratic's values and exact gradients, equal
that quadratic everywhere in the hull.

Evaluation outside the convex hull is undefined and returns NaN; the
benchmark protocol treats such predictions as missing rather than errors.
A fitted surface holds its triangulation and its vertex values; the
gradients and the control nets are built when it is evaluated. Evaluation
locates all queries in one batched pass and sums the Bernstein form over
arrays.

Several surfaces are evaluated as one stage (``evaluate_stack``): each
surface's queries are located on its own triangulation (once for surfaces
that share a triangulation and their queries), then the
gradients of all their vertices come from one stacked solve on the joined
mesh (``_vertex_gradients``: vertices grouped by neighbour count, each
group solved by one batched SVD with ``lstsq``'s rank cutoff, taken once per
distinct design matrix when several surfaces are joined), their
control nets from one ``_control_nets`` call and their values from one
``_eval_located`` call. Every step works per vertex, triangle or query, so
each surface gets bit for bit its batch-of-one result;
``CubicSurface.evaluate`` is that batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput
from .geometry import Triangulation, _locate_stack, as_queries, triangulate
# Temporary shim: bench/run.py traces point location as cubic.locate, which
# evaluate_stack no longer calls (it calls _locate_stack), so that span reads
# 0 calls until the benchmark traces _locate_stack instead.
from .geometry import locate  # noqa: F401

__all__ = ["CubicSurface", "estimate_gradients", "evaluate_stack", "fit_cubic"]

# Vertex order of the three subtriangles, as (outer_start, outer_end) pairs of
# macro-vertex slots; the split point is vertex 0 of every subtriangle.
_SUBS = ((0, 1), (1, 2), (2, 0))


def _lstsq_head(a: np.ndarray, rhs: np.ndarray, repeats: bool) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.lstsq(a[i], rhs[i], rcond=None)`` for a (G, k, c) stack with
    k >= c, by one batched SVD: the first two solution coefficients (G, 2)
    and the rank (G,).

    With ``repeats``, the SVD is taken once per distinct matrix of the
    stack (equal bytes) and gathered back to each item: vertices with the
    same neighbourhood in the same node set's meshes share one. As in
    ``lstsq``, singular values at most ``eps * max(k, c) * s_max`` count as
    zero, which gives the minimum-norm solution. LAPACK factors each matrix
    of a batch on its own, and the products are elementwise and summed
    along a fixed axis, so item ``i`` does not depend on the other items (a
    matmul kernel may change with the batch shape), with or without the
    search.
    """
    if repeats:
        flat = a.reshape(len(a), -1)
        _, first, inverse = np.unique(flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize)))[:, 0],
                                      return_index=True, return_inverse=True)
        u, s, vt = (f[inverse] for f in np.linalg.svd(a[first], full_matrices=False))
    else:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > np.finfo(float).eps * max(a.shape[1:]) * s[:, :1]
    proj = np.divide((u * rhs[:, :, None]).sum(axis=1), s, out=np.zeros_like(s), where=keep)
    return (vt[:, :, :2] * proj[:, :, None]).sum(axis=1), keep.sum(axis=1)


def _vertex_gradients(points: np.ndarray, triangles: np.ndarray, z: np.ndarray,
                      joined: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of every vertex of a mesh, (n, 2), and whether its quadratic
    fit was kept, (n,). ``joined`` marks a mesh joined from several
    surfaces, whose meshes can repeat each other's neighbourhoods, so each
    stack looks for repeated designs (``_lstsq_head``); a lone mesh of the
    default slices has none.

    Each vertex fits z - z_v = g . u + 0.5 u^T H u over its edge-connected
    neighbours in ascending index order, with ``u = dx / mean dist`` and
    weights ``1 / dist``. Vertices are grouped by neighbour count ``k`` and
    each group is solved as one stack (``_lstsq_head``); the quadratic
    solution is kept where ``k >= 5`` and its rank is 5, else the affine
    2-column fit is used. Every operation is per vertex, so a vertex's
    gradient does not depend on the rest of the mesh beyond its neighbours:
    several meshes can be solved as one disjoint mesh.
    """
    n = points.shape[0]
    t = triangles
    # every directed edge (src, nbr), sorted: each vertex's neighbours in
    # ascending order, vertex after vertex
    src, nbr = np.divmod(np.unique(
        np.concatenate([t[:, 0], t[:, 1], t[:, 2], t[:, 1], t[:, 2], t[:, 0]]) * n
        + np.concatenate([t[:, 1], t[:, 2], t[:, 0], t[:, 0], t[:, 1], t[:, 2]])), n)
    dx = points[nbr] - points[src]
    dist = np.hypot(dx[:, 0], dx[:, 1])
    w = 1.0 / dist
    rhs = (z[nbr] - z[src]) * w
    counts = np.bincount(src, minlength=n)
    start = np.cumsum(counts) - counts
    grads = np.empty((n, 2))
    quadratic = np.zeros(n, dtype=bool)
    for k in np.unique(counts).tolist():
        verts = np.nonzero(counts == k)[0]
        rows = start[verts, None] + np.arange(k)
        scale = dist[rows].mean(axis=1)
        u = dx[rows] / scale[:, None, None]
        wk = w[rows, None]
        if k < 5:
            coef = _lstsq_head(u * wk, rhs[rows], joined)[0]
        else:
            u0, u1 = u[..., 0], u[..., 1]
            design = np.stack([u0, u1, 0.5 * u0 ** 2, u0 * u1, 0.5 * u1 ** 2], axis=-1)
            coef, rank = _lstsq_head(design * wk, rhs[rows], joined)
            kept = rank == 5
            quadratic[verts] = kept
            if not kept.all():
                affine = ~kept
                coef[affine] = _lstsq_head(u[affine] * wk[affine], rhs[rows[affine]], joined)[0]
        grads[verts] = coef / scale[:, None]
    return grads, quadratic


def estimate_gradients(tri: Triangulation, values) -> np.ndarray:
    """Per-vertex surface gradients estimated from triangulation neighbors.

    Fits z - z_v = g . dx + 0.5 dx^T H dx by weighted least squares over the
    vertex's neighbors (affine model when fewer than 5 neighbors, or when the
    quadratic design is rank-deficient). Exact for data from any affine
    function; exact for quadratics at vertices with a well-posed 5-neighbor
    fit. These are the gradients ``CubicSurface.evaluate`` estimates.
    """
    z = np.asarray(values, dtype=float)
    n = tri.n_vertices
    if z.shape != (n,):
        raise ValueError(f"expected {n} vertex values, got shape {z.shape}")
    return _vertex_gradients(tri.points, tri.triangles, z)[0]


def _control_nets(points: np.ndarray, triangles: np.ndarray, z: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Bezier ordinates of every macro triangle's three subpatches, (m, 3, 10).

    The last axis is ordered (b300, b210, b201, b120, b111, b102, b030, b021,
    b012, b003) w.r.t. subtriangle vertices (split point, Va, Vb). Each
    quantity below is an (m,) array over the triangles, computed elementwise,
    so a triangle's net does not depend on the other triangles passed.
    """
    corners = triangles.T
    verts = tuple(points[c].T for c in corners)  # (x, y) rows per corner
    f = tuple(z[c] for c in corners)
    g = tuple(grad[c].T for c in corners)
    p1, p2, p3 = verts
    p0 = ((p1[0] + p2[0] + p3[0]) / 3.0, (p1[1] + p2[1] + p3[1]) / 3.0)

    # Boundary control points from corner data.
    e = {}  # e[(a, b)]: outer-edge point adjacent to corner a toward corner b
    t = []  # t[a]: split-edge point adjacent to corner a toward the centroid
    for a in range(3):
        pa, ga = verts[a], g[a]
        for b in range(3):
            if b != a:
                pb = verts[b]
                e[(a, b)] = f[a] + (ga[0] * (pb[0] - pa[0]) + ga[1] * (pb[1] - pa[1])) / 3.0
        t.append(f[a] + (ga[0] * (p0[0] - pa[0]) + ga[1] * (p0[1] - pa[1])) / 3.0)

    # Mid control point of each subpatch from the linear-normal-derivative
    # rule on its outer edge.
    m = []
    for a, b in _SUBS:
        pa, pb = verts[a], verts[b]
        nx, ny = -(pb[1] - pa[1]), pb[0] - pa[0]  # edge normal (any scale)
        d = (pa[0] - p0[0]) * (pb[1] - p0[1]) - (pa[1] - p0[1]) * (pb[0] - p0[0])
        d0 = ((pb[0] - pa[0]) * ny - (pb[1] - pa[1]) * nx) / d
        d1 = ((p0[0] - pb[0]) * ny - (p0[1] - pb[1]) * nx) / d
        d2 = ((pa[0] - p0[0]) * ny - (pa[1] - p0[1]) * nx) / d
        q20 = d0 * t[a] + d1 * f[a] + d2 * e[(a, b)]
        q02 = d0 * t[b] + d1 * e[(b, a)] + d2 * f[b]
        m.append((0.5 * (q20 + q02) - d1 * e[(a, b)] - d2 * e[(b, a)]) / d0)

    # C1 across the three split edges fixes the points around the centroid.
    a_to = [0.0, 0.0, 0.0]  # a_to[k]: split-edge point adjacent to centroid toward corner k
    for k in range(3):
        a_to[k] = (m[(k + 2) % 3] + m[k] + t[k]) / 3.0
    c = (a_to[0] + a_to[1] + a_to[2]) / 3.0

    nets = []
    for s, (a, b) in enumerate(_SUBS):
        nets.append((
            c,            # b300 (centroid)
            a_to[a],      # b210
            a_to[b],      # b201
            t[a],         # b120
            m[s],         # b111
            t[b],         # b102
            f[a],         # b030 (corner Va)
            e[(a, b)],    # b021
            e[(b, a)],    # b012
            f[b],         # b003 (corner Vb)
        ))
    return np.stack([np.stack(net, axis=-1) for net in nets], axis=1)


def _eval_located(nets: np.ndarray, t: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """Values at macro barycentric coordinates ``bary`` (k, 3) inside macro
    triangles ``t`` (k,).

    The smallest coordinate ``s`` picks the subtriangle (the first on a
    tie): subtriangle ``(s + 1) % 3`` holds the outer edge opposite macro
    vertex ``s``, and ``u0, u1, u2`` are coordinates w.r.t. its vertices
    (split point, Va, Vb).
    """
    rows = np.arange(t.size)
    s = bary.argmin(axis=1)
    low = bary[rows, s]
    u0 = 3.0 * low
    u1 = bary[rows, (s + 1) % 3] - low
    u2 = bary[rows, (s + 2) % 3] - low
    # Clamp as max(u, 0.0) does: a -0.0 stays -0.0.
    u1 = np.where(0.0 > u1, 0.0, u1)
    u2 = np.where(0.0 > u2, 0.0, u2)
    b300, b210, b201, b120, b111, b102, b030, b021, b012, b003 = nets[t, (s + 1) % 3].T
    return (
        b300 * u0 * u0 * u0
        + 3.0 * b210 * u0 * u0 * u1
        + 3.0 * b201 * u0 * u0 * u2
        + 3.0 * b120 * u0 * u1 * u1
        + 6.0 * b111 * u0 * u1 * u2
        + 3.0 * b102 * u0 * u2 * u2
        + b030 * u1 * u1 * u1
        + 3.0 * b021 * u1 * u1 * u2
        + 3.0 * b012 * u1 * u2 * u2
        + b003 * u2 * u2 * u2
    )


@dataclass(frozen=True, eq=False)
class CubicSurface:
    """A fitted C1 cubic surface over the node set's convex hull: its
    triangulation and vertex values. Its vertex gradients are estimated
    from the values when it is evaluated, as ``estimate_gradients`` does."""

    tri: Triangulation
    values: np.ndarray

    def evaluate(self, queries) -> np.ndarray:
        """Values at (k, 2) queries; NaN for queries outside the hull. This
        is ``evaluate_stack`` on a batch of one."""
        return evaluate_stack([self], [queries])[0]


def evaluate_stack(surfaces, queries) -> list[np.ndarray]:
    """Values of several surfaces, each at its own (k_i, 2) ``queries[i]``;
    NaN outside the hull.

    Each surface's queries are located on its triangulation, once per
    distinct (triangulation object, query bytes) pair, and all the pairs in
    one ``geometry._locate_stack`` call: surfaces sharing a triangulation
    and their queries share one result. On the joined
    mesh of all surfaces (each piece's vertex indices offset past the
    previous pieces' vertices), one ``_vertex_gradients`` call estimates
    every gradient, one ``_control_nets`` call builds every net and one
    ``_eval_located`` call evaluates every located query. Item ``i`` equals
    ``surfaces[i].evaluate(queries[i])`` bit for bit.
    """
    if not surfaces:
        return []
    pairs: dict = {}  # (triangulation, query bytes) -> (position, triangulation, queries)
    which = []
    for s, q in zip(surfaces, queries):
        q = as_queries(q)
        which.append(pairs.setdefault((id(s.tri), q.shape, q.tobytes()), (len(pairs), s.tri, q))[0])
    found = _locate_stack(*zip(*((tri, q) for _, tri, q in pairs.values())))
    located = [found[j] for j in which]
    vert_off = np.cumsum([0] + [s.tri.n_vertices for s in surfaces])
    tri_off = np.cumsum([0] + [s.tri.n_triangles for s in surfaces])
    points = np.concatenate([s.tri.points for s in surfaces])
    triangles = np.concatenate([s.tri.triangles + off for s, off in zip(surfaces, vert_off)])
    z = np.concatenate([s.values for s in surfaces])
    grads = _vertex_gradients(points, triangles, z, len(surfaces) > 1)[0]
    hits = [t >= 0 for t, _ in located]
    values = _eval_located(
        _control_nets(points, triangles, z, grads),
        np.concatenate([t[hit] + off for (t, _), hit, off in zip(located, hits, tri_off)]),
        np.concatenate([bary[hit] for (_, bary), hit in zip(located, hits)]),
    )
    out = []
    for hit, part in zip(hits, np.split(values, np.cumsum([h.sum() for h in hits])[:-1])):
        pred = np.full(hit.size, np.nan)
        pred[hit] = part
        out.append(pred)
    return out


def fit_cubic(points, values) -> CubicSurface:
    """Fit the C1 cubic interpolant through (points, values).

    The vertex gradients are always estimated from the values, when the
    surface is evaluated. Raises NonFiniteInput for a NaN or infinite
    coordinate or value, and propagates triangulation failures
    (InsufficientNodes, DegenerateGeometry, DuplicateNodes).
    """
    tri = triangulate(points)  # validates the nodes once, via as_points
    pts = tri.points
    z = np.asarray(values, dtype=float)
    if z.shape != (pts.shape[0],):
        raise ValueError(f"expected {pts.shape[0]} values, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise NonFiniteInput("cubic fit values must be finite")
    return CubicSurface(tri, z)
