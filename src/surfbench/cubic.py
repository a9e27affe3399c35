"""C1 piecewise-cubic interpolation on a Delaunay triangulation.

Each macro triangle is split at its centroid into three subtriangles, and a
cubic Bernstein-Bezier patch is built on each. Corner values and gradients
pin the boundary control points; the three mid-edge control points are fixed
by requiring the derivative normal to each outer edge to vary linearly along
it, and the interior points follow from C1 matching across the split edges.
Two neighboring macro triangles share their edge curve (same endpoint values
and gradients) and both impose the linear-normal-derivative rule, so the
composite surface is C1 across macro edges as well.

Vertex gradients default to a weighted least-squares fit of a quadratic over
each vertex's edge-connected neighbors (inverse-distance weights), dropping
to an affine fit when fewer than 5 neighbors are available. Affine data is
therefore reproduced exactly, and so is any quadratic when exact gradients
are supplied.

Evaluation outside the convex hull is undefined and returns NaN; the
benchmark protocol treats such predictions as missing rather than errors.
A surface is triangulated when fitted, but its gradients and control nets
are built on the first evaluation, so a fit whose queries leave the hull
(``CubicSurface.locate``) never pays for them. Evaluation locates all
queries in one batched pass and sums the Bernstein form over arrays.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import NonFiniteInput
from .geometry import Triangulation, locate, triangulate

__all__ = ["CubicSurface", "estimate_gradients", "fit_cubic"]

# Vertex order of the three subtriangles, as (outer_start, outer_end) pairs of
# macro-vertex slots; the split point is vertex 0 of every subtriangle.
_SUBS = ((0, 1), (1, 2), (2, 0))


def estimate_gradients(tri: Triangulation, values) -> np.ndarray:
    """Per-vertex surface gradients estimated from triangulation neighbors.

    Fits z - z_v = g . dx + 0.5 dx^T H dx by weighted least squares over the
    vertex's neighbors (affine model when fewer than 5 neighbors, or when the
    quadratic design is rank-deficient). Exact for data from any affine
    function; exact for quadratics at vertices with a well-posed 5-neighbor
    fit.
    """
    z = np.asarray(values, dtype=float)
    n = tri.n_vertices
    if z.shape != (n,):
        raise ValueError(f"expected {n} vertex values, got shape {z.shape}")
    neighbor_sets: list[set] = [set() for _ in range(n)]
    for a, b in tri.edges():
        neighbor_sets[a].add(b)
        neighbor_sets[b].add(a)
    grads = np.empty((n, 2))
    for v in range(n):
        nb = sorted(neighbor_sets[v])
        dx = tri.points[nb] - tri.points[v]
        dz = z[nb] - z[v]
        dist = np.hypot(dx[:, 0], dx[:, 1])
        scale = dist.mean()
        u = dx / scale
        w = 1.0 / dist
        coef = None
        if len(nb) >= 5:
            design = np.column_stack(
                [u[:, 0], u[:, 1], 0.5 * u[:, 0] ** 2, u[:, 0] * u[:, 1], 0.5 * u[:, 1] ** 2]
            )
            sol, _, rank, _ = np.linalg.lstsq(design * w[:, None], dz * w, rcond=None)
            if rank == 5:
                coef = sol[:2]
        if coef is None:
            design = np.column_stack([u[:, 0], u[:, 1]])
            coef = np.linalg.lstsq(design * w[:, None], dz * w, rcond=None)[0]
        grads[v] = coef / scale
    return grads


def _control_nets(tri: Triangulation, z: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Bezier ordinates of every macro triangle's three subpatches, (m, 3, 10).

    The last axis is ordered (b300, b210, b201, b120, b111, b102, b030, b021,
    b012, b003) w.r.t. subtriangle vertices (split point, Va, Vb). Each
    quantity below is an (m,) array over the triangles.
    """
    corners = tri.triangles.T
    verts = tuple(tri.points[c].T for c in corners)  # (x, y) rows per corner
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


class CubicSurface:
    """A fitted C1 cubic surface over the node set's convex hull.

    ``gradients`` are the supplied vertex gradients, or estimated from the
    data on first use; ``nets`` are the (m, 3, 10) control nets, built on
    first use.
    """

    def __init__(self, tri: Triangulation, values: np.ndarray, gradients: np.ndarray | None = None):
        self.tri = tri
        self.values = values
        if gradients is not None:
            self.gradients = gradients  # takes the place of the lazy estimate

    @cached_property
    def gradients(self) -> np.ndarray:
        return estimate_gradients(self.tri, self.values)

    @cached_property
    def nets(self) -> np.ndarray:
        return _control_nets(self.tri, self.values, self.gradients)

    def locate(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """``geometry.locate`` on the surface's triangulation: ``t >= 0``
        marks the queries inside the hull, where the surface is defined."""
        return locate(self.tri, queries)

    def evaluate(self, queries, located=None) -> np.ndarray:
        """Values at (k, 2) queries; NaN for queries outside the hull.

        ``located`` is ``self.locate(queries)`` when the caller already has
        it, so the queries are not located twice.
        """
        t, bary = self.locate(queries) if located is None else located
        out = np.full(t.size, np.nan)
        hit = t >= 0
        out[hit] = _eval_located(self.nets, t[hit], bary[hit])
        return out


def fit_cubic(points, values, gradients=None) -> CubicSurface:
    """Fit the C1 cubic interpolant through (points, values).

    ``gradients`` overrides the per-vertex gradient estimate (one (du, dv)
    row per node); by default gradients are estimated from the data when the
    surface is first evaluated. Raises NonFiniteInput for a NaN or infinite
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
    if gradients is not None:
        gradients = np.asarray(gradients, dtype=float)
        if gradients.shape != (pts.shape[0], 2):
            raise ValueError(f"expected gradient shape ({pts.shape[0]}, 2), got {gradients.shape}")
    return CubicSurface(tri, z, gradients)
