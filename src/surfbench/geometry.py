"""Planar geometry substrate: Delaunay triangulation, point location, and
node-distribution descriptors (``geometry_report``: fill distance,
separation distance, mesh ratio).

The triangulation is built by incremental insertion in lexicographic (x, y)
order with Lawson edge flips; each new node lies outside the hull of the
nodes before it, so no node is ever located inside the mesh. The mesh is
one map from each directed edge to the apex of its triangle, and the hull
a chain of successors (as in S-hull, Sinclair 2010). Orientation
and in-circle predicates snap to zero when the determinant is below 1e-12
relative to its operand magnitude; above that band the floating point sign
is provably exact (the band sits far above the roundoff bound), so no
configuration is ever mis-signed. The snap treats nearly collinear
triples as collinear and nearly cocircular quadruples as cocircular, which
keeps sliver triangles out of grid-structured inputs whose levels do not
round to exactly even spacing. Flipping settles a cocircular quadrilateral
on the diagonal at its lexicographically smallest node, and the triangles
come in canonical order, so the triangle array does not depend on the
input order.

Every triangulation takes its signs from a ``_Predicates`` object, which
evaluates each orientation or in-circle test of its node set once, by its
exact argument tuple of node indices. Many triangulations of subsets of one
node set can share one: the 249 builds of the default experiment (seed 42)
evaluate 1,934 predicates instead of 15,523.
Point location of many (triangulation, queries) pairs
runs as a few padded kernel passes of at most LOCATE_BLOCK query rows
(``_locate_stack``), a large query set cut into blocks, each bit for bit
``locate`` of its pair alone.
``hull_cover`` tests many training sets of one node set in one call, from
line tables of the nodes built once for the call.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGeometry, DuplicateNodes, InsufficientNodes, NonFiniteInput

__all__ = [
    "as_points",
    "as_queries",
    "Triangulation",
    "triangulate",
    "locate",
    "hull_cover",
    "convex_hull_polygon",
    "geometry_report",
    "orient_sign",
    "incircle_sign",
]

DUPLICATE_TOL = 1e-12
LOCATE_TOL = 1e-9
LOCATE_BLOCK = 512  # query rows per locate kernel pass; larger sets are cut into blocks of it
FILL_GRID_RESOLUTION = 200
FILL_MARGIN = 1e-12  # relative band of squared distance kept for the exact fill scan

# Degeneracy band of the predicates, relative to operand magnitude. Well
# above the float roundoff bound for these determinants (~3.3e-16 relative),
# so any value outside the band carries a provably correct sign.
PREDICATE_EPS_REL = 1e-12

# hull_cover: the coverage band and the slack of a supporting line, both
# distances relative to the extent of the points.
HULL_TOL = 1e-8
SUPPORT_TOL = 1e-10
HULL_CHUNK = 1 << 20  # elements in the large temporaries of a hull_cover chunk, together


def orient_sign(pa, pb, pc) -> int:
    """Sign of the signed area of (pa, pb, pc): +1 for counterclockwise,
    0 when collinear within the relative degeneracy band.

    The band compares the determinant against the squared configuration
    size, so it is invariant under translation and scaling of the triple.
    """
    abx, aby = pb[0] - pa[0], pb[1] - pa[1]
    acx, acy = pc[0] - pa[0], pc[1] - pa[1]
    det = abx * acy - aby * acx
    scale = max(abx * abx + aby * aby, acx * acx + acy * acy,
                (acx - abx) ** 2 + (acy - aby) ** 2)
    if abs(det) <= PREDICATE_EPS_REL * scale:
        return 0
    return int(det > 0) - int(det < 0)


def incircle_sign(pa, pb, pc, pd) -> int:
    """+1 if pd lies strictly inside the circumcircle of CCW (pa, pb, pc),
    0 if the four points are cocircular (within the relative degeneracy
    band), -1 if strictly outside."""
    adx, ady = pa[0] - pd[0], pa[1] - pd[1]
    bdx, bdy = pb[0] - pd[0], pb[1] - pd[1]
    cdx, cdy = pc[0] - pd[0], pc[1] - pd[1]
    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady
    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy
    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy
    det = (
        alift * (bdxcdy - cdxbdy)
        + blift * (cdxady - adxcdy)
        + clift * (adxbdy - bdxady)
    )
    # Largest squared pairwise distance: the band is then the same whichever
    # of the four points is passed as pd, so every argument order of one
    # quadruple gets the same answer up to roundoff.
    scale = max(alift, blift, clift, (adx - bdx) ** 2 + (ady - bdy) ** 2,
                (bdx - cdx) ** 2 + (bdy - cdy) ** 2, (cdx - adx) ** 2 + (cdy - ady) ** 2) ** 2
    if abs(det) <= PREDICATE_EPS_REL * scale:
        return 0
    return int(det > 0) - int(det < 0)


def as_points(points) -> np.ndarray:
    """Validate node coordinates as a read-only (n, 2) float copy; the
    caller's array is left as it was.

    Raises NonFiniteInput for a NaN or infinite coordinate and
    DuplicateNodes when two nodes lie within DUPLICATE_TOL of each other.
    """
    pts = np.array(points, dtype=float, ndmin=2)
    if not pts.size:
        pts = pts.reshape(0, 2)  # an empty list arrives as shape (1, 0)
    elif pts.shape[1] != 2:
        raise ValueError(f"expected (n, 2) coordinates, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise NonFiniteInput("node coordinates must be finite")
    pts.setflags(write=False)
    if pts.shape[0] > 1:
        dist = _pair_distances(pts)
        if dist.min() < DUPLICATE_TOL:
            i, j = np.unravel_index(np.argmin(dist), dist.shape)
            raise DuplicateNodes(f"nodes {i} and {j} coincide within tolerance {DUPLICATE_TOL:g}")
    return pts


def _pair_distances(pts: np.ndarray) -> np.ndarray:
    """Distance between every two of the (n, 2) nodes, (n, n), with inf on
    the diagonal. The x and y differences are two (n, n) arrays."""
    x, y = pts[:, 0], pts[:, 1]
    dist = np.hypot(x[:, None] - x, y[:, None] - y)
    dist[np.diag_indices(pts.shape[0])] = np.inf
    return dist


def as_queries(queries) -> np.ndarray:
    """Query coordinates as a (k, 2) float array; an empty list is an empty
    (0, 2) set. Any other shape raises ValueError. Non-finite coordinates
    are kept: they evaluate to NaN."""
    q = np.asarray(queries, dtype=float)
    if q.shape == (0,):
        q = q.reshape(0, 2)
    if q.ndim != 2 or q.shape[1] != 2:
        raise ValueError(f"expected (k, 2) query coordinates, got shape {q.shape}")
    return q


class Triangulation:
    """An immutable Delaunay triangulation of a planar node set.

    Attributes
    ----------
    points : (n, 2) array of node coordinates.
    triangles : (m, 3) int array, counterclockwise vertex indices; from
        ``triangulate``, each row starts at its (x, y)-smallest vertex and
        the rows are sorted by the (x, y)-ranks of their vertices.
    """

    def __init__(self, points: np.ndarray, triangles: np.ndarray):
        self.points = np.asarray(points, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.intp)
        self.points.setflags(write=False)
        self.triangles.setflags(write=False)
        # Per-triangle affine maps for barycentric point location, (6, m):
        # the first vertex (x, y), then the inverse edge matrix row by row.
        p0 = self.points[self.triangles[:, 0]]
        e1 = self.points[self.triangles[:, 1]] - p0
        e2 = self.points[self.triangles[:, 2]] - p0
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        self._maps = np.stack([p0[:, 0], p0[:, 1], e2[:, 1] / det, -e2[:, 0] / det,
                               -e1[:, 1] / det, e1[:, 0] / det])
        self._maps.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.points.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def barycentric(self, queries) -> np.ndarray:
        """Barycentric coordinates of each of ``k`` queries w.r.t. every
        triangle, (k, m, 3)."""
        q = np.asarray(queries, dtype=float)
        x0, y0, i00, i01, i10, i11 = self._maps
        d0, d1 = q[:, 0:1] - x0, q[:, 1:2] - y0
        u = i00 * d0 + i01 * d1
        v = i10 * d0 + i11 * d1
        return np.stack([1.0 - u - v, u, v], axis=-1)


class _Predicates:
    """The orientation and in-circle signs of the (n, 2) nodes ``points``
    (validated by ``as_points``), by node index, each evaluated once.

    A sign is kept under its exact argument tuple: the snapped predicates
    are symmetric only up to roundoff, so a permuted tuple is another key.
    Builders that share one object evaluate each predicate of the node set
    once; the signs go with the object.
    """

    def __init__(self, points: np.ndarray):
        self.points = points
        self.pts = list(map(tuple, points.tolist()))  # (x, y) tuples
        self.memo: dict = {}

    def orient(self, a: int, b: int, c: int) -> int:
        key = (a, b, c)
        sign = self.memo.get(key)
        if sign is None:
            pts = self.pts
            sign = self.memo[key] = orient_sign(pts[a], pts[b], pts[c])
        return sign

    def incircle(self, a: int, b: int, c: int, d: int) -> int:
        key = (a, b, c, d)
        sign = self.memo.get(key)
        if sign is None:
            pts = self.pts
            sign = self.memo[key] = incircle_sign(pts[a], pts[b], pts[c], pts[d])
        return sign


class _Builder:
    """Mutable state for incremental Delaunay construction on the nodes
    ``nodes`` of a node set, whose indices are its vertices, from the
    counterclockwise seed triangle ``seed``.

    The mesh is one map, ``apex[(a, b)] = c`` under each of the three
    directed edges of every counterclockwise triangle (a, b, c); an edge
    without a reverse entry is on the hull. The hull is kept as a chain,
    ``nxt[a]`` the hull vertex after ``a`` counterclockwise.
    """

    def __init__(self, signs: _Predicates, nodes, seed):
        self.pts = signs.pts
        self.orient, self.incircle = signs.orient, signs.incircle
        self.nodes = nodes  # in the caller's order, for error messages
        a, b, c = seed
        self.apex = {(a, b): c, (b, c): a, (c, a): b}
        self.nxt = {a: b, b: c, c: a}

    def legalize(self, u: int, v: int, p: int) -> None:
        """Lawson flip propagation from edge u-v of triangle (u, v, p).

        Edge u-v becomes p-q when q lies inside the circumcircle of (p, u,
        v), or on it and p-q holds the lexicographically smallest of the
        four nodes (a symbolic perturbation lowering the lifted height of
        smaller nodes; Edelsbrunner & Mücke 1990), and only when both new
        triangles are counterclockwise. q strictly inside makes the quad
        convex, so a nonconvex one then raises DegenerateGeometry. The mesh
        stays planar and each flip adds an edge at p, so flipping ends.

        The edges to test are popped from a stack; one whose triangle at p
        is gone, or that is on the hull, is skipped. A flip rewrites the
        six apex entries of (p, u, q) and (p, q, v), drops u-v and pushes
        u-q, then q-v."""
        pts, apex = self.pts, self.apex
        stack = [(u, v)]
        while stack:
            u, v = stack.pop()
            if apex.get((u, v)) != p:
                continue
            q = apex.get((v, u))
            if q is None:
                continue
            sign = self.incircle(p, u, v, q)
            if sign < 0 or (sign == 0 and min(pts[p], pts[q]) > min(pts[u], pts[v])):
                continue
            if self.orient(p, u, q) <= 0 or self.orient(p, q, v) <= 0:
                if sign > 0:
                    raise DegenerateGeometry(
                        f"in-circle and orientation tests contradict each other at point "
                        f"{self.nodes.index(p)}")
                continue
            del apex[(u, v)], apex[(v, u)]
            apex[(p, u)] = apex[(v, p)] = q
            apex[(u, q)] = apex[(q, v)] = p
            apex[(q, p)] = u
            apex[(p, q)] = v
            stack.append((u, q))
            stack.append((q, v))

    def insert(self, p: int) -> None:
        """Insert node ``p``, which lies outside the current hull: join it to
        every hull edge it sees, then legalize the new triangles.

        Seen from outside the hull, the visible edges form one chain, unless
        p is collinear with a hull edge within the predicate band. The chain
        runs from the one vertex that starts a visible edge and ends none to
        the one that ends a visible edge and starts none; p replaces the
        vertices between them on the hull."""
        nxt = self.nxt
        visible = [(a, b) for a, b in nxt.items() if self.orient(a, b, p) < 0]
        if not visible:
            raise DegenerateGeometry(f"point {self.nodes.index(p)} could not be located")
        starts = {a for a, _ in visible}
        ends = {b for _, b in visible}
        first = starts - ends
        if len(first) != 1:
            raise DegenerateGeometry(
                f"point {self.nodes.index(p)} is collinear with the hull within tolerance")
        (first,) = first
        (last,) = ends - starts
        apex = self.apex
        for a, b in visible:  # the triangle (b, a, p)
            apex[(b, a)] = p
            apex[(a, p)] = b
            apex[(p, b)] = a
        for a in starts - {first}:
            del nxt[a]
        nxt[first] = p
        nxt[p] = last
        for a, b in visible:
            self.legalize(b, a, p)


def triangulate(points) -> Triangulation:
    """Delaunay triangulation by incremental insertion in lexicographic
    (x, y) order, so the triangle set does not depend on the input order.

    Each node is lexicographically larger than every node before it, so it
    lies outside their hull and is joined to the hull edges it sees. A
    cocircular polygon is the fan from its smallest node (see
    ``_Builder.legalize``), and the rows are in canonical order (see
    ``Triangulation``), so permuting the input only permutes the indices.
    The signs come from a ``_Predicates`` of the nodes.

    Raises InsufficientNodes for fewer than 3 nodes, DegenerateGeometry when
    all nodes are collinear or a node is collinear with a hull edge within
    the predicate band, DuplicateNodes for coincident nodes.

    Known limit: within about 100 times the 1e-12 snap band, the snapped
    in-circle test is not transitive, so Lawson flipping can stop with a
    node strictly inside a circumcircle by the module's own predicate: 173,
    57, 5 and 0 of 4000 near-collinear sets each with offsets from 1e-12,
    1e-11, 1e-10 and 1e-9 to ten times that of the extent (none on
    lattices, rings or random sets). By exact arithmetic on the float
    coordinates, 1560, 666, 102 and 15 of those sets have such a node;
    where the module's predicate does not see it, it lies within the snap
    band, as on many lattice subsets and rings, whose ties the canonical
    rule settles.
    """
    arr = as_points(points)
    return _triangulate(_Predicates(arr), range(arr.shape[0]))


def _triangulate(signs: _Predicates, nodes) -> Triangulation:
    """``triangulate`` of the nodes ``signs.points[nodes]``, with the signs
    of ``signs`` (which may be shared with other builds); an error
    names a node by its position in ``nodes``, as ``triangulate`` of those
    nodes alone does.

    The builder works in node indices of ``signs``. Its choices depend on
    the coordinates and on the insertion order (lexicographic), never on
    index values, so its triangles, mapped to positions in ``nodes``, are
    those of ``triangulate(signs.points[nodes])``.
    """
    nodes = list(nodes)
    n = len(nodes)
    if n < 3:
        raise InsufficientNodes(f"triangulation needs >= 3 nodes, got {n}")
    pts = signs.pts
    order = sorted(nodes, key=pts.__getitem__)
    s0, s1 = order[0], order[1]
    k = next((j for j in range(2, n) if signs.orient(s0, s1, order[j]) != 0), None)
    if k is None:
        raise DegenerateGeometry("all nodes are collinear")
    sk = order[k]
    builder = _Builder(signs, nodes, (s0, s1, sk) if signs.orient(s0, s1, sk) > 0 else (s0, sk, s1))
    # The collinear run s2..s(k-1) extends the edge s0-s1 beyond s1.
    for p in order[2:k] + order[k + 1:]:
        builder.insert(p)
    # Each triangle once, from its smallest vertex, rows sorted by vertex
    # rank: the array then depends only on the triangle set.
    rank = dict(zip(order, range(n)))
    rows = []
    for (a, b), c in builder.apex.items():
        ra, rb, rc = rank[a], rank[b], rank[c]
        if ra < rb and ra < rc:
            rows.append([ra, rb, rc])
    rows.sort()
    position = np.empty(len(pts), dtype=np.intp)
    position[nodes] = np.arange(n)
    return Triangulation(signs.points[nodes], position[order][rows])


def locate(tri: Triangulation, queries) -> tuple[np.ndarray, np.ndarray]:
    """Containing triangle and barycentric coordinates of each query point.

    Returns ``(t, bary)`` for ``k`` queries: ``t`` (k,) holds the triangle
    index of each query, or -1 when it lies outside the hull, and ``bary``
    (k, 3) its barycentric coordinates in that triangle, each in
    [-LOCATE_TOL, 1 + LOCATE_TOL] (NaN rows outside the hull). Queries on
    shared edges resolve to the lowest-index triangle. This is
    ``_locate_stack`` on a batch of one: blocks of up to LOCATE_BLOCK
    queries are tested against every triangle at once, as
    ``Triangulation.barycentric`` computes them (memory O(LOCATE_BLOCK x m)).
    """
    return _locate_stack([tri], [queries])[0]


def _locate_stack(tris, queries) -> list[tuple[np.ndarray, np.ndarray]]:
    """``locate(tris[i], queries[i])`` for every i.

    Each query set is cut into pieces of at most LOCATE_BLOCK rows. The
    pieces are taken longest first, and a kernel pass takes ``LOCATE_BLOCK
    // k`` of them, k the rows of its longest, pads them to k rows and
    their triangulations' maps with NaN to the most triangles T among them,
    and runs ``_locate_pass``: at most LOCATE_BLOCK x T elements per
    temporary. A NaN map or query contains nothing, and each row's
    coordinates are the same expression of the same operands whatever
    shares its pass, so every item is that of ``locate`` alone bit for bit.
    """
    qs = [as_queries(q) for q in queries]
    out = [(np.full(q.shape[0], -1, dtype=np.intp), np.full((q.shape[0], 3), np.nan)) for q in qs]
    pieces = sorted(((i, lo, min(lo + LOCATE_BLOCK, q.shape[0]))
                     for i, q in enumerate(qs) for lo in range(0, q.shape[0], LOCATE_BLOCK)),
                    key=lambda piece: piece[1] - piece[2])
    start = 0
    while start < len(pieces):
        _, lo, hi = pieces[start]
        chunk = pieces[start:start + LOCATE_BLOCK // (hi - lo)]
        start += len(chunk)
        maps = np.full((len(chunk), 6, max(tris[i].n_triangles for i, _, _ in chunk)), np.nan)
        q = np.full((len(chunk), hi - lo, 2), np.nan)
        for s, (i, lo, hi) in enumerate(chunk):
            maps[s, :, :tris[i].n_triangles] = tris[i]._maps
            q[s, :hi - lo] = qs[i][lo:hi]
        t, bary = _locate_pass(maps, q)
        for s, (i, lo, hi) in enumerate(chunk):
            out[i][0][lo:hi] = t[s, :hi - lo]
            out[i][1][lo:hi] = bary[s, :hi - lo]
    return out


def _locate_pass(maps: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first triangle containing each of (S, k, 2) queries ``q`` (-1 for
    none) and its barycentric coordinates (NaN for none), (S, k) and
    (S, k, 3), against the (S, 6, T) triangle maps of ``Triangulation``:
    three (S, k, T) coordinate arrays and the first hit by ``argmax``."""
    x0, y0, i00, i01, i10, i11 = (maps[:, None, j] for j in range(6))
    d0 = q[:, :, 0:1] - x0
    d1 = q[:, :, 1:2] - y0
    u = i00 * d0 + i01 * d1
    v = i10 * d0 + i11 * d1
    w = 1.0 - u - v
    inside = (w >= -LOCATE_TOL) & (u >= -LOCATE_TOL) & (v >= -LOCATE_TOL)
    first = inside.argmax(axis=2)
    at = first.ravel() + inside.shape[2] * np.arange(first.size)  # flat index of each row's pick
    hit = inside.ravel()[at].reshape(first.shape)
    bary = np.stack([c.ravel()[at] for c in (w, u, v)], axis=1).reshape(*first.shape, 3)
    return np.where(hit, first, -1), np.where(hit[..., None], bary, np.nan)


def hull_cover(points: np.ndarray, train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether test nodes lie in the convex hull of training nodes, for B
    splits of one node set at once.

    ``points`` (n, 2) are validated nodes (see ``as_points``); ``train``
    (B, m) and ``test`` (B, k) hold node indices of each split. Returns
    ``(covered, trusted)``.

    A supporting line runs through two training nodes, and no training node
    lies right of it by more than SUPPORT_TOL * extent, where extent is the
    larger coordinate range of ``points``. ``covered`` (B, k) marks the test
    nodes that lie right of no supporting line by more than HULL_TOL *
    extent: every node within (HULL_TOL - SUPPORT_TOL) * extent of the
    training hull is covered, and no node farther than HULL_TOL * extent
    outside a supporting line is.

    ``trusted`` (B,) marks the training sets of at least three nodes (fewer
    cover nothing) that are not collinear as ``triangulate`` tests it, within
    twice its band of the line through the first two nodes in (x, y) order.
    On a trusted split ``covered`` alone rules a test node out of the
    support, however far ``locate`` reaches past the hull on a sliver
    triangle. An untrusted set is left to ``triangulate``, which gives its
    failure, or, when it builds, to ``locate``.

    The lines depend only on the nodes, so they are computed once per call:
    for each ordered pair of the training nodes of the call, two bit masks
    over all n nodes (``_line_tables``). A split tests support and cover by
    AND and OR of the mask words at every ordered pair of its training
    nodes. Each comparison is the same float expression of the same
    coordinates whichever split makes it, so a split's answer does not
    depend on the other splits of the call. Besides (B, m) and (B, n)
    arrays and the tables, the large temporaries of a chunk hold at most
    HULL_CHUNK elements together, or one split's or one table row's when
    that is more: two (b, m, m, n / 64) word arrays for b splits, and two
    (s, r, n) float slabs for s of the r table rows.
    """
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

    rows, node = np.unique(train, return_inverse=True)
    node = node.reshape(train.shape)  # table rows
    breaks, beyond = _line_tables(p, rows, extent)
    member = np.zeros((n_sets, len(p)), dtype=bool)
    member[np.arange(n_sets)[:, None], train] = True
    member = _pack_bits(member)  # (B, words)
    covered = np.empty(test.shape, dtype=bool)
    step = max(1, HULL_CHUNK // (2 * m * m * member.shape[1]))
    for lo in range(0, n_sets, step):
        s = slice(lo, lo + step)
        pair = (node[s, :, None], node[s, None, :])
        support = ~(breaks[pair] & member[s, None, None, :]).any(axis=3)
        cut = np.bitwise_or.reduce(np.where(support[..., None], beyond[pair], 0), axis=(1, 2))
        cut = np.unpackbits(cut.view(np.uint8), axis=1, count=len(p), bitorder="little")
        covered[s] = ~np.take_along_axis(cut, test[s], axis=1).astype(bool)
    return covered, ~collinear


def _pack_bits(mask: np.ndarray) -> np.ndarray:
    """A boolean array's last axis as bits of uint64 words: element c is bit
    c % 8 of byte c // 8 of the words' bytes, whatever the byte order."""
    n = mask.shape[-1]
    packed = np.zeros((*mask.shape[:-1], -(-n // 64) * 8), dtype=np.uint8)
    packed[..., : -(-n // 8)] = np.packbits(mask, axis=-1, bitorder="little")
    return packed.view(np.uint64)


def _line_tables(p: np.ndarray, rows: np.ndarray, extent: float) -> np.ndarray:
    """Two (r, r, words) bit tables, stacked, over the n nodes ``p`` (see
    ``_pack_bits``) for the line from a_i to a_j through each ordered pair
    of the r nodes ``rows``. With o twice the signed area of (a_i, a_j,
    p_c), node c is marked in

    - the first when it lies right of the line by more than SUPPORT_TOL *
      |a_j - a_i| * extent (a training node there breaks the support);
    - the second when it lies right of the line by more than HULL_TOL *
      |a_j - a_i| * extent (a test node there is not covered).

    A pair (i, i) marks no node. The rows are built a slab at a time, its
    two (s, r, n) float temporaries within HULL_CHUNK elements together, or
    one row's when that is more."""
    r, n = len(rows), len(p)
    a = p[rows]
    tables = np.zeros((2, r, r, -(-n // 64)), dtype=np.uint64)
    step = max(1, HULL_CHUNK // (2 * r * n))
    for lo in range(0, r, step):
        s = slice(lo, lo + step)
        e = a[None, :, :] - a[s, None, :]  # e[i, j] = a_j - a_i
        tol = np.sqrt((e * e).sum(axis=2))[..., None] * extent
        q = (p[None, :, :] - a[s, None, :])[:, None, :, :]  # q[i, 0, c] = p_c - a_i
        o = e[..., 0, None] * q[..., 1]
        o -= e[..., 1, None] * q[..., 0]
        tables[0, s] = _pack_bits(~(o >= -SUPPORT_TOL * tol))
        tables[1, s] = _pack_bits(o < -HULL_TOL * tol)
    return tables


def convex_hull_polygon(points) -> np.ndarray:
    """Extreme points of the convex hull, counterclockwise (monotone chain).

    Collinear boundary points are dropped; degenerate inputs yield fewer than
    3 vertices (a segment's endpoints, or a single point).
    """
    arr = as_points(points)
    if arr.shape[0] == 0:
        raise InsufficientNodes("hull of an empty point set")
    return _hull(arr)


def _hull(arr: np.ndarray) -> np.ndarray:
    """``convex_hull_polygon`` of validated, non-empty nodes."""
    pts = sorted({(x, y) for x, y in arr})
    if len(pts) == 1:
        return np.array(pts)
    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and orient_sign(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain
    lower = half(pts)
    upper = half(reversed(pts))
    poly = lower[:-1] + upper[:-1]
    if len(poly) < 3:  # all collinear: keep the two extreme endpoints
        return np.array([pts[0], pts[-1]])
    return np.array(poly)


def _fill_distance(arr: np.ndarray, poly: np.ndarray, grid_resolution: int) -> float:
    """Largest distance from a point of the convex polygon ``poly`` to its
    nearest node of the validated, non-empty ``arr``: of the candidate
    points, the largest ``np.hypot(dx, dy)`` to the nearest node.

    ``poly`` is counterclockwise, as ``_hull`` builds it, or one point or
    a segment. The candidates are a ``grid_resolution x grid_resolution``
    grid over its box clipped to it (points along a segment), so the result
    is the supremum within one grid-cell diagonal.

    A running minimum of squared distances, taken one node at a time,
    ranks the candidates. Its relative error is a few ulps for squares in
    the normal range, so a candidate whose distance is the largest has a
    squared distance within FILL_MARGIN of the largest squared distance;
    only those candidates are measured with ``np.hypot``, which gives the
    result bit for bit. When that bound does not hold (a squared distance
    that is not finite, or a largest one below the normal range), every
    candidate is measured, as one (candidates, nodes) array. Otherwise
    memory is linear in the candidates (and the kept ones times nodes).
    """
    if poly.shape[0] == 1:
        cx, cy = poly[:, 0], poly[:, 1]
    elif poly.shape[0] == 2:
        t = np.linspace(0.0, 1.0, grid_resolution)
        cx = poly[0, 0] + t * (poly[1, 0] - poly[0, 0])
        cy = poly[0, 1] + t * (poly[1, 1] - poly[0, 1])
    else:
        lo, hi = poly.min(axis=0), poly.max(axis=0)
        gx, gy = (g.ravel() for g in np.meshgrid(
            np.linspace(lo[0], hi[0], grid_resolution),
            np.linspace(lo[1], hi[1], grid_resolution),
            indexing="ij",
        ))
        tol = 1e-12 * max(hi[0] - lo[0], hi[1] - lo[1]) ** 2  # the cross products are length^2
        inside = np.ones(gx.shape[0], dtype=bool)
        for k in range(poly.shape[0]):
            a, b = poly[k], poly[(k + 1) % poly.shape[0]]
            cross = (b[0] - a[0]) * (gy - a[1]) - (b[1] - a[1]) * (gx - a[0])
            inside &= cross >= -tol
        cx, cy = gx[inside], gy[inside]
    if cx.shape[0] == 0:
        return 0.0
    sq = np.full(cx.shape[0], np.inf)
    with np.errstate(over="ignore"):
        for x, y in arr.tolist():
            dx, dy = cx - x, cy - y
            dx *= dx
            dy *= dy
            dx += dy
            np.minimum(sq, dx, out=sq)
    top = sq.max()
    if np.finfo(float).tiny <= top < np.inf:
        keep = sq >= (1.0 - FILL_MARGIN) * top
        cx, cy = cx[keep], cy[keep]
    nearest = np.hypot(cx[:, None] - arr[:, 0], cy[:, None] - arr[:, 1]).min(axis=1)
    return float(nearest.max())


def _separation_distance(arr: np.ndarray) -> float:
    """Half the minimum pairwise distance of validated nodes."""
    n = arr.shape[0]
    if n < 2:
        raise InsufficientNodes(f"separation distance needs >= 2 nodes, got {n}")
    return 0.5 * float(_pair_distances(arr).min())


def geometry_report(points) -> dict:
    """Descriptors of a node set over its convex hull: a dict of
    ``fill_distance`` (``_fill_distance`` over the hull on a
    FILL_GRID_RESOLUTION grid), ``separation_distance``, ``mesh_ratio``
    (the first over the second; near 1 means quasi-uniform), ``n_nodes``
    and ``n_hull``.

    ``n_hull`` counts nodes lying on the hull boundary, including nodes
    interior to a hull edge. The nodes are validated once and the hull is
    built once, for the fill distance and the boundary count.
    """
    arr = as_points(points)
    if arr.shape[0] == 0:
        raise InsufficientNodes("fill distance of an empty node set")
    poly = _hull(arr)
    h = _fill_distance(arr, poly, FILL_GRID_RESOLUTION)
    q = _separation_distance(arr)
    tol = 1e-9 * max(np.ptp(arr[:, 0]), np.ptp(arr[:, 1]))
    # Distance from every node to every hull edge (a, b); a lone hull point
    # is the zero-length edge (a, a).
    ab = np.roll(poly, -1, axis=0) - poly
    seg_len2 = ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1]
    d = arr[:, None, :] - poly
    t = np.divide(d[..., 0] * ab[:, 0] + d[..., 1] * ab[:, 1], seg_len2,
                  out=np.zeros(d.shape[:2]), where=seg_len2 > 0.0)
    gap = arr[:, None, :] - (poly + np.clip(t, 0.0, 1.0)[..., None] * ab)
    n_hull = int(np.count_nonzero((np.hypot(gap[..., 0], gap[..., 1]) <= tol).any(axis=1)))
    return {
        "fill_distance": h,
        "separation_distance": q,
        "mesh_ratio": h / q,
        "n_nodes": arr.shape[0],
        "n_hull": n_hull,
    }
