"""Planar support: Delaunay triangulation and unit-square uniformity audits.

The covering radius of a finite set over the continuous square [0,1]^2 is
attained at a largest-empty-circle center, and every candidate center is one
of: a Voronoi vertex inside the square, an intersection of a Voronoi edge
with the square's boundary, or a corner of the square.  Voronoi structure is
taken by duality from the Delaunay triangulation (vertices are triangle
circumcenters, edges lie on pairwise perpendicular bisectors), so the
boundary candidates used here are the full set of pairwise-bisector /
boundary intersections, a superset of the Voronoi-edge crossings.  Extra
candidates are harmless: each is inside the square, so its nearest-site
distance never exceeds the true covering radius.  The superset also covers
the degenerate layouts (1 or 2 points, all points collinear) where no
triangulation exists.

Not every candidate gets the O(n) exact nearest-site scan.  The corners
and Voronoi vertices do, and their best score is a floor; the crossings
are made one block of pairs at a time, each crossing first gets an upper
bound, its distance to the site nearest a boundary probe beside it (8n
probes, found by one O(n^2) scan), and only crossings whose bound reaches
the floor are scanned.  A bound is one of the distances the exact scan
minimises over, so pruning never changes R, the witness or its kind, and
a wrong triangulation or a poor probe only weakens the pruning.  Typical
inputs take O(n^2) time instead of O(n^3) (the worst case stays O(n^3));
memory is O(n) beside one block of pairs and one kernel block.

Triangulation is incremental with a bounding super-triangle that is removed
at the end.  Orientation and in-circumcircle predicates are determinant
tests with tolerance 1e-12; exactly cocircular insertions do not evict
earlier triangles, so cocircular ties resolve by insertion order.  This is a
documented desk-scale choice, not exact arithmetic.  Each insertion tests
every live triangle in one packed scan: a triangle is a column of an
(18, cap) array holding its coordinates and the operands of the three 2x2
minors of the in-circumcircle determinant, so the scan is nine ufunc calls
with the scalar predicate's operands and operation order, and every cavity
decision has the bits a per-triangle scalar test would give.  The cavity
boundary of the few bad triangles (their directed edges whose reverse is
absent, kept where the orientation test is positive) is found on Python
floats, the same IEEE operations as the array form.  New triangles take the
bad triangles' columns, so storage order follows the insertion history; a
column left over dies, NaN, which no test finds bad.  The order never
matters: every live triangle is tested, so the bad set depends only on the
set of live triangles, the boundary only on the bad set, and the output is
sorted.  Circumcircles and edge neighbours are array operations on the
final triangles.

The angle audit ties the triangulation to the gap ratio g = R/r: any
triangle whose vertices all sit at distance >= R from the boundary has every
angle in [arcsin(1/g), pi - 2 arcsin(1/g)] (a sample with a low gap ratio
cannot produce skinny interior triangles).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, pi
from typing import Iterator, Optional

import numpy as np

from .errors import GapError
from .metric import _BLOCK, PointCloud, _pairwise, build_euclidean, min_gap

PREDICATE_TOL = 1e-12

_CORNERS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))

# bisector pairs per block of the covering radius's crossing walk (whole
# rows of pairs, at least one row): 2,048 at the default kernel budget.
# A block's crossings and their bounds then stay below the exact scans'
# two kernel blocks, whose distance blocks are _pairwise's own
_PAIRS = max(1, _BLOCK // 32)

# starting column capacity of delaunay's packed triangle array; it doubles
_TRI_CAP = 64


@dataclass(frozen=True)
class Triangulation:
    sites: np.ndarray         # (n, 2)
    triangles: np.ndarray     # (m, 3) vertex indices, counterclockwise
    circumcenters: np.ndarray  # (m, 2)
    circumradii: np.ndarray   # (m,)
    neighbors: np.ndarray     # (m, 3) adjacent triangle per edge, -1 if none


@dataclass(frozen=True)
class SquareGapReport:
    r: float
    R: float
    gap_ratio: float
    closest_pair: tuple
    farthest_point: np.ndarray  # (2,) in [0,1]^2, realizes R
    candidate_kind: str         # voronoi-vertex | boundary-intersection | corner


@dataclass(frozen=True)
class AngleAuditReport:
    gap_ratio: float
    covering_radius: float
    theta_bound: float          # arcsin(min(1, 1/g)) in radians
    interior_triangles: tuple   # triangle indices with all vertices >= R from the boundary
    min_interior_angle: Optional[float]
    violations: tuple           # (triangle index, min angle, max angle) entries


# ---------------------------------------------------------------------------
# predicates


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


# Rows of a packed triangle column, as indices into (ax, bx, cx, ay, by, cy):
# the three coordinates per axis, then the four operands of the three 2x2
# cross terms, bx*cy - by*cx, ax*cy - ay*cx and ax*by - ay*bx.
_PACK = np.array([0, 1, 2, 3, 4, 5, 1, 0, 0, 5, 5, 4, 4, 3, 3, 2, 2, 1])
_ROWS = np.arange(18)[:, None]
_SLOT = _PACK % 3


def _in_circle_packed(xy, p18):
    """In-circumcircle determinant of a point against every triangle
    packed as a column of the (18, m) array xy: positive when the point
    lies strictly inside the circumcircle of the CCW triangle (a, b, c).

    p18 is the point as an (18, 1) column, packed alike (x on the rows of
    x coordinates, y on those of y).  Nine ufunc calls over all columns,
    each with the scalar determinant's operands and operation order.
    """
    d = xy - p18
    s = d[0:6] * d[0:6]
    s = s[0:3] + s[3:6]  # ax^2 + ay^2, bx^2 + by^2, cx^2 + cy^2
    cr = d[6:9] * d[9:12] - d[12:15] * d[15:18]
    w = s * cr
    return w[0] - w[1] + w[2]


def _circumcircles(a, b, c) -> tuple:
    """((m, 2) centers, (m,) radii) of triangles with (2, m) vertex rows."""
    bx, by = b[0] - a[0], b[1] - a[1]
    cx, cy = c[0] - a[0], c[1] - a[1]
    d = 2.0 * (bx * cy - by * cx)
    if (d == 0.0).any():
        raise GapError("degenerate-triangle", "circumcircle of collinear points")
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    return np.stack([a[0] + ux, a[1] + uy], axis=1), np.sqrt(ux * ux + uy * uy)


# ---------------------------------------------------------------------------
# triangulation


def _require_2d(cloud: PointCloud) -> np.ndarray:
    if cloud.dim != 2:
        raise GapError("invalid-dimension", f"planar operation needs d=2, got d={cloud.dim}")
    return cloud.points


def _edge_neighbors(triangles: np.ndarray, n: int) -> np.ndarray:
    """(m, 3) triangle across each edge (ia,ib), (ib,ic), (ic,ia), or -1.

    Edges are taken in row-major order.  The first occurrence of an
    undirected edge owns it: every later occurrence points to the owner,
    and the owner points to the last one.
    """
    u = triangles.ravel()
    v = triangles[:, [1, 2, 0]].ravel()
    key = np.minimum(u, v) * n + np.maximum(u, v)
    order = np.argsort(key, kind="stable")
    ks = key[order]
    start = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    size = np.diff(np.r_[start, ks.size])
    first, last = order[start], order[start + size - 1]
    out = np.empty(ks.size, dtype=np.int64)
    out[order] = np.repeat(first // 3, size)
    out[first] = np.where(size > 1, last // 3, -1)
    return out.reshape(triangles.shape)


def delaunay(cloud: PointCloud) -> Triangulation:
    """Incremental Delaunay triangulation (super-triangle, then removal).

    Insertion order is input order; a point exactly on a circumcircle does
    not evict the triangle, so cocircular configurations keep the earlier
    diagonal.  Each insertion tests every live triangle at once.
    """
    pts = _require_2d(cloud)
    n = pts.shape[0]
    if n < 3:
        raise GapError("too-few-points", f"triangulation needs >= 3 points, got {n}")
    anchor = 0
    far = int(np.argmax(((pts - pts[0]) ** 2).sum(axis=1)))
    cross = np.abs(_orient(pts[anchor], pts[far], pts.T))
    if cross.max() <= PREDICATE_TOL:
        raise GapError("collinear-points", "all points are collinear")

    lo, hi = pts.min(axis=0), pts.max(axis=0)
    center = (lo + hi) / 2.0
    m = 1024.0 * max(1.0, float((hi - lo).max()))
    sup = np.array([[center[0] - 3.0 * m, center[1] - m],
                    [center[0] + 3.0 * m, center[1] - m],
                    [center[0], center[1] + 3.0 * m]])
    verts = np.vstack([pts, sup, [np.nan, np.nan]])  # vertex n + 3, NaN, fills dead slots
    vxy = verts.tolist()  # Python floats for the cavity's _orient
    # packed[r, v] is vertex v's x or y, whichever row r of a packed column
    # holds: column v is vertex v as a point p18, and row r of triangle
    # (a, b, c) is packed[r, (a, b, c)[_SLOT[r]]]
    packed = verts.T[_PACK // 3]
    # live triangles, in any order: column t of xy packs the triangle
    # tris[3t:3t + 3].  A flat list of ints, since 3-tuples would outlive
    # the call in Python's tuple free list (19 KB at n = 150)
    tris = [n, n + 1, n + 2]
    xy = np.empty((18, _TRI_CAP))
    xy[:, :1] = packed[_ROWS, np.reshape(tris, (-1, 3)).T[_SLOT]]

    for i in range(n):
        live = len(tris) // 3
        det = _in_circle_packed(xy[:, :live], packed[:, i:i + 1])
        bad = (det > PREDICATE_TOL).nonzero()[0].tolist()
        if not bad:
            continue
        # the cavity boundary: directed edges of bad triangles, as a set,
        # whose reverse is not among them, kept where _orient(u, v, p) > 0
        directed = set()
        for t in bad:
            a, b, c = tris[3 * t:3 * t + 3]
            directed.update(((a, b), (b, c), (c, a)))
        px, py = vxy[i]
        new = []
        for u, v in directed:
            if (v, u) not in directed:
                (ux, uy), (vx, vy) = vxy[u], vxy[v]
                if (vx - ux) * (py - uy) - (vy - uy) * (px - ux) > 0:
                    new += (u, v, i)

        # new triangles take the bad slots, then the end; when fewer come
        # back than left, the other bad slots die: their triple is the NaN
        # vertex's, dropped with the super-vertices, and never found bad
        new += [n + 3] * (3 * len(bad) - len(new))
        for j, t in enumerate(bad):
            tris[3 * t:3 * t + 3] = new[3 * j:3 * j + 3]
        tris += new[3 * len(bad):]
        slots = bad + list(range(live, len(tris) // 3))
        while len(tris) > 3 * xy.shape[1]:
            xy = np.concatenate([xy, np.empty_like(xy)], axis=1)
        xy[:, slots] = packed[_ROWS, np.reshape(new, (-1, 3)).T[_SLOT]]

    tris = np.array(tris, dtype=np.int64).reshape(-1, 3)
    tris = tris[(tris < n).all(axis=1)]
    if not tris.size:
        raise GapError("collinear-points", "no triangle survives; points nearly collinear")
    triangles = tris[np.lexsort(tris.T[::-1])]
    centers, radii = _circumcircles(*pts[triangles].transpose(1, 2, 0))
    return Triangulation(sites=pts, triangles=triangles, circumcenters=centers,
                         circumradii=radii, neighbors=_edge_neighbors(triangles, n))


def circumcircle_margins(tri: Triangulation) -> np.ndarray:
    """(m, n) distances site-to-circumcenter minus circumradius.

    The empty-circumcircle property says every entry is >= 0 up to
    predicate noise; the triangle's own vertices land at exactly 0.
    """
    dist = _pairwise(tri.circumcenters, tri.sites)
    dist -= tri.circumradii[:, None]
    return dist


# ---------------------------------------------------------------------------
# unit-square covering radius (largest empty circle)


def _validate_in_square(pts: np.ndarray) -> None:
    if (pts < 0.0).any() or (pts > 1.0).any():
        i = int(np.argwhere((pts < 0.0) | (pts > 1.0))[0][0])
        raise GapError("point-outside-square",
                       f"point {i} lies outside the unit square")


def _crossing_blocks(pts: np.ndarray) -> Iterator[np.ndarray]:
    """(c, 2) intersections of the pairwise perpendicular bisectors with
    the square boundary, one block of pairs at a time.

    Pairs i < j run in lexicographic order, whole rows of i at a time: a
    block takes the next rows while it holds at most _PAIRS pairs, and at
    least one row.  Per pair, the crossings run x = 0, x = 1, y = 0, y = 1.
    Every Voronoi edge lies on one of these lines, so the true boundary
    candidates are included; extras are harmless.  Every entry has the
    bits of its own pair's expressions, so the blocks' concatenation does
    not depend on where they end.
    """
    n = pts.shape[0]
    i0 = 0
    while i0 < n - 1:
        i1, size = i0 + 1, n - 1 - i0
        while i1 < n - 1 and size + n - 1 - i1 <= _PAIRS:
            size += n - 1 - i1
            i1 += 1
        # row-major order is lexicographic; the mask has at most 2 * size entries
        i, j = np.nonzero(np.arange(i0, i1)[:, None] < np.arange(i0 + 1, n))
        i, j = i + i0, j + i0 + 1
        mid = (pts[i] + pts[j]) / 2.0
        nx = pts[j, 0] - pts[i, 0]
        ny = pts[j, 1] - pts[i, 1]
        out = np.empty((size, 4, 2))
        keep = np.empty((size, 4), dtype=bool)
        # bisector: (x - mid) . (nx, ny) = 0; masked slots may hold inf or nan
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for s, x in enumerate((0.0, 1.0)):
                y = mid[:, 1] + (mid[:, 0] - x) * nx / ny
                out[:, s, 0], out[:, s, 1] = x, y
                keep[:, s] = (ny != 0.0) & (0.0 <= y) & (y <= 1.0)
            for s, y in enumerate((0.0, 1.0), start=2):
                x = mid[:, 0] + (mid[:, 1] - y) * ny / nx
                out[:, s, 0], out[:, s, 1] = x, y
                keep[:, s] = (nx != 0.0) & (0.0 <= x) & (x <= 1.0)
        yield out[keep]
        i0 = i1


def _probe_sites(pts: np.ndarray) -> np.ndarray:
    """(4, 2n) index of the nearest site to each boundary probe.

    Side s is x = 0, x = 1, y = 0, y = 1 in turn; its probes sit at
    (k + 1/2) / 2n along it, so every boundary point is within 1/4n of
    the probe in its own slot floor(2n t) of that side.
    """
    per = 2 * pts.shape[0]
    t = (np.arange(per) + 0.5) / per
    zero, one = np.zeros(per), np.ones(per)
    probes = np.concatenate([np.c_[zero, t], np.c_[one, t],
                             np.c_[t, zero], np.c_[t, one]])
    return _pairwise(probes, pts, np.argmin).reshape(4, per)


def _covering_radius(pts: np.ndarray, tri: Optional[Triangulation]) -> tuple:
    """covering_radius_unit_square on validated sites and their
    triangulation, or None when they have none.

    Candidates keep their order: corners, in-square circumcenters, then
    the bisector/boundary crossings.  The first two groups are scored
    exactly and their first maximum is the best so far.  Each block of
    crossings is scored as soon as it is made.  A crossing c gets the
    bound u(c), the _pairwise entry from c to the site nearest the probe
    beside it: one of the entries the exact scan takes the minimum of, so
    nearest(c) <= u(c) bit for bit, and u(c) <= nearest(c) + 1/2n by the
    triangle inequality.  Crossings with u(c) below the best score so far
    are skipped; the rest are scored exactly, and the best changes only
    on a strict improvement.  The best is a real earlier candidate's
    score, so a skipped crossing is never the first maximum, and the
    result is the first maximum over all candidates.  No array holds all
    the crossings or all the pairs: memory is O(n + _PAIRS + _BLOCK).
    """
    vor = np.empty((0, 2))
    if tri is not None:
        c = tri.circumcenters
        vor = c[(0.0 <= c[:, 0]) & (c[:, 0] <= 1.0) & (0.0 <= c[:, 1]) & (c[:, 1] <= 1.0)]
    head = np.concatenate([np.array(_CORNERS), vor])
    nearest = _pairwise(head, pts, np.min)
    top = int(np.argmax(nearest))  # first occurrence: fixed candidate order
    best, witness = nearest[top], head[top].copy()
    kind = "corner" if top < 4 else "voronoi-vertex"
    probe = _probe_sites(pts)
    per = probe.shape[1]
    for cross in _crossing_blocks(pts):
        x, y = cross.T
        # every crossing has x or y at exactly 0 or 1; t runs along its side
        upright = (x == 0.0) | (x == 1.0)
        t = np.where(upright, y, x)
        side = np.where(upright, x, 2.0 + y).astype(np.int64)
        near = pts[probe[side, np.minimum((t * per).astype(np.int64), per - 1)]]
        # _pairwise's entry for (c, site): the same subtract, square, add, sqrt
        dx, dy = x - near[:, 0], y - near[:, 1]
        live = np.flatnonzero(np.sqrt(dx * dx + dy * dy) >= best)
        if live.size:
            got = _pairwise(cross[live], pts, np.min)
            top = int(np.argmax(got))
            if got[top] > best:
                best, witness = got[top], cross[live[top]].copy()
                kind = "boundary-intersection"
    return float(best), witness, kind


def covering_radius_unit_square(cloud: PointCloud) -> tuple:
    """(R, witness point, candidate kind) over the continuous unit square.

    Exact up to the finite candidate set: Voronoi vertices inside the
    square, bisector/boundary intersections, and the four corners.  With one
    or two points, or a collinear layout, the Voronoi part is empty or
    degenerate and the remaining candidates already carry the maximum.

    Every bisector crossing stays a candidate, but only those whose
    probe-based upper bound reaches the best score so far get the exact
    nearest-site scan: O(n^2) time on typical inputs (O(n^3) at worst) and
    O(n) memory beside fixed-size blocks.  A broken triangulation only weakens the pruning; the
    result is always the unpruned scan's first maximum.
    """
    pts = _require_2d(cloud)
    _validate_in_square(pts)
    tri = None
    if pts.shape[0] >= 3:
        try:
            tri = delaunay(cloud)
        except GapError as e:
            if e.code != "collinear-points":
                raise
    return _covering_radius(pts, tri)


def _square_sites(cloud: PointCloud) -> np.ndarray:
    pts = _require_2d(cloud)
    if pts.shape[0] < 2:
        raise GapError("sample-too-small", "gap report needs >= 2 points")
    _validate_in_square(pts)
    return pts


def _square_report(cloud: PointCloud, cover: tuple) -> SquareGapReport:
    r, pair = min_gap(build_euclidean(cloud), range(cloud.n))
    R, witness, kind = cover
    return SquareGapReport(r=r, R=R, gap_ratio=R / r, closest_pair=pair,
                           farthest_point=witness, candidate_kind=kind)


def gap_report_unit_square(cloud: PointCloud) -> SquareGapReport:
    """Gap report with M = the continuous unit square."""
    _square_sites(cloud)
    return _square_report(cloud, covering_radius_unit_square(cloud))


# ---------------------------------------------------------------------------
# angle audit


def _triangle_angles(corners: np.ndarray) -> np.ndarray:
    """(m, 3) angles at a, b and c of triangles with (m, 3, 2) corners.

    Dots and squared norms are stacked matmuls, one vector pair per
    matrix: numpy takes each as a 1-D dot, the BLAS call `u @ v` and
    np.linalg.norm make, so every angle has their bits (elementwise
    multiply-adds would not: BLAS may fuse them).
    """
    u = (corners[:, [1, 2, 0]] - corners).reshape(-1, 1, 2)
    v = (corners[:, [2, 0, 1]] - corners).reshape(-1, 2, 1)
    dot = (u @ v).ravel()
    norms = np.sqrt((u @ u.transpose(0, 2, 1)).ravel()) * np.sqrt(
        (v.transpose(0, 2, 1) @ v).ravel())
    return np.arccos(np.clip(dot / norms, -1.0, 1.0)).reshape(-1, 3)


def delaunay_angle_audit(cloud: PointCloud) -> AngleAuditReport:
    """Check interior Delaunay triangles against the gap-ratio angle bound.

    A triangle is interior when all three vertices are at distance >= R from
    the square's boundary.  Every interior triangle must satisfy
    min angle >= arcsin(min(1, 1/g)) and max angle <= pi - 2 arcsin(1/g),
    up to 1e-9.
    """
    pts = _square_sites(cloud)
    tri = delaunay(cloud)  # shared with the covering-radius search
    report = _square_report(cloud, _covering_radius(pts, tri))
    g = report.gap_ratio
    R = report.R
    theta = asin(min(1.0, 1.0 / g))
    boundary_dist = np.minimum.reduce([pts[:, 0], 1.0 - pts[:, 0],
                                       pts[:, 1], 1.0 - pts[:, 1]])
    interior = np.flatnonzero(boundary_dist[tri.triangles].min(axis=1) >= R)
    angles = _triangle_angles(pts[tri.triangles[interior]])
    lo, hi = angles.min(axis=1), angles.max(axis=1)
    bad = (lo < theta - 1e-9) | (hi > pi - 2.0 * theta + 1e-9)
    violations = zip(interior[bad].tolist(), lo[bad].tolist(), hi[bad].tolist())
    min_angle = float(lo.min()) if interior.size else None
    return AngleAuditReport(gap_ratio=g, covering_radius=R, theta_bound=theta,
                            interior_triangles=tuple(interior.tolist()),
                            min_interior_angle=min_angle,
                            violations=tuple(violations))
