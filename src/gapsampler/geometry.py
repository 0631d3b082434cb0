"""Planar support: Delaunay triangulation and unit-square uniformity audits.

The covering radius of a finite set over the continuous square [0,1]^2 is
attained at a largest-empty-circle center, and every candidate center is one
of: a Voronoi vertex inside the square, an intersection of a Voronoi edge
with the square's boundary, or a corner of the square (Toussaint 1983).  The
Voronoi vertices are the Delaunay circumcenters.  The boundary crossings do
not need the triangulation: along one side, the nearest site changes exactly
where the lower envelope of the sites' squared distances (less t^2, lines in
t) passes from one line to the next, and that is where the two sites'
bisector crosses the side.  Each side's envelope is built exactly, on
integers, so the degenerate layouts (1 or 2 points, all points collinear,
cocircular sites) need no special case.  There are O(n) candidates, scored
by one exact nearest-site scan: O(n^2) time at worst and O(n) memory beside
one kernel block.

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
sorted.  Circumcircles are array operations on the final triangles.

The angle audit ties the triangulation to the gap ratio g = R/r: any
triangle whose vertices all sit at distance >= R from the boundary has every
angle in [arcsin(1/g), pi - 2 arcsin(1/g)] (a sample with a low gap ratio
cannot produce skinny interior triangles).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import asin, pi
from typing import Optional

import numpy as np

from .errors import GapError
from .metric import PointCloud, _pairwise, build_euclidean, min_gap

PREDICATE_TOL = 1e-12

_CORNERS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))

# starting column capacity of delaunay's packed triangle array; it doubles
_TRI_CAP = 64


@dataclass(frozen=True)
class Triangulation:
    sites: np.ndarray         # (n, 2)
    triangles: np.ndarray     # (m, 3) vertex indices, counterclockwise
    circumcenters: np.ndarray  # (m, 2)
    circumradii: np.ndarray   # (m,)


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
                         circumradii=radii)


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


def _crossings(pts: np.ndarray) -> np.ndarray:
    """(c, 2) crossings of the Voronoi edges with the square's boundary, in
    (i, j, side) order over site pairs i < j and the sides x = 0, x = 1,
    y = 0, y = 1.

    At the point (X, t) of the side x = X, site i is at squared distance
    (t - y_i)^2 + (X - x_i)^2; less t^2, that is the line
    y_i^2 + (X - x_i)^2 - 2 y_i t (the sides y = Y swap x and y).  The
    nearest site changes where the lower envelope of these lines passes from
    one line to the next, which is where the pair's bisector crosses the
    side.  Every test is exact, on integers over one power-of-two
    denominator, so (i, j) is kept on a side if and only if no site is
    strictly nearer than i and j where their bisector crosses it: a line is
    dropped only when it lies strictly above its neighbours' meeting point,
    and where several lines meet at one point (cocircular sites) every pair
    among them is kept.  Of parallel lines only the lowest can be nearest,
    and its pairs with them have no crossing.  Each crossing is then the
    pair's own float expression, kept when 0 <= t <= 1.
    """
    ratios = [v.as_integer_ratio() for v in pts.ravel().tolist()]
    den = max(d for _, d in ratios)
    xs = [p * (den // d) for p, d in ratios[0::2]]
    ys = [p * (den // d) for p, d in ratios[1::2]]
    found = []
    for side, (across, along, end) in enumerate(
            ((xs, ys, 0), (xs, ys, den), (ys, xs, 0), (ys, xs, den))):
        # site i as the line b - 2 a t, by increasing a: decreasing slope
        lines = sorted((a, (end - w) ** 2 + a * a, i)
                       for i, (w, a) in enumerate(zip(across, along)))
        hull = []
        for a, b, i in lines:
            if hull and hull[-1][0] == a:
                continue  # parallel and not lower
            while len(hull) > 1:
                (a1, b1, _), (a2, b2, _) = hull[-2:]
                # hull[-1] goes when it meets this line strictly before it
                # meets hull[-2]: it is then above the lower of the two
                if (b2 - b1) * (a - a2) <= (b - b2) * (a2 - a1):
                    break
                hull.pop()
            hull.append((a, b, i))
        # consecutive hull lines meet at t = db / 2 da, never decreasing; a
        # run of equal meeting points is one point all its lines pass through
        runs = []
        for (a0, b0, i), (a1, b1, j) in zip(hull, hull[1:]):
            meet = (b1 - b0, a1 - a0)
            if runs and last[0] * meet[1] == meet[0] * last[1]:
                runs[-1].append(j)
            else:
                runs.append([i, j])
            last = meet
        found += [(i, j, side) for run in runs for i, j in combinations(sorted(run), 2)]
    i, j, side = np.array(sorted(found), dtype=np.int64).reshape(-1, 3).T
    mid = (pts[i] + pts[j]) / 2.0
    nx = pts[j, 0] - pts[i, 0]
    ny = pts[j, 1] - pts[i, 1]
    end = (side % 2).astype(np.float64)
    upright = side < 2
    # bisector: (x - mid) . (nx, ny) = 0; the branch a side does not take
    # may hold inf or nan
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.where(upright, mid[:, 1] + (mid[:, 0] - end) * nx / ny,
                     mid[:, 0] + (mid[:, 1] - end) * ny / nx)
    out = np.where(upright[:, None], np.c_[end, t], np.c_[t, end])
    return out[(0.0 <= t) & (t <= 1.0)]


def _covering_radius(pts: np.ndarray, tri: Optional[Triangulation]) -> tuple:
    """covering_radius_unit_square on validated sites and their
    triangulation, or None when they have none.

    Candidates keep their order: corners, in-square circumcenters, then
    the boundary crossings.  All are scored by one exact nearest-site scan,
    and the first maximum wins.
    """
    vor = np.empty((0, 2))
    if tri is not None:
        c = tri.circumcenters
        vor = c[(0.0 <= c[:, 0]) & (c[:, 0] <= 1.0) & (0.0 <= c[:, 1]) & (c[:, 1] <= 1.0)]
    cand = np.concatenate([np.array(_CORNERS), vor, _crossings(pts)])
    nearest = _pairwise(cand, pts, np.min)
    top = int(np.argmax(nearest))  # first occurrence: fixed candidate order
    kind = ("corner" if top < 4 else "voronoi-vertex" if top < 4 + len(vor)
            else "boundary-intersection")
    return float(nearest[top]), cand[top].copy(), kind


def covering_radius_unit_square(cloud: PointCloud) -> tuple:
    """(R, witness point, candidate kind) over the continuous unit square.

    Exact up to the finite candidate set: Voronoi vertices inside the
    square, Voronoi-edge/boundary intersections, and the four corners.  With
    one or two points, or a collinear layout, there are no Voronoi vertices
    and the remaining candidates already carry the maximum.  The boundary
    crossings come from each side's nearest-site envelope, not from the
    triangulation; the Voronoi vertices are only as good as it is.

    O(n) candidates, one exact nearest-site scan: O(n^2) time at worst and
    O(n) memory beside one kernel block.
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
