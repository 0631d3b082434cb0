"""Delaunay structure, largest-empty-circle search, and the angle audit."""

import itertools
import tracemalloc
from fractions import Fraction
from math import asin, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsampler import (GapError, build_cloud, circumcircle_margins,
                        covering_radius_unit_square, delaunay,
                        delaunay_angle_audit, gap_report_unit_square, geometry,
                        metric)

DEFAULT_BLOCK = metric._BLOCK

CORNERS = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
CORNERS_IN_ORDER = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]  # candidate order


def jittered_lattice(seed, inset=0.1, step=0.2, amp=0.005):
    axis = np.arange(inset, 1.0 - inset + 1e-9, step)
    gx, gy = np.meshgrid(axis, axis)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    rng = np.random.default_rng(seed)
    return build_cloud(pts + rng.uniform(-amp, amp, pts.shape))


# ---------------------------------------------------------------------------
# triangulation


def test_square_corners_two_triangles():
    tri = delaunay(build_cloud(CORNERS))
    assert len(tri.triangles) == 2
    assert np.allclose(tri.circumradii, sqrt(2.0) / 2.0, rtol=1e-12)
    assert np.allclose(tri.circumcenters, [0.5, 0.5], atol=1e-12)


def test_point_inside_triangle_gives_three():
    tri = delaunay(build_cloud([[0, 0], [1, 0], [0.5, 1], [0.5, 0.4]]))
    assert len(tri.triangles) == 3
    assert sorted(np.unique(tri.triangles)) == [0, 1, 2, 3]


def test_triangles_are_ccw_and_indices_in_range():
    rng = np.random.default_rng(1)
    cloud = build_cloud(rng.random((40, 2)))
    tri = delaunay(cloud)
    assert tri.triangles.max() < 40 and tri.triangles.min() >= 0
    p = tri.sites
    for ia, ib, ic in tri.triangles:
        ax, ay = p[ia]
        area2 = ((p[ib][0] - ax) * (p[ic][1] - ay)
                 - (p[ib][1] - ay) * (p[ic][0] - ax))
        assert area2 > 0.0


def test_empty_circumcircle_property():
    for seed in (2, 3, 4):
        rng = np.random.default_rng(seed)
        cloud = build_cloud(rng.random((50, 2)))
        tri = delaunay(cloud)
        margins = circumcircle_margins(tri)
        assert margins.min() >= -1e-9
        for t, (ia, ib, ic) in enumerate(tri.triangles):
            assert np.abs(margins[t, [ia, ib, ic]]).max() <= 1e-9


def test_triangulation_replay():
    rng = np.random.default_rng(6)
    pts = rng.random((25, 2))
    a = delaunay(build_cloud(pts))
    b = delaunay(build_cloud(pts))
    assert np.array_equal(a.triangles, b.triangles)


def test_triangulation_errors():
    with pytest.raises(GapError):
        delaunay(build_cloud([[0, 0], [1, 1]]))
    with pytest.raises(GapError) as e:
        delaunay(build_cloud([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]]))
    assert e.value.code == "collinear-points"
    with pytest.raises(GapError):
        delaunay(build_cloud([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))


def scalar_orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def scalar_in_circumcircle(a, b, c, p):
    ax, ay = a[0] - p[0], a[1] - p[1]
    bx, by = b[0] - p[0], b[1] - p[1]
    cx, cy = c[0] - p[0], c[1] - p[1]
    return ((ax * ax + ay * ay) * (bx * cy - by * cx)
            - (bx * bx + by * by) * (ax * cy - ay * cx)
            + (cx * cx + cy * cy) * (ax * by - ay * bx))


def scalar_circumcircle(a, b, c):
    bx, by = b[0] - a[0], b[1] - a[1]
    cx, cy = c[0] - a[0], c[1] - a[1]
    d = 2.0 * (bx * cy - by * cx)
    if d == 0.0:
        raise GapError("degenerate-triangle", "circumcircle of collinear points")
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    return np.array([a[0] + ux, a[1] + uy]), sqrt(ux * ux + uy * uy)


def scalar_delaunay(cloud):
    """The triangulation as one scalar predicate call per live triangle
    and a set of directed cavity edges."""
    orient, in_circumcircle, circumcircle = (
        scalar_orient, scalar_in_circumcircle, scalar_circumcircle)
    tol = geometry.PREDICATE_TOL
    pts = cloud.points
    n = pts.shape[0]
    if n < 3:
        raise GapError("too-few-points", f"triangulation needs >= 3 points, got {n}")
    far = int(np.argmax(((pts - pts[0]) ** 2).sum(axis=1)))
    if np.abs(orient(pts[0], pts[far], pts.T)).max() <= tol:
        raise GapError("collinear-points", "all points are collinear")
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    center = (lo + hi) / 2.0
    m = 1024.0 * max(1.0, float((hi - lo).max()))
    sup = np.array([[center[0] - 3.0 * m, center[1] - m],
                    [center[0] + 3.0 * m, center[1] - m],
                    [center[0], center[1] + 3.0 * m]])
    verts = np.vstack([pts, sup])
    tris = [(n, n + 1, n + 2)]
    for i in range(n):
        p = verts[i]
        bad = [t for t, (ia, ib, ic) in enumerate(tris)
               if in_circumcircle(verts[ia], verts[ib], verts[ic], p) > tol]
        directed = set()
        for t in bad:
            ia, ib, ic = tris[t]
            directed.update([(ia, ib), (ib, ic), (ic, ia)])
        boundary = [(u, v) for (u, v) in directed if (v, u) not in directed]
        gone = set(bad)
        tris = [tri for t, tri in enumerate(tris) if t not in gone]
        tris += [(u, v, i) for u, v in boundary if orient(verts[u], verts[v], p) > 0]
    tris = [t for t in tris if max(t) < n]
    if not tris:
        raise GapError("collinear-points", "no triangle survives; points nearly collinear")
    triangles = np.array(sorted(tris), dtype=np.int64)
    centers = np.empty((len(triangles), 2))
    radii = np.empty(len(triangles))
    for t, (ia, ib, ic) in enumerate(triangles):
        centers[t], radii[t] = circumcircle(pts[ia], pts[ib], pts[ic])
    return triangles, centers, radii


def equivalence_clouds():
    rng = np.random.default_rng(2024)
    for n in (3, 4, 5, 8, 13, 21, 34, 55, 89, 144, 200):
        yield rng.random((n, 2))  # uniform
    for n in (6, 12, 30, 60, 120):
        yield np.round(rng.random((n, 2)) * 8) / 8  # cocircular ties
    axis = np.arange(9) / 8
    yield np.array(list(itertools.product(axis, axis)))  # the full 1/8 grid
    for n in (10, 50, 150):
        yield 0.4 + 0.01 * rng.random((n, 2))  # a 0.01-wide box
    for n in (3, 4, 9, 20, 40):
        for eps in (0.0, 1e-15, 1e-13, 1e-11, 1e-9):  # collinear and near it
            x = rng.random(n)
            yield np.stack([x, 0.2 + 0.6 * x + eps * rng.standard_normal(n)], axis=1)
    # planar-audit's delaunay-200 input at seed 12, which loses a hull edge
    yield np.random.default_rng([12, 43]).random((200, 2))
    # planar-audit's n = 200 and n = 400 clouds at two seeds: the live
    # triangle storage doubles several times
    for seed in (0, 1):
        for tag, n in ((43, 200), (46, 400)):
            yield np.random.default_rng([seed, tag]).random((n, 2))
    yield ring_then_center()


def ring_then_center(k=11, radius=100.0):
    """A regular k-gon, then its center.  Every triangle's circumcircle is
    the ring's, so at this radius the in-circumcircle tests are rounding
    noise above the tolerance; inserting the center evicts two more
    triangles than its cavity gives back."""
    theta = np.arange(k) * 2.0 * pi / k
    return np.vstack([radius * np.stack([np.cos(theta), np.sin(theta)], axis=1), [0.0, 0.0]])


def test_in_circumcircle_rows_match_scalar_bitwise():
    # cavity decisions sit at the tolerance only rarely, so the packed
    # scan's bits are checked directly, near cocircular points included
    rng = np.random.default_rng(31)
    theta = rng.random((3, 500)) * 2.0 * pi
    abc = np.stack([np.cos(theta), np.sin(theta)], axis=1)  # (3, 2, m) on a circle
    abc[:, :, 250:] = rng.random((3, 2, 250))
    # one column per triangle, packed as delaunay packs it: rows
    # ax bx cx ay by cy picked by _PACK, and the point by _PACK // 3
    xy = abc.transpose(1, 0, 2).reshape(6, -1)[geometry._PACK]
    for p in (np.array([1.0, 0.0]), np.array([0.3, -0.2]), rng.random(2)):
        got = geometry._in_circle_packed(xy, p[geometry._PACK // 3, None])
        want = [scalar_in_circumcircle(*abc[:, :, t], p) for t in range(abc.shape[2])]
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


def test_delaunay_keeps_dead_slots_out_of_every_cavity(monkeypatch):
    # The ring's center evicts more triangles than its cavity gives back
    # (only because PREDICATE_TOL is absolute; relative or exact predicates,
    # ROADMAP item 1, will triangulate it right, and this test should then
    # take an input that still leaves a slot dead).  The two sites after
    # the center scan the dead columns: their determinant is NaN, never
    # bad, and the triangulation has the scalar loop's bits.
    pts = np.vstack([ring_then_center(), [[30.0, 7.0], [-20.0, -45.0]]])
    dets, real = [], geometry._in_circle_packed
    monkeypatch.setattr(geometry, "_in_circle_packed",
                        lambda xy, p18: dets.append(real(xy, p18)) or dets[-1])
    tri = delaunay(build_cloud(pts))
    assert any(np.isnan(d).any() for d in dets)
    got = (tri.triangles, tri.circumcenters, tri.circumradii)
    for g, w in zip(got, scalar_delaunay(build_cloud(pts))):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_delaunay_matches_scalar_loop_bitwise():
    for pts in equivalence_clouds():
        cloud = build_cloud(pts)
        try:
            want = scalar_delaunay(cloud)
        except GapError as e:
            with pytest.raises(GapError) as got:
                delaunay(cloud)
            assert (got.value.code, str(got.value)) == (e.code, str(e))
            continue
        tri = delaunay(cloud)
        got = (tri.triangles, tri.circumcenters, tri.circumradii)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# largest empty circle


def test_single_point_goes_to_corner():
    R, witness, kind = covering_radius_unit_square(build_cloud([[0.5, 0.5]]))
    assert R == pytest.approx(sqrt(0.5), rel=1e-15)
    assert kind == "corner"


def test_diagonal_pair():
    R, witness, kind = covering_radius_unit_square(
        build_cloud([[0.0, 0.0], [1.0, 1.0]]))
    assert R == pytest.approx(1.0, rel=1e-15)
    assert sorted(witness) == [0.0, 1.0]  # either off-diagonal corner


def test_four_corners_center_witness():
    R, witness, kind = covering_radius_unit_square(build_cloud(CORNERS))
    assert R == pytest.approx(sqrt(0.5), rel=1e-15)
    assert np.allclose(witness, [0.5, 0.5], atol=1e-12)
    assert kind == "voronoi-vertex"


def test_collinear_sites_still_measured():
    R, witness, kind = covering_radius_unit_square(
        build_cloud([[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]]))
    assert R == pytest.approx(sqrt(0.5), rel=1e-12)
    assert kind == "corner"


def test_witness_distance_equals_radius():
    for seed in (7, 8):
        rng = np.random.default_rng(seed)
        pts = rng.random((12, 2))
        R, witness, kind = covering_radius_unit_square(build_cloud(pts))
        nearest = np.sqrt(((pts - witness) ** 2).sum(axis=1)).min()
        assert nearest == pytest.approx(R, rel=1e-12)
        assert -1e-12 <= witness[0] <= 1 + 1e-12
        assert kind in ("voronoi-vertex", "boundary-intersection", "corner")


def test_radius_against_dense_grid():
    axis = np.linspace(0.0, 1.0, 301)
    gx, gy = np.meshgrid(axis, axis)
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    configs = [
        np.random.default_rng(1).random((7, 2)),
        np.random.default_rng(2).random((12, 2)),
        np.array([[0.0, 0.0], [1.0, 1.0]]),
        np.array([[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]]),
    ]
    for pts in configs:
        R, _, _ = covering_radius_unit_square(build_cloud(pts))
        diff = grid[:, None, :] - pts[None, :, :]
        grid_max = np.sqrt((diff * diff).sum(axis=-1)).min(axis=1).max()
        assert grid_max <= R + 1e-12  # grid points are legal candidates
        assert R - grid_max <= sqrt(2.0) / 600.0 + 1e-12  # grid pitch bound


def test_rejects_points_outside_square():
    with pytest.raises(GapError) as e:
        covering_radius_unit_square(build_cloud([[0.5, 0.5], [1.2, 0.3]]))
    assert e.value.code == "point-outside-square"
    with pytest.raises(GapError):
        gap_report_unit_square(build_cloud([[-0.1, 0.5], [0.5, 0.5]]))


def bisector_crossings(pts, i, j):
    """The crossings of the bisector of sites i and j with the sides x = 0,
    x = 1, y = 0, y = 1, in that order, as (axis, end, point): the side is
    where coordinate `axis` equals `end`."""
    mid = (pts[i] + pts[j]) / 2.0
    nx, ny = pts[j] - pts[i]
    if ny != 0.0:
        for x in (0.0, 1.0):
            y = mid[1] + (mid[0] - x) * nx / ny
            if 0.0 <= y <= 1.0:
                yield 0, x, (x, y)
    if nx != 0.0:
        for y in (0.0, 1.0):
            x = mid[0] + (mid[1] - y) * ny / nx
            if 0.0 <= x <= 1.0:
                yield 1, y, (x, y)


def reference_bisector_candidates(pts):
    """Every pairwise bisector's boundary crossings, as a plain per-pair loop."""
    out = [c for i, j in itertools.combinations(range(len(pts)), 2)
           for _, _, c in bisector_crossings(pts, i, j)]
    return np.array(out, dtype=float).reshape(-1, 2)


def reference_voronoi_crossings(pts):
    """The bisector crossings of pairs that no site is strictly nearer than
    at the exact crossing, on Fractions: the Voronoi edges' crossings."""
    exact = [(Fraction(x), Fraction(y)) for x, y in pts.tolist()]

    def sq(s, c):
        return (s[0] - c[0]) ** 2 + (s[1] - c[1]) ** 2

    out = []
    for i, j in itertools.combinations(range(len(pts)), 2):
        p, q = exact[i], exact[j]
        for axis, end, c in bisector_crossings(pts, i, j):
            at = [Fraction(end)] * 2
            o = 1 - axis
            at[o] = (p[o] + q[o]) / 2 + ((p[axis] + q[axis]) / 2 - at[axis]) * (
                q[axis] - p[axis]) / (q[o] - p[o])
            d = sq(p, at)
            if not any(sq(s, at) < d for s in exact):
                out.append(c)
    return np.array(out, dtype=float).reshape(-1, 2)


def reference_covering_radius(cloud, boundary=reference_bisector_candidates):
    """Candidates collected one by one, nearest sites from one full matrix;
    the boundary candidates are every bisector's crossings by default."""
    pts = cloud.points
    cands = [np.array(c) for c in CORNERS_IN_ORDER]
    kinds = ["corner"] * 4
    if cloud.n >= 3:
        try:
            tri = delaunay(cloud)
        except GapError as e:
            if e.code != "collinear-points":
                raise
            tri = None
        if tri is not None:
            for c in tri.circumcenters:
                if 0.0 <= c[0] <= 1.0 and 0.0 <= c[1] <= 1.0:
                    cands.append(c.copy())
                    kinds.append("voronoi-vertex")
    for c in boundary(pts):
        cands.append(c)
        kinds.append("boundary-intersection")
    cand = np.array(cands)
    diff = cand[:, None, :] - pts[None, :, :]
    nearest = np.sqrt((diff * diff).sum(axis=-1)).min(axis=1)
    best = int(np.argmax(nearest))
    return float(nearest[best]), cand[best], kinds[best]


def candidate_clouds():
    rng = np.random.default_rng(41)
    for n in (3, 10, 45, 120):
        yield rng.random((n, 2))
    for side in (2, 3, 5):  # axis-aligned pairs: nx == 0 or ny == 0
        axis = np.arange(side) / (side - 1)
        yield np.array(list(itertools.product(axis, axis)))
        yield 0.1 + 0.8 * np.array(list(itertools.product(axis, axis)))[
            rng.permutation(side * side)]
    yield np.round(rng.random((25, 2)) * 4) / 4  # shared coordinates, points on edges
    yield np.array([[0.25, 0.25], [0.75, 0.75]])  # bisector x + y = 1 meets two corners
    yield np.array([[0.25, 0.75], [0.75, 0.25], [0.5, 0.5]])  # collinear, y = x through corners
    yield np.array([[0.2, 0.5], [0.8, 0.5]])  # vertical bisector
    yield np.array([[0.5, 0.1], [0.5, 0.6]])  # horizontal bisector
    yield np.array([[0.1, 0.3], [0.4, 0.45], [0.7, 0.6], [1.0, 0.75]])  # collinear
    yield np.array([[0.5, 0.5]])


def lattice(k, n, seed):
    """n distinct points of the lattice with pitch 1/k over the square."""
    cells = np.random.default_rng(seed).choice((k + 1) ** 2, size=n, replace=False)
    return np.stack([cells // (k + 1), cells % (k + 1)], axis=1) / float(k)


def test_bisector_candidates_match_loop_bitwise():
    # lattices put three and more sites on one circle about a boundary point
    clouds = [*candidate_clouds(),
              *(lattice(k, n, seed) for k in (8, 10) for seed, n in enumerate((20, 45, 81)))]
    for pts in clouds:
        pts = build_cloud(pts).points
        want = reference_voronoi_crossings(pts)
        got = geometry._crossings(pts)
        assert got.shape == want.shape and got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_covering_radius_matches_reference():
    for pts in candidate_clouds():
        cloud = build_cloud(pts)
        R, witness, kind = covering_radius_unit_square(cloud)
        ref_R, ref_witness, ref_kind = reference_covering_radius(cloud)
        assert R.hex() == ref_R.hex()
        assert np.array_equal(witness.view(np.int64), ref_witness.view(np.int64))
        assert kind == ref_kind


@st.composite
def square_clouds(draw):
    """Points in the unit square: uniform, on the k/8 lattice (many tied
    candidates), in a thin horizontal strip, in clusters clipped to the
    boundary, on one line (no triangulation), or just 1 or 2 points."""
    kind = draw(st.sampled_from(["uniform", "lattice", "strip", "clusters",
                                 "collinear", "tiny"]))
    n = draw(st.integers(1, 2) if kind == "tiny" else st.integers(3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "lattice":
        cells = rng.choice(81, size=n, replace=False)
        return np.stack([cells // 9, cells % 9], axis=1) / 8.0
    if kind == "strip":
        width = draw(st.sampled_from([1e-9, 1e-3, 0.05]))
        return np.stack([rng.random(n), rng.random() * (1.0 - width)
                         + width * rng.random(n)], axis=1)
    if kind == "clusters":
        centers = rng.random((3, 2))
        return np.clip(centers[rng.integers(0, 3, n)]
                       + rng.normal(0.0, 0.1, (n, 2)), 0.0, 1.0)
    if kind == "collinear":
        t = rng.random(n)
        return draw(st.sampled_from([np.stack([t, t], axis=1),
                                     np.stack([t, 1.0 - t], axis=1),
                                     np.stack([t, np.full(n, rng.random())], axis=1)]))
    return rng.random((n, 2))


def test_pruned_scan_matches_reference(monkeypatch):
    kinds = set()

    @settings(max_examples=150, deadline=None)
    @given(pts=square_clouds(), budget=st.sampled_from([1, DEFAULT_BLOCK]))
    def check(pts, budget):
        # a budget of one entry gives every candidate its own distance block
        monkeypatch.setattr(metric, "_BLOCK", budget)
        cloud = build_cloud(pts)
        R, witness, kind = covering_radius_unit_square(cloud)
        # R is every bisector crossing's maximum; the witness and kind are
        # the first maximum over the Voronoi crossings, which on exact ties
        # may come after another bisector's crossing of the same score
        assert R.hex() == reference_covering_radius(cloud)[0].hex()
        ref_R, ref_witness, ref_kind = reference_covering_radius(
            cloud, reference_voronoi_crossings)
        assert (R.hex(), witness.tobytes(), kind) == (
            ref_R.hex(), ref_witness.tobytes(), ref_kind)
        kinds.add(kind)

    check()
    assert kinds == {"corner", "voronoi-vertex", "boundary-intersection"}


def test_rounded_lattice_radius_is_the_voronoi_crossings_maximum():
    # non-Voronoi pairs cross the boundary at nearly cocircular points of a
    # rounded lattice, and their own roundings may score a few ulps higher:
    # one ulp here
    cloud = build_cloud(lattice(10, 12, 42))
    R = covering_radius_unit_square(cloud)[0]
    assert R.hex() == reference_covering_radius(cloud, reference_voronoi_crossings)[0].hex()
    superset = reference_covering_radius(cloud)[0]
    assert R != superset and abs(R - superset) <= 4 * np.spacing(superset)


def voronoi_crossing_count(pts):
    """How many bisector crossings no site is nearer than their own pair
    at, by floats against every site's distance, checked free of near ties."""
    i, j = np.triu_indices(len(pts), 1)
    p, d = pts[i], pts[j] - pts[i]
    mid = (pts[i] + pts[j]) / 2.0
    count = 0
    for axis, end in itertools.product((0, 1), (0.0, 1.0)):
        o = 1 - axis
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = mid[:, o] + (mid[:, axis] - end) * d[:, axis] / d[:, o]
        keep = (d[:, o] != 0.0) & (0.0 <= t) & (t <= 1.0)
        c = np.empty((int(keep.sum()), 2))
        c[:, axis], c[:, o] = end, t[keep]
        own = np.hypot(*(c - p[keep]).T)
        gap = own - metric._pairwise(c, pts, np.min)
        assert not ((1e-12 < gap) & (gap < 1e-6)).any()
        count += int((gap <= 1e-12).sum())
    return count


@pytest.mark.parametrize("n", [200, 400])
def test_boundary_crossings_match_reference_count(n):
    pts = build_cloud(np.random.default_rng(0).random((n, 2))).points
    got = geometry._crossings(pts).shape[0]
    assert got == voronoi_crossing_count(pts) <= 4 * (n - 1)


def test_boundary_crossings_are_linear_in_n():
    # all 319,600 bisectors cross the boundary 639,200 times here; the
    # reference count above agrees at 800 too, in about 2 s
    pts = build_cloud(np.random.default_rng(0).random((800, 2))).points
    assert geometry._crossings(pts).shape[0] == 106 <= 4 * (800 - 1)


@pytest.mark.parametrize("n, ceiling", [(150, 1.6e6), (400, 1.75e6)])
def test_covering_radius_peak_memory(n, ceiling):
    cloud = build_cloud(np.random.default_rng(0).random((n, 2)))
    covering_radius_unit_square(cloud)  # first calls of some numpy routines allocate
    tracemalloc.start()
    try:
        covering_radius_unit_square(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the exact scan's 2^16-entry kernel block (0.5 MB) sets the peak (0.89
    # and 1.26 MB) beside the candidates and the triangulation, both O(n).
    # Making every bisector's crossings at once would take 2.11 and 15.0 MB
    assert peak < ceiling


def test_gap_report_peak_memory():
    cloud = build_cloud(np.random.default_rng(9).random((150, 2)))
    tracemalloc.start()
    try:
        gap_report_unit_square(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every bisector crossing's (candidates, n) distance matrix alone
    # would be about 27 MB here
    assert peak < 8e6


def test_gap_report_memory_is_linear_at_n4000():
    # first calls of some numpy routines allocate
    gap_report_unit_square(build_cloud(np.random.default_rng(1).random((50, 2))))
    cloud = build_cloud(np.random.default_rng(0).random((4000, 2)))
    tracemalloc.start()
    try:
        rep = gap_report_unit_square(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 4.7 MB, mostly the triangulation's and the candidates' O(n); all
    # 8 million pairs' crossings at once would take about 1.5 GB (94 bytes
    # a pair), and the closest pair's (n, n) block 128 MB
    assert peak < 16e6
    assert 0.0 < rep.r < rep.R


# ---------------------------------------------------------------------------
# square gap report


def test_four_corners_gap_report():
    rep = gap_report_unit_square(build_cloud(CORNERS))
    assert rep.r == 0.5
    assert rep.R == pytest.approx(sqrt(0.5), rel=1e-15)
    assert rep.gap_ratio == pytest.approx(sqrt(2.0), rel=1e-15)
    assert rep.closest_pair == (0, 1)
    assert rep.candidate_kind == "voronoi-vertex"


def test_closest_pair_matches_triu_scan_on_lattices():
    rng = np.random.default_rng(23)
    for side in (2, 3, 5, 8):
        axis = np.arange(side) / (side - 1)
        pts = np.array(list(itertools.product(axis, axis)))
        for order in (np.arange(len(pts)), rng.permutation(len(pts))):
            cloud = build_cloud(pts[order])
            p = cloud.points
            diff = p[:, None, :] - p[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=-1))
            iu = np.triu_indices(cloud.n, 1)
            pos = int(np.argmin(dist[iu]))
            rep = gap_report_unit_square(cloud)
            assert rep.closest_pair == (int(iu[0][pos]), int(iu[1][pos]))
            assert rep.r == dist[iu][pos] / 2.0


def test_gap_report_needs_two_points():
    with pytest.raises(GapError):
        gap_report_unit_square(build_cloud([[0.5, 0.5]]))


# ---------------------------------------------------------------------------
# angle audit


def test_jittered_lattice_audit_clean():
    audit = delaunay_angle_audit(jittered_lattice(0))
    assert audit.violations == ()
    assert audit.gap_ratio < 2.0
    assert len(audit.interior_triangles) > 0
    assert sin_ok(audit)


def sin_ok(audit):
    if audit.min_interior_angle is None:
        return True
    return np.sin(audit.min_interior_angle) >= 1.0 / audit.gap_ratio - 1e-9


def test_audit_theta_bound_definition():
    audit = delaunay_angle_audit(jittered_lattice(1))
    assert audit.theta_bound == pytest.approx(
        asin(min(1.0, 1.0 / audit.gap_ratio)), rel=1e-15)
    if audit.gap_ratio <= 2.0:
        # g <= 2 pins every interior angle inside [30, 120] degrees
        assert audit.theta_bound >= pi / 6.0 - 1e-12


def test_audit_vacuous_when_no_interior_triangles():
    audit = delaunay_angle_audit(build_cloud(CORNERS))
    assert audit.interior_triangles == ()
    assert audit.min_interior_angle is None
    assert audit.violations == ()


def test_audit_random_clouds_never_violate():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        cloud = build_cloud(rng.random((30, 2)))
        audit = delaunay_angle_audit(cloud)
        assert audit.violations == ()
        assert sin_ok(audit)


def reference_angles(a, b, c):
    """A triangle's angles at a, b and c, one BLAS dot and two norms each."""
    def ang(p, q, s):
        u, v = q - p, s - p
        cosv = (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        return float(np.arccos(np.clip(cosv, -1.0, 1.0)))
    return np.array([ang(a, b, c), ang(b, c, a), ang(c, a, b)])


def reference_audit(cloud):
    """The audit as a square report followed by a second triangulation and
    a per-triangle, per-angle loop."""
    rep = gap_report_unit_square(cloud)
    tri = delaunay(cloud)
    theta = asin(min(1.0, 1.0 / rep.gap_ratio))
    pts = tri.sites
    boundary_dist = np.minimum.reduce([pts[:, 0], 1.0 - pts[:, 0],
                                       pts[:, 1], 1.0 - pts[:, 1]])
    interior, violations, min_angle = [], [], None
    for t, (ia, ib, ic) in enumerate(tri.triangles):
        if min(boundary_dist[ia], boundary_dist[ib], boundary_dist[ic]) < rep.R:
            continue
        interior.append(t)
        angles = reference_angles(pts[ia], pts[ib], pts[ic])
        lo, hi = float(angles.min()), float(angles.max())
        if min_angle is None or lo < min_angle:
            min_angle = lo
        if lo < theta - 1e-9 or hi > pi - 2.0 * theta + 1e-9:
            violations.append((t, lo, hi))
    return geometry.AngleAuditReport(
        gap_ratio=rep.gap_ratio, covering_radius=rep.R, theta_bound=theta,
        interior_triangles=tuple(interior), min_interior_angle=min_angle,
        violations=tuple(violations))


def audit_clouds():
    """planar-audit's audit clouds at seeds 0 and 1, and two jittered lattices."""
    for seed in (0, 1):
        for tag, n in ((40, 50), (41, 100), (42, 150)):
            yield build_cloud(np.random.default_rng([seed, tag]).random((n, 2)))
    yield jittered_lattice(0)
    yield jittered_lattice(1)


def test_audit_matches_reference_and_triangulates_once(monkeypatch):
    clouds = [*audit_clouds(), jittered_lattice(2), build_cloud(CORNERS)]
    clouds += [build_cloud(pts) for pts in candidate_clouds() if len(pts) >= 3]
    want = []
    for cloud in clouds:
        try:
            want.append(reference_audit(cloud))
        except GapError as e:
            want.append((e.code, str(e)))
    calls = []
    real = geometry.delaunay
    monkeypatch.setattr(geometry, "delaunay",
                        lambda cloud: calls.append(cloud) or real(cloud))
    for cloud, ref in zip(clouds, want):
        calls.clear()
        if isinstance(ref, tuple):
            with pytest.raises(GapError) as got:
                delaunay_angle_audit(cloud)
            assert (got.value.code, str(got.value)) == ref
        else:
            assert delaunay_angle_audit(cloud) == ref  # float == is bitwise on angles
        assert len(calls) == 1
