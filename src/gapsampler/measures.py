"""Uniformity measures: exact 2-D star discrepancy, a gap-based bound on
it, and closed-form gap-ratio floors.

Star discrepancy compares, over every origin-anchored axis-parallel
rectangle [0,x] x [0,y], the rectangle's area against the fraction of
sample points it holds; the supremum of the deviation is attained (or
approached) with x and y drawn from the point coordinates or 1.  Each
candidate rectangle is scored twice: with the closed count (<= x, <= y)
for deviations where the count overshoots the area, and with the open-limit
count (< x, < y) for rectangles shrunk infinitesimally below a point, where
the count undershoots.  That pair of evaluations makes the finite scan
exact.  Both counts come from a prefix sum over the points' occupancy of
the candidate grid, swept in blocks of rows: O(n^2) time, and O(n) memory
since no more than one block of the grid is held at a time.

The gap-based bound converts a gap report (r, R) into a discrepancy bound:
a rectangle with count/n >= xy cannot deviate by more than
A(x,y) = (x^2+y^2)/(r^2 n) - xy (disjoint r-balls pack the rectangle's
quarter-ellipse), and one with count/n <= xy by more than
B(x,y) = xy - (x^2+y^2)/(4 R^2 n) (2R-side cells must all be hit).  The
reported bound is max(sup A, sup B) over the same candidate grid, clamped
below at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Iterator

import numpy as np

from .errors import GapError
from .geometry import _require_2d, _validate_in_square
from .metric import PointCloud, _k, _real

SQUARE_FLOOR_C = 2.0 ** 1.5 / 3.0 ** 0.75
_BLOCK = 1 << 15  # cells per row block of the count sweep


@dataclass(frozen=True)
class DiscrepancyReport:
    d_star: float
    witness: tuple  # (x, y, kind) with kind in {closed, open-limit}
    n: int


def _sorted_unique(v: np.ndarray) -> np.ndarray:
    """np.unique(v) for a finite 1-D float array, by np.unique's own sort
    and neighbour rule, without the np.ma check whose first call imports
    numpy.ma.  That import is a one-time cost per process which the bench
    memory pass would charge to a request, since it does not warm numpy
    up; once it does, np.unique can come back (ROADMAP item 12)."""
    v = np.sort(v)
    return v[np.r_[True, v[1:] != v[:-1]]]


def _count_blocks(pts: np.ndarray) -> Iterator[tuple]:
    """The candidate grid's counts, one block of rows at a time.

    The candidate axes xs and ys are the unique coordinates and 1, and
    count[i, j] = #{p : px (<=|<) xs[i] and py (<=|<) ys[j]}.  Yields
    (xb, ys, closed, open_) for each block of max(1, _BLOCK // |ys|) rows,
    in order, with xb the block's xs as a column and both counts int64.

    Each point sits on one cell of the (xs, ys) grid, so closed is the 2-D
    prefix sum of that occupancy: a block's rows are the carried last row
    of the previous block plus the prefix sums of the block's occupancy.
    Since px < xs[i] exactly when px <= xs[i-1], open_ is closed shifted by
    one row and one column, its first row taken from the carried row.
    Memory is O(n + _BLOCK); the points are binned once, sorted by cell.
    """
    xs = _sorted_unique(np.append(pts[:, 0], 1.0))
    ys = _sorted_unique(np.append(pts[:, 1], 1.0))
    my = ys.size
    cells = np.sort(np.searchsorted(xs, pts[:, 0]) * my + np.searchsorted(ys, pts[:, 1]))
    rows = max(1, _BLOCK // my)
    carry = np.zeros(my, dtype=np.int64)
    for lo in range(0, xs.size, rows):
        hi = min(lo + rows, xs.size)
        a, b = np.searchsorted(cells, (lo * my, hi * my))
        closed = np.bincount(cells[a:b] - lo * my, minlength=(hi - lo) * my)
        closed = closed.astype(np.int64, copy=False).reshape(hi - lo, my)
        np.cumsum(closed, axis=1, out=closed)
        np.cumsum(closed, axis=0, out=closed)
        closed += carry
        open_ = np.zeros_like(closed)
        open_[0, 1:] = carry[:-1]
        open_[1:, 1:] = closed[:-1, :-1]
        carry = closed[-1].copy()
        yield xs[lo:hi, None], ys, closed, open_


def _first_max(vals: np.ndarray, xb: np.ndarray, ys: np.ndarray, best: tuple) -> tuple:
    """(value, x, y) of vals' first maximum, row-major, if it is strictly
    above best's value; else best.  Over the blocks in order this keeps
    the first maximum of the whole grid."""
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    if vals[i, j] > best[0]:
        return float(vals[i, j]), float(xb[i, 0]), float(ys[j])
    return best


def star_discrepancy(cloud: PointCloud) -> DiscrepancyReport:
    """Exact star discrepancy of points in the closed unit square.

    One sweep over the candidate grid in blocks of rows: O(n^2) time and
    O(n) memory.  The witness is the first maximizing rectangle in
    row-major order (x, then y), the closed kind winning a tie.
    """
    pts = _require_2d(cloud)
    _validate_in_square(pts)
    n = pts.shape[0]
    over = under = (-np.inf, None, None)
    for xb, ys, closed, open_ in _count_blocks(pts):
        area = xb * ys
        vals = closed / n                 # maximized by closed counts
        vals -= area
        over = _first_max(vals, xb, ys, over)
        vals = np.subtract(area, open_ / n, out=area)  # by open-limit counts
        under = _first_max(vals, xb, ys, under)
    if over[0] >= under[0]:
        return DiscrepancyReport(d_star=over[0], witness=over[1:] + ("closed",), n=n)
    return DiscrepancyReport(d_star=under[0], witness=under[1:] + ("open-limit",), n=n)


def gap_based_discrepancy_bound(cloud: PointCloud, r: float, R: float) -> float:
    """max(sup A, sup B) over the candidate grid; never below 0.

    A applies where some count convention puts count/n at or above the
    area, B where one puts it at or below; both conditions are checked with
    the closed and the open-limit counts.  One sweep over the grid in
    blocks of rows: O(n^2) time and O(n) memory.
    """
    pts = _require_2d(cloud)
    _validate_in_square(pts)
    r = _real(r, "invalid-radius", "minimum gap")
    if not r > 0:
        raise GapError("invalid-radius", f"minimum gap must be positive, got {r}")
    R = _real(R, "invalid-radius", "covering radius")
    if not R > 0:
        raise GapError("invalid-radius", f"covering radius must be positive, got {R}")
    n = pts.shape[0]
    sup_a = sup_b = -np.inf
    for xb, ys, closed, open_ in _count_blocks(pts):
        area = xb * ys
        n_area = n * area
        a_ok = closed >= n_area
        a_ok |= open_ >= n_area
        b_ok = closed <= n_area
        b_ok |= open_ <= n_area
        s2 = xb ** 2 + ys ** 2
        a_vals = s2 / (r * r * n)
        a_vals -= area
        sup_a = max(sup_a, float(a_vals.max(where=a_ok, initial=-np.inf)))
        b_vals = np.divide(s2, 4.0 * R * R * n, out=s2)
        np.subtract(area, b_vals, out=b_vals)
        sup_b = max(sup_b, float(b_vals.max(where=b_ok, initial=-np.inf)))
    return max(max(0.0, sup_a), sup_b)


def analytic_bounds(kind: str, k=None) -> float:
    """Closed-form gap-ratio floors.

    graph: 2/3 for connected unweighted graph metrics.
    unit-square: 2/sqrt(3) - C/sqrt(k), C = 2^(3/2)/3^(3/4), needs k >= 2.
    path-connected: 1 for any path-connected space.
    """
    name = str(kind).replace("_", "-")
    if name == "graph":
        return 2.0 / 3.0
    if name == "path-connected":
        return 1.0
    if name == "unit-square":
        if k is None:
            raise GapError("missing-k", "unit-square bound needs k")
        return 2.0 / sqrt(3.0) - SQUARE_FLOOR_C / sqrt(_k(k))
    raise GapError("unknown-space", f"unknown space kind {kind!r}")
