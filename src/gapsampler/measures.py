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
exact.  Both counts come from one O(n^2) prefix sum over the points'
occupancy of the candidate grid.

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

import numpy as np

from .errors import GapError
from .geometry import _validate_in_square
from .metric import PointCloud

SQUARE_FLOOR_C = 2.0 ** 1.5 / 3.0 ** 0.75


@dataclass(frozen=True)
class DiscrepancyReport:
    d_star: float
    witness: tuple  # (x, y, kind) with kind in {closed, open-limit}
    n: int


def _square_points(cloud: PointCloud) -> np.ndarray:
    if cloud.dim != 2:
        raise GapError("invalid-dimension", f"star discrepancy needs d=2, got {cloud.dim}")
    _validate_in_square(cloud.points)
    return cloud.points


def _counts(pts: np.ndarray) -> tuple:
    """(xs, ys, closed, open_): the candidate axes (unique coordinates and 1)
    and count[i, j] = #{p : px (<=|<) xs[i] and py (<=|<) ys[j]}.

    Each point sits on one cell of the (xs, ys) grid; closed is the 2-D
    prefix sum of that occupancy, and since px < xs[i] exactly when
    px <= xs[i-1], open_ is closed shifted by one row and one column.
    """
    xs = np.unique(np.append(pts[:, 0], 1.0))
    ys = np.unique(np.append(pts[:, 1], 1.0))
    closed = np.zeros((xs.size, ys.size), dtype=np.int64)
    np.add.at(closed, (np.searchsorted(xs, pts[:, 0]),
                       np.searchsorted(ys, pts[:, 1])), 1)
    np.cumsum(closed, axis=0, out=closed)
    np.cumsum(closed, axis=1, out=closed)
    open_ = np.zeros_like(closed)
    open_[1:, 1:] = closed[:-1, :-1]
    return xs, ys, closed, open_


def star_discrepancy(cloud: PointCloud) -> DiscrepancyReport:
    """Exact star discrepancy of points in the closed unit square."""
    pts = _square_points(cloud)
    n = pts.shape[0]
    xs, ys, closed, open_ = _counts(pts)
    area = xs[:, None] * ys[None, :]
    over = closed / n                 # maximized by closed counts
    over -= area
    del closed
    under = np.subtract(area, open_ / n, out=area)  # by open-limit counts
    oi = np.unravel_index(int(np.argmax(over)), over.shape)
    ui = np.unravel_index(int(np.argmax(under)), under.shape)
    if over[oi] >= under[ui]:
        d_star = float(over[oi])
        witness = (float(xs[oi[0]]), float(ys[oi[1]]), "closed")
    else:
        d_star = float(under[ui])
        witness = (float(xs[ui[0]]), float(ys[ui[1]]), "open-limit")
    return DiscrepancyReport(d_star=d_star, witness=witness, n=n)


def gap_based_discrepancy_bound(cloud: PointCloud, r: float, R: float) -> float:
    """max(sup A, sup B) over the candidate grid; never below 0.

    A applies where some count convention puts count/n at or above the
    area, B where one puts it at or below; both conditions are checked with
    the closed and the open-limit counts.
    """
    pts = _square_points(cloud)
    if not r > 0:
        raise GapError("invalid-radius", f"minimum gap must be positive, got {r}")
    if not R > 0:
        raise GapError("invalid-radius", f"covering radius must be positive, got {R}")
    n = pts.shape[0]
    xs, ys, closed, open_ = _counts(pts)
    area = xs[:, None] * ys[None, :]
    n_area = n * area
    a_ok = closed >= n_area
    a_ok |= open_ >= n_area
    b_ok = closed <= n_area
    b_ok |= open_ <= n_area
    del closed, open_, n_area
    s2 = xs[:, None] ** 2 + ys[None, :] ** 2
    a_vals = s2 / (r * r * n)
    a_vals -= area
    best = max(0.0, float(a_vals.max(where=a_ok, initial=-np.inf)))
    b_vals = np.divide(s2, 4.0 * R * R * n, out=s2)
    np.subtract(area, b_vals, out=b_vals)
    return max(best, float(b_vals.max(where=b_ok, initial=-np.inf)))


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
        k = int(k)
        if k < 2:
            raise GapError("k-out-of-range", f"unit-square bound needs k >= 2, got {k}")
        return 2.0 / sqrt(3.0) - SQUARE_FLOOR_C / sqrt(k)
    raise GapError("unknown-space", f"unknown space kind {kind!r}")
