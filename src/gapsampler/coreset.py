"""Static grid coreset and (1+eps)-optimal sampling by branch-and-bound search.

The pipeline: run farthest-point insertion to learn a covering radius
R_P1, lay an axis-aligned grid whose cell side is

    eps2 = eps1 * R_P1 / (2 sqrt(d)),   eps1 = eps / (3 + 2 eps),

keep one representative site per nonempty cell, and search the coreset
for the first k-subset with the smallest gap ratio.  The search walks the
subsets in lexicographic order and skips those that a floor on every
covering radius (Gonzalez 1985, from farthest-point insertion on the
coreset) proves worse than the best so far, or than the farthest-point
sample itself, so it returns the exhaustive answer; its guard still counts
all C(n, k) subsets.  Cells are small enough that swapping any site for
its representative moves distances by at most eps1 * R_P1 / 2, which is
what makes the final sample's gap ratio over the full space land within
(1 + eps) of optimal for eps < 1/2.

The cell rule (grid_cells on rows, _point_cell on the one point that
streaming ingest files at a time) and the representative search
(search_coreset) serve streaming too.  The search measures r and R
inside the coreset, its own metric space; the end-to-end report
re-measures the winner over the full input, which is what the (1 + eps)
guarantee speaks about.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, inf, sqrt
from typing import Optional

import numpy as np

from .errors import GapError
from .fpi import farthest_point_insertion, greedy_batch
from .metric import (TRIANGLE_TOL, FiniteMetric, PointCloud, _index, _k, _real, _size,
                     build_cloud, build_euclidean, gap_ratio, make_sample)
from .oracle import _check_guard, _min_gap_ratio

ENUM_GUARD = 50_000_000


@dataclass(frozen=True)
class EpsParams:
    """Derived grid parameters for a user eps in (0, 1/2)."""

    eps: float
    eps1: float  # eps / (3 + 2 eps), always < 1/5
    eps2: float  # eps1 * R_P1 / (2 sqrt(d)); the grid cell side
    d: int
    R_P1: float  # covering radius of the farthest-point k-sample


@dataclass(frozen=True)
class GridCoreset:
    """Axis-aligned grid keeping one representative site per nonempty cell.

    ``cells`` maps integer cell indices (d-tuples) to the representative's
    site index.  Cell membership is by half-open boxes
    [origin + c*side, origin + (c+1)*side).
    """

    origin: np.ndarray  # (d,)
    cell_side: float
    cells: dict

    @property
    def size(self) -> int:
        return len(self.cells)

    def representatives(self) -> list:
        """Representative site indices, ascending."""
        return sorted(self.cells.values())


def static_params(eps: float, R_P1: float, d: int) -> EpsParams:
    eps = _real(eps, "eps-out-of-range", "eps")
    if not 0.0 < eps < 0.5:
        raise GapError("eps-out-of-range",
                       f"eps must lie in (0, 1/2), got {eps}")
    R_P1 = _real(R_P1, "invalid-radius", "covering radius")
    if not R_P1 > 0:
        raise GapError("invalid-radius", f"covering radius must be positive, got {R_P1}")
    if R_P1 == inf:  # the squares overflowed; no grid has finite cells
        raise GapError("distance-overflow", "the covering radius overflows float64: "
                       "the points are too far apart")
    d = _size(d, "invalid-dimension", "dimension", 1)
    eps1 = eps / (3.0 + 2.0 * eps)
    eps2 = eps1 * R_P1 / (2.0 * sqrt(d))
    return EpsParams(eps=eps, eps1=eps1, eps2=eps2, d=d, R_P1=R_P1)


def grid_cells(points: np.ndarray, origin, side: float) -> list:
    """Cells floor((p - origin) / side) of the rows p of ``points`` (n, d),
    as d-tuples of Python ints.  Raises grid-overflow when a quotient is
    not finite or reaches 2**53 in magnitude: past that, float rounding
    moves points between cells.  An inf or NaN quotient raises that error,
    not a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        cells = np.floor((points - origin) / side)
        ok = (np.abs(cells) < 2 ** 53).all()  # False on nan and inf
    if not ok:
        raise _grid_overflow(side)
    return list(map(tuple, cells.astype(np.int64).tolist()))


def _point_cell(p, o, side: float) -> tuple:
    """grid_cells' cell of one point p, with p and o sequences of floats:
    the same quotient and floor, on Python floats."""
    try:  # floor() refuses nan and inf
        cell = tuple([floor((u - v) / side) for u, v in zip(p, o)])
    except (ValueError, OverflowError):
        cell = (2 ** 53,)
    if max(map(abs, cell)) < 2 ** 53:
        return cell
    raise _grid_overflow(side)


def _grid_overflow(side: float) -> GapError:
    return GapError("grid-overflow", f"a cell index at cell side {side:g} is not "
                    "finite or reaches 2**53; the points span too many cells")


def build_grid_coreset(cloud: PointCloud, cell_side: float,
                       seed: Optional[int] = None) -> GridCoreset:
    """Grid anchored at the bounding-box minimum; half-open cells.

    Without a seed the representative of a cell is its lowest-index member;
    with a seed, an integer >= 0, it is a uniform choice per cell (fixed
    seed, fixed result).
    """
    cell_side = _real(cell_side, "invalid-cell-side", "cell side")
    if not cell_side > 0:
        raise GapError("invalid-cell-side", f"cell side must be positive, got {cell_side}")
    if seed is not None and _index(seed, "invalid-seed", "seed") < 0:
        raise GapError("invalid-seed", f"seed {seed} is negative")
    origin = cloud.points.min(axis=0)
    members: dict = {}
    for i, c in enumerate(grid_cells(cloud.points, origin, cell_side)):
        members.setdefault(c, []).append(i)
    if seed is None:  # members are in index order
        cells = {c: idxs[0] for c, idxs in members.items()}
    else:
        rng = np.random.default_rng(int(seed))
        cells = {c: members[c][int(rng.integers(len(members[c])))]
                 for c in sorted(members)}
    return GridCoreset(origin=origin.copy(), cell_side=cell_side, cells=cells)


def best_k_subset(coreset_metric: FiniteMetric, k: int,
                  guard: int = ENUM_GUARD) -> tuple:
    """The first k-subset of a (coreset) metric with the minimum gap ratio.

    Enumeration is lexicographic and the first subset attaining the minimum
    gap ratio wins, so results are replayable.  r and R are both measured
    within the given metric.  The walk is branch and bound: it skips the
    prefixes and pairs whose minimum pair distance proves, with the floor
    of _radius_floor, that no subset through them can reach the best ratio
    so far.  The bound starts at the gap ratio of the farthest-point sample
    (the seed of _radius_floor), so the far-pair graph of the subset kernel
    prunes from the first block on.  Its answer is the exhaustive one, bit
    for bit, since the first optimal subset never exceeds the seed.  The
    guard still counts all C(n, k) subsets and is checked before any
    distance is read; then a distance past float64's range is refused
    before the search.
    """
    k = _k(k)
    if coreset_metric.n < k:
        raise GapError("coreset-too-small", f"coreset has {coreset_metric.n} cells "
                       f"but k={k}; use a smaller eps")
    _check_guard(coreset_metric.n, k, guard)
    dist = coreset_metric.dist
    if not np.isfinite(dist.max()):  # distances are >= 0; a NaN max is NaN
        raise GapError("distance-overflow", "two coreset sites are too far apart: "
                       "a squared distance overflows float64")
    best, _ = _min_gap_ratio(dist, k, *_radius_floor(coreset_metric, k))
    sample = make_sample(best, coreset_metric.n)
    return sample, gap_ratio(coreset_metric, sample)


def _radius_floor(m: FiniteMetric, k: int) -> tuple:
    """(floor, seed) from one farthest-point insertion run: a floor on the
    covering radius, read from m.dist, of every k-subset of m (Gonzalez
    1985), and the seed R / (q / 2) of the run's k-sample, its gap ratio in
    m.dist with the walk's own operands, so at least the minimum ratio.  A
    q of 0 (an underflowed distance) gives an inf or nan seed, with which
    the walk prunes less, never wrongly.

    FPI's k sites and the site farthest from them are k + 1 sites pairwise
    at least R_FPI apart: the start pair realizes the diameter, and each
    inserted site is R_before >= R_FPI from the earlier ones.  Any k sites
    S leave two of them, x and y, with one nearest site c in S, so in a
    metric R_FPI <= d(x, y) <= d(x, c) + d(c, y) <= 2 R(S).  Read from dist
    the triangle inequality holds only within tolerances:

    - build_explicit admits d(x, y) <= d(x, c) + d(c, y) + TRIANGLE_TOL,
      up to the rounding of its audit's sum and difference, so an
      explicit metric's absolute tolerance is tol = TRIANGLE_TOL;
    - each _pairwise entry is within (d/2 + 2) 2**-53 of its true length,
      relatively, and 1e-150 absolutely (see _pairwise), so the inequality
      holds within a relative (d + 4) 2**-53 and an absolute 3e-150; any
      other metric takes tol = 1e-149, which keeps the floor independent
      of the scale of a cloud;
    - a graph closed in float64 holds sums of at most n - 1 edges; each
      entry is within (n - 2) 2**-53, relatively, of a walk's length, and
      the inequality holds within a relative 2 (n - 2) 2**-53.

    With margin = (n + d + 8) 2**-52 (d = 0 for a metric without points),
    every case gives d(x, y) <= (d(x, c) + d(c, y)) (1 + margin - 3 2**-53)
    + tol (1 + 2**-52), so

        floor = (R_FPI - tol (1 + margin)) / 2 * (1 - margin)

    is at most R(S) for every S, its own roundings included.  A floor at
    or below 0 prunes nothing.
    """
    _, q, R, _ = greedy_batch(m.dist[None], k)
    d = 0 if m.points is None else m.points.shape[1]
    margin = (m.n + d + 8) * 2.0 ** -52
    tol = TRIANGLE_TOL if m.source == "explicit" else 1e-149
    floor = (float(R[0, -1]) - tol * (1.0 + margin)) / 2.0 * (1.0 - margin)
    with np.errstate(divide="ignore", invalid="ignore"):
        return floor, R[0, -1] / (q[0, -1] / 2.0)


def search_coreset(reps: list, pts: np.ndarray, k: int, n: int, guard: int) -> tuple:
    """(Sample of input indices out of n, GapReport inside the coreset) of the
    best k-subset of the coreset sites pts, row i standing for reps[i]."""
    local_sample, report = best_k_subset(build_euclidean(build_cloud(pts)), k,
                                         guard=guard)
    return make_sample([reps[i] for i in local_sample.indices], n), report


def approx_sample(cloud: PointCloud, k: int, eps: float,
                  seed: Optional[int] = None, guard: int = ENUM_GUARD) -> tuple:
    """End-to-end (1+eps)-approximate k-sample of a point cloud.

    Returns (Sample over the full cloud, GapReport over the full cloud,
    EpsParams, GridCoreset).  The k = n corner (covering radius of the
    farthest-point sample is 0, so no grid parameters exist) short-circuits
    to the exact answer, the whole site set, with params and coreset None.
    """
    k = _k(k, cloud.n)
    metric_full = build_euclidean(cloud)
    if k == cloud.n:
        sample = make_sample(range(cloud.n), cloud.n)
        return sample, gap_ratio(metric_full, sample), None, None
    _, trace = farthest_point_insertion(metric_full, k)
    params = static_params(eps, trace.final.R, cloud.dim)
    grid = build_grid_coreset(cloud, params.eps2, seed=seed)
    reps = grid.representatives()
    sample, _ = search_coreset(reps, cloud.points[reps], k, cloud.n, guard)
    return sample, gap_ratio(metric_full, sample), params, grid
