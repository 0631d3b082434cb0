"""Static grid coreset and (1+eps)-optimal sampling by exhaustive search.

The pipeline: run farthest-point insertion to learn a covering radius
R_P1, lay an axis-aligned grid whose cell side is

    eps2 = eps1 * R_P1 / (2 sqrt(d)),   eps1 = eps / (3 + 2 eps),

keep one representative site per nonempty cell, and search the coreset
exhaustively for the k-subset with the smallest gap ratio.  Cells are small
enough that swapping any site for its representative moves distances by at
most eps1 * R_P1 / 2, which is what makes the final sample's gap ratio over
the full space land within (1 + eps) of optimal for eps < 1/2.

The cell rule (grid_cells) and the representative search (search_coreset)
serve streaming too.  The search measures r and R inside the coreset, its
own metric space; the end-to-end report re-measures the winner over the
full input, which is what the (1 + eps) guarantee speaks about.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, sqrt
from typing import Optional

import numpy as np

from .errors import GapError
from .fpi import farthest_point_insertion
from .metric import (FiniteMetric, PointCloud, build_cloud, build_euclidean,
                     gap_ratio, make_sample)
from .oracle import _min_gap_ratio

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
    eps = float(eps)
    if not 0.0 < eps < 0.5:
        raise GapError("eps-out-of-range",
                       f"eps must lie in (0, 1/2), got {eps}")
    if not R_P1 > 0:
        raise GapError("invalid-radius", f"covering radius must be positive, got {R_P1}")
    d = int(d)
    if d < 1:
        raise GapError("invalid-dimension", f"dimension must be >= 1, got {d}")
    eps1 = eps / (3.0 + 2.0 * eps)
    eps2 = eps1 * float(R_P1) / (2.0 * sqrt(d))
    return EpsParams(eps=eps, eps1=eps1, eps2=eps2, d=d, R_P1=float(R_P1))


def grid_cells(points, origin, side: float):
    """Cell floor((p - origin) / side) of a point (d,) as a d-tuple of Python
    ints, or the list of the cells of the rows of ``points`` (n, d).  Raises
    grid-overflow when a quotient is not finite or reaches 2**53 in
    magnitude: past that, float rounding moves points between cells.  An
    inf or NaN quotient raises that error, not a numpy warning.

    Rows are subtracted and divided in numpy; one point, a sequence of
    floats or a (d,) array, on Python floats with the same operations, so
    a point's cell does not depend on the form it arrives in."""
    if getattr(points, "ndim", 1) == 2:
        with np.errstate(over="ignore", invalid="ignore"):
            q = ((points - origin) / side).ravel().tolist()
        return list(zip(*[iter(_floors(q, side))] * points.shape[1]))
    o = origin.tolist() if isinstance(origin, np.ndarray) else origin
    p = points.tolist() if isinstance(points, np.ndarray) else points
    return tuple(_floors([(u - v) / side for u, v in zip(p, o)], side))


def _floors(quotients: list, side: float) -> list:
    """grid_cells' floor of each quotient, refusing what has no safe cell."""
    try:  # floor() refuses nan and inf
        flat = list(map(floor, quotients))
    except (ValueError, OverflowError):
        flat = [2 ** 53]
    if not (-2 ** 53 < min(flat) and max(flat) < 2 ** 53):
        raise GapError("grid-overflow", f"a cell index at cell side {side:g} is not "
                       "finite or reaches 2**53; the points span too many cells")
    return flat


def build_grid_coreset(cloud: PointCloud, cell_side: float,
                       seed: Optional[int] = None) -> GridCoreset:
    """Grid anchored at the bounding-box minimum; half-open cells.

    Without a seed the representative of a cell is its lowest-index member;
    with a seed it is a uniform choice per cell (fixed seed, fixed result).
    """
    cell_side = float(cell_side)
    if not cell_side > 0:
        raise GapError("invalid-cell-side", f"cell side must be positive, got {cell_side}")
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
    """Exhaustive search over all k-subsets of a (coreset) metric.

    Enumeration is lexicographic and the first subset attaining the minimum
    gap ratio wins, so results are replayable.  r and R are both measured
    within the given metric.
    """
    k = int(k)
    if k < 2:
        raise GapError("k-out-of-range", f"k must be >= 2, got {k}")
    if coreset_metric.n < k:
        raise GapError("coreset-too-small", f"coreset has {coreset_metric.n} cells "
                       f"but k={k}; use a smaller eps")
    best, _, _, _ = _min_gap_ratio(coreset_metric.dist, k, guard)
    sample = make_sample(best, coreset_metric.n)
    return sample, gap_ratio(coreset_metric, sample)


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
    k = int(k)
    if not 2 <= k <= cloud.n:
        raise GapError("k-out-of-range", f"k must satisfy 2 <= k <= {cloud.n}, got {k}")
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
