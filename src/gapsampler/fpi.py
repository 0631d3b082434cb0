"""Farthest-point insertion with a diameter-pair start.

The sampler keeps the set S_i and repeatedly inserts the site of M farthest
from S_i, starting from a pair realizing the diameter.  Two per-step facts
make it useful: the covering radius R_{S_i} never increases, and the minimum
gap right after an insertion equals exactly half the covering radius that
triggered it (the inserted site sits R_{S_i} away from everything chosen so
far, and no earlier pair is closer).  Together they cap the gap ratio at 2
after every iteration.

Both facts hold bit-exactly in floats: every quantity involved is either a
distance-matrix entry or such an entry halved, and halving is exact.  On a
point-backed Euclidean metric or a graph-backed unweighted graph metric the
run reads the diameter pair and k rows, never the n x n matrix.  The final
gap report comes from the run's own state, with gap_ratio's bits: R and its
witness from the last step's argmax, r from the last minimum, and the
closest pair from the rows of the insertions made at that minimum, not
another pass over the n x k block.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import GapError
from .metric import (FiniteMetric, GapReport, _closest_pair, _first_pair, _gap_report,
                     _k, _real, diameter, make_sample)


@dataclass(frozen=True)
class FpiStep:
    """One insertion: S had ``size_before`` sites, gained ``chosen``."""

    size_before: int
    chosen: int
    R_before: float  # covering radius of S before the insertion = dist(chosen, S)
    r_after: float   # minimum gap after; equals R_before / 2 exactly
    R_after: float   # covering radius after; <= R_before


@dataclass(frozen=True)
class FpiTrace:
    init_pair: tuple  # diameter pair (i, j), i < j
    r_init: float     # diam / 2
    R_init: float     # covering radius of the diameter pair
    steps: tuple      # FpiStep per insertion beyond the pair
    final: GapReport


def greedy_batch(D, k: int) -> tuple:
    """Farthest-point insertion on every metric of a batch.

    D is a (B, n, n) array of distance matrices, or one FiniteMetric
    (B = 1).  Each run starts from the lexicographically smallest diameter
    pair (_first_pair over D, or metric.diameter) and then inserts, k - 2
    times, the site farthest from the sample, ties going to the smallest
    index.  Returns (order, q, R, far): order (B, k) holds the insertion
    order; column s - 2 of q and of R, both (B, k - 1) in D's dtype, is the
    minimum pair distance and the covering radius of the first s sites;
    far (B,) is the first site R[:, -1] away from the k-sample.  One argmax
    per step gives both the covering radius and the next site.
    Each step reads one distance row per metric from one accessor: a
    gather from the array, which is never copied, or the metric's block,
    which a point-backed metric computes from its points and a
    graph-backed one by a breadth-first search.
    """
    if isinstance(D, FiniteMetric):
        i, j, _ = diameter(D)
        # unchecked rows: a check would cost 1/6 of a 2,000-point row's time
        i, j, rows = np.array([i]), np.array([j]), D._block
    else:
        i, j = _first_pair(D)

        def rows(c):
            return D[ar, c]
    B = i.shape[0]
    ar = np.arange(B)
    row_i = rows(i)
    order = np.empty((B, k), dtype=np.int64)
    q = np.empty((B, k - 1), dtype=row_i.dtype, order="F")  # contiguous columns
    R = np.empty_like(q)
    order[:, 0], order[:, 1] = i, j
    q[:, 0] = row_i[ar, j]
    dmin = np.minimum(row_i, rows(j))  # each site's distance to the sample
    c = dmin.argmax(axis=1)  # first occurrence = smallest index
    R[:, 0] = dmin[ar, c]
    for s in range(2, k):
        order[:, s] = c
        # the new closest pair, if any, involves c, R[:, s - 2] from the sample
        q[:, s - 1] = np.minimum(q[:, s - 2], R[:, s - 2])
        np.minimum(dmin, rows(c), out=dmin)
        c = dmin.argmax(axis=1)
        R[:, s - 1] = dmin[ar, c]
    return order, q, R, c


def farthest_point_insertion(m: FiniteMetric, k: int) -> tuple:
    """Greedy k-sample of m: (Sample, FpiTrace), by greedy_batch.

    Ties in the per-step argmax (and in the diameter scan) break toward the
    smallest site index, so runs are replayable.  The trace's final report
    equals gap_ratio(m, sample), bit for bit and with its zero-distance
    refusal, but reads only the rows _closest_pair needs.  R = 0 before an
    insertion is zero-distance, naming the first site left out and a sampled site 0 from it.
    """
    k = _k(k, m.n)
    order, q, R, far = (a[0].tolist() for a in greedy_batch(m, k))
    if 0.0 in R[:-1]:  # distinct sites whose distance underflowed
        taken = sorted(order[:R.index(0.0) + 2])
        u = min(set(range(m.n)).difference(taken))
        v = taken[int(np.argmax(m.block([u], taken)[0] == 0.0))]
        raise GapError("zero-distance", f"sites {min(u, v)} and {max(u, v)} are at distance 0")
    # the site inserted at size s is R[s - 2] away from the sample
    steps = tuple(FpiStep(size_before=s, chosen=order[s], R_before=R[s - 2],
                          r_after=q[s - 1] / 2.0, R_after=R[s - 1])
                  for s in range(2, k))
    sample = make_sample(order, m.n)
    # q never increases, so the insertions made at q[-1] are a suffix of the
    # run, and the later-inserted site of every closest pair is in it (or is
    # the start pair's second site, when q[0] is already q[-1]): the pair's
    # distance is at least that site's distance to the sample when it was
    # inserted.  Only those rows are read, against the sites inserted before.
    d, pair = _closest_pair(m, order, q.index(q[-1]) + 1)
    final = _gap_report(m, d / 2.0, pair, R[-1], far)
    trace = FpiTrace(init_pair=(order[0], order[1]), r_init=q[0] / 2.0,
                     R_init=R[0], steps=steps, final=final)
    return sample, trace


def fpi_ratio_bound(alpha: float) -> float:
    """Worst-case GR_FPI / GR_OPT as a function of alpha = GR_OPT.

    2/alpha when alpha >= 2/3 (so at most 3, and at most 2 once alpha >= 1),
    4/(2 - alpha) below; the two branches meet at alpha = 2/3 with value 3,
    and the bound never exceeds 3.
    """
    alpha = _real(alpha, "alpha-out-of-range", "alpha")
    if not alpha > 0:
        raise GapError("alpha-out-of-range", f"alpha must be positive, got {alpha}")
    if alpha >= 2.0 / 3.0:
        return 2.0 / alpha
    return 4.0 / (2.0 - alpha)


def rho(k: int) -> float:
    """Approximation-ratio curve of the greedy sampler on the unit square:

        rho(k) = 27^(1/4) sqrt(k) / (3^(1/4) sqrt(k) - sqrt(2))

    This is 2/alpha evaluated at the square's gap-ratio floor
    2/sqrt(3) - C/sqrt(k); it decreases monotonically toward sqrt(3).
    """
    k = _k(k)
    return 27.0 ** 0.25 * sqrt(k) / (3.0 ** 0.25 * sqrt(k) - sqrt(2.0))
