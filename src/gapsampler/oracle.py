"""Exact gap-ratio oracle and executable reduction certificates.

The oracle reports three independent optima over the k-subsets of a finite
metric: the best gap ratio GR_OPT, the smallest covering radius R_OPT
(k-center) and the largest packing radius r_OPT (max-min dispersion).
Note GR_OPT is generally NOT R_OPT / r_OPT; the three quantities are
optimized by different subsets.  Each is found by its own exact search,
bounded by the farthest-point sample: R_OPT by binary search over the
distances with an exact cover decision, then two walks of the subset
kernel, GR_OPT's pruned by the floor R_OPT and r_OPT's by the best packing
so far.  A pruned walk keeps a far-pair graph, one Python-int bitset per
site of the later sites its prune lets pair with it, and extends a prefix
only by sites in every member's row; rows only go stale toward supersets,
which costs speed, never a subset.  Each search returns what walking every
k-subset would, bit for bit.

The certifiers turn two combinatorial equivalences into runnable checks,
each one unpruned pass of the subset kernel, with the pruned walks' leaf,
on the reduction's exact metric (its distances are half-integers, exact
in binary floats, so equalities are equalities) that reads domination
from its blocks as hit counts |N[v] & D|:

- a graph has an independent dominating set of size k iff the complete
  metric that gives its edges weight 1 and its non-edges weight 2 admits a
  k-sample with gap ratio exactly 1;
- on the shortest-path metric of a connected unweighted graph, a vertex set
  D is an efficient dominating set (|N[v] & D| = 1 for every v) iff the
  sample D has minimum gap exactly 3/2 and covering radius exactly 1,
  which is the only way a graph sample attains the global floor GR = 2/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import GapError, GuardExceeded, CertificationError
from .fpi import greedy_batch
from .metric import (FiniteMetric, Graph, Sample, _k, _sites, _size, build_graph_metric,
                     make_sample)

DEFAULT_GUARD = 10_000_000


@dataclass(frozen=True)
class OracleResult:
    best_sample: Sample
    gr_opt: float   # minimum gap ratio over all k-subsets
    R_opt: float    # minimum covering radius over all k-subsets
    r_opt: float    # maximum packing radius over all k-subsets
    subsets_examined: int  # C(n, k), the count the guard bounds, not the count visited


# ---------------------------------------------------------------------------
# prefix-shared subset kernel: exhaustive, or pruned for the searches

# Element budget of the subset kernel's blocks: a leaf's (a rows,
# b columns) minimum pair distances, a row at least, and a yielded block's
# (pairs, sites) covers, a pair at least.
_BLOCK = 1 << 17


def _subset_blocks(dist: np.ndarray, k: int,
                   prune: Optional[Callable] = None) -> Iterator[tuple]:
    """Every k-subset of range(n) in lexicographic order, in blocks
    (prefix, a, b, cover, q): subset prefix + (a[i], b[i]) has covering
    radius cover[i] and minimum pair distance q[i], both read from ``dist``.

    A depth-first walk over the (k-2)-prefixes keeps pm, each site's
    distance to the prefix (one np.minimum per level), pq, the prefix's
    minimum pair distance, and the prefix's candidates, a Python-int bitset
    of the later sites that may extend it.  A leaf gathers its candidates
    and scores the last two members a < b: the q of candidate a rows
    against all later candidates b, _BLOCK entries at a time, then the
    covers of the pairs whose q the prune does not flag, max(1, _BLOCK // n)
    pairs to a yielded block.  No block is yielded empty.  Only min and max
    touch distances, so results are exact for float and integer matrices
    alike.

    ``prune``, if given, maps minimum pair distances (a scalar or an array)
    to True where every subset with that q may be skipped; the oracle's
    two walks and the coreset search pass one.  It must flag every q at or
    below one it flags.  It reads the caller's state when it runs, and that
    state may only tighten it, so a bound that tightens between blocks
    prunes the later ones harder.

    Without a prune, as in the certifiers' walks, every later site is a
    candidate and every pair is scored.  With one, the walk keeps a
    far-pair graph (_far_rows): row i is the bitset of the sites j > i with
    not prune(dist[i, j]), and a prefix's candidates are the AND of its
    members' rows.  A subset holding a pair outside the graph has q at most
    that pair's distance, so it is pruned, and a 1-site prefix prunes too.
    A prefix is extended only while it has enough candidates to complete a
    subset, and a leaf whose candidates hold no pair of the graph builds no
    block.  Rows are rebuilt after a yielded block once prune flags the
    smallest distance left in the graph; a stale row is a superset of the
    fresh one, which costs speed, never a subset.  The order stays
    lexicographic, and each subset's cover and q have the same bits with or
    without a prune.
    """
    n = dist.shape[0]
    top = np.inf if dist.dtype.kind == "f" else np.iinfo(dist.dtype).max
    full = (1 << n) - 1
    if prune is None:
        rows = [full >> (p + 1) << (p + 1) for p in range(n)]
    else:
        rows, dmin = _far_rows(dist, prune)

    def level(prefix, cand, pm, pq):
        nonlocal rows, dmin
        need = k - len(prefix)  # members still to add
        if need > 2:
            left = cand
            while left:  # the candidates p, ascending
                low = left & -left
                left ^= low
                p = low.bit_length() - 1
                sub = cand & rows[p]
                if sub.bit_count() >= need - 1:
                    yield from level(prefix + (p,), sub, np.minimum(pm, dist[p]),
                                     min(pq, pm[p]))
            return
        sites, left, hit = [], cand, False
        while left:
            low = left & -left
            left ^= low
            a = low.bit_length() - 1
            sites.append(a)
            hit = hit or rows[a] & cand
        if not hit:
            return
        sites = np.array(sites)
        m = sites.size
        step = max(1, _BLOCK // n)
        i0 = 0
        while i0 < m - 1:
            cols = m - 1 - i0
            i1 = min(m - 1, i0 + max(1, _BLOCK // cols))
            ra, rb = sites[i0:i1], sites[i0 + 1:]
            i, j = _later_pairs(i1 - i0, cols)
            q = np.minimum(np.minimum(np.minimum(pm[ra], pq)[:, None], pm[None, rb]),
                           dist[ra[:, None], rb])[i, j]
            keep = np.arange(q.size) if prune is None else np.flatnonzero(~prune(q))
            for c in range(0, keep.size, step):
                s = keep[c:c + step]
                a, b = ra[i[s]], rb[j[s]]
                near = dist.take(a, axis=0)
                np.minimum(near, pm, out=near)
                np.minimum(near, dist.take(b, axis=0), out=near)
                yield prefix, a, b, near.max(axis=1), q[s]
                if prune is not None and prune(dmin):
                    rows, dmin = _far_rows(dist, prune)
            i0 = i1

    try:
        yield from level((), full, np.full(n, top, dtype=dist.dtype), top)
    finally:
        del level  # level's cell holds level: a cycle keeping dist alive until gc


@lru_cache(maxsize=None)
def _triangle(cols: int) -> tuple:
    """(i, j), row-major and read-only, of the entries j >= i of a
    (cols, cols) block; _later_pairs caches those up to 64 columns, 0.73 MB
    in all."""
    i, j = np.nonzero(np.arange(cols) >= np.arange(cols)[:, None])
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _later_pairs(rows: int, cols: int) -> tuple:
    """(i, j), row-major, of the entries j >= i of a (rows, cols) leaf
    block, whose row i is site ra[i] and column j site rb[j] = ra[j + 1]:
    its pairs a < b in lexicographic order.  Up to 64 columns they are the
    first rows of a cached triangle."""
    if cols > 64:
        return np.nonzero(np.arange(cols) >= np.arange(rows)[:, None])
    i, j = _triangle(cols)
    size = rows * cols - rows * (rows - 1) // 2
    return i[:size], j[:size]


def _far_rows(dist: np.ndarray, prune: Callable) -> tuple:
    """(rows, dmin): rows[i] is the Python-int bitset of the sites j > i with
    not prune(dist[i, j]), the strict test the walk applies, so ties stay;
    dmin is the smallest such distance, inf when there is none.  Built
    _BLOCK // n rows at a time, so beside dist it takes the n^2 / 8 bytes
    of the bitsets and one block."""
    n = dist.shape[0]
    rows, dmin = [], inf
    step = max(1, _BLOCK // n)
    for r0 in range(0, n, step):
        d = dist[r0:r0 + step]
        far = ~prune(d) & (np.arange(n) > np.arange(r0, r0 + d.shape[0])[:, None])
        rows += _bitsets(far)
        if far.any():
            dmin = min(dmin, float(d[far].min()))
    return rows, dmin


def _bitsets(mask: np.ndarray) -> list:
    """Each row of a boolean (rows, n) mask as a Python int, bit j for
    column j."""
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(mask, axis=1, bitorder="little")]


def _check_guard(n: int, k: int, guard: int) -> None:
    """Refuse a search over more than ``guard`` k-subsets of n sites, guard
    an integer >= 0 (invalid-guard otherwise).  Every search checks this
    before it reads a distance, so a refused instance never builds a
    point-backed metric's matrix."""
    guard = _size(guard, "invalid-guard", "guard", 0)
    total = comb(n, k)
    if total > guard:
        raise GuardExceeded(f"C({n}, {k}) = {total} subsets exceeds the guard {guard}; "
                            f"raise --guard to proceed")


def _coverable(dist: np.ndarray, k: int, t) -> bool:
    """True iff some k sites cover every site within t: each site v has a
    member s with dist[s, v] <= t (the kernel's orientation).

    Sites are relabelled by their number of coverers, fewest first, and
    each site's cover set and its set of coverers are Python-int bitmasks
    over the new labels, n^2 / 8 bytes each in all.  The search branches
    on the coverers of the lowest uncovered site, ascending, at most k
    levels deep; some member must cover that site, so no cover is
    missed, and the answer is exact.  Once a coverer's branch fails, the
    node's later branches skip it, since a cover holding it was in that
    branch; so no set of members is reached twice, and a decision visits
    at most sum(C(n, j) for j <= k) nodes.
    """
    n = dist.shape[0]
    within = dist <= t  # within[s, v]: s covers v
    within = within[:, np.argsort(within.sum(axis=0), kind="stable")]
    covers = _bitsets(within)      # covers[s]: the sites s covers
    coverers = _bitsets(within.T)  # coverers[v]: the sites that cover v

    def search(uncovered: int, depth: int, banned: int) -> bool:
        if not uncovered:
            return True
        if not depth:
            return False
        pivot = (uncovered & -uncovered).bit_length() - 1
        left = coverers[pivot] & ~banned
        while left:  # the pivot's coverers c, ascending
            low = left & -left
            left ^= low
            c = low.bit_length() - 1
            if search(uncovered & ~covers[c], depth - 1, banned):
                return True
            banned |= low
        return False

    try:
        return search((1 << n) - 1, k, 0)
    finally:
        del search  # search's cell holds search: a cycle keeping the bitsets alive until gc


def _min_cover(dist: np.ndarray, k: int, top: float) -> float:
    """R_opt, the smallest covering radius of any k-subset, given ``top``,
    the covering radius of one k-subset: a binary search over the distinct
    entries of ``dist`` below ``top``, each tested by _coverable.  Every
    covering radius is an entry of dist, and one at or below t exists iff
    t is coverable, so the first coverable entry is R_opt, and top when
    none is.  The candidates come from the strict upper triangle, a row
    at a time: dist is symmetric, and the diagonal's 0 is never R_opt,
    since k = n gives top = 0 and k < n leaves a site outside the subset,
    whose distance to it is an off-diagonal entry."""
    cand = np.unique(np.concatenate(
        [row[row < top] for row in (dist[i, i + 1:] for i in range(dist.shape[0]))]))
    lo, hi = 0, cand.size
    while lo < hi:
        mid = (lo + hi) // 2
        if _coverable(dist, k, cand[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(cand[lo]) if lo < cand.size else float(top)


def _min_gap_ratio(dist: np.ndarray, k: int, floor: float, bound: float) -> tuple:
    """(first subset with the minimum gap ratio, that ratio) over all
    k-subsets, with r and R both measured in ``dist``.

    The caller checks the guard first (_check_guard).  ``floor`` must be
    at most the covering radius of every k-subset, and ``bound`` at least
    the minimum ratio.  Then GR >= floor / (q / 2) for every subset with
    minimum pair distance q, so the walk prunes each prefix and pair whose
    floor / (q / 2) is strictly above both ``bound`` and the best ratio
    found so far.  Float division rounds monotonically, so a subset's
    bound never exceeds its ratio, and the first optimal subset survives:
    the subset and its ratio have the same bits as an exhaustive walk's.
    """
    best_gr = np.inf
    best = None

    def prune(q):
        return floor / (q / 2.0) > min(bound, best_gr)

    # q = 0 (an underflowed distance) gives inf or nan, never a warning;
    # entered once, since the walk calls prune once per prefix and block
    with np.errstate(divide="ignore", invalid="ignore"):
        for prefix, a, b, cover, q in _subset_blocks(dist, k, prune):
            gr = cover / (q / 2.0)
            pos = int(np.argmin(gr))  # first occurrence keeps lexicographic order
            if gr[pos] < best_gr:
                best_gr = float(gr[pos])
                best = prefix + (int(a[pos]), int(b[pos]))
    assert best is not None
    return best, best_gr


def _max_min_distance(dist: np.ndarray, k: int, seed: float) -> float:
    """The largest minimum pair distance q of any k-subset, given ``seed``,
    the q of one k-subset: a walk that prunes every prefix and pair whose
    q is at most the largest found so far."""
    best = seed
    for _, _, _, _, q in _subset_blocks(dist, k, lambda q: q <= best):
        best = max(best, float(q.max()))
    return best


def optimal_gap_ratio(m: FiniteMetric, k: int,
                      guard: int = DEFAULT_GUARD) -> OracleResult:
    """Minimum of GR over all k-subsets, lexicographic tie-break, with the
    separate optima R_opt and r_opt, by the module docstring's three
    searches, each seeded by the farthest-point sample (a k-subset);
    refuses instances with more than ``guard`` subsets, and then metrics
    whose farthest-point sample has an inf covering radius
    (distance-overflow) or two sites at distance 0 (zero-distance).
    ``subsets_examined`` is C(n, k), the count the guard bounds, not the
    count of subsets the searches visit."""
    k = _k(k, m.n)
    _check_guard(m.n, k, guard)
    dist = m.dist
    _, q, R, _ = greedy_batch(dist[None], k)
    q_fpi, R_fpi = q[0, -1], R[0, -1]
    # the sample's own gap ratio would be inf / inf or 0 / 0, a nan bound
    if R_fpi == np.inf:
        raise GapError("distance-overflow", "the farthest-point sample's covering "
                       "radius overflows float64: the sites are too far apart")
    if q_fpi == 0.0:
        raise GapError("zero-distance", f"the farthest-point sample of {k} sites "
                       "has two at distance 0")
    R_opt = _min_cover(dist, k, R_fpi)
    best, best_gr = _min_gap_ratio(dist, k, R_opt, R_fpi / (q_fpi / 2.0))
    r_opt = _max_min_distance(dist, k, float(q_fpi)) / 2.0
    return OracleResult(best_sample=make_sample(best, m.n),
                        gr_opt=best_gr, R_opt=R_opt, r_opt=r_opt,
                        subsets_examined=comb(m.n, k))


# ---------------------------------------------------------------------------
# domination predicates


def _adjacency_matrix(g: Graph) -> np.ndarray:
    adj = np.zeros((g.n, g.n), dtype=bool)
    for u, v, _ in g.edges:
        adj[u, v] = adj[v, u] = True
    return adj


def _closed_neighborhoods(adj: np.ndarray, dtype) -> np.ndarray:
    """Closed neighbourhoods N = adj | I of (..., n, n) adjacency, as ``dtype``."""
    return (adj | np.eye(adj.shape[-1], dtype=bool)).astype(dtype)


def is_independent_dominating(g: Graph, D) -> bool:
    """True iff D spans no edge and every vertex is in or adjacent to D."""
    verts = _sites(D, g.n, 0, "vertex")
    adj = _adjacency_matrix(g)
    if adj[verts][:, verts].any():
        return False
    closed = adj[verts].any(axis=0)
    closed[verts] = True
    return bool(closed.all())


def is_efficient_dominating(g: Graph, D) -> bool:
    """True iff every closed neighborhood N[v] meets D exactly once."""
    verts = _sites(D, g.n, 0, "vertex")
    counts = _closed_neighborhoods(_adjacency_matrix(g), np.int64)[:, verts].sum(axis=1)
    return bool((counts == 1).all())


# ---------------------------------------------------------------------------
# reductions


def _genmet(adj: np.ndarray, dtype) -> np.ndarray:
    """{1, 2}-metric of adjacency matrices (..., n, n) as ``dtype``: 1 on
    edges, 2 on non-edges, 0 on the diagonal."""
    n = adj.shape[-1]
    d = np.where(adj, dtype(1), dtype(2))
    d[..., np.arange(n), np.arange(n)] = 0
    return d


def genmet_reduce(g: Graph) -> FiniteMetric:
    """Complete {1, 2}-metric of a simple graph: edges get weight 1,
    non-edges weight 2.  Any weight profile in {1, 2} satisfies the triangle
    inequality, so this is a metric for every simple graph, connected or not,
    and is wrapped without build_explicit's O(n^3) audit.
    """
    if g.n < 2:
        raise GapError("too-few-sites", "reduction needs at least 2 vertices")
    dist = _genmet(_adjacency_matrix(g), np.float64)
    dist.setflags(write=False)
    return FiniteMetric(n=g.n, dist=dist, exact=True)


def _domination_blocks(g: Graph, k: int, guard: int, claim: str,
                       reduce: Callable[[Graph], FiniteMetric]) -> Iterator[tuple]:
    """The subset kernel's blocks over ``reduce(g).dist`` as
    (prefix, a, b, R, q, hits), where hits[i, v] = |N[v] & D_i| for the
    block's i-th subset D_i.  After the caller's _k(k, n - 1), refuses a
    weighted graph, then more than ``guard`` subsets, both before
    ``reduce`` runs, so these take precedence over its errors."""
    if g.weighted:
        raise GapError("weighted-unsupported",
                       f"{claim} equivalence needs an unweighted graph")
    _check_guard(g.n, k, guard)
    closed = _closed_neighborhoods(_adjacency_matrix(g), np.int64)
    for prefix, a, b, R, q in _subset_blocks(reduce(g).dist, k):
        hits = closed[list(prefix)].sum(axis=0) + closed[a] + closed[b]
        yield prefix, a, b, R, q, hits


def _first_subset(prefix: tuple, a: np.ndarray, b: np.ndarray,
                  mask: np.ndarray) -> Optional[tuple]:
    """The block's first subset prefix + (a[i], b[i]) with mask[i], or None."""
    i = mask.argmax()
    return prefix + (int(a[i]), int(b[i])) if mask[i] else None


def check_genmet_equivalence(g: Graph, k: int, guard: int = DEFAULT_GUARD) -> tuple:
    """Certify: an independent dominating set of size k exists iff the
    {1, 2}-metric admits a k-sample with gap ratio exactly 1.

    One pass of the subset kernel finds the first subset of each kind and
    stops once it has both; raises CertificationError if only one exists.
    """
    k = _k(k, g.n - 1)
    ids = gr1 = None
    for prefix, a, b, R, q, hits in _domination_blocks(
            g, k, guard, "independent-domination", genmet_reduce):
        # each member v lies in N[v], so the members' hits sum to k iff no
        # edge lies inside D; GR = 2*R/q, so GR == 1 iff 2*R == q
        rows = np.arange(a.size)
        inner = hits[:, list(prefix)].sum(axis=1) + hits[rows, a] + hits[rows, b]
        ids = ids or _first_subset(prefix, a, b, (inner == k) & (hits >= 1).all(axis=1))
        gr1 = gr1 or _first_subset(prefix, a, b, 2 * R == q)
        if ids and gr1:
            break
    if (ids is None) != (gr1 is None):
        raise CertificationError(
            f"equivalence failed on n={g.n}, k={k}: "
            f"independent dominating witness {ids}, gap-ratio-1 witness {gr1}")
    certificates = {
        "independent_dominating": ids,
        "gap_ratio_one": gr1,
        "subsets_examined": comb(g.n, k),
    }
    return ids is not None, certificates


def check_eds_equivalence(g: Graph, k: int, guard: int = DEFAULT_GUARD) -> tuple:
    """Certify, for every k-subset D of a connected unweighted graph:
    D is an efficient dominating set iff the sample D has r = 3/2 and R = 1
    on the shortest-path metric (exact in floats: q = 3, R = 1).

    Returns (exists, certificates) where ``exists`` says whether any size-k
    efficient dominating set was found.
    """
    k = _k(k, g.n - 1)
    witness, count = None, 0
    for prefix, a, b, R, q, hits in _domination_blocks(
            g, k, guard, "efficient-domination", build_graph_metric):
        profile = (q == 3) & (R == 1)  # r = 3/2 and R = 1
        eds = (hits == 1).all(axis=1)  # |N[v] & D| = 1 for every v
        bad = _first_subset(prefix, a, b, eds != profile)
        if bad:
            eds_bad = is_efficient_dominating(g, bad)
            raise CertificationError(
                f"equivalence failed on n={g.n}, k={k}, D={bad}: "
                f"efficient-dominating={eds_bad} but (r=3/2, R=1)={not eds_bad}")
        count += int(np.count_nonzero(eds))
        witness = witness or _first_subset(prefix, a, b, eds)
    certificates = {
        "efficient_dominating": witness,
        "eds_count": count,
        "subsets_examined": comb(g.n, k),
    }
    return witness is not None, certificates
