"""Finite metric spaces and exact gap evaluation.

A sample P drawn from a finite metric space (M, delta) is judged by two
radii.  The minimum gap r is half the smallest pairwise distance inside P:
the radius of the largest equal balls around the sampled sites whose
interiors stay disjoint.  The maximum gap R is the covering radius: the
largest distance from any site of M to its nearest sampled site.  Their
quotient GR = R / r is the gap ratio; the lower it is, the more evenly the
sample spreads over the space.

Distances live in float64 matrices.  Metrics whose distances are all
half-integers (shortest paths of unweighted graphs, the {1,2} clique
reductions) also carry ``exact2x``, the doubled distance matrix in int64,
so that equality tests on r, R and GR can run on integers instead of
tolerances.  Halves are exactly representable in binary floats, so the two
representations agree bit for bit wherever both exist.

A graph metric gets exact2x when every doubled edge length is an integer
and the sentinel top = (n - 1) * max doubled length + 1 has
top <= 2**53; its shortest paths are then closed in the narrowest
unsigned dtype that holds 2 * top (uint8, uint16, ...) and every distance
is an exact float.  Past that bound the closure runs in float64 and
exact2x is None.

All functions here are pure; every returned object is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import GapError

# Tolerance for the triangle-inequality audit of explicit matrices.
TRIANGLE_TOL = 1e-9

# Rows per block of the pairwise-distance kernel; its one scratch block holds
# _BLOCK rows of the output.
_BLOCK = 64


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class PointCloud:
    """Deduplicated ordered list of d-dimensional points.

    ``duplicates_removed`` records how many exact coordinate duplicates were
    dropped at ingestion (keeping the first occurrence).  Duplicates would
    allow samples with r = 0, for which the gap ratio is undefined.
    """

    dim: int
    points: np.ndarray  # (n, dim) float64, C-contiguous, read-only
    labels: Optional[tuple] = None
    duplicates_removed: int = 0

    @property
    def n(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; unweighted edges carry weight 1.0."""

    n: int
    edges: tuple  # ((u, v, w), ...) with u < v
    weighted: bool


@dataclass(frozen=True)
class FiniteMetric:
    """Symmetric distance matrix over n sites.

    ``exact2x`` is 2*dist as int64 whenever every distance is an exact
    half-integer and, for graph metrics, within build_graph_metric's 2**53
    bound; it is always present for unweighted graph metrics.
    ``source`` is one of ``euclidean``, ``graph``, ``explicit``.
    """

    n: int
    dist: np.ndarray  # (n, n) float64
    source: str
    exact2x: Optional[np.ndarray] = None  # (n, n) int64


@dataclass(frozen=True)
class Sample:
    """Strictly increasing site indices, k >= 2 (r is undefined below that)."""

    indices: tuple


@dataclass(frozen=True)
class GapReport:
    """Minimum gap, maximum gap, their ratio, and realizing witnesses."""

    r: float
    R: float
    gap_ratio: float
    closest_pair: tuple  # (i, j), i < j, realizes 2*r
    farthest_site: int  # realizes R; smallest such index
    exact: bool  # computed with an exact2x matrix present


# ---------------------------------------------------------------------------
# constructors


def build_cloud(points: Iterable, labels: Optional[Sequence] = None) -> PointCloud:
    """Ingest points, validating coordinates and dropping exact duplicates."""
    arr = np.asarray(list(points) if not isinstance(points, np.ndarray) else points,
                     dtype=np.float64)
    if arr.ndim == 1 and arr.size > 0:
        arr = arr[:, None]  # allow plain scalars for 1-D clouds
    if arr.size == 0:
        raise GapError("empty-cloud", "point cloud has no points")
    if arr.ndim != 2:
        raise GapError("malformed-points", "points must be an (n, d) array")
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise GapError("nonfinite-coordinate",
                       f"point {bad[0]} has a non-finite coordinate {bad[1]}")
    if labels is not None and len(labels) != arr.shape[0]:
        raise GapError("malformed-points", "labels length does not match points")

    seen: dict = {}
    keep = []
    for i in range(arr.shape[0]):
        key = arr[i].tobytes()
        if key not in seen:
            seen[key] = i
            keep.append(i)
    dropped = arr.shape[0] - len(keep)
    arr = np.ascontiguousarray(arr[keep])
    arr.setflags(write=False)
    kept_labels = tuple(labels[i] for i in keep) if labels is not None else None
    return PointCloud(dim=int(arr.shape[1]), points=arr, labels=kept_labels,
                      duplicates_removed=dropped)


def build_graph(n: int, edges: Iterable, weighted: Optional[bool] = None,
                require_connected: bool = True) -> Graph:
    """Validate a simple undirected graph.

    ``edges`` yields (u, v) or (u, v, w) tuples, 0-based.  When ``weighted``
    is None it is inferred: True iff any edge came with an explicit weight.
    Connectivity is required by default; the {1,2} clique reduction is the
    one consumer that accepts disconnected inputs.
    """
    if n < 1:
        raise GapError("empty-graph", "graph needs at least one vertex")
    norm = []
    seen = set()
    saw_weight = False
    for e in edges:
        if len(e) == 2:
            u, v = e
            w = 1.0
        elif len(e) == 3:
            u, v, w = e
            saw_weight = True
        else:
            raise GapError("malformed-graph", f"edge {e!r} is not (u, v) or (u, v, w)")
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise GapError("malformed-graph", f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GapError("malformed-graph", f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GapError("malformed-graph", f"parallel edge ({key[0]}, {key[1]})")
        seen.add(key)
        w = float(w)
        if not (w > 0 and np.isfinite(w)):
            raise GapError("malformed-graph", f"edge ({u}, {v}) weight {w} not positive")
        norm.append((key[0], key[1], w))
    if weighted is None:
        weighted = saw_weight
    g = Graph(n=n, edges=tuple(sorted(norm)), weighted=bool(weighted))
    if require_connected:
        pair = _unreachable_pair(g)
        if pair is not None:
            raise GapError("disconnected-graph",
                           f"vertices {pair[0]} and {pair[1]} are not connected")
    return g


def _unreachable_pair(g: Graph) -> Optional[tuple]:
    adj: list = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n  # a list, not an array: graphs here are often tiny
    stack = [0]
    seen[0] = True
    while stack:
        for v in adj[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    if all(seen):
        return None
    return (0, seen.index(False))


def _pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) L2 distances between the rows of a and of b.

    Squared coordinate differences are summed in coordinate order, then
    square-rooted.  (x - y)^2 == (y - x)^2 exactly, so _pairwise(p, p) is
    exactly symmetric with a zero diagonal, which FPI's halving identity
    relies on.  For d <= 7 this equals sqrt(((a[:, None] - b[None]) ** 2)
    .sum(-1)) bit for bit; numpy sums 8 or more terms pairwise instead.
    The output is filled _BLOCK rows at a time with in-place ufuncs, so
    peak memory is the result plus one (_BLOCK, len(b)) scratch block.
    """
    cols = np.ascontiguousarray(b.T)  # (d, m): one contiguous row per coordinate
    n, d = a.shape
    out = np.empty((n, cols.shape[1]))
    scratch = np.empty((min(_BLOCK, n), cols.shape[1]))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        acc, sq = out[lo:hi], scratch[:hi - lo]
        np.subtract(a[lo:hi, 0, None], cols[0], out=acc)
        np.multiply(acc, acc, out=acc)
        for c in range(1, d):
            np.subtract(a[lo:hi, c, None], cols[c], out=sq)
            np.multiply(sq, sq, out=sq)
            np.add(acc, sq, out=acc)
        np.sqrt(acc, out=acc)
    return out


def _min_plus(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fold every (min, +) path through one intermediate site into out.

    For k in turn, out = min(out, a[:, k] + a[k, :]); any leading axes of a
    and out are a batch.  _min_plus(D, D) is the in-place Floyd-Warshall
    closure (shortest paths, given edge lengths and a zero diagonal); with
    an all-inf out it is the one (min, +) product d * d, the shortest
    two-hop detour between every pair, which build_explicit's triangle
    check compares d against.  Returns out.

    Integer matrices close exactly, but numpy's array adds wrap around
    without a warning: the caller picks a dtype that holds twice its
    sentinel, the largest entry, so no a[i, k] + a[k, j] overflows.  Only
    arrays of a's one dtype are added, so numpy's value-based casting
    (numpy < 2) cannot change the sums' dtype.
    """
    for k in range(a.shape[-1]):
        np.minimum(out, a[..., :, k, None] + a[..., None, k, :], out=out)
    return out


def _first_pair(mat: np.ndarray, largest: bool) -> tuple:
    """Lexicographically smallest (i, j), i < j, at which the symmetric
    matrix mat attains its maximum (largest) or minimum off the diagonal.

    The diagonal must never attain it (zero under a max over a metric, +inf
    under a min).  The first row holding the extreme value has it at some
    column above the diagonal: a column j < i would put it in the earlier
    row j too.  Only row reductions are made, so a read-only mat is never
    copied.
    """
    if largest:
        i = int(np.argmax(mat.max(axis=1)))  # first occurrence = smallest row
        return i, int(np.argmax(mat[i]))
    i = int(np.argmin(mat.min(axis=1)))
    return i, int(np.argmin(mat[i]))


def build_euclidean(cloud: PointCloud) -> FiniteMetric:
    """L2 distance matrix over a point cloud (see _pairwise)."""
    dist = _pairwise(cloud.points, cloud.points)
    dist.setflags(write=False)
    return FiniteMetric(n=cloud.n, dist=dist, source="euclidean")


def build_graph_metric(g: Graph) -> FiniteMetric:
    """All-pairs shortest-path metric of a connected graph.

    An edge's length is its weight w, or 1 in an unweighted graph.  When
    every doubled length L = 2w is an integer and the sentinel
    top = (n - 1) * max(L) + 1, which exceeds every shortest path, has
    top <= 2**53, the doubled lengths are closed in integers: one
    _min_plus over np.min_scalar_type(2 * top), an unsigned dtype that
    holds every sum the closure forms (uint8 for an unweighted graph up to
    n = 64, at most uint64).  exact2x is that closure as int64 and
    dist = exact2x / 2.  Every doubled distance is below 2**53, so every
    distance is an exact float and dist equals a float64 closure bit for
    bit.  Any other graph, non-half-integer lengths or paths too long for
    the bound, is closed once in float64 and has exact2x None.
    """
    pair = _unreachable_pair(g)
    if pair is not None:
        raise GapError("disconnected-graph",
                       f"vertices {pair[0]} and {pair[1]} are not connected")
    n = g.n
    # Python floats: exact doubling, and inf, not a warning, on overflow
    doubled = [2.0 * w for _, _, w in g.edges] if g.weighted else [2.0] * len(g.edges)
    exact = all(map(float.is_integer, doubled))
    if exact:
        # a Python int, where a float product near 2**53 could round
        top = (n - 1) * int(max(doubled, default=0.0)) + 1
        exact = top <= 2 ** 53
    if exact:
        d = np.full((n, n), top, dtype=np.min_scalar_type(2 * top))
        lengths = doubled
    else:
        d = np.full((n, n), np.inf)
        lengths = [w for _, _, w in g.edges]
    # flat indices of every (u, v), then of every (v, u): put repeats a
    # list of lengths over the second half
    d.put([u * n + v for u, v, _ in g.edges] + [v * n + u for u, v, _ in g.edges],
          lengths)
    d.flat[::n + 1] = 0
    _min_plus(d, d)
    exact2x = None
    if exact:
        exact2x = d.astype(np.int64)
        exact2x.setflags(write=False)
        d = exact2x / 2.0
    d.setflags(write=False)
    return FiniteMetric(n=n, dist=d, source="graph", exact2x=exact2x)


def build_explicit(dist, exact2x=None) -> FiniteMetric:
    """Validate and wrap an explicit distance matrix.

    Checks symmetry, a zero diagonal with positive off-diagonal entries, and
    the triangle inequality within TRIANGLE_TOL.
    """
    d = np.asarray(dist, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] < 1:
        raise GapError("invalid-matrix", "distance matrix must be square")
    n = d.shape[0]
    if not np.isfinite(d).all():
        raise GapError("invalid-matrix", "distance matrix has non-finite entries")
    if not (d == d.T).all():
        raise GapError("invalid-matrix", "distance matrix is not symmetric")
    if (np.diag(d) != 0).any():
        raise GapError("invalid-matrix", "diagonal must be zero")
    off = d + np.where(np.eye(n, dtype=bool), np.inf, 0.0)
    if (off <= 0).any():
        i, j = np.argwhere(off <= 0)[0]
        raise GapError("invalid-matrix", f"distance between distinct sites {i} and {j} is not positive")
    # min over k of d[i,k]+d[k,j]; k=i makes this <= d[i,j], so only check the deficit
    viol = d - _min_plus(d, np.full((n, n), np.inf))
    if (viol > TRIANGLE_TOL).any():
        i, j = np.argwhere(viol > TRIANGLE_TOL)[0]
        raise GapError("invalid-matrix",
                       f"triangle inequality violated at sites ({i}, {j})")
    if exact2x is not None:
        e = np.asarray(exact2x, dtype=np.int64)
        if e.shape != d.shape or (e / 2.0 != d).any():
            raise GapError("invalid-matrix", "exact2x does not equal 2*dist")
        e = e.copy()
        e.setflags(write=False)
        exact2x = e
    d = d.copy()
    d.setflags(write=False)
    return FiniteMetric(n=n, dist=d, source="explicit", exact2x=exact2x)


# ---------------------------------------------------------------------------
# samples


def make_sample(indices: Iterable, n: int) -> Sample:
    """Validate indices: distinct, in [0, n), k >= 2; stored sorted."""
    idx = [int(i) for i in indices]
    if len(idx) < 2:
        raise GapError("sample-too-small", "a sample needs at least 2 sites")
    if len(set(idx)) != len(idx):
        raise GapError("duplicate-indices", "sample indices must be distinct")
    if min(idx) < 0 or max(idx) >= n:
        raise GapError("index-out-of-range",
                       f"sample index outside [0, {n})")
    return Sample(indices=tuple(sorted(idx)))


def _as_indices(m: FiniteMetric, p, min_size: int) -> np.ndarray:
    if isinstance(p, Sample):
        idx = list(p.indices)
    else:
        idx = [int(i) for i in p]
    if len(idx) < min_size:
        raise GapError("sample-too-small",
                       f"operation needs at least {min_size} sampled sites")
    if len(set(idx)) != len(idx):
        raise GapError("duplicate-indices", "sample indices must be distinct")
    arr = np.array(sorted(idx), dtype=np.int64)
    if arr[0] < 0 or arr[-1] >= m.n:
        raise GapError("index-out-of-range", f"sample index outside [0, {m.n})")
    return arr


# ---------------------------------------------------------------------------
# gap evaluation


def min_gap(m: FiniteMetric, p) -> tuple:
    """(r, closest_pair): half the minimum pairwise distance within p.

    The witness pair is the lexicographically smallest one realizing the
    minimum.  Runs on exact2x when present (the float path gives bit-equal
    results since half-integers are exact, but ties are then integer ties).
    """
    idx = _as_indices(m, p, 2)
    mat = m.exact2x if m.exact2x is not None else m.dist
    sub = mat[np.ix_(idx, idx)]
    k = len(idx)
    iu = np.triu_indices(k, 1)
    vals = sub[iu]
    pos = int(np.argmin(vals))  # first occurrence = lexicographic pair
    i, j = int(idx[iu[0][pos]]), int(idx[iu[1][pos]])
    r = float(m.dist[i, j]) / 2.0
    return r, (i, j)


def max_gap(m: FiniteMetric, p) -> tuple:
    """(R, farthest_site): covering radius of p over all sites of m.

    R = max over sites q of min over sampled s of dist(q, s); 0 when p = M.
    Witness is the smallest site index realizing R.
    """
    idx = _as_indices(m, p, 1)
    mat = m.exact2x if m.exact2x is not None else m.dist
    nearest = mat[:, idx].min(axis=1)
    site = int(np.argmax(nearest))  # first occurrence = smallest index
    return float(m.dist[site, idx].min()), site


def gap_ratio(m: FiniteMetric, p) -> GapReport:
    """Full gap report for a sample: r, R, GR = R/r and both witnesses."""
    idx = _as_indices(m, p, 2)
    r, pair = min_gap(m, idx)
    R, site = max_gap(m, idx)
    return GapReport(r=r, R=R, gap_ratio=R / r, closest_pair=pair,
                     farthest_site=site, exact=m.exact2x is not None)


def gap_fraction(m: FiniteMetric, p) -> Fraction:
    """Gap ratio as an exact rational; requires exact2x.

    With e = exact2x = 2*dist: r = min_pair(e)/4 and R = cover(e)/2, so
    GR = 2*cover(e)/min_pair(e).
    """
    if m.exact2x is None:
        raise GapError("exact-unavailable",
                       "metric has no exact doubled-integer representation")
    idx = _as_indices(m, p, 2)
    sub = m.exact2x[np.ix_(idx, idx)]
    iu = np.triu_indices(len(idx), 1)
    q2 = int(sub[iu].min())
    r2 = int(m.exact2x[:, idx].min(axis=1).max())
    return Fraction(2 * r2, q2)


def diameter(m: FiniteMetric) -> tuple:
    """(i, j, dist): lexicographically smallest pair at maximum distance."""
    if m.n < 2:
        raise GapError("too-few-sites", "diameter needs at least 2 sites")
    i, j = _first_pair(m.exact2x if m.exact2x is not None else m.dist,
                       largest=True)
    return i, j, float(m.dist[i, j])
