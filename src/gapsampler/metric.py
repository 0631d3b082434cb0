"""Finite metric spaces and exact gap evaluation.

A sample P drawn from a finite metric space (M, delta) is judged by two
radii.  The minimum gap r is half the smallest pairwise distance inside P:
the radius of the largest equal balls around the sampled sites whose
interiors stay disjoint.  The maximum gap R is the covering radius: the
largest distance from any site of M to its nearest sampled site.  Their
quotient GR = R / r is the gap ratio; the lower it is, the more evenly the
sample spreads over the space.

Distances are float64.  Graph and explicit metrics store their matrix; a
Euclidean metric is point-backed and builds its matrix only when something
reads ``dist`` (the oracle and the coreset search do).  The gap reports,
the diameter and farthest-point insertion read only the rows and blocks
they need, with the matrix entries' bits.  Metrics whose distances are all
half-integers (shortest paths of unweighted graphs, the {1,2} clique
reductions) are flagged ``exact``: halves are exactly representable in
binary floats, so equalities on dist are equalities, gap ratios have exact
rational forms, and ``exact2x``, the doubled matrix in int64, is derived
from dist on request rather than stored.

A graph metric is exact when every doubled edge length is an integer and
the sentinel top = (n - 1) * max doubled length + 1 has top <= 2**53; its
shortest paths are then closed in the narrowest unsigned dtype that holds
2 * top (uint8, uint16, ...) and halved into dist, and every distance is
an exact float.  Past that bound the closure runs in float64 and the
metric is not exact.

All functions here are pure; every returned object is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterable, Optional

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

    ``duplicates_removed`` records how many duplicates, points equal by value
    to an earlier one (-0.0 equals 0.0), were dropped at ingestion (keeping
    the first occurrence).  Duplicates would allow samples with r = 0, for
    which the gap ratio is undefined.
    """

    dim: int
    points: np.ndarray  # (n, dim) float64, C-contiguous, read-only
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


class FiniteMetric:
    """Symmetric distances over n sites; immutable.

    Graph and explicit metrics store the (n, n) float64 matrix ``dist``.
    A Euclidean metric is point-backed: it keeps the cloud's read-only
    ``points`` and builds ``dist`` = _pairwise(points, points) only on
    first access, then caches it read-only.  ``block`` reads any part of
    the matrix, with its bits, without building it.

    ``exact`` is True when every distance is an exact half-integer and,
    for graph metrics, within build_graph_metric's 2**53 bound; it is
    always True for unweighted graph metrics.
    ``source`` is one of ``euclidean``, ``graph``, ``explicit``.
    """

    def __init__(self, n: int, dist: Optional[np.ndarray], source: str,
                 exact: bool = False, points: Optional[np.ndarray] = None):
        vars(self).update(n=n, _dist=dist, source=source, exact=exact,
                          points=points)

    def __setattr__(self, name, value):
        raise AttributeError(f"FiniteMetric is immutable: cannot set {name}")

    @property
    def dist(self) -> np.ndarray:
        """(n, n) float64 distance matrix, read-only."""
        if self._dist is None:
            d = self.block()
            d.setflags(write=False)
            vars(self)["_dist"] = d
        return self._dist

    @property
    def exact2x(self) -> Optional[np.ndarray]:
        """2 * dist as a new read-only int64 array when ``exact``, else None."""
        if not self.exact:
            return None
        e = (2 * self.dist).astype(np.int64)
        e.setflags(write=False)
        return e

    def block(self, rows=None, cols=None) -> np.ndarray:
        """dist[np.ix_(rows, cols)], None standing for every site; a new
        array, except dist itself when both are None and dist is built.

        A point-backed metric that has not built dist computes the block
        from its points, with dist's bits; a distance past float64's range
        is inf, without a warning, as in dist.
        """
        if self._dist is None:
            p = self.points
            with np.errstate(over="ignore"):
                return _pairwise(p if rows is None else p[rows],
                                 p if cols is None else p[cols])
        if rows is not None and cols is not None:
            return self._dist[np.ix_(rows, cols)]
        every = slice(None)
        return self._dist[every if rows is None else rows,
                          every if cols is None else cols]


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
    exact: bool  # computed on an exact metric


# ---------------------------------------------------------------------------
# constructors


def build_cloud(points: Iterable) -> PointCloud:
    """Ingest points, validating coordinates and dropping duplicates: points
    equal by value to an earlier one, so -0.0 and 0.0 are the same."""
    if not isinstance(points, np.ndarray):
        try:
            points = list(points)
        except TypeError:
            raise GapError("malformed-points", "points must be an (n, d) array of reals") from None
    arr = _real_array(points, "malformed-points", "points must be an (n, d) array of reals")
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

    # each row's key is its bytes after + 0.0: coordinates are finite and
    # -0.0 + 0.0 is +0.0, so rows equal by value share a key
    rows = np.ascontiguousarray(arr + 0.0)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    first: dict = {}
    for i, key in enumerate(keys.tolist()):
        first.setdefault(key, i)
    keep = list(first.values())
    dropped = arr.shape[0] - len(keep)
    arr = np.ascontiguousarray(arr[keep])
    arr.setflags(write=False)
    return PointCloud(dim=int(arr.shape[1]), points=arr, duplicates_removed=dropped)


def _real_array(values, code: str, message: str) -> np.ndarray:
    """values as a float64 array; GapError(code) for ragged rows and for
    entries that are not real numbers, a complex array's included (numpy
    would drop their imaginary parts with only a warning)."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "c":
        raise GapError(code, message)
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise GapError(code, message) from None


def _index(v, code: str, what: str) -> int:
    """v as an int when it is an integer (a Python or numpy int, or an
    integral float); GapError(code) otherwise, never a truncation."""
    try:
        i = int(v)
        if i == v:
            return i
    except (TypeError, ValueError, OverflowError):
        pass
    raise GapError(code, f"{what} {v!r} is not an integer")


def build_graph(n: int, edges: Iterable, weighted: Optional[bool] = None,
                require_connected: bool = True) -> Graph:
    """Validate a simple undirected graph.

    ``edges`` yields (u, v) or (u, v, w) tuples, 0-based.  When ``weighted``
    is None it is inferred: True iff any edge came with an explicit weight.
    Connectivity is required by default; the {1,2} clique reduction is the
    one consumer that accepts disconnected inputs.
    """
    n = _index(n, "malformed-graph", "vertex count")
    if n < 1:
        raise GapError("empty-graph", "graph needs at least one vertex")
    norm = []
    seen = set()
    saw_weight = False
    for e in edges:
        try:
            size = len(e)
        except TypeError:
            size = None
        if size == 2:
            u, v = e
            w = 1.0
        elif size == 3:
            u, v, w = e
            saw_weight = True
        else:
            raise GapError("malformed-graph", f"edge {e!r} is not (u, v) or (u, v, w)")
        u, v = _index(u, "malformed-graph", "vertex"), _index(v, "malformed-graph", "vertex")
        if not (0 <= u < n and 0 <= v < n):
            raise GapError("malformed-graph", f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GapError("malformed-graph", f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GapError("malformed-graph", f"parallel edge ({key[0]}, {key[1]})")
        seen.add(key)
        if isinstance(w, np.complexfloating):  # float() would drop its imaginary part
            w = complex(w)
        try:
            w = float(w)
        except (TypeError, ValueError):
            raise GapError("malformed-graph",
                           f"edge ({u}, {v}) weight {w!r} is not a real number") from None
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
    _dist(a[i], b[j]) is the same entry on Python floats.
    The output is filled _BLOCK rows at a time with in-place ufuncs, so
    peak memory is the result plus one (_BLOCK, len(b)) scratch block.

    Each entry is computed on its own, so any block of rows and columns
    has the bits of the same entries of the full matrix.  While every
    square and partial sum stays in float64's normal range, an entry's
    relative error is at most (d / 2 + 2) * 2**-53 to first order: the
    difference and the square round once each, the d - 1 additions of
    nonnegative terms once each, the square root once and halves the
    relative error of its argument.  So for d <= 4096 two entries' errors
    and two more roundings stay below 1e-12, the margin _farthest_pair
    prunes with.  A square below 2**-1022 rounds with an absolute error of
    at most 2**-1075; that moves an entry by at most sqrt(d) * 2**-537,
    below 1e-150 for any d under 10**20.
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


def _dist(a, b) -> float:
    """_pairwise's entry for one pair of points, given as float sequences.

    The same rule on Python floats, for per-point callers: the squares of
    the coordinate differences are added in coordinate order, then
    square-rooted, so the result has the matrix entry's bits.  The loop is
    explicit because builtin sum() of floats is compensated from Python
    3.12 on.  A square past float64's range is inf, without a warning.
    """
    acc = 0.0
    for u, v in zip(a, b):
        t = u - v
        acc += t * t
    return sqrt(acc)


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

    Leading axes of mat are a batch, and i, j are arrays of its shape.  i
    is the first row holding the extreme and j the first column in that
    row, which is above the diagonal: a column j < i would put the extreme
    in the earlier row j too.  The diagonal (zero under a max over a
    metric, +inf under a min) ties the extreme only when every entry does,
    and then the answer is (0, 1).  Only row reductions and one row gather
    are made, so a read-only mat is never copied.
    """
    arg = np.argmax if largest else np.argmin
    i = arg(mat.max(axis=-1) if largest else mat.min(axis=-1), axis=-1)
    j = arg(np.take_along_axis(mat, i[..., None, None], axis=-2)[..., 0, :], axis=-1)
    return i, j + (i == j)


def _farthest_pair(points: np.ndarray) -> tuple:
    """(i, j, dist) that _first_pair gives on _pairwise(points, points),
    scanning only the rows that can hold the maximum.

    With c the centroid, dc[i] = |p_i - c| and Rc = max(dc), the triangle
    inequality bounds every entry of row i by dc[i] + Rc.  L, the maximum
    of the row of the point farthest from c, is a distance of the cloud,
    so a row bounded below L cannot hold the diameter.  By _pairwise's
    error bound, row i is skipped only when
    (dc[i] + Rc) * (1 + 1e-12) + 1e-150 < min(L, 1e150): the cap keeps
    every square of a skipped row finite, the 1e-150 covers squares that
    underflow, and a NaN or inf bound (a centroid that overflowed, or
    d > 4096, past the margin's error bound) skips nothing.  Every row
    holding the maximum survives, so scanning the survivors in index
    order, _BLOCK rows at a time, keeps _first_pair's rule: the first row
    holding the maximum, then its first column, and (0, 1) on a full tie.
    Points on a sphere about c keep every row: time stays O(n^2), memory
    O(n * _BLOCK).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dc = _pairwise(points.mean(axis=0)[None], points)[0]
        L = _pairwise(points[[np.argmax(dc)]], points).max()
        margin = 1.0 + 1e-12 if points.shape[1] <= 4096 else np.inf
        bound = (dc + dc.max()) * margin + 1e-150
        rows = np.flatnonzero(~(bound < min(L, 1e150)))
        best, i, j = -np.inf, 0, 0
        for lo in range(0, rows.size, _BLOCK):
            block = _pairwise(points[rows[lo:lo + _BLOCK]], points)
            top = block.max(axis=1)
            t = int(np.argmax(top))
            if top[t] > best:
                best, i, j = top[t], int(rows[lo + t]), int(np.argmax(block[t]))
    return i, j + (i == j), float(best)


def build_euclidean(cloud: PointCloud) -> FiniteMetric:
    """Point-backed L2 metric over a point cloud (see _pairwise); it keeps
    cloud.points, not a copy, and computes no distance here.

    A distance past float64's range is inf, without a warning; the report
    writer rejects it as non-finite.
    """
    return FiniteMetric(n=cloud.n, dist=None, source="euclidean", points=cloud.points)


def build_graph_metric(g: Graph) -> FiniteMetric:
    """All-pairs shortest-path metric of a connected graph.

    An edge's length is its weight w, or 1 in an unweighted graph.  When
    every doubled length L = 2w is an integer and the sentinel
    top = (n - 1) * max(L) + 1, which exceeds every shortest path, has
    top <= 2**53, the doubled lengths are closed in integers: one
    _min_plus over np.min_scalar_type(2 * top), an unsigned dtype that
    holds every sum the closure forms (uint8 for an unweighted graph up to
    n = 64, at most uint64), halved into dist, and the metric is exact.
    Every doubled distance is below 2**53, so every distance is an exact
    float and dist equals a float64 closure bit for bit.  Any other graph,
    non-half-integer lengths or paths too long for the bound, is closed
    once in float64 and is not exact; if 2 * (n - 1) * max(w) overflows
    float64 it raises distance-overflow before the closure.
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
        lengths = [w for _, _, w in g.edges]
        # a shortest path has at most n - 1 edges: every finite sum the
        # closure forms is at most twice that long
        if 2.0 * (n - 1) * max(lengths) == np.inf:
            raise GapError("distance-overflow",
                           f"paths of {n - 1} edges of weight {max(lengths)!r} "
                           "overflow float64")
        d = np.full((n, n), np.inf)
    # flat indices of every (u, v), then of every (v, u): put repeats a
    # list of lengths over the second half
    d.put([u * n + v for u, v, _ in g.edges] + [v * n + u for u, v, _ in g.edges],
          lengths)
    d.flat[::n + 1] = 0
    _min_plus(d, d)
    if exact:
        d = d / 2.0
    d.setflags(write=False)
    return FiniteMetric(n=n, dist=d, source="graph", exact=exact)


def build_explicit(dist) -> FiniteMetric:
    """Validate and wrap an explicit distance matrix.

    Checks symmetry, a zero diagonal with positive off-diagonal entries, and
    the triangle inequality within TRIANGLE_TOL.
    """
    d = _real_array(dist, "invalid-matrix", "distance matrix must be an array of reals")
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
    d = d.copy()
    d.setflags(write=False)
    return FiniteMetric(n=n, dist=d, source="explicit")


# ---------------------------------------------------------------------------
# samples


def make_sample(indices: Iterable, n: int) -> Sample:
    """Validate indices: distinct, in [0, n), k >= 2; stored sorted."""
    idx = [_index(i, "malformed-sample", "sample index") for i in indices]
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
        idx = [_index(i, "malformed-sample", "sample index") for i in p]
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
    minimum.
    """
    idx = _as_indices(m, p, 2)
    sub = m.block(idx, idx)
    np.fill_diagonal(sub, np.inf)
    a, b = _first_pair(sub, largest=False)
    return float(sub[a, b]) / 2.0, (int(idx[a]), int(idx[b]))


def max_gap(m: FiniteMetric, p) -> tuple:
    """(R, farthest_site): covering radius of p over all sites of m.

    R = max over sites q of min over sampled s of dist(q, s); 0 when p = M.
    Witness is the smallest site index realizing R.
    """
    idx = _as_indices(m, p, 1)
    nearest = m.block(None, idx).min(axis=1)
    site = int(np.argmax(nearest))  # first occurrence = smallest index
    return float(nearest[site]), site


def gap_ratio(m: FiniteMetric, p) -> GapReport:
    """Full gap report for a sample: r, R, GR = R/r and both witnesses."""
    idx = _as_indices(m, p, 2)
    r, pair = min_gap(m, idx)
    if r == 0.0:  # distinct points whose distance underflowed
        raise GapError("zero-distance",
                       f"sites {pair[0]} and {pair[1]} are at distance 0")
    R, site = max_gap(m, idx)
    return GapReport(r=r, R=R, gap_ratio=R / r, closest_pair=pair,
                     farthest_site=site, exact=m.exact)


def gap_fraction(m: FiniteMetric, p) -> Fraction:
    """Gap ratio as an exact rational; requires an exact metric.

    r and R are binary fractions read from dist, so R / r is exact.
    """
    if not m.exact:
        raise GapError("exact-unavailable",
                       "metric has no exact doubled-integer representation")
    rep = gap_ratio(m, p)
    return Fraction(rep.R) / Fraction(rep.r)


def diameter(m: FiniteMetric) -> tuple:
    """(i, j, dist): lexicographically smallest pair at maximum distance.

    A point-backed metric scans only the rows that can hold it
    (_farthest_pair), with the same result.
    """
    if m.n < 2:
        raise GapError("too-few-sites", "diameter needs at least 2 sites")
    if m.points is not None:
        return _farthest_pair(m.points)
    i, j = map(int, _first_pair(m.dist, largest=True))
    return i, j, float(m.dist[i, j])
