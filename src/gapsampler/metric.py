"""Finite metric spaces and exact gap evaluation.

A sample P drawn from a finite metric space (M, delta) is judged by two
radii.  The minimum gap r is half the smallest pairwise distance inside P:
the radius of the largest equal balls around the sampled sites whose
interiors stay disjoint.  The maximum gap R is the covering radius: the
largest distance from any site of M to its nearest sampled site.  Their
quotient GR = R / r is the gap ratio; the lower it is, the more evenly the
sample spreads over the space.

Distances are float64.  Explicit and weighted graph metrics store their
matrix.  A Euclidean metric is point-backed and an unweighted graph
metric graph-backed: each builds its matrix only when something reads
``dist`` (the oracle, the certifiers and the coreset search do).  The gap
reports, the diameter and farthest-point insertion read only the rows and
blocks they need, with the matrix entries' bits: a point-backed metric
computes them from its points, and R and the diameter reduce rows as the
distance kernel makes them, a block of _BLOCK entries at a time; a
graph-backed metric reads each row by one breadth-first search, R by one
search from every sampled site at once, and the diameter by eccentricity
bounds.
Metrics whose distances are all half-integers (shortest paths of
unweighted graphs, the {1,2} clique reductions) are flagged ``exact``:
halves are exactly representable in binary floats, so equalities on dist
are equalities, gap ratios have exact rational forms, and ``exact2x``, the
doubled matrix in int64, is derived from dist on request, not stored.

A graph metric is exact when every doubled edge length is an integer and
the sentinel top = (n - 1) * max doubled length + 1 has top <= 2**53; its
shortest paths are then closed in the narrowest unsigned dtype that holds
2 * top (uint8, uint16, ...) and halved into dist, and every distance is
an exact float.  Past that bound the closure runs in float64 and the
metric is not exact.  A breadth-first row holds hop counts, integers that
float64 holds exactly, so it has the bits of the closure's row.

All functions here are pure; every returned object is immutable.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from numbers import Real
from typing import Iterable, Optional

import numpy as np

from .errors import GapError

# Tolerance for the triangle-inequality audit of explicit matrices.
TRIANGLE_TOL = 1e-9

# Entries per row block of the pairwise-distance kernel: a block has
# max(1, _BLOCK // len(b)) rows, and each scratch array holds one block.
_BLOCK = 1 << 16


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

    Explicit and weighted graph metrics store the (n, n) float64 matrix
    ``dist``.  The others build ``dist`` only on first access, then cache
    it read-only.  A Euclidean metric is point-backed: it keeps the cloud's
    read-only ``points``, and dist is _pairwise(points, points).  An
    unweighted graph metric is graph-backed: it keeps the graph's
    adjacency lists, and dist is build_graph_metric's hop-count closure.
    ``block`` reads any part of the matrix, with its bits, without
    building it.

    ``exact`` is True when every distance is an exact half-integer and,
    for graph metrics, within build_graph_metric's 2**53 bound; it is
    always True for unweighted graph metrics.
    """

    def __init__(self, n: int, dist: Optional[np.ndarray], exact: bool = False,
                 points: Optional[np.ndarray] = None, adjacency: Optional[list] = None):
        vars(self).update(n=n, _dist=dist, exact=exact, points=points, _adj=adjacency)

    def __setattr__(self, name, value):
        raise AttributeError(f"FiniteMetric is immutable: cannot set {name}")

    @property
    def dist(self) -> np.ndarray:
        """(n, n) float64 distance matrix, read-only."""
        if self._dist is None:
            if self.points is None:
                n = self.n
                arcs = [u * n + v for u, nbrs in enumerate(self._adj) for v in nbrs]
                # every doubled length is 2; 2n - 1 <= 2**53 for any n a
                # list can hold, so the metric is exact
                d = _closure(n, arcs, 2, 2 * n - 1)
            else:
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

    def block(self, rows=None, cols=None, reduce=None) -> np.ndarray:
        """dist[np.ix_(rows, cols)], None standing for every site; a new
        array, except a read-only view of dist when both are None and dist
        is built.  With ``reduce`` (np.min, np.max or np.argmin), that
        reduction of each row of the block instead.  Rows and cols are
        integers in [0, n), with repeats (see _selection).

        A point-backed metric that has not built dist computes the block
        from its points, with dist's bits, and reduces it one kernel block
        at a time (see _pairwise); a distance past float64's range is inf,
        without a warning, as in dist.  A graph-backed one reads each row
        by a breadth-first search, and block(None, cols, np.min) by one
        search from every column at once; memory is O(n) per row.

        On every backing no rows or no columns give the empty block, and no
        rows the empty reduction; a reduction over no columns is refused
        with empty-selection.
        """
        rows, cols = _selection(rows, self.n), _selection(cols, self.n)
        if reduce is not None and cols is not None and not cols.size:
            raise GapError("empty-selection", "a row reduction needs at least one column")
        return self._block(rows, cols, reduce)

    def _block(self, rows=None, cols=None, reduce=None) -> np.ndarray:
        """block without its checks, for callers whose indices are checked."""
        if self._dist is None:
            if self.points is None:
                return _hop_block(self._adj, rows, cols, reduce)
            p = self.points
            with np.errstate(over="ignore"):
                return _pairwise(p if rows is None else p[rows],
                                 p if cols is None else p[cols], reduce)
        if rows is not None and cols is not None:
            rows, cols = np.ix_(rows, cols)
        every = slice(None)
        blk = self._dist[every if rows is None else rows, every if cols is None else cols]
        return blk if reduce is None else reduce(blk, axis=-1)


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
    entries that are not real numbers: complex values, which numpy would
    cut to their real parts with only a warning, and strings, which it
    would parse.  An object array is read only when every entry is a
    numbers.Real, and an int past float64's range is refused: _real's rule
    for one value."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind not in "cSUO" or (
                arr.dtype.kind == "O" and all(isinstance(v, Real) for v in arr.flat)):
            return arr.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise GapError(code, message)


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


def _real(v, code: str, what: str) -> float:
    """v as a float when it is a real number (a numbers.Real: a Python or
    numpy int or float, nan and inf included); GapError(code) otherwise, so
    strings, None, complex values and arrays are never read by float(), cut
    to their real part or compared elementwise."""
    if isinstance(v, Real):
        try:
            return float(v)
        except OverflowError:  # an int past float64's range
            pass
    raise GapError(code, f"{what} {v!r} is not a real number")


def _size(v, code: str, what: str, least: int, most: Optional[int] = None) -> int:
    """v as an int in [least, most] (most None: no upper bound), the one
    check of every size argument; GapError(code) otherwise (see _index)."""
    v = _index(v, code, what)
    if not least <= v <= (v if most is None else most):
        rule = f"be >= {least}" if most is None else f"satisfy {least} <= {what} <= {most}"
        raise GapError(code, f"{what} must {rule}, got {v}")
    return v


def _k(k, n: Optional[int] = None) -> int:
    """A sample size: an integer k >= 2, and k <= n when n is given."""
    return _size(k, "k-out-of-range", "k", 2, n)


def _sites(values, n: int, least: int, what: str = "sample index") -> np.ndarray:
    """The one check of a set of site indices (or of vertices), a Sample
    standing for its indices, as a sorted int64 array.  Refusals, in order:
    malformed-sample, fewer than ``least`` (sample-too-small),
    duplicate-indices, index-out-of-range; all on Python ints, never wrapped."""
    if isinstance(values, Sample):
        idx = list(values.indices)  # sorted ints already
    else:
        idx = sorted(_index(v, "malformed-sample", what) for v in values)
    if len(idx) < least:
        raise GapError("sample-too-small", f"at least {least} sites are needed, got {len(idx)}")
    if len(set(idx)) < len(idx):
        a = next(a for a, b in zip(idx, idx[1:]) if a == b)
        raise GapError("duplicate-indices", f"{what} {a} repeats: indices must be distinct")
    if idx and (idx[0] < 0 or idx[-1] >= n):
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise GapError("index-out-of-range", f"{what} {bad} outside [0, {n})")
    return np.array(idx, dtype=np.int64)


def _selection(v, n: int) -> Optional[np.ndarray]:
    """block's rows or cols, None or entries in [0, n) in any order, as an
    int64 array: an integer array costs one min and one max, and any other
    input is read entry by entry with _index, so np.array([]) is empty."""
    if v is None:
        return None
    a = np.asarray(v)
    if a.dtype.kind not in "iu":
        a = np.array([_index(x, "malformed-sample", "site index") for x in a.ravel().tolist()],
                     dtype=object).reshape(a.shape)
    if a.size and not (0 <= a.min() and a.max() < n):
        bad = a.min() if a.min() < 0 else a.max()
        raise GapError("index-out-of-range", f"site index {bad} outside [0, {n})")
    return a.astype(np.int64, copy=False)


def build_graph(n: int, edges: Iterable, require_connected: bool = True) -> Graph:
    """Validate a simple undirected graph.

    ``edges`` yields (u, v) or (u, v, w) tuples, 0-based; the graph is
    weighted iff some edge came with an explicit weight.  Connectivity is
    required by default; the {1,2} clique reduction is the one consumer
    that accepts disconnected inputs.
    """
    n = _index(n, "malformed-graph", "vertex count")
    if n < 1:
        raise GapError("empty-graph", "graph needs at least one vertex")
    norm = []
    seen = set()
    weighted = False
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
            weighted = True
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
        w = _real(w, "malformed-graph", f"edge ({u}, {v}) weight")
        if not (w > 0 and np.isfinite(w)):
            raise GapError("malformed-graph", f"edge ({u}, {v}) weight {w} not positive")
        norm.append((key[0], key[1], w))
    g = Graph(n=n, edges=tuple(sorted(norm)), weighted=weighted)
    if require_connected:
        _connected_adjacency(g)
    return g


def _connected_adjacency(g: Graph) -> list:
    """g's adjacency lists, each vertex's neighbours in edge order;
    disconnected-graph naming vertex 0 and the first vertex it cannot
    reach.  Lists, not arrays: graphs here are often tiny, and the
    breadth-first searches run on Python ints.  With fewer than n - 1
    edges, g cannot be connected, and the search from vertex 0 keys on the
    edges' endpoints: a huge n is refused in O(m), before any per-vertex
    list is made."""
    adj = [[] for _ in range(g.n)] if len(g.edges) >= g.n - 1 else defaultdict(list)
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    reached = {0}
    order = [0]
    for u in order:
        for v in adj[u]:
            if v not in reached:
                reached.add(v)
                order.append(v)
    if len(order) < g.n:  # the first vertex missed is at most len(order)
        first = min(set(range(len(order) + 1)) - reached)
        raise GapError("disconnected-graph", f"vertices 0 and {first} are not connected")
    return adj


def _hops(adj: list, sources) -> list:
    """Each vertex's hop count to the nearest of ``sources``, -1 where none
    is reachable: a breadth-first search one level at a time."""
    hops = [-1] * len(adj)
    frontier = list(sources)
    for s in frontier:
        hops[s] = 0
    h = 0
    while frontier:
        h += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if hops[v] < 0:
                    hops[v] = h
                    nxt.append(v)
        frontier = nxt
    return hops


def _hop_block(adj: list, rows, cols, reduce) -> np.ndarray:
    """FiniteMetric.block of a connected graph's hop-count metric: one
    breadth-first search per row, each converted to float64 (exact for hop
    counts) and cut to ``cols`` before the next runs; with rows None and
    np.min, one search from every column, each vertex's hops to its
    nearest column.  A pure-Python search beats a numpy frontier here: one
    numpy call per level costs more than a level's Python work on the
    sparse graphs this serves."""
    every = range(len(adj))
    if rows is None and reduce is np.min:
        return np.array(_hops(adj, every if cols is None else np.asarray(cols).tolist()),
                        dtype=np.float64)
    rows = every if rows is None else np.asarray(rows).tolist()
    out = np.empty((len(rows), len(adj) if cols is None else len(cols)))
    for i, r in enumerate(rows):
        row = np.array(_hops(adj, (r,)), dtype=np.float64)
        out[i] = row if cols is None else row[cols]
    return out if reduce is None else reduce(out, axis=-1)


def _graph_diameter(adj: list) -> tuple:
    """(i, j, dist) that _first_pair gives on the hop-count closure of a
    connected graph with at least 2 vertices, by breadth-first searches
    pruned with eccentricity bounds (Takes & Kosters 2011, "Determining
    the diameter of small world networks").

    A search from v gives its eccentricity e and, for every w at d hops,
    max(d, e - d) <= ecc(w) <= e + d (_bound).  The searches alternate
    between the vertex with the largest upper bound and the one with the
    smallest lower bound, ties to the highest degree, among those whose
    upper bound exceeds the largest eccentricity found, and stop when
    there are none: that eccentricity is then the diameter D.  i is the
    first vertex of eccentricity D and j the first vertex D hops from it,
    so the rest searches, in index order, from the vertices whose upper
    bound still reaches D, each search tightening the bounds of the rest.
    The worst case is about 2n searches: O(n m) time in O(n + m) memory.
    """
    n = len(adj)
    deg = np.array([len(nbrs) for nbrs in adj])
    lower = np.zeros(n, dtype=np.int64)
    upper = np.full(n, n, dtype=np.int64)  # above every eccentricity
    best, high = 0, True
    while True:
        live = upper > best
        if not live.any():
            break
        key = upper * (n + 1) + deg if high else deg - lower * (n + 1)
        _, e = _bound(adj, int(np.where(live, key, key.min() - 1).argmax()), lower, upper)
        best, high = max(best, e), not high
    v = 0
    while True:
        v += int((upper[v:] == best).argmax())  # the true i is one of them
        row, e = _bound(adj, v, lower, upper)
        if e == best:
            return v, int(row.argmax()), float(best)
        v += 1


def _bound(adj: list, v: int, lower: np.ndarray, upper: np.ndarray) -> tuple:
    """(hops from v as an int64 array, v's eccentricity e), by one
    breadth-first search; lower and upper, bounds on every vertex's
    eccentricity, are tightened in place by max(d, e - d) and e + d."""
    row = np.array(_hops(adj, (v,)))
    e = int(row.max())
    np.maximum(lower, np.maximum(row, e - row), out=lower)
    np.minimum(upper, row + e, out=upper)
    return row, e


def _pairwise(a: np.ndarray, b: np.ndarray, reduce=None) -> np.ndarray:
    """(len(a), len(b)) L2 distances between the rows of a and of b, or
    with ``reduce`` (np.min, np.max or np.argmin) the (len(a),) reduction
    of each row.

    Squared coordinate differences are summed in coordinate order, then
    square-rooted.  (x - y)^2 == (y - x)^2 exactly, so _pairwise(p, p) is
    exactly symmetric with a zero diagonal, which FPI's halving identity
    relies on.  For d <= 7 this equals sqrt(((a[:, None] - b[None]) ** 2)
    .sum(-1)) bit for bit; numpy sums 8 or more terms pairwise instead.
    _dist(a[i], b[j]) is the same entry on Python floats.
    Rows are computed max(1, _BLOCK // len(b)) at a time with in-place
    ufuncs into the output, beside one scratch block.  With ``reduce`` a
    second scratch block stands in for the output, and each block is
    reduced as soon as it is done: memory is O(len(a) + _BLOCK + d len(b)),
    never the whole matrix.

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
    m = cols.shape[1]
    step = max(1, _BLOCK // max(m, 1))
    out = np.empty((n, m)) if reduce is None else []
    scratch = np.empty((1 if reduce is None else 2, min(step, n), m))
    for lo in range(0, max(n, 1), step):  # one block when a is empty: the empty reduction
        hi = min(lo + step, n)
        sq = scratch[0, :hi - lo]
        acc = out[lo:hi] if reduce is None else scratch[1, :hi - lo]
        np.subtract(a[lo:hi, 0, None], cols[0], out=acc)
        np.multiply(acc, acc, out=acc)
        for c in range(1, d):
            np.subtract(a[lo:hi, c, None], cols[c], out=sq)
            np.multiply(sq, sq, out=sq)
            np.add(acc, sq, out=acc)
        np.sqrt(acc, out=acc)
        if reduce is not None:
            out.append(reduce(acc, axis=1))
    return out if reduce is None else np.concatenate(out)


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

    For k in turn, out = min(out, a[:, k] + a[k, :]); any trailing axes of
    a and out are a batch, so a batch of matrices is stored (n, n, B) and
    every elementwise op runs over B contiguous values per entry, not over
    an n-wide inner row.  _min_plus(D, D) is the in-place Floyd-Warshall
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
    for k in range(a.shape[0]):
        np.minimum(out, a[:, k, None] + a[None, k], out=out)
    return out


def _first_pair(mat: np.ndarray) -> tuple:
    """Lexicographically smallest (i, j), i < j, at which the symmetric
    matrix mat attains its maximum off the diagonal.

    Leading axes of mat are a batch, and i, j are arrays of its shape.  i
    is the first row holding the maximum and j the first column in that
    row, which is above the diagonal: a column j < i would put the maximum
    in the earlier row j too.  The diagonal (zero in a metric) ties the
    maximum only when every entry does, and then the answer is (0, 1).
    Only row reductions and one row gather are made, so a read-only mat
    is never copied.  min_gap takes the same rule to a minimum.
    """
    i = np.argmax(mat.max(axis=-1), axis=-1)
    j = np.argmax(np.take_along_axis(mat, i[..., None, None], axis=-2)[..., 0, :], axis=-1)
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
    holding the maximum survives, so the first survivor whose row maximum
    is the largest, then the first column of its recomputed row, keeps
    _first_pair's rule, (0, 1) on a full tie included.  Points on a sphere
    about c keep every row: time stays O(n^2), memory O(n + _BLOCK).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dc = _pairwise(points.mean(axis=0)[None], points)[0]
        L = _pairwise(points[[np.argmax(dc)]], points).max()
        margin = 1.0 + 1e-12 if points.shape[1] <= 4096 else np.inf
        bound = (dc + dc.max()) * margin + 1e-150
        rows = np.flatnonzero(~(bound < min(L, 1e150)))
        top = _pairwise(points[rows], points, np.max)
        t = int(np.argmax(top))
        i = int(rows[t])
        j = int(np.argmax(_pairwise(points[[i]], points)[0]))
    return i, j + (i == j), float(top[t])


def build_euclidean(cloud: PointCloud) -> FiniteMetric:
    """Point-backed L2 metric over a point cloud (see _pairwise); it keeps
    cloud.points, not a copy, and computes no distance here.

    A distance past float64's range is inf, without a warning; the report
    writer rejects it as non-finite.
    """
    return FiniteMetric(n=cloud.n, dist=None, points=cloud.points)


def build_graph_metric(g: Graph) -> FiniteMetric:
    """Shortest-path metric of a connected graph.

    An unweighted graph's metric is graph-backed: it keeps the adjacency
    lists, reads rows and blocks by breadth-first search (see
    FiniteMetric.block) and closes all pairs, as below, only when ``dist``
    is read.  It is always exact.

    An edge's length is its weight w, or 1 in an unweighted graph.  When
    every doubled length L = 2w is an integer and the sentinel
    top = (n - 1) * max(L) + 1, which exceeds every shortest path, has
    top <= 2**53, the doubled lengths are closed in integers: one
    _min_plus over np.min_scalar_type(2 * top), an unsigned dtype that
    holds every sum the closure forms (uint8 for an unweighted graph up to
    n = 64, at most uint64), halved into dist, and the metric is exact.
    Every doubled distance is below 2**53, so every distance is an exact
    float and dist equals a float64 closure bit for bit.  Any other
    weighted graph, non-half-integer lengths or paths too long for the
    bound, is closed once in float64 and is not exact; if
    2 * (n - 1) * max(w) overflows float64 it raises distance-overflow
    before the closure.  A weighted graph is closed here, not on first
    read: a Dijkstra row would add its lengths in another order.
    """
    adj = _connected_adjacency(g)
    n = g.n
    if not g.weighted:
        return FiniteMetric(n=n, dist=None, exact=True, adjacency=adj)
    # Python floats: exact doubling, and inf, not a warning, on overflow
    doubled = [2.0 * w for _, _, w in g.edges]
    exact = all(map(float.is_integer, doubled))
    if exact:
        # a Python int, where a float product near 2**53 could round
        top = (n - 1) * int(max(doubled, default=0.0)) + 1
        exact = top <= 2 ** 53
    if exact:
        lengths = doubled
    else:
        top = None
        lengths = [w for _, _, w in g.edges]
        # a shortest path has at most n - 1 edges: every finite sum the
        # closure forms is at most twice that long
        if 2.0 * (n - 1) * max(lengths) == np.inf:
            raise GapError("distance-overflow",
                           f"paths of {n - 1} edges of weight {max(lengths)!r} "
                           "overflow float64")
    # flat indices of every (u, v), then of every (v, u): put repeats a
    # list of lengths over the second half
    arcs = [u * n + v for u, v, _ in g.edges] + [v * n + u for u, v, _ in g.edges]
    return FiniteMetric(n=n, dist=_closure(n, arcs, lengths, top), exact=exact)


def _closure(n: int, arcs: list, lengths, top: Optional[int]) -> np.ndarray:
    """Read-only (n, n) shortest-path dist of a graph whose arcs, flat
    indices u * n + v, have ``lengths`` (a list or one value), by
    _min_plus.  With an int ``top``, the lengths are doubled integers
    closed in np.min_scalar_type(2 * top) and halved (see
    build_graph_metric); with None, they are closed in float64."""
    if top is None:
        d = np.full((n, n), np.inf)
    else:
        d = np.full((n, n), top, dtype=np.min_scalar_type(2 * top))
    d.put(arcs, lengths)
    d.flat[::n + 1] = 0
    _min_plus(d, d)
    if top is not None:
        d = d / 2.0
    d.setflags(write=False)
    return d


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
    return FiniteMetric(n=n, dist=d)


# ---------------------------------------------------------------------------
# samples


def make_sample(indices: Iterable, n: int) -> Sample:
    """Validate indices: distinct, in [0, n), k >= 2; stored sorted."""
    return Sample(indices=tuple(_sites(indices, n, 2).tolist()))


# ---------------------------------------------------------------------------
# gap evaluation


def min_gap(m: FiniteMetric, p) -> tuple:
    """(r, closest_pair): half the minimum pairwise distance within p, and
    the lexicographically smallest pair at it (_closest_pair), the two
    smallest indices when every distance is inf."""
    d, pair = _closest_pair(m, _sites(p, m.n, 2), 1)
    return d / 2.0, pair


def _closest_pair(m: FiniteMetric, sites, first: int) -> tuple:
    """(d, (u, v)): the smallest distance d from a site sites[i],
    i >= first >= 1, to a site before it in ``sites``, and the
    lexicographically smallest pair u < v at d among those read; when every
    such distance is inf, the smallest of them all.

    Row i is read against sites[:i] only, max(1, _BLOCK // k) rows per
    block, each block cut at its last row's columns: from first = 1 that
    is about half of the (k, k) block, and memory is O(k + _BLOCK).
    """
    sites = np.asarray(sites, dtype=np.int64)
    k, n = sites.size, m.n
    step = max(1, _BLOCK // k)
    best, pair = np.inf, n * n  # pair (u, v) is u * n + v
    for lo in range(first, k, step):
        hi = min(lo + step, k)
        sub = m.block(sites[lo:hi], sites[:hi - 1])
        # NaN where a column is not before its row: fmin skips NaN, and
        # row lo reads sites[0] at least, so low is a distance
        sub[np.arange(lo, hi)[:, None] <= np.arange(hi - 1)] = np.nan
        low = np.fmin.reduce(sub, axis=None)
        if low <= best:
            # flat positions: a 2-D np.nonzero is ten times slower here
            a, b = np.divmod(np.flatnonzero(sub == low), hi - 1)
            u, v = np.minimum(sites[lo + a], sites[b]), np.maximum(sites[lo + a], sites[b])
            code = int((u * n + v).min())
            best, pair = low, code if low < best else min(pair, code)
    return float(best), divmod(pair, n)


def max_gap(m: FiniteMetric, p) -> tuple:
    """(R, farthest_site): covering radius of p over all sites of m.

    R = max over sites q of min over sampled s of dist(q, s); 0 when p = M.
    Witness is the smallest site index realizing R.  Each site's minimum
    is reduced from its row as it is computed, so a point-backed metric
    needs O(n + _BLOCK) memory, not the (n, k) block.
    """
    idx = _sites(p, m.n, 1)
    nearest = m.block(None, idx, np.min)
    site = int(np.argmax(nearest))  # first occurrence = smallest index
    return float(nearest[site]), site


def gap_ratio(m: FiniteMetric, p) -> GapReport:
    """Full gap report for a sample: r, R, GR = R/r and both witnesses."""
    idx = _sites(p, m.n, 2)
    return _gap_report(m, *min_gap(m, idx), *max_gap(m, idx))


def _gap_report(m: FiniteMetric, r: float, pair: tuple, R: float, site: int) -> GapReport:
    """The GapReport of min_gap's and max_gap's answers on m; zero-distance
    when r is 0, for distinct points whose distance underflowed."""
    if r == 0.0:
        raise GapError("zero-distance",
                       f"sites {pair[0]} and {pair[1]} are at distance 0")
    return GapReport(r=r, R=R, gap_ratio=R / r, closest_pair=pair,
                     farthest_site=site, exact=m.exact)


def gap_fraction(m: FiniteMetric, p) -> Fraction:
    """Gap ratio as an exact rational; requires an exact metric.

    r and R are binary fractions read from dist, so R / r is exact.
    """
    return _exact_fraction(m, lambda: gap_ratio(m, p))


def _exact_fraction(m: FiniteMetric, report) -> Fraction:
    """R / r of ``report()``, a GapReport on m, as an exact rational;
    exact-unavailable, before ``report`` is called, unless m is exact."""
    if not m.exact:
        raise GapError("exact-unavailable",
                       "metric has no exact doubled-integer representation")
    rep = report()
    return Fraction(rep.R) / Fraction(rep.r)


def diameter(m: FiniteMetric) -> tuple:
    """(i, j, dist): lexicographically smallest pair at maximum distance.

    A point-backed metric scans only the rows that can hold it
    (_farthest_pair), and a graph-backed one searches only from the
    vertices that can (_graph_diameter), with the same result.
    """
    if m.n < 2:
        raise GapError("too-few-sites", "diameter needs at least 2 sites")
    if m.points is not None:
        return _farthest_pair(m.points)
    if m._adj is not None:
        return _graph_diameter(m._adj)
    i, j = map(int, _first_pair(m.dist))
    return i, j, float(m.dist[i, j])
