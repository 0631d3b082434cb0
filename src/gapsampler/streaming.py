"""One-pass streaming coreset via the doubling algorithm.

The stream is summarized twice at once.  A center set T of at most k points
tracks scale: a new point joins T when it is farther than 2*R_thresh from
every center, and when T overflows to k+1 the threshold doubles and T is
greedily re-filtered (in insertion order, keeping a center only if it is
more than R_thresh from everything already kept) until at most k remain.
The threshold only doubles, so R_thresh stays within a constant factor of
the best possible covering radius for k centers; every seen point stays
within 2*R_thresh of T, giving the covering guarantee R_T <= 8 * R_OPT.

A grid coreset rides on top: cell side eps3 * R_thresh / (2 sqrt(d)) with

    eps1 = eps / (2 + eps),   eps3 = eps1 / (4 (3 + 2 eps1)),

representatives are first-seen per cell, and whenever R_thresh doubles the
cell side doubles with it, merging sibling cells (the representative of the
lexicographically smallest nonempty child survives).  Cell indices merge by
integer halving, never by re-deriving from coordinates, so merges are exact.
The final coreset is searched exhaustively like the static one; for
eps < 1/8 the winner's gap ratio over the full stream is within (1 + eps)
of optimal.

Ingestion is strictly sequential and runs per point on Python floats, one
short step: the cell comes from coreset's one-point cell rule (the rule
of grid_cells; finalization shares coreset's representative search), the
center test walks T in order and stops at the first center within
2*R_thresh (distances are metric._dist, one entry of the pairwise
kernel), and the point is filed under its cell in place.  Every point
the state holds (the origin, the centers and the cell representatives) is
a tuple of Python floats made once per input point, so a caller may reuse
one buffer for the whole stream.  Zero or overflowing first distances, a
point whose distance to every center overflows, non-finite points and
cell indices past 2**53 are coded errors raised before the state changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt
from typing import Iterable

import numpy as np

from .coreset import ENUM_GUARD, GridCoreset, _point_cell, search_coreset
from .errors import GapError
from .metric import _dist, _k, _real, _real_array, _size


@dataclass(frozen=True)
class StreamParams:
    eps: float   # user eps in (0, 1/8)
    eps1: float  # eps / (2 + eps)
    eps3: float  # eps1 / (4 (3 + 2 eps1)), always < eps1 / 12
    d: int


@dataclass
class StreamState:
    """Mutable doubling-algorithm state; treat as owned by one consumer.

    Every point it holds is a d-tuple of Python floats."""

    params: StreamParams
    k: int
    origin: tuple               # grid anchor: the first point seen
    cell_side: float
    cells: dict                 # cell index tuple -> (stream index, point)
    T: list                     # [(stream index, point), ...] insertion order
    R_thresh: float
    points_seen: int = 0
    phase: int = 0              # number of doublings so far
    peak_cells: int = 0


def stream_params(eps: float, d: int) -> StreamParams:
    eps = _real(eps, "eps-out-of-range", "eps")
    if not 0.0 < eps < 0.125:
        raise GapError("eps-out-of-range", f"eps must lie in (0, 1/8), got {eps}")
    d = _size(d, "invalid-dimension", "dimension", 1)
    eps1 = eps / (2.0 + eps)
    eps3 = eps1 / (4.0 * (3.0 + 2.0 * eps1))
    return StreamParams(eps=eps, eps1=eps1, eps3=eps3, d=d)


def _refuse_nonfinite(idx: int, x: tuple) -> None:
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise GapError("nonfinite-coordinate",
                       f"stream point {idx} has a non-finite coordinate {bad[0]}")


_F64 = np.dtype(np.float64)


def _as_point(x) -> tuple:
    """x as a tuple of Python floats; a 1-D float64 array, the form the CLI
    and bulk callers pass, skips the general conversion's copies."""
    if type(x) is np.ndarray and x.dtype is _F64 and x.ndim == 1:
        return tuple(x.tolist())
    return tuple(_real_array(x, "malformed-points", "a stream point must be a vector of reals")
                 .ravel().tolist())


def _merge_cells(cells: dict) -> dict:
    """Halve every cell index; the lexicographically smallest nonempty child
    donates the representative of each merged cell."""
    merged: dict = {}
    for c in sorted(cells):
        merged.setdefault(tuple(ci // 2 for ci in c), cells[c])
    return merged


def _dist_to(T: list, x: tuple) -> float:
    """Distance from x to the nearest center of T; inf when T is empty."""
    near = inf
    for _, c in T:
        d = _dist(c, x)
        if d < near:
            near = d
    return near


def stream_init(first_points: Iterable, k: int, eps: float) -> StreamState:
    """Consume a stream prefix holding at least k distinct points.

    T becomes the first k distinct points and R_thresh their minimum
    pairwise distance; the grid (anchored at the very first point, cell side
    eps3 * R_thresh / (2 sqrt(d))) is seeded with everything consumed so
    far.  Any remaining points of ``first_points`` are passed one at a time
    to stream_ingest, so only the prefix is ever buffered.
    """
    k = _k(k)
    it = iter(first_points)
    prefix = []   # every consumed point, duplicates included
    T = []        # (stream index, point) of each first occurrence
    for x in it:
        x = _as_point(x)
        prefix.append(x)
        if not any(x == t for _, t in T):  # -0.0 == 0.0; nan != nan
            T.append((len(prefix) - 1, x))
            if len(T) == k:
                break
    if len(T) < k:
        raise GapError("too-few-distinct",
                       f"stream has only {len(T)} distinct points, k={k}")
    d = len(prefix[0])
    for idx, x in enumerate(prefix):
        if len(x) != d:
            raise GapError("dimension-mismatch", "stream points differ in dimension")
        _refuse_nonfinite(idx, x)
    params = stream_params(eps, d)
    R = min(_dist(a, b) for i, (_, a) in enumerate(T) for _, b in T[i + 1:])
    cell_side = params.eps3 * R / (2.0 * sqrt(d))
    if cell_side == 0.0:  # distinct points whose distance underflowed
        raise GapError("zero-distance", f"the first {k} distinct stream points "
                       f"are {R:g} apart at closest: a cell side of 0")
    if R == inf:  # the squares overflowed; every cell index would be 0
        raise GapError("distance-overflow", f"the first {k} distinct stream points "
                       "are too far apart: a squared distance overflows float64")
    cells: dict = {}
    for idx, x in enumerate(prefix):  # finite: grid-overflow is the one refusal
        cells.setdefault(_point_cell(x, prefix[0], cell_side), (idx, x))
    state = StreamState(params=params, k=k, origin=prefix[0], cell_side=cell_side,
                        cells=cells, T=T, R_thresh=R, points_seen=len(prefix),
                        peak_cells=len(cells))
    for x in it:
        stream_ingest(state, x)
    return state


def stream_ingest(state: StreamState, x) -> StreamState:
    """Feed one point: its cell, the center test (which stops at the first
    center in reach), its filing, and doubling phases as needed.

    A refused point leaves the state as it was."""
    x = _as_point(x)
    if len(x) != state.params.d:
        raise GapError("dimension-mismatch",
                       f"point has dimension {len(x)}, stream is {state.params.d}-D")
    idx = state.points_seen
    try:
        cell = _point_cell(x, state.origin, state.cell_side)
    except GapError:
        _refuse_nonfinite(idx, x)
        raise
    reach = 2.0 * state.R_thresh
    for _, c in state.T:  # x is finite now, so no distance is nan
        if _dist(c, x) <= reach:
            break
    else:  # no center in reach: x joins T, unless every distance overflowed
        if all(_dist(c, x) == inf for _, c in state.T):
            raise GapError("distance-overflow", f"stream point {idx} is too far "
                           "from every center: a squared distance overflows float64")
        state.T.append((idx, x))
    if cell not in state.cells:
        state.cells[cell] = (idx, x)
        state.peak_cells = max(state.peak_cells, len(state.cells))
    state.points_seen = idx + 1
    while len(state.T) > state.k:
        state.phase += 1
        state.R_thresh *= 2.0
        state.cell_side *= 2.0
        state.cells = _merge_cells(state.cells)
        kept: list = []
        for entry in state.T:  # insertion order; the first is always kept
            if _dist_to(kept, entry[1]) > state.R_thresh:
                kept.append(entry)
        state.T = kept
    return state


def stream_reps(state: StreamState) -> tuple:
    """(stream indices, points array) of the live coreset, by stream order."""
    items = sorted(state.cells.values(), key=lambda iv: iv[0])
    return [iv[0] for iv in items], np.array([iv[1] for iv in items])


def stream_finalize(state: StreamState, guard: int = ENUM_GUARD) -> tuple:
    """Search the final grid coreset for the best state.k-subset.

    Returns (Sample of stream indices, GapReport measured inside the
    coreset, GridCoreset snapshot).  Stream indices count every ingested
    point (duplicates included) starting at 0.
    """
    indices, pts = stream_reps(state)
    sample, report = search_coreset(indices, pts, state.k, state.points_seen, guard)
    grid = GridCoreset(origin=np.array(state.origin), cell_side=state.cell_side,
                       cells={c: iv[0] for c, iv in state.cells.items()})
    return sample, report, grid
