"""Exhaustive certification sweeps over all labeled graphs of small order.

Each sweep enumerates every edge subset of the complete graph K_n as a
bitmask, decodes chunks of masks into batched adjacency matrices, runs
the metric module's Floyd-Warshall kernel over the whole batch for the
shortest-path metrics, and evaluates the claim under test with integer
arithmetic only (distances on unweighted graphs are integers; gap-ratio
comparisons reduce to products).  The greedy claims run fpi.greedy_batch,
the one farthest-point kernel farthest_point_insertion also runs, over
the whole chunk; the sample claims walk the vertex subsets depth first
over the whole chunk at once.  No isomorphism reduction is attempted:
labeled enumeration is cheap at these sizes and keeps the bookkeeping
trivial.

Every batch is stored batch-last, (n, n, B), from the mask decoding on:
the closure, the connectivity filter and the subset walk then run each
elementwise op over B contiguous values.  The functions hand out
(B, n, n) views of that storage (X[b] is graph b's matrix), so no layer
copies a batch to change its layout.  A sweep refuses, before any work,
a max_n that is not an integer, is below its claim's smallest order or
is above MAX_ORDER; the decoding and the connected enumeration refuse an
order above MAX_ORDER too.

Claims covered:

- greedy guarantees: along every farthest-point run, the covering radius
  never increases, the minimum pairwise distance after an insertion equals
  the covering radius that triggered it, and the gap ratio stays <= 2;
- greedy vs oracle: the greedy k-sample's gap ratio is within the
  alpha-dependent factor (2/alpha above 2/3, else 4/(2-alpha), never more
  than 3) of the exhaustive optimum;
- graph floor: every sample with 2 <= k < n has GR >= 2/3, with equality
  forcing R = 1 and r = 3/2;
- reduction certificates: the independent-domination <-> gap-ratio-1
  equivalence on the {1,2}-metric (all simple graphs) and the
  efficient-domination <-> (r = 3/2, R = 1) equivalence on shortest-path
  metrics (all connected graphs).

The test suite checks the kernel against a plain-Python greedy and the
subset walk against per-subset gathers.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import GapError
from .fpi import greedy_batch
from .metric import _index, _min_plus
from .oracle import _closed_neighborhoods, _genmet

BIG = 64  # unreachable marker; n <= MAX_ORDER keeps real distances <= 10
MAX_ORDER = 11  # K_11's 55 edges fit an int64 mask; K_12 has 66
_CHUNK = 65536  # bitmasks decoded per batch


def _order(n, least: int, what: str) -> int:
    """n as an int; GapError max-n-out-of-range, before any work, for an n
    that is not an integer in [least, MAX_ORDER].  Above MAX_ORDER an int64
    mask cannot hold every edge of K_n: masks >> e is 0 for e >= 64, so the
    decoding would drop edges without a word."""
    n = _index(n, "max-n-out-of-range", what)
    if not least <= n <= MAX_ORDER:
        raise GapError("max-n-out-of-range",
                       f"{what} {n} is outside [{least}, {MAX_ORDER}]")
    return n


def adjacency_batch(n: int, masks: np.ndarray) -> np.ndarray:
    """(B, n, n) boolean adjacency matrices for a vector of bitmasks, a
    view of (n, n, B) storage: one row of B bits per pair of K_n.  Refuses
    an n outside [1, MAX_ORDER] (_order)."""
    n = _order(n, 1, "n")
    u, v = np.triu_indices(n, 1)  # the pairs in lexicographic order
    bits = ((masks[None] >> np.arange(len(u))[:, None]) & 1).astype(bool)
    adj = np.zeros((n, n, masks.shape[0]), dtype=bool)
    adj[u, v] = adj[v, u] = bits
    return adj.transpose(2, 0, 1)


def apsp_batch(adj: np.ndarray) -> np.ndarray:
    """Batched Floyd-Warshall on unweighted adjacency as int16 hop counts,
    BIG = unreachable; closed in adj's storage order, batch-last for
    adjacency_batch's views."""
    n = adj.shape[-1]
    D = np.where(adj.transpose(1, 2, 0), np.int16(1), np.int16(BIG))
    D[np.arange(n), np.arange(n)] = 0
    return _min_plus(D, D).transpose(2, 0, 1)


def _graph_batches(n: int) -> Iterator[tuple]:
    """Yield (masks, adjacency, shortest paths) for every labeled graph on
    n vertices, _CHUNK bitmasks at a time; BIG = unreachable.  Refuses
    an n outside [1, MAX_ORDER] (_order) before the first batch."""
    n = _order(n, 1, "n")
    total = 1 << (n * (n - 1) // 2)
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        adj = adjacency_batch(n, masks)
        yield masks, adj, apsp_batch(adj)


def iter_connected_metrics(n: int) -> Iterator[tuple]:
    """Yield (masks, D) for every connected labeled graph on n vertices;
    an n outside [1, MAX_ORDER] is refused before the first batch."""
    for masks, _, D in _graph_batches(n):
        S = D.transpose(1, 2, 0)
        connected = S.max(axis=(0, 1)) < BIG
        if connected.any():
            # compress keeps the batch last; S[..., connected] would not
            S = np.compress(connected, S, axis=2)
            yield masks[connected], S.transpose(2, 0, 1)


def _subset_walk(batches: list, max_k: int) -> Iterator[tuple]:
    """Every subset s of range(n) with 2 <= |s| <= max_k, depth first in
    lexicographic order, as (s, [(pm, pq) per (batch A, ufunc op)]).

    A (B, n, n) batch is walked vertex-major, as A.transpose(1, 2, 0), so
    member v's block A[:, v, :].T is one contiguous (n, B) array; that is
    member v's column too, since every batch a sweep passes is symmetric.
    On the batch-last views the sweeps pass, the transpose is the storage
    itself and nothing is copied.  pm folds the members' blocks with op;
    pq folds pm[v] of each member v over the members before it.  On
    distances with np.minimum, pm[x] is x's distance to s and pq its
    minimum pair distance; on closed neighbourhoods with np.add,
    pm[x] = |N[x] & s| and pq counts the edges inside s.

    This is a second subset enumerator beside oracle._subset_blocks because
    the batch has to be the inner axis.  Run on batches with a leading batch
    axis, _subset_blocks' inner loops span at most max_n sites; at max_n = 6
    (2 shared cores) that made the fpi-vs-oracle, graph-floor and reduction
    sweeps 2-8x slower (63 -> 143, 41 -> 178 and 67 -> 548 ms, the last
    peaking at 36.9 MB, not 19.8).  Here every op runs over B contiguous
    values.  The sweeps prune nothing, and the kernel's candidate bitsets
    and far-pair graph belong to one metric, so a batch could not share
    them.
    """
    tables = [(np.ascontiguousarray(A.transpose(1, 2, 0)), op) for A, op in batches]
    n = len(tables[0][0])

    def level(s, states):
        for v in range(s[-1] + 1, n):
            t = s + (v,)
            nxt = [(op(pm, T[v]), pm[v] if pq is None else op(pq, pm[v]))
                   for (T, op), (pm, pq) in zip(tables, states)]
            yield t, nxt
            if len(t) < max_k:
                yield from level(t, nxt)

    try:
        for v in range(n):
            yield from level((v,), [(T[v], None) for T, _ in tables])
    finally:
        del level  # level's cell holds level: a cycle keeping the tables alive until gc


# ---------------------------------------------------------------------------
# sweeps


def sweep_fpi_guarantees(max_n: int = 7) -> dict:
    """Greedy per-step guarantees on every connected graph with n <= max_n.

    Checks, in integers, for every step growing the sample from s to s+1:
    R[s+1] <= R[s], q[s+1] == R[s] (the half-radius identity, since
    r = q/2), and R[s] <= q[s] (gap ratio <= 2) for every s >= 2.
    """
    out = {"graphs": 0, "steps_checked": 0, "violations": []}
    for n in range(2, _order(max_n, 2, "max_n") + 1):
        for masks, D in iter_connected_metrics(n):
            _, q, R, _ = greedy_batch(D, n)
            out["graphs"] += masks.shape[0]
            for s in range(2, n + 1):
                bad = R[:, s - 2] > q[:, s - 2]  # GR(S_s) <= 2
                if s > 2:
                    bad |= q[:, s - 2] != R[:, s - 3]  # r identity
                    bad |= R[:, s - 2] > R[:, s - 3]   # monotone covering
                out["steps_checked"] += masks.shape[0]
                out["violations"] += [{"n": n, "mask": int(masks[b]), "size": s}
                                      for b in np.flatnonzero(bad)[:5]]
    return out


def _fpi_vs_oracle_chunk(masks: np.ndarray, D: np.ndarray, out: dict) -> None:
    """Add one (masks, D) batch's greedy-vs-optimum checks at k = 2, 3
    (k <= n) to ``out``."""
    B, n, _ = D.shape
    out["graphs"] += B
    _, q_fpi, R_fpi, _ = greedy_batch(D, n)
    gr_opt = {k: np.full(B, np.inf) for k in (2, 3) if k <= n}
    for s, ((pm, q),) in _subset_walk([(D, np.minimum)], max(gr_opt)):
        np.minimum(gr_opt[len(s)], 2.0 * pm.max(axis=0) / q, out=gr_opt[len(s)])
    for k, opt in gr_opt.items():
        gr_fpi = 2 * R_fpi[:, k - 2] / q_fpi[:, k - 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.where(opt >= 2.0 / 3.0, 2.0 / opt, 4.0 / (2.0 - opt))
            # k = n gives opt = gr_fpi = 0 and an unusable bound
            ok = np.where(opt > 0,
                          (gr_fpi <= bound * opt + 1e-9)
                          & (gr_fpi <= 3.0 * opt + 1e-9),
                          gr_fpi <= 1e-9)
        out["pairs_checked"] += B
        ratios = gr_fpi[opt > 0] / opt[opt > 0]
        out["worst_ratio"] = max(out["worst_ratio"], float(ratios.max(initial=0.0)))
        out["violations"] += [{"n": n, "mask": int(masks[b]), "k": k}
                              for b in np.flatnonzero(~ok)[:5]]


def sweep_fpi_vs_oracle(max_n: int = 7) -> dict:
    """Greedy vs exhaustive optimum on every connected graph with n <= max_n.

    For k = 2 and 3 (k <= n), asserts GR_FPI <= bound(GR_OPT) * GR_OPT + 1e-9
    with bound(a) = 2/a when a >= 2/3 else 4/(2-a), and GR_FPI <= 3 * GR_OPT.
    """
    out = {"graphs": 0, "pairs_checked": 0, "worst_ratio": 0.0,
           "violations": []}
    for n in range(2, _order(max_n, 2, "max_n") + 1):
        for masks, D in iter_connected_metrics(n):
            _fpi_vs_oracle_chunk(masks, D, out)
    return out


def _lower_bound_chunk(masks: np.ndarray, D: np.ndarray, out: dict) -> None:
    """Add one (masks, D) batch's samples 2 <= k < n to ``out``; at most
    five violations per subset, ordered by (size, subset), then mask."""
    B, n, _ = D.shape
    out["graphs"] += B
    hits = []
    for s, ((pm, q),) in _subset_walk([(D, np.minimum)], n - 1):
        R = pm.max(axis=0)
        eq = 3 * R == q
        bad = (3 * R < q) | (eq & (R != 1))
        out["samples_checked"] += B
        out["equality_cases"] += int(np.count_nonzero(eq))
        hits += [(s, b) for b in np.flatnonzero(bad)[:5]]
    # sorted() is stable, so each subset's masks keep their batch order
    out["violations"] += [{"n": n, "mask": int(masks[b]), "sample": s}
                          for s, b in sorted(hits, key=lambda h: (len(h[0]), h[0]))]


def sweep_graph_lower_bound(max_n: int = 7) -> dict:
    """GR >= 2/3 for every sample 2 <= k < n on every connected graph.

    Integer form: 3R >= q (since GR = 2R/q), and 3R == q holds only at R == 1
    (hence q == 3, i.e. r = 3/2).  Exhaustive and exact.
    """
    out = {"graphs": 0, "samples_checked": 0, "equality_cases": 0,
           "violations": []}
    for n in range(3, _order(max_n, 3, "max_n") + 1):
        for masks, D in iter_connected_metrics(n):
            _lower_bound_chunk(masks, D, out)
    return out


def _reduction_chunk(masks: np.ndarray, adj: np.ndarray, G: np.ndarray,
                     D: np.ndarray, out: dict) -> None:
    """Add one batch of graphs (adjacency, {1,2}-metric, shortest
    paths with BIG = unreachable) to ``out``; per k, at most five genmet
    then five eds violations."""
    B, n, _ = D.shape
    connected = D.transpose(1, 2, 0).max(axis=(0, 1)) < BIG
    out["genmet_graphs"] += B
    out["eds_graphs"] += int(connected.sum())
    ids, gr1, eds_exists, eds_bad = (np.zeros((n, B), dtype=bool) for _ in range(4))
    closed_nb = _closed_neighborhoods(adj, np.int8)
    walk = _subset_walk([(D, np.minimum), (G, np.minimum), (closed_nb, np.add)],
                        n - 1)
    for s, ((pm, q), (pmg, qg), (hit, inner)) in walk:
        k = len(s)
        # independent dominating on the raw graph
        ids[k] |= (inner == 0) & (hit.min(axis=0) >= 1)
        # gap ratio 1 on the {1,2}-metric: 2*R == q
        gr1[k] |= 2 * pmg.max(axis=0) == qg
        # efficient domination vs (r = 3/2, R = 1) on shortest paths
        eds = (hit == 1).all(axis=0)
        prof = (q == 3) & (pm.max(axis=0) == 1)
        eds_bad[k] |= connected & (eds != prof)
        eds_exists[k] |= eds & connected
    for k in range(2, n):
        out["genmet_checked"] += B
        out["genmet_true"] += int(ids[k].sum())
        out["eds_checked"] += int(connected.sum())
        out["eds_true"] += int(eds_exists[k].sum())
        for claim, bad in (("genmet", ids[k] != gr1[k]), ("eds", eds_bad[k])):
            out["violations"] += [{"claim": claim, "n": n,
                                   "mask": int(masks[b]), "k": k}
                                  for b in np.flatnonzero(bad)[:5]]


def sweep_reduction_certificates(max_n: int = 6) -> dict:
    """Both reduction equivalences over every graph with n <= max_n.

    The {1,2}-metric equivalence runs over ALL simple graphs (it needs no
    connectivity); the efficient-domination equivalence runs over connected
    graphs (its metric side is the shortest-path metric).  k ranges over
    2 <= k < n.
    """
    out = dict.fromkeys(("genmet_graphs", "genmet_checked", "genmet_true",
                         "eds_graphs", "eds_checked", "eds_true"), 0)
    out["violations"] = []
    for n in range(3, _order(max_n, 3, "max_n") + 1):
        for masks, adj, D in _graph_batches(n):
            _reduction_chunk(masks, adj, _genmet(adj, np.int8), D, out)
    return out
