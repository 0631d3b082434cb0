"""Batched certification machinery vs the scalar library, plus small sweeps."""

from itertools import combinations

import numpy as np
import pytest

from gapsampler import (GapError, sweep_fpi_guarantees, sweep_fpi_vs_oracle,
                        sweep_graph_lower_bound, sweep_reduction_certificates)
from gapsampler import certify
from gapsampler.certify import BIG, adjacency_batch, apsp_batch, iter_connected_metrics
from gapsampler.fpi import greedy_batch
from gapsampler.oracle import _closed_neighborhoods, _genmet

from graph_masks import graph_from_mask

# connected labeled graphs on n = 2..5 vertices
CONNECTED_COUNTS = {2: 1, 3: 4, 4: 38, 5: 728}


def scalar_adjacency(g):
    adj = np.zeros((g.n, g.n), dtype=bool)
    for u, v, _ in g.edges:
        adj[u, v] = adj[v, u] = True
    return adj


# ---------------------------------------------------------------------------
# decoding and metrics


def test_mask_decoding():
    # pair order (0,1), (0,2), (0,3), (1,2), (1,3), (2,3)
    g = graph_from_mask(4, 0b000011, require_connected=False)
    assert [(u, v) for u, v, _ in g.edges] == [(0, 1), (0, 2)]
    with pytest.raises(GapError):
        graph_from_mask(4, 0b000011)  # vertex 3 isolated
    full = graph_from_mask(4, 0b111111)
    assert len(full.edges) == 6


def test_adjacency_batch_matches_scalar():
    rng = np.random.default_rng(0)
    masks = rng.integers(0, 1 << 10, size=64)
    adj = adjacency_batch(5, masks)
    for row, mask in zip(adj, masks):
        g = graph_from_mask(5, int(mask), require_connected=False)
        assert np.array_equal(row, scalar_adjacency(g))


def bfs_hops(adj):
    """Hop counts, one breadth-first search per source; BIG = unreachable."""
    n = len(adj)
    rows = []
    for s in range(n):
        d = [BIG] * n
        d[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in range(n):
                    if adj[u][v] and d[v] == BIG:
                        d[v] = d[u] + 1
                        nxt.append(v)
            frontier = nxt
        rows.append(d)
    return np.array(rows)


def test_apsp_batch_matches_scalar_metric():
    # a plain BFS shares no code with apsp_batch or build_graph_metric
    for masks, D in iter_connected_metrics(5):
        pick = np.linspace(0, masks.shape[0] - 1, 40).astype(int)
        for b in pick:
            g = graph_from_mask(5, int(masks[b]))
            assert np.array_equal(D[b], bfs_hops(scalar_adjacency(g)))
    masks = np.random.default_rng(34).integers(0, 1 << 10, size=200)
    D = apsp_batch(adjacency_batch(5, masks))
    assert D.dtype == np.int16
    assert (D == BIG).any()  # disconnected masks are in the sample
    for row, mask in zip(D, masks):
        g = graph_from_mask(5, int(mask), require_connected=False)
        assert np.array_equal(row, bfs_hops(scalar_adjacency(g)))


def test_disconnected_graphs_hit_the_sentinel():
    D = apsp_batch(adjacency_batch(3, np.array([0])))
    assert D.max() == BIG


def test_batches_are_stored_batch_last():
    """Every certify batch is a (B, n, n) view of (n, n, B) storage, and the
    subset walk reads that storage itself, with no copy."""
    n = 5
    masks = np.arange(1 << 10, dtype=np.int64)
    adj = adjacency_batch(n, masks)
    D = apsp_batch(adj)
    _, Dc = next(iter_connected_metrics(n))
    G, closed_nb = _genmet(adj, np.int8), _closed_neighborhoods(adj, np.int8)
    for X, dtype in ((adj, bool), (D, np.int16), (Dc, np.int16), (G, np.int8),
                     (closed_nb, np.int8)):
        assert X.dtype == dtype and X.shape[1:] == (n, n)
        assert X.strides[0] == X.itemsize
    assert (len(adj), len(Dc)) == (1 << 10, CONNECTED_COUNTS[n])
    for batch in ([(D, np.minimum), (G, np.minimum), (closed_nb, np.add)],
                  [(Dc, np.minimum)]):
        s, states = next(certify._subset_walk(batch, 2))
        # pq of the first subset (0, 1) is row 1 of vertex 0's table
        assert s == (0, 1)
        for (A, _), (_, pq) in zip(batch, states):
            assert np.shares_memory(pq, A)


def test_connected_counts():
    for n, want in CONNECTED_COUNTS.items():
        got = sum(masks.shape[0] for masks, _ in iter_connected_metrics(n))
        assert got == want


# ---------------------------------------------------------------------------
# sweeps at desk scale


def test_sweep_fpi_guarantees_small():
    out = sweep_fpi_guarantees(max_n=4)
    assert out["graphs"] == 1 + 4 + 38
    assert out["violations"] == []
    assert out["steps_checked"] > 0


def test_sweep_fpi_vs_oracle_small():
    out = sweep_fpi_vs_oracle(max_n=4)
    assert out["graphs"] == 43
    assert out["violations"] == []
    assert 1.0 <= out["worst_ratio"] <= 3.0


def test_sweep_graph_lower_bound_small():
    out = sweep_graph_lower_bound(max_n=4)
    assert out["graphs"] == 4 + 38
    assert out["violations"] == []
    assert out["equality_cases"] > 0  # the floor is attained


def test_sweep_reductions_small():
    out = sweep_reduction_certificates(max_n=5)
    assert out["genmet_graphs"] == 8 + 64 + 1024
    assert out["eds_graphs"] == 4 + 38 + 728
    assert out["violations"] == []
    assert 0 < out["eds_true"] < out["eds_checked"]
    assert 0 < out["genmet_true"] < out["genmet_checked"]


# sweep, its smallest order, and the graphs it sweeps at that order
SWEEP_LEAST = [(sweep_fpi_guarantees, 2, {"graphs": 1}),
               (sweep_fpi_vs_oracle, 2, {"graphs": 1}),
               (sweep_graph_lower_bound, 3, {"graphs": 4}),
               (sweep_reduction_certificates, 3, {"genmet_graphs": 8, "eds_graphs": 4})]
SWEEP_IDS = [f.__name__ for f, *_ in SWEEP_LEAST]


@pytest.mark.parametrize("sweep, least, _", SWEEP_LEAST, ids=SWEEP_IDS)
@pytest.mark.parametrize("max_n, chunk, code", [
    (0, 64, "max-n-out-of-range"),
    (-3, 64, "max-n-out-of-range"),
    ("least - 1", 64, "max-n-out-of-range"),
    (12, 64, "max-n-out-of-range"),  # K_12's 66 edges overflow an int64 mask
    (4.5, 64, "max-n-out-of-range"),
    ("4", 64, "max-n-out-of-range"),
])
def test_sweep_sizes_are_refused_before_any_work(monkeypatch, sweep, least, _,
                                                 max_n, chunk, code):
    if max_n == "least - 1":
        max_n = least - 1

    def decode(n, masks):
        raise AssertionError(f"order {n} decoded before the refusal")

    monkeypatch.setattr(certify, "_CHUNK", chunk)
    monkeypatch.setattr(certify, "adjacency_batch", decode)
    with pytest.raises(GapError) as err:
        sweep(max_n=max_n)
    assert err.value.code == code


ORDER_ENTRIES = {
    # masks=None: reading the masks would raise a TypeError, not a GapError
    "adjacency_batch": lambda n: adjacency_batch(n, None),
    "graph_batches": lambda n: next(certify._graph_batches(n)),
    "iter_connected_metrics": lambda n: next(iter_connected_metrics(n)),
}


@pytest.mark.parametrize("entry", ORDER_ENTRIES)
def test_orders_past_an_int64_mask_are_refused(monkeypatch, entry):
    # K_12 has 66 pairs, and masks >> e is 0 for e >= 64: decoding n = 12
    # would drop the edges of pairs 64 and 65, so each entry refuses it
    # before any mask is decoded, at any batch size
    monkeypatch.setattr(certify, "_CHUNK", 4)
    if entry != "adjacency_batch":
        def decode(n, masks):
            raise AssertionError(f"order {n} decoded before the refusal")

        monkeypatch.setattr(certify, "adjacency_batch", decode)
    with pytest.raises(GapError) as err:
        ORDER_ENTRIES[entry](12)
    assert err.value.code == "max-n-out-of-range"
    assert str(err.value) == "n must satisfy 1 <= n <= 11, got 12"


def test_the_largest_order_decodes_its_last_pair():
    # pair 54 of K_11 is (9, 10), the last bit an int64 mask needs
    adj = adjacency_batch(11, np.array([1 << 54]))[0]
    assert list(zip(*np.nonzero(adj))) == [(9, 10), (10, 9)]


@pytest.mark.parametrize("sweep, least, graphs", SWEEP_LEAST, ids=SWEEP_IDS)
def test_sweep_sizes_at_the_edges_are_accepted(monkeypatch, sweep, least, graphs):
    """Integral floats and numpy ints are sizes too, one-mask and seven-mask
    batches sweep what the default batches do, and the smallest order
    sweeps graphs."""
    want = sweep(max_n=4)
    monkeypatch.setattr(certify, "_CHUNK", 7)
    assert sweep(max_n=4.0) == want
    monkeypatch.setattr(certify, "_CHUNK", 1)
    assert sweep(max_n=np.int64(4)) == want
    monkeypatch.undo()
    smallest = sweep(max_n=least)
    assert smallest["violations"] == []
    assert {key: smallest[key] for key in graphs} == graphs


# ---------------------------------------------------------------------------
# the subset walk against per-subset gathers, one subset at a time


def subset_pair_lists(n):
    """subset (tuple) -> (pair_i, pair_j) index arrays for its inner pairs."""
    out = {}
    for k in range(2, n + 1):
        for s in combinations(range(n), k):
            pi, pj = zip(*combinations(s, 2))
            out[s] = (np.array(pi), np.array(pj))
    return out


def reference_fpi_vs_oracle_chunk(masks, D, ks, out):
    B, n, _ = D.shape
    subsets = {k: list(combinations(range(n), k)) for k in ks if k <= n}
    pair_arrays = subset_pair_lists(n)
    out["graphs"] += B
    _, q, R, _ = greedy_batch(D, n)
    q, R = q.astype(np.int64), R.astype(np.int64)  # 2.0 * R is float64 on numpy 1.x too
    Df = D.astype(np.float64)
    for k in ks:
        if not 2 <= k <= n:
            continue
        gr_fpi = 2.0 * R[:, k - 2] / q[:, k - 2]
        gr_opt = np.full(B, np.inf)
        for s in subsets[k]:
            pi, pj = pair_arrays[s]
            qv = Df[:, pi, pj].min(axis=1)
            Rv = Df[:, :, list(s)].min(axis=2).max(axis=1)
            np.minimum(gr_opt, 2.0 * Rv / qv, out=gr_opt)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.where(gr_opt >= 2.0 / 3.0, 2.0 / gr_opt,
                             4.0 / (2.0 - gr_opt))
            ok = np.where(gr_opt > 0,
                          (gr_fpi <= bound * gr_opt + 1e-9)
                          & (gr_fpi <= 3.0 * gr_opt + 1e-9),
                          gr_fpi <= 1e-9)
        out["pairs_checked"] += B
        pos = gr_opt > 0
        if pos.any():
            out["worst_ratio"] = max(out["worst_ratio"],
                                     float((gr_fpi[pos] / gr_opt[pos]).max()))
        for b in np.flatnonzero(~ok)[:5]:
            out["violations"].append({"n": n, "mask": int(masks[b]), "k": k})


def reference_lower_bound_chunk(masks, D, out):
    B, n, _ = D.shape
    pair_arrays = subset_pair_lists(n)
    out["graphs"] += B
    Dl = D.astype(np.int64)
    for s in [s for k in range(2, n) for s in combinations(range(n), k)]:
        pi, pj = pair_arrays[s]
        q = Dl[:, pi, pj].min(axis=1)
        R = Dl[:, :, list(s)].min(axis=2).max(axis=1)
        out["samples_checked"] += B
        bad = 3 * R < q
        eq = 3 * R == q
        bad |= eq & (R != 1)
        out["equality_cases"] += int(eq.sum())
        for b in np.flatnonzero(bad)[:5]:
            out["violations"].append({"n": n, "mask": int(masks[b]), "sample": s})


def reference_reduction_chunk(masks, adj, D2x, D, out):
    B, n, _ = D.shape
    pair_arrays = subset_pair_lists(n)
    D2x, D = D2x.astype(np.int64), D.astype(np.int64)
    connected = D.max(axis=(1, 2)) < BIG
    out["genmet_graphs"] += B
    out["eds_graphs"] += int(connected.sum())
    closed_nb = adj | np.eye(n, dtype=bool)
    for k in range(2, n):
        ids_exists = np.zeros(B, dtype=bool)
        gr1_exists = np.zeros(B, dtype=bool)
        eds_exists = np.zeros(B, dtype=bool)
        eds_agree = np.ones(B, dtype=bool)
        for s in combinations(range(n), k):
            pi, pj = pair_arrays[s]
            sl = list(s)
            indep = ~adj[:, pi, pj].any(axis=1)
            dom = adj[:, sl, :].any(axis=1)
            dom[:, sl] = True
            ids_exists |= indep & dom.all(axis=1)
            q2 = D2x[:, pi, pj].min(axis=1)
            R2 = D2x[:, :, sl].min(axis=2).max(axis=1)
            gr1_exists |= 2 * R2 == q2
            eds = (closed_nb[:, :, sl].sum(axis=2) == 1).all(axis=1)
            q = D[:, pi, pj].min(axis=1)
            R = D[:, :, sl].min(axis=2).max(axis=1)
            prof = (q == 3) & (R == 1)
            eds_agree &= ~connected | (eds == prof)
            eds_exists |= eds & connected
        out["genmet_checked"] += B
        out["genmet_true"] += int(ids_exists.sum())
        out["eds_checked"] += int(connected.sum())
        out["eds_true"] += int((eds_exists & connected).sum())
        for b in np.flatnonzero(ids_exists != gr1_exists)[:5]:
            out["violations"].append({"claim": "genmet", "n": n,
                                      "mask": int(masks[b]), "k": k})
        for b in np.flatnonzero(~eds_agree)[:5]:
            out["violations"].append({"claim": "eds", "n": n,
                                      "mask": int(masks[b]), "k": k})


ZERO = {"fpi": {"graphs": 0, "pairs_checked": 0, "worst_ratio": 0.0},
        "floor": {"graphs": 0, "samples_checked": 0, "equality_cases": 0},
        "reduction": {"genmet_graphs": 0, "genmet_checked": 0, "genmet_true": 0,
                      "eds_graphs": 0, "eds_checked": 0, "eds_true": 0}}


def empty(sweep):
    """The accumulator a sweep starts from, in its report's key order."""
    return {**ZERO[sweep], "violations": []}


def all_graph_batches(n, chunk):
    """(masks, adjacency, doubled {1,2}-metric, shortest paths) per chunk."""
    total = 1 << (n * (n - 1) // 2)
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        adj = adjacency_batch(n, masks)
        D2x = np.where(adj, 2, 4).astype(np.int16)
        D2x[:, np.arange(n), np.arange(n)] = 0
        yield masks, adj, D2x, apsp_batch(adj)


def reference_sweep(sweep, max_n):
    """The sweep on per-subset gathers, in batches of certify._CHUNK masks."""
    out = empty(sweep)
    if sweep == "fpi":
        for n in range(2, max_n + 1):
            for masks, D in iter_connected_metrics(n):
                reference_fpi_vs_oracle_chunk(masks, D, (2, 3), out)
    elif sweep == "floor":
        for n in range(3, max_n + 1):
            for masks, D in iter_connected_metrics(n):
                reference_lower_bound_chunk(masks, D, out)
    else:
        for n in range(3, max_n + 1):
            for batch in all_graph_batches(n, certify._CHUNK):
                reference_reduction_chunk(*batch, out)
    return out


def test_subset_walk_matches_combinations():
    rng = np.random.default_rng(3)
    n, B = 6, 9
    D = rng.integers(1, 9, size=(B, n, n)).astype(np.int16)
    D = np.minimum(D, D.transpose(0, 2, 1))
    D[:, np.arange(n), np.arange(n)] = 0
    closed_nb = (rng.random((B, n, n)) < 0.4).astype(np.int8)
    closed_nb = closed_nb | closed_nb.transpose(0, 2, 1) | np.eye(n, dtype=np.int8)
    for max_k in (2, 3, n - 1, n):
        walk = list(certify._subset_walk([(D, np.minimum), (closed_nb, np.add)], max_k))
        want = [s for k in range(2, max_k + 1) for s in combinations(range(n), k)]
        assert [s for s, _ in walk] == sorted(want)  # lexicographic order
        for s, ((pm, pq), (hit, inner)) in walk:
            sl = list(s)
            assert np.array_equal(pm, D[:, :, sl].min(axis=2).T)
            pi, pj = zip(*combinations(s, 2))
            assert np.array_equal(pq, D[:, pi, pj].min(axis=1))
            assert np.array_equal(hit, closed_nb[:, :, sl].sum(axis=2).T)
            assert np.array_equal(inner, closed_nb[:, pi, pj].sum(axis=1))


@pytest.mark.parametrize("chunk", [64, 1000])
def test_sweeps_match_per_subset_reference(monkeypatch, chunk):
    monkeypatch.setattr(certify, "_CHUNK", chunk)
    got = {"fpi": sweep_fpi_vs_oracle(max_n=5),
           "floor": sweep_graph_lower_bound(max_n=5),
           "reduction": sweep_reduction_certificates(max_n=5)}
    for sweep, out in got.items():
        want = reference_sweep(sweep, 5)
        assert list(out) == list(want) and repr(out) == repr(want)
    monkeypatch.undo()
    assert got == {sweep: sweep_fn(max_n=5) for sweep, sweep_fn in
                   (("fpi", sweep_fpi_vs_oracle), ("floor", sweep_graph_lower_bound),
                    ("reduction", sweep_reduction_certificates))}


def corrupted(D, seed, lo, hi, frac=0.5):
    """A copy of the batch with about ``frac`` of its metrics replaced by
    random symmetric matrices with entries in [lo, hi) and a zero diagonal."""
    rng = np.random.default_rng(seed)
    B, n, _ = D.shape
    noise = rng.integers(lo, hi, size=(B, n, n)).astype(D.dtype)
    noise = np.triu(noise, 1) + np.triu(noise, 1).transpose(0, 2, 1)
    return np.where((rng.random(B) < frac)[:, None, None], noise, D)


def test_corrupted_fpi_vs_oracle_chunk_matches_reference():
    masks, D = next(iter_connected_metrics(6))
    D = corrupted(D, 11, 1, 7)
    got, want = empty("fpi"), empty("fpi")
    certify._fpi_vs_oracle_chunk(masks, D, got)
    reference_fpi_vs_oracle_chunk(masks, D, (2, 3), want)
    assert repr(got) == repr(want)
    per_k = [sum(v["k"] == k for v in got["violations"]) for k in (2, 3)]
    assert max(per_k) == 5  # the cap is reached


def test_corrupted_lower_bound_chunk_matches_reference():
    masks, D = next(iter_connected_metrics(5))
    D = corrupted(D, 12, 1, 10)
    got, want = empty("floor"), empty("floor")
    certify._lower_bound_chunk(masks, D, got)
    reference_lower_bound_chunk(masks, D, want)
    assert got == want
    samples = [v["sample"] for v in got["violations"]]
    assert len({len(s) for s in samples}) > 1  # sizes interleave in the walk
    counts = {s: samples.count(s) for s in samples}
    assert max(counts.values()) == 5
    # more than five graphs fail on some capped subset
    s = max(counts, key=counts.get)
    Dl = D.astype(np.int64)
    R = Dl[:, :, list(s)].min(axis=2).max(axis=1)
    pi, pj = zip(*combinations(s, 2))
    q = Dl[:, pi, pj].min(axis=1)
    assert int(((3 * R < q) | ((3 * R == q) & (R != 1))).sum()) > 5


def test_corrupted_reduction_chunk_matches_reference():
    masks, adj, D2x, D = next(all_graph_batches(5, 1 << 10))
    D2x = corrupted(D2x, 13, 2, 5)  # entries 2..4 on about half the graphs
    D = corrupted(D, 14, 1, 4)
    got, want = empty("reduction"), empty("reduction")
    certify._reduction_chunk(masks, adj, D2x, D, got)
    reference_reduction_chunk(masks, adj, D2x, D, want)
    assert got == want
    for claim in ("genmet", "eds"):
        per_k = [v["k"] for v in got["violations"] if v["claim"] == claim]
        assert per_k == sorted(per_k) and per_k.count(2) == 5
