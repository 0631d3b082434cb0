"""Contract tests for metric construction and exact gap evaluation."""

import heapq
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gapsampler import (GapError, build_cloud, build_euclidean, build_explicit,
                        build_graph, build_graph_metric, diameter, gap_fraction,
                        farthest_point_insertion, gap_ratio, genmet_reduce,
                        make_sample, max_gap, min_gap)
from gapsampler.metric import _BLOCK, TRIANGLE_TOL, _pairwise


def line_metric(n=10):
    return build_euclidean(build_cloud([float(i) for i in range(n)]))


def c6_metric():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    return build_graph_metric(g)


# ---------------------------------------------------------------------------
# construction


def test_euclidean_345():
    m = build_euclidean(build_cloud([[0.0, 0.0], [3.0, 4.0]]))
    assert m.dist[0, 1] == 5.0
    assert m.source == "euclidean" and m.exact2x is None


def test_euclidean_line_matrix():
    m = build_euclidean(build_cloud([0.0, 1.0, 3.0]))
    assert np.array_equal(m.dist, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def test_euclidean_triangle_inequality_exhaustive():
    rng = np.random.default_rng(7)
    m = build_euclidean(build_cloud(rng.random((10, 3))))
    for i, j, k in itertools.permutations(range(10), 3):
        assert m.dist[i, j] <= m.dist[i, k] + m.dist[k, j] + 1e-12


def test_cloud_dedupe_keeps_first():
    cloud = build_cloud([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]], labels=["a", "b", "c"])
    assert cloud.n == 2 and cloud.duplicates_removed == 1
    assert cloud.labels == ("a", "b")


def test_cloud_rejects_bad_input():
    with pytest.raises(GapError, match="no points"):
        build_cloud([])
    with pytest.raises(GapError) as e:
        build_cloud([[0.0], [np.nan]])
    assert e.value.code == "nonfinite-coordinate"
    with pytest.raises(GapError):
        build_cloud([[1.0, 2.0]], labels=["a", "b"])


def test_graph_validation():
    with pytest.raises(GapError, match="out of range"):
        build_graph(3, [(0, 5)])
    with pytest.raises(GapError, match="self-loop"):
        build_graph(3, [(1, 1)])
    with pytest.raises(GapError, match="parallel"):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GapError, match="not positive"):
        build_graph(3, [(0, 1, -2.0)])
    with pytest.raises(GapError) as e:
        build_graph(4, [(0, 1), (2, 3)])
    assert e.value.code == "disconnected-graph"
    assert "0" in str(e.value) and "2" in str(e.value)  # names an unreachable pair


def test_graph_metric_path():
    m = build_graph_metric(build_graph(3, [(0, 1), (1, 2)]))
    assert m.dist[0, 2] == 2.0 and m.exact2x[0, 2] == 4
    assert m.source == "graph"


def test_graph_metric_c6_antipodal():
    m = c6_metric()
    assert m.dist[0, 3] == 3.0


def test_graph_metric_weighted_12_clique():
    # complete K4 with {1,2} weights; no 2-hop shortcut can beat a direct edge
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0),
             (0, 2, 2.0), (1, 3, 2.0)]
    m = build_graph_metric(build_graph(4, edges))
    for u, v, w in edges:
        assert m.dist[u, v] == w
    assert m.exact2x is not None and m.exact2x[0, 2] == 4


def test_graph_metric_weighted_shortcut():
    # heavy direct edge loses to the two-hop path
    m = build_graph_metric(build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]))
    assert m.dist[0, 2] == 2.0


def test_graph_metric_non_half_integer_weights():
    m = build_graph_metric(build_graph(2, [(0, 1, 0.3)]))
    assert m.exact2x is None


def test_explicit_validation():
    with pytest.raises(GapError):
        build_explicit([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(GapError):
        build_explicit([[1.0, 1.0], [1.0, 0.0]])  # nonzero diagonal
    with pytest.raises(GapError):
        build_explicit([[0.0, 0.0], [0.0, 0.0]])  # zero off-diagonal
    bad = [[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]]
    with pytest.raises(GapError, match="triangle"):
        build_explicit(bad)
    with pytest.raises(GapError, match="exact2x"):
        build_explicit([[0.0, 1.0], [1.0, 0.0]], exact2x=[[0, 3], [3, 0]])


def test_explicit_accepts_exact():
    m = build_explicit([[0.0, 1.5], [1.5, 0.0]], exact2x=[[0, 3], [3, 0]])
    assert m.source == "explicit" and m.exact2x[0, 1] == 3


# ---------------------------------------------------------------------------
# samples


def test_make_sample_sorted_and_validated():
    s = make_sample([5, 1, 3], 10)
    assert s.indices == (1, 3, 5)
    with pytest.raises(GapError, match="at least 2"):
        make_sample([1], 10)
    with pytest.raises(GapError, match="distinct"):
        make_sample([1, 1], 10)
    with pytest.raises(GapError, match="outside"):
        make_sample([0, 10], 10)


# ---------------------------------------------------------------------------
# gap evaluation


def test_min_gap_single_pair():
    m = build_euclidean(build_cloud([0.0, 1.0, 3.0]))
    r, pair = min_gap(m, [0, 2])
    assert r == 1.5 and pair == (0, 2)


def test_min_gap_c6_exact():
    r, pair = min_gap(c6_metric(), [0, 3])
    assert r == 1.5 and pair == (0, 3)


def test_min_gap_full_sample():
    m = build_euclidean(build_cloud([0.0, 1.0, 3.0]))
    r, pair = min_gap(m, [0, 1, 2])
    assert r == 0.5 and pair == (0, 1)


def test_max_gap_line_witness_low_tie():
    R, site = max_gap(line_metric(), [0, 9])
    assert R == 4.0 and site == 4  # 4 and 5 tie; smaller index reported


def test_max_gap_whole_space_zero():
    m = line_metric(5)
    R, site = max_gap(m, range(5))
    assert R == 0.0


def test_max_gap_c6():
    R, site = max_gap(c6_metric(), [0, 3])
    assert R == 1.0


def test_gap_ratio_c6_exact_two_thirds():
    m = c6_metric()
    rep = gap_ratio(m, [0, 3])
    assert rep.r == 1.5 and rep.R == 1.0 and rep.exact
    assert gap_fraction(m, [0, 3]) == Fraction(2, 3)


def test_gap_ratio_clique_reduction_c4():
    # 4-cycle edges weight 1, diagonals weight 2: opposite pair is perfect
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    rep = gap_ratio(genmet_reduce(c4), [0, 2])
    assert rep.r == 1.0 and rep.R == 1.0 and rep.gap_ratio == 1.0


def test_gap_ratio_two_cliques_half():
    # unit-distance triple plus a 0.25-distance triple, far apart; sampling
    # one whole clique and one vertex of the other gives GR = 0.25/0.5
    D = np.full((6, 6), 10.0)
    for i in range(3):
        for j in range(3):
            if i != j:
                D[i, j] = 1.0
                D[3 + i, 3 + j] = 0.25
    np.fill_diagonal(D, 0.0)
    rep = gap_ratio(build_explicit(D), [0, 1, 2, 3])
    assert rep.r == 0.5 and rep.R == 0.25 and rep.gap_ratio == 0.5


def test_gap_fraction_requires_exact():
    with pytest.raises(GapError) as e:
        gap_fraction(line_metric(), [0, 9])
    assert e.value.code == "exact-unavailable"


def test_diameter_examples():
    assert diameter(line_metric()) == (0, 9, 9.0)
    assert diameter(c6_metric()) == (0, 3, 3.0)
    pair = build_euclidean(build_cloud([2.0, 7.0]))
    assert diameter(pair) == (0, 1, 5.0)


# ---------------------------------------------------------------------------
# invariants


def test_witnesses_reproduce_radii_bit_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.random((rng.integers(5, 20), 2))
        m = build_euclidean(build_cloud(pts))
        idx = rng.choice(m.n, size=rng.integers(2, m.n + 1), replace=False)
        rep = gap_ratio(m, idx)
        i, j = rep.closest_pair
        assert m.dist[i, j] / 2.0 == rep.r
        assert m.dist[rep.farthest_site, sorted(idx)].min() == rep.R
        assert rep.gap_ratio == rep.R / rep.r


def test_exact_and_float_paths_agree():
    rng = np.random.default_rng(3)
    m = c6_metric()
    for k in (2, 3, 4):
        idx = sorted(rng.choice(6, size=k, replace=False))
        rep = gap_ratio(m, idx)
        frac = gap_fraction(m, idx)
        assert abs(rep.gap_ratio - float(frac)) < 1e-12
        assert rep.r * 4 == m.exact2x[rep.closest_pair]  # halves are exact


def test_duplicate_sample_indices_rejected():
    with pytest.raises(GapError):
        gap_ratio(line_metric(), [1, 1, 4])


# ---------------------------------------------------------------------------
# pairwise-distance kernel


def loop_distances(a, b):
    """Reference: squared differences summed in coordinate order, then sqrt."""
    out = np.empty((len(a), len(b)))
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            acc = 0.0
            for x, y in zip(p, q):
                acc += (x - y) * (x - y)
            out[i, j] = np.sqrt(acc)
    return out


def broadcast_distances(a, b):
    """The difference-tensor expression the kernel replaced."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


KERNEL_SHAPES = [(1, 1), (_BLOCK - 1, 5), (_BLOCK, _BLOCK), (_BLOCK + 1, 3),
                 (2 * _BLOCK + 1, _BLOCK - 1), (7, 2 * _BLOCK + 1)]


@pytest.mark.parametrize("d", range(1, 13))
def test_pairwise_equals_coordinate_order_loop(d):
    rng = np.random.default_rng(d)
    for na, nb in KERNEL_SHAPES:
        a = rng.normal(size=(na, d)) * 10.0 ** rng.integers(-3, 4)
        b = rng.normal(size=(nb, d))
        assert np.array_equal(_pairwise(a, b), loop_distances(a, b))


@pytest.mark.parametrize("d", range(1, 10))
def test_pairwise_against_broadcast_expression(d):
    rng = np.random.default_rng(100 + d)
    for na, nb in KERNEL_SHAPES:
        a, b = rng.random((na, d)), rng.random((nb, d))
        got, old = _pairwise(a, b), broadcast_distances(a, b)
        if d <= 7:
            assert np.array_equal(got, old)
        else:  # numpy sums 8+ terms pairwise: last-bit differences only
            assert np.all(np.abs(got - old) <= 4 * 2.0 ** -52 * old)


def test_pairwise_self_is_exactly_symmetric():
    rng = np.random.default_rng(9)
    for d in (1, 2, 3, 8, 11):
        p = rng.normal(size=(2 * _BLOCK + 1, d))
        dist = _pairwise(p, p)
        assert np.array_equal(dist, dist.T)
        assert not np.diag(dist).any()


# ---------------------------------------------------------------------------
# lexicographic tie-breaks


def triu_first(mat, largest):
    """The full upper-triangle scan diameter() used to make."""
    iu = np.triu_indices(len(mat), 1)
    vals = mat[iu]
    pos = int(np.argmax(vals) if largest else np.argmin(vals))
    return int(iu[0][pos]), int(iu[1][pos])


def lattice_clouds():
    rng = np.random.default_rng(21)
    for d, side in ((1, 9), (2, 5), (2, 7), (3, 4)):
        pts = np.array(list(itertools.product(range(side), repeat=d)), dtype=float)
        yield pts
        yield pts[rng.permutation(len(pts))]


def tie_heavy_graphs():
    rng = np.random.default_rng(22)
    for n in range(3, 10):
        yield build_graph(n, [(i, (i + 1) % n) for i in range(n)])  # cycle
    for a, b in ((2, 2), (3, 4), (4, 4), (2, 7)):
        edges = [(r * b + c, r * b + c + 1) for r in range(a) for c in range(b - 1)]
        edges += [(r * b + c, (r + 1) * b + c) for r in range(a - 1) for c in range(b)]
        yield build_graph(a * b, edges)  # grid
        relabel = rng.permutation(a * b)
        yield build_graph(a * b, [(relabel[u], relabel[v]) for u, v in edges])
    for n in (2, 5, 12, 30):
        yield build_graph(n, [(int(rng.integers(0, v)), v) for v in range(1, n)])  # tree


def test_diameter_matches_triu_scan_on_lattices():
    for pts in lattice_clouds():
        m = build_euclidean(build_cloud(pts))
        i, j, diam = diameter(m)
        assert (i, j) == triu_first(m.dist, largest=True)
        assert diam == m.dist.max()


def test_diameter_matches_triu_scan_on_graphs():
    for g in tie_heavy_graphs():
        m = build_graph_metric(g)
        i, j, diam = diameter(m)
        assert (i, j) == triu_first(m.exact2x, largest=True)
        assert 2 * diam == m.exact2x.max()


def test_fpi_peak_memory_is_the_matrix_plus_a_block():
    n = 2000
    cloud = build_cloud(np.random.default_rng(4).random((n, 2)))
    tracemalloc.start()
    try:
        farthest_point_insertion(build_euclidean(cloud), 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8


# ---------------------------------------------------------------------------
# shortest paths against plain-Python references (no shared kernel)


def neighbours(g):
    adj = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def bfs_hops(g):
    """Hop counts, one breadth-first search per source; inf = unreachable."""
    adj = neighbours(g)
    rows = []
    for s in range(g.n):
        d = [math.inf] * g.n
        d[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v, _ in adj[u]:
                    if d[v] == math.inf:
                        d[v] = d[u] + 1
                        nxt.append(v)
            frontier = nxt
        rows.append(d)
    return np.array(rows, dtype=float)


def dijkstra(g):
    """Weighted shortest paths, one heapq Dijkstra per source."""
    adj = neighbours(g)
    rows = []
    for s in range(g.n):
        d = [math.inf] * g.n
        d[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > d[u]:
                continue
            for v, w in adj[u]:
                if du + w < d[v]:
                    d[v] = du + w
                    heapq.heappush(heap, (d[v], v))
        rows.append(d)
    return np.array(rows, dtype=float)


def random_connected_edges(rng, n, extra):
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}  # random tree
    for _ in range(extra):
        u, v = sorted(int(x) for x in rng.integers(0, n, 2))
        if u != v:
            edges.add((u, v))
    return sorted(edges)


def assert_matches_reference(g):
    m = build_graph_metric(g)
    want = dijkstra(g) if g.weighted else bfs_hops(g)
    assert m.dist.dtype == np.float64 and not m.dist.flags.writeable
    if all(float(2 * w).is_integer() for _, _, w in g.edges):
        assert np.array_equal(m.dist, want)  # dyadic sums are exact
        assert m.exact2x.dtype == np.int64 and not m.exact2x.flags.writeable
        assert np.array_equal(m.exact2x, (2 * want).astype(np.int64))
    else:
        np.testing.assert_allclose(m.dist, want, rtol=1e-12)
        assert m.exact2x is None


def test_unweighted_metric_matches_bfs():
    rng = np.random.default_rng(31)
    graphs = list(tie_heavy_graphs()) + [build_graph(1, [])]
    graphs += [build_graph(n, [(i, i + 1) for i in range(n - 1)]) for n in (127, 128, 129)]
    for _ in range(40):
        n = int(rng.integers(2, 61))
        graphs.append(build_graph(n, random_connected_edges(rng, n, int(rng.integers(0, 2 * n)))))
    for g in graphs:
        assert_matches_reference(g)


def test_weighted_metric_matches_dijkstra():
    rng = np.random.default_rng(32)
    for t in range(30):
        n = int(rng.integers(2, 41))
        weights = (0.5, 1.0, 1.5, 2.5) if t % 2 == 0 else (0.3, 7.25, 1.0)
        edges = [(u, v, float(rng.choice(weights)))
                 for u, v in random_connected_edges(rng, n, n)]
        assert_matches_reference(build_graph(n, edges))


def test_unweighted_graph_ignores_given_weights():
    g = build_graph(3, [(0, 1, 2.5), (1, 2, 0.3)], weighted=False)
    m = build_graph_metric(g)
    assert m.dist.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert m.exact2x.tolist() == [[0, 2, 4], [2, 0, 2], [4, 2, 0]]


def test_disconnected_metric_error_names_first_unreachable_vertex():
    rng = np.random.default_rng(33)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        edges = [e for e in random_connected_edges(rng, n, n) if rng.random() < 0.5]
        g = build_graph(n, edges, require_connected=False)
        unreachable = np.flatnonzero(bfs_hops(g)[0] == math.inf)
        if unreachable.size == 0:
            assert_matches_reference(g)
            continue
        with pytest.raises(GapError) as e:
            build_graph_metric(g)
        assert e.value.code == "disconnected-graph"
        assert str(e.value) == f"vertices 0 and {unreachable[0]} are not connected"


def loop_triangle_pair(d):
    """First (i, j) breaking the triangle inequality, by the Floyd-Warshall
    loop build_explicit ran before the shared kernel."""
    n = len(d)
    best = np.full((n, n), np.inf)
    for k in range(n):
        np.minimum(best, d[:, k:k + 1] + d[k:k + 1, :], out=best)
    hits = np.argwhere(d - best > TRIANGLE_TOL)
    return tuple(hits[0]) if len(hits) else None


def test_explicit_triangle_errors_match_the_loop():
    rng = np.random.default_rng(35)
    broken = 0
    for t in range(200):
        n = int(rng.integers(1, 13))
        d = np.triu(rng.integers(1, 6, (n, n)) * (0.5 if t % 3 else 0.37), 1)
        d = d + d.T
        pair = loop_triangle_pair(d)
        if pair is None:
            assert np.array_equal(build_explicit(d).dist, d)
            continue
        broken += 1
        with pytest.raises(GapError) as e:
            build_explicit(d)
        assert e.value.code == "invalid-matrix"
        assert str(e.value) == \
            f"triangle inequality violated at sites ({pair[0]}, {pair[1]})"
    assert broken > 100
