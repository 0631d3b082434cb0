"""Graph-backed unweighted graph metrics against their shortest-path closure.

An unweighted graph metric keeps its adjacency lists and reads rows by
breadth-first search, R by one search from every sampled vertex, and its
diameter by eccentricity bounds; every row, report and trace must equal,
bit for bit, the one computed from the n x n closure, which it builds only
when ``dist`` is read.
"""

import tracemalloc

import numpy as np
import pytest

from gapsampler import (GapError, build_graph, build_graph_metric, diameter,
                        farthest_point_insertion, gap_fraction, gap_ratio, max_gap,
                        min_gap)
from gapsampler import cli
from gapsampler.fpi import greedy_batch
from gapsampler.metric import _first_pair


def closure_metric(g):
    """The matrix metric of g, closed eagerly: the same graph with every
    edge given weight 1.0 takes build_graph_metric's weighted path."""
    m = build_graph_metric(build_graph(g.n, [(u, v, 1.0) for u, v, _ in g.edges]))
    assert m.exact and vars(m)["_dist"] is not None
    return m


def relabelled(n, edges, rng):
    perm = rng.permutation(n)
    return build_graph(n, [(int(perm[u]), int(perm[v])) for u, v in edges])


def grid_edges(r, c):
    return ([(a * c + b, a * c + b + 1) for a in range(r) for b in range(c - 1)]
            + [(a * c + b, (a + 1) * c + b) for a in range(r - 1) for b in range(c)])


def random_tree_edges(n, rng):
    return [(int(rng.integers(0, v)), v) for v in range(1, n)]


def random_connected_edges(n, chords, rng):
    """A random tree plus ``chords`` distinct chords, as many as fit."""
    chords = min(chords, (n - 1) * (n - 2) // 2)
    edges = {tuple(sorted(e)) for e in random_tree_edges(n, rng)}
    while len(edges) < n - 1 + chords:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def graphs():
    """Relabelled families; grids, cycles, stars and K_{a,b} tie their
    diameter over many pairs."""
    rng = np.random.default_rng(71)
    out = {"k2": build_graph(2, [(0, 1)])}
    for r, c in ((1, 9), (4, 5), (6, 6), (7, 3)):
        out[f"grid-{r}x{c}"] = relabelled(r * c, grid_edges(r, c), rng)
    for n in (3, 8, 9):
        out[f"cycle-{n}"] = relabelled(n, [(v, (v + 1) % n) for v in range(n)], rng)
    out["path-12"] = relabelled(12, [(v, v + 1) for v in range(11)], rng)
    out["star-7"] = relabelled(7, [(0, v) for v in range(1, 7)], rng)
    for a, b in ((1, 4), (2, 3), (3, 3)):
        out[f"k{a},{b}"] = relabelled(a + b, [(u, a + v) for u in range(a)
                                              for v in range(b)], rng)
    for n in (30, 60):
        out[f"tree-{n}"] = relabelled(n, random_tree_edges(n, rng), rng)
    for n, chords in ((40, 10), (80, 40)):
        out[f"random-{n}"] = build_graph(n, random_connected_edges(n, chords, rng))
    return out


GRAPHS = graphs()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_blocks_and_diameter_match_the_closure(name):
    g = GRAPHS[name]
    m, ref = build_graph_metric(g), closure_metric(g)
    d = ref.dist
    assert vars(m)["_dist"] is None and m.exact and vars(m)["_adj"] is not None
    full = m.block()
    assert full.dtype == d.dtype and np.array_equal(full, d)
    rng = np.random.default_rng(len(name))
    for _ in range(5):
        rows = rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
        cols = rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
        assert np.array_equal(m.block(rows), d[rows])
        assert np.array_equal(m.block(rows, cols), d[np.ix_(rows, cols)])
        assert np.array_equal(m.block(None, cols), d[:, cols])
        # one search from every column at once
        assert np.array_equal(m.block(None, cols, np.min), d[:, cols].min(axis=1))
        for reduce in (np.min, np.max, np.argmin):
            assert np.array_equal(m.block(rows, cols, reduce),
                                  reduce(d[np.ix_(rows, cols)], axis=-1))
    i, j = map(int, _first_pair(d))
    assert diameter(m) == diameter(ref) == (i, j, float(d[i, j]))
    assert vars(m)["_dist"] is None  # nothing above built the closure


def test_diameter_and_nearest_rows_match_the_closure_on_small_graphs():
    # a few hundred connected graphs up to n = 14: trees with chords,
    # where many pairs tie the diameter
    rng = np.random.default_rng(72)
    for _ in range(300):
        n = int(rng.integers(2, 15))
        g = build_graph(n, random_connected_edges(n, int(rng.integers(0, n)), rng))
        m, d = build_graph_metric(g), closure_metric(g).dist
        i, j = map(int, _first_pair(d))
        assert diameter(m) == (i, j, float(d[i, j]))
        cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        assert np.array_equal(m.block(None, cols, np.min), d[:, cols].min(axis=1))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_fpi_traces_and_reports_match_the_closure(name):
    g = GRAPHS[name]
    m, ref = build_graph_metric(g), closure_metric(g)
    for k in sorted({2, min(g.n, 7), min(g.n, 32)}):
        got, want = farthest_point_insertion(m, k), farthest_point_insertion(ref, k)
        assert repr(got) == repr(want)  # Python ints and floats, bit for bit
        for a, b in zip(greedy_batch(m, k), greedy_batch(ref.dist[None], k)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    rng = np.random.default_rng(len(name) + 1)
    for _ in range(6):
        idx = sorted(rng.choice(g.n, size=int(rng.integers(2, g.n + 1)),
                                replace=False).tolist())
        assert repr(gap_ratio(m, idx)) == repr(gap_ratio(ref, idx))
        assert repr(min_gap(m, idx)) == repr(min_gap(ref, idx))
        assert repr(max_gap(m, idx)) == repr(max_gap(ref, idx))
        assert gap_fraction(m, idx) == gap_fraction(ref, idx)
    assert vars(m)["_dist"] is None


def test_dist_is_the_eager_closure_built_once():
    g = GRAPHS["random-80"]
    m, ref = build_graph_metric(g), closure_metric(g)
    d = m.dist
    assert m.dist is d and not d.flags.writeable
    assert d.dtype == ref.dist.dtype and np.array_equal(d, ref.dist)
    assert np.array_equal(m.exact2x, ref.exact2x)
    rows = [5, 0, 79]
    assert np.array_equal(m.block(rows, rows), d[np.ix_(rows, rows)])
    with pytest.raises(AttributeError):
        m.dist = d


def test_single_vertex_and_weighted_graphs():
    m = build_graph_metric(build_graph(1, []))
    assert np.array_equal(m.block(), [[0.0]]) and np.array_equal(m.dist, [[0.0]])
    with pytest.raises(GapError, match="at least 2 sites"):
        diameter(build_graph_metric(build_graph(1, [])))
    # a weighted graph is closed when it is built
    w = build_graph_metric(build_graph(3, [(0, 1, 2.0), (1, 2, 0.5)]))
    assert vars(w)["_dist"] is not None
    assert diameter(w) == (0, 2, 2.5)


@pytest.mark.parametrize("name", ["grid-6x6", "k3,3", "random-80"])
def test_cli_reports_match_the_closure(tmp_path, monkeypatch, capsys, name):
    g = GRAPHS[name]
    data, sample = tmp_path / "graph.txt", tmp_path / "sample.txt"
    data.write_text(f"{g.n} {len(g.edges)}\n"
                    + "".join(f"{u} {v}\n" for u, v, _ in g.edges))
    sample.write_text("".join(f"{i}\n" for i in range(0, g.n, 3)) + "1\n")
    runs = [["fpi", "--graph", str(data), "-k", str(min(g.n, 12))],
            ["evaluate", "--graph", str(data), "--sample", str(sample)]]

    def run():
        out = []
        for argv in runs:
            code = cli.main(argv)
            out.append((code,) + capsys.readouterr())
        return out

    got = run()
    monkeypatch.setattr(cli, "build_graph_metric", closure_metric)
    want = run()
    assert got == want
    assert all(code == 0 and err == "" for code, _, err in got)


def test_fpi_on_a_large_grid_never_builds_the_closure():
    # 20,000 vertices: the closure would take 3.2 GB in float64.  FPI at
    # k = 32 reads a few dozen breadth-first rows, so its peak is O(n) per
    # row at a time, well under the k * n * 8 = 5.1 MB of its k rows
    r, c = 100, 200
    g = relabelled(r * c, grid_edges(r, c), np.random.default_rng(73))
    m = build_graph_metric(g)
    tracemalloc.start()
    try:
        sample, trace = farthest_point_insertion(m, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vars(m)["_dist"] is None
    assert peak < 128 * g.n
    assert 2.0 * trace.r_init == (r - 1) + (c - 1)
    assert len(sample.indices) == 32 and trace.final.R == trace.steps[-1].R_after
