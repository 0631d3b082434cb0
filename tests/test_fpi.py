"""Farthest-point insertion: traces, guarantees, ratio formulas."""

from math import sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gapsampler import (GapError, build_cloud, build_euclidean, build_explicit,
                        build_graph, build_graph_metric, diameter,
                        farthest_point_insertion, fpi_ratio_bound, gap_ratio, rho)
from gapsampler import fpi, metric


def line_metric(n=10):
    return build_euclidean(build_cloud([float(i) for i in range(n)]))


def test_line10_k3_trace():
    sample, trace = farthest_point_insertion(line_metric(), 3)
    assert sample.indices == (0, 4, 9)  # tie 4 vs 5 broken low
    assert trace.init_pair == (0, 9) and trace.r_init == 4.5 and trace.R_init == 4.0
    step = trace.steps[0]
    assert step.chosen == 4 and step.R_before == 4.0
    assert step.r_after == 2.0 and step.R_after == 2.0
    assert trace.final.gap_ratio == 1.0


def test_k_equals_n():
    sample, trace = farthest_point_insertion(line_metric(5), 5)
    assert sample.indices == (0, 1, 2, 3, 4)
    assert trace.final.R == 0.0 and trace.final.gap_ratio == 0.0


def test_k_out_of_range():
    for k in (1, 11):
        with pytest.raises(GapError) as e:
            farthest_point_insertion(line_metric(), k)
        assert e.value.code == "k-out-of-range"


def test_c6_run_is_exact():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    m = build_graph_metric(g)
    sample, trace = farthest_point_insertion(m, 3)
    assert trace.init_pair == (0, 3)
    # after {0,3} every vertex is at distance 1; smallest index wins
    assert trace.steps[0].chosen == 1
    assert sample.indices == (0, 1, 3)
    assert trace.final.r == 0.5 and trace.final.R == 1.0


def grid_graph(r, c):
    return build_graph(r * c, [(a * c + b, a * c + b + 1) for a in range(r) for b in range(c - 1)]
                       + [(a * c + b, (a + 1) * c + b) for a in range(r - 1) for b in range(c)])


@st.composite
def metrics(draw):
    """Point-backed clouds in d = 1, 2, 3 and 9 (rounded lattices tie
    everywhere), explicit {1, 2}-metrics, unweighted grids and trees with
    chords, and one weighted graph with tied path lengths."""
    kind = draw(st.sampled_from(["cloud", "lattice", "explicit", "grid", "tree",
                                 "weighted"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 40))
    if kind in ("cloud", "lattice"):
        pts = rng.normal(size=(n, draw(st.sampled_from([1, 2, 3, 9]))))
        if kind == "lattice":
            pts = np.unique(np.round(pts * 2), axis=0)
            assume(len(pts) >= 2)
        return build_euclidean(build_cloud(pts))
    if kind == "explicit":
        d = np.triu(rng.integers(1, 3, size=(n, n)), 1).astype(float)
        return build_explicit(d + d.T)
    if kind == "grid":
        return build_graph_metric(grid_graph(draw(st.integers(1, 6)), draw(st.integers(2, 7))))
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    if kind == "tree":
        edges |= {tuple(sorted(map(int, rng.choice(n, 2, replace=False))))
                  for _ in range(draw(st.integers(0, 3)))}
        return build_graph_metric(build_graph(n, sorted(edges)))
    return build_graph_metric(build_graph(n, [(u, v, float(rng.integers(1, 4)) / 2)
                                              for u, v in sorted(edges)]))


@settings(max_examples=300, deadline=None)
@given(m=metrics(), pick=st.sampled_from(["two", "middle", "all"]))
def test_final_report_is_gap_ratio_of_the_sample(m, pick):
    k = {"two": 2, "middle": max(2, m.n // 2), "all": m.n}[pick]
    sample, trace = farthest_point_insertion(m, k)
    assert repr(trace.final) == repr(gap_ratio(m, sample))  # bit for bit
    if k == m.n:
        assert (trace.final.R, trace.final.farthest_site) == (0.0, 0)


@pytest.mark.parametrize("budget", [1, 50])
def test_closest_pair_under_row_budgets(monkeypatch, budget):
    # a budget of one entry reads each suffix row as its own block; 50
    # reads a few rows at a time
    monkeypatch.setattr(fpi, "_BLOCK", budget)
    lattice = np.array([[a, b] for a in range(9) for b in range(7)], dtype=float)
    for m in (build_euclidean(build_cloud(lattice)), build_graph_metric(grid_graph(6, 8))):
        for k in (2, 5, 17, 30, m.n):
            sample, trace = farthest_point_insertion(m, k)
            assert repr(trace.final) == repr(gap_ratio(m, sample))


@pytest.mark.parametrize("pts", [
    [[0.0, 0.0], [1e-200, 0.0]],
    # sites 1 and 2 are the diameter pair, and site 0, 1e-162 from site 1,
    # is inserted last at distance 0
    [[1e-162], [0.0], [1e-155]],
], ids=["pair", "last-insertion"])
def test_zero_distance_refusal_matches_gap_ratio(pts):
    m = build_euclidean(build_cloud(pts))
    with pytest.raises(GapError) as got:
        farthest_point_insertion(m, m.n)
    with pytest.raises(GapError) as want:
        gap_ratio(m, range(m.n))
    assert (got.value.code, str(got.value)) == (want.value.code, str(want.value))
    assert got.value.code == "zero-distance"


def test_a_zero_cover_before_an_insertion_is_refused_with_zero_distance():
    # 1e-200 squared underflows, so sites 0 and 1 are at distance 0: after
    # the diameter pair (0, 2) every site is covered at radius 0, and no
    # site is left to insert
    m = build_euclidean(build_cloud([[0.0], [1e-200], [1.0]]))
    for run in (lambda: farthest_point_insertion(m, 3), lambda: gap_ratio(m, (0, 1, 2))):
        with pytest.raises(GapError) as e:
            run()
        assert (e.value.code, str(e.value)) == ("zero-distance", "sites 0 and 1 are at distance 0")
    # R = 0 after the last insertion is an answer, as gap_ratio gives it
    sample, trace = farthest_point_insertion(m, 2)
    assert sample.indices == (0, 2) and trace.final.R == 0.0
    assert repr(trace.final) == repr(gap_ratio(m, sample))


def test_graph_run_searches_diameter_then_k_rows_then_the_tie_suffix(monkeypatch):
    # an 8x9 grid: many pairs tie the final minimum, and the insertions
    # made at it are 14 of the 39
    m = build_graph_metric(grid_graph(8, 9))
    searches = []
    hops = metric._hops

    def counted(adj, sources):
        searches.append(sources)
        return hops(adj, sources)

    monkeypatch.setattr(metric, "_hops", counted)
    diameter(m)
    in_diameter = len(searches)
    searches.clear()
    k = 40
    _, trace = farthest_point_insertion(m, k)
    q = [2 * trace.r_init] + [2 * s.r_after for s in trace.steps]
    suffix = k - 1 - q.index(q[-1])
    assert (in_diameter, suffix) == (7, 14)
    assert len(searches) == in_diameter + k + suffix
    assert vars(m)["_dist"] is None


def step_invariants(trace):
    prev_R = trace.R_init
    for step in trace.steps:
        # the trigger distance IS the covering radius of the previous set
        assert step.R_before == prev_R
        assert step.r_after == step.R_before / 2.0  # bit-exact halving
        assert step.R_after <= step.R_before
        assert step.R_after / step.r_after <= 2.0 + 1e-12
        prev_R = step.R_after
    assert trace.R_init / trace.r_init <= 2.0 + 1e-12


def test_step_invariants_random_euclidean():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, 4))
        m = build_euclidean(build_cloud(rng.random((n, d))))
        k = int(rng.integers(2, min(n, 12) + 1))
        _, trace = farthest_point_insertion(m, k)
        step_invariants(trace)
        assert trace.final.gap_ratio <= 2.0 + 1e-12


def test_scaling_invariance():
    rng = np.random.default_rng(5)
    pts = rng.random((30, 2))
    s1, t1 = farthest_point_insertion(build_euclidean(build_cloud(pts)), 6)
    s2, t2 = farthest_point_insertion(build_euclidean(build_cloud(pts * 4.0)), 6)
    assert s1.indices == s2.indices
    assert t2.final.r == pytest.approx(4.0 * t1.final.r, rel=1e-12)
    assert t2.final.R == pytest.approx(4.0 * t1.final.R, rel=1e-12)


def test_ratio_bound_values():
    assert fpi_ratio_bound(1.0) == 2.0
    assert fpi_ratio_bound(2.0 / 3.0) == 3.0
    assert fpi_ratio_bound(0.5) == pytest.approx(8.0 / 3.0)
    assert fpi_ratio_bound(2.0) == 1.0
    # the two branches meet continuously at 2/3
    assert fpi_ratio_bound(2.0 / 3.0 - 1e-12) == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(GapError):
        fpi_ratio_bound(0.0)


def test_ratio_bound_never_exceeds_three():
    for a in np.linspace(0.01, 5.0, 500):
        assert fpi_ratio_bound(float(a)) <= 3.0 + 1e-12


def test_rho_values():
    assert rho(100) == pytest.approx(1.9405796632080388, rel=1e-15)
    assert abs(rho(10 ** 8) - sqrt(3.0)) < 1e-3
    with pytest.raises(GapError):
        rho(1)


def test_rho_monotone_decreasing():
    vals = [rho(k) for k in range(2, 10001)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > sqrt(3.0)
