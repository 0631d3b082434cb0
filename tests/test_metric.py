"""Contract tests for metric construction and exact gap evaluation."""

import heapq
import itertools
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from gapsampler import (GapError, approx_sample, build_cloud, build_euclidean,
                        build_explicit, build_graph, build_graph_metric,
                        diameter, gap_fraction,
                        farthest_point_insertion, gap_ratio, genmet_reduce,
                        make_sample, max_gap, min_gap)
import gapsampler as gs
from gapsampler import FpiStep, metric
from gapsampler.certify import BIG, iter_connected_metrics
from gapsampler.fpi import greedy_batch
from gapsampler.metric import TRIANGLE_TOL, _dist, _pairwise


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
    assert m.points is not None and m.exact2x is None


def test_euclidean_line_matrix():
    m = build_euclidean(build_cloud([0.0, 1.0, 3.0]))
    assert np.array_equal(m.dist, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def test_euclidean_triangle_inequality_exhaustive():
    rng = np.random.default_rng(7)
    m = build_euclidean(build_cloud(rng.random((10, 3))))
    for i, j, k in itertools.permutations(range(10), 3):
        assert m.dist[i, j] <= m.dist[i, k] + m.dist[k, j] + 1e-12


def test_cloud_dedupe_keeps_first():
    cloud = build_cloud([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])
    assert cloud.n == 2 and cloud.duplicates_removed == 1


def test_cloud_duplicates_are_equal_by_value():
    # -0.0 equals 0.0: a second site at distance 0 would give r = 0
    cloud = build_cloud([[0.0, 1.0], [-0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    assert cloud.n == 3 and cloud.duplicates_removed == 1
    assert np.array_equal(cloud.points, [[0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    assert build_euclidean(cloud).dist[np.triu_indices(3, 1)].min() == 1.0
    sample, _, _, _ = approx_sample(cloud, 3, 0.3)
    assert sample.indices == (0, 1, 2)


def test_cloud_rejects_bad_input():
    with pytest.raises(GapError, match="no points"):
        build_cloud([])
    with pytest.raises(GapError) as e:
        build_cloud([[0.0], [np.nan]])
    assert e.value.code == "nonfinite-coordinate"


@pytest.mark.parametrize("build, bad, code", [
    (build_cloud, [[0, 0], [1]], "malformed-points"),
    (build_cloud, [["a", "b"]], "malformed-points"),
    (build_cloud, [[0, 1j]], "malformed-points"),
    (build_cloud, np.array([[0, 1j]]), "malformed-points"),
    # numpy would keep 0.3 of the complex entry and parse the string
    (build_cloud, [[np.complex128(0.3 + 1j), 0.2], [0, 0]], "malformed-points"),
    (build_cloud, [["0.3", 0.2], [0, 0]], "malformed-points"),
    # beside a Fraction numpy makes an object array, and would parse the
    # string; a Decimal is not a numbers.Real
    (build_cloud, [[Fraction(1, 2), "0.3"], [0, 0]], "malformed-points"),
    (build_cloud, [[Decimal("0.5"), 0.2], [0, 0]], "malformed-points"),
    (build_cloud, [[10 ** 400, 0]], "malformed-points"),
    (build_cloud, "ab", "malformed-points"),
    (build_cloud, 5, "malformed-points"),
    (build_explicit, [[0, 1], [1]], "invalid-matrix"),
    (build_explicit, [[0, "a"], ["a", 0]], "invalid-matrix"),
    (build_explicit, [[0, "1"], ["1", 0]], "invalid-matrix"),
    (build_explicit, [[0, Fraction(1)], ["1", 0]], "invalid-matrix"),
    (build_explicit, [[0, 10 ** 400], [10 ** 400, 0]], "invalid-matrix"),
    (build_explicit, [[0, np.complex128(1 + 1j)], [1, 0]], "invalid-matrix"),
    (lambda w: build_graph(3, [(0, 1, w), (1, 2)]), "a", "malformed-graph"),
    (lambda w: build_graph(3, [(0, 1, w), (1, 2)]), 1j, "malformed-graph"),
    (lambda w: build_graph(3, [(0, 1, w), (1, 2)]), np.complex128(2 + 0j), "malformed-graph"),
    (lambda n: build_graph(n, []), 3.5, "malformed-graph"),
    (lambda e: build_graph(3, [e]), 5, "malformed-graph"),
], ids=["ragged-cloud", "string-cloud", "complex-cloud", "complex-array-cloud",
        "numpy-complex-cloud", "numeric-string-cloud", "object-string-cloud",
        "decimal-cloud", "huge-int-cloud", "string-scalar-cloud",
        "scalar-cloud", "ragged-matrix", "string-matrix", "numeric-string-matrix",
        "object-string-matrix", "huge-int-matrix",
        "numpy-complex-matrix", "string-weight",
        "complex-weight", "numpy-complex-weight", "non-integral-n", "non-sequence-edge"])
def test_malformed_input_is_a_coded_error(build, bad, code):
    with pytest.raises(GapError) as e:
        build(bad)
    assert e.value.code == code


def test_non_integral_indices_are_refused():
    for bad in ([0, 1.9], [0.5, 2], [0, float("nan")], [0, float("inf")], [0, "1"]):
        with pytest.raises(GapError) as e:
            make_sample(bad, 3)
        assert e.value.code == "malformed-sample"
        with pytest.raises(GapError) as e:
            gap_ratio(line_metric(3), bad)
        assert e.value.code == "malformed-sample"
    for bad in ([(0, 1.5), (1, 2)], [(0, 1), (1, 2.25, 1.0)], [(0, None), (1, 2)]):
        with pytest.raises(GapError) as e:
            build_graph(3, bad)
        assert e.value.code == "malformed-graph"
    # integral floats and numpy integers are indices
    assert make_sample([np.int64(2), 0.0, np.int8(1)], 3).indices == (0, 1, 2)
    assert gap_ratio(line_metric(3), [np.uint8(0), 2.0]).closest_pair == (0, 2)
    g = build_graph(3.0, [(0.0, np.int32(1)), (np.int64(1), 2.0, 1.0)])
    assert type(g.n) is int and g.edges == ((0, 1, 1.0), (1, 2, 1.0))


def _hexagon():
    return build_graph(6, [(i, (i + 1) % 6) for i in range(6)])


SIZE_ENTRY_POINTS = {
    "farthest_point_insertion": lambda k: farthest_point_insertion(line_metric(6), k),
    "optimal_gap_ratio": lambda k: gs.optimal_gap_ratio(line_metric(6), k),
    "check_genmet_equivalence": lambda k: gs.check_genmet_equivalence(_hexagon(), k),
    "check_eds_equivalence": lambda k: gs.check_eds_equivalence(_hexagon(), k),
    "best_k_subset": lambda k: gs.best_k_subset(line_metric(6), k),
    "approx_sample": lambda k: approx_sample(build_cloud(np.arange(20.0) ** 1.5), k, 0.3),
    "stream_init": lambda k: gs.stream_init([[float(i)] for i in range(6)], k, 0.1),
    "analytic_bounds": lambda k: gs.analytic_bounds("unit-square", k),
    "rho": lambda k: gs.rho(k),
    "static_params": lambda d: gs.static_params(0.3, 1.0, d),
    "stream_params": lambda d: gs.stream_params(0.1, d),
}


@pytest.mark.parametrize("name", sorted(SIZE_ENTRY_POINTS))
def test_non_integral_sizes_are_refused(name):
    call = SIZE_ENTRY_POINTS[name]
    code = "invalid-dimension" if name.endswith("_params") else "k-out-of-range"
    for bad in (3.7, "3", "x"):  # never truncated, and never a raw ValueError
        with pytest.raises(GapError) as e:
            call(bad)
        assert e.value.code == code
    # integral floats and numpy integers are sizes, with the int's result
    assert repr(call(3.0)) == repr(call(np.int64(3))) == repr(call(3))


# the largest k of each sized entry point that has one: line_metric(6) and
# the hexagon have 6 sites, the certifiers need k < n, and approx_sample's
# cloud has 20 points
SIZE_BOUNDS = {"farthest_point_insertion": 6, "optimal_gap_ratio": 6,
               "check_genmet_equivalence": 5, "check_eds_equivalence": 5,
               "approx_sample": 20}


@pytest.mark.parametrize("name", sorted(SIZE_ENTRY_POINTS))
def test_sizes_out_of_range_are_refused_with_one_text(name):
    call = SIZE_ENTRY_POINTS[name]
    if name.endswith("_params"):
        bad = {0: ("invalid-dimension", "dimension must be >= 1, got 0")}
    elif name in SIZE_BOUNDS:
        most = SIZE_BOUNDS[name]
        bad = {k: ("k-out-of-range", f"k must satisfy 2 <= k <= {most}, got {k}")
               for k in (1, most + 1)}
        call(most)  # the bound itself is a size
    else:
        bad = {1: ("k-out-of-range", "k must be >= 2, got 1")}
    for size, want in bad.items():
        with pytest.raises(GapError) as e:
            call(size)
        assert (e.value.code, str(e.value)) == want


def _square_cloud():
    return build_cloud([[0.1, 0.2], [0.5, 0.5], [0.9, 0.7]])


# each real-valued parameter: (call, code, what, a value it accepts)
REAL_ENTRY_POINTS = {
    "static_params eps": (lambda x: gs.static_params(x, 1.0, 2), "eps-out-of-range", "eps", 0.1),
    "static_params R_P1": (lambda x: gs.static_params(0.1, x, 2), "invalid-radius",
                           "covering radius", 1.5),
    "stream_params eps": (lambda x: gs.stream_params(x, 2), "eps-out-of-range", "eps", 0.1),
    "approx_sample eps": (lambda x: approx_sample(build_cloud(np.arange(20.0) ** 1.5), 3, x),
                          "eps-out-of-range", "eps", 0.3),
    "build_grid_coreset cell_side": (lambda x: gs.build_grid_coreset(_square_cloud(), x),
                                     "invalid-cell-side", "cell side", 0.25),
    "fpi_ratio_bound alpha": (lambda x: gs.fpi_ratio_bound(x), "alpha-out-of-range",
                              "alpha", 0.5),
    "build_graph weight": (lambda x: build_graph(3, [(0, 1, x), (1, 2)]), "malformed-graph",
                           "edge (0, 1) weight", 0.5),
    "gap_based_discrepancy_bound r": (
        lambda x: gs.gap_based_discrepancy_bound(_square_cloud(), x, 1.0),
        "invalid-radius", "minimum gap", 0.2),
    "gap_based_discrepancy_bound R": (
        lambda x: gs.gap_based_discrepancy_bound(_square_cloud(), 0.2, x),
        "invalid-radius", "covering radius", 0.5),
}


@pytest.mark.parametrize("name", sorted(REAL_ENTRY_POINTS))
def test_real_parameters_are_refused_with_one_rule(name):
    call, code, what, good = REAL_ENTRY_POINTS[name]
    # never read from a string, cut to a real part, compared elementwise,
    # converted from an array (numpy 1.24 reads a 1-element one silently)
    # or overflowed into a raw error
    for bad in ("0.1", "x", None, 0.1 + 1j, np.complex128(0.1 + 1j), [0.1],
                np.array([0.1]), np.array([0.1, 0.2]), np.array(0.1), 10 ** 400):
        with pytest.raises(GapError) as e:
            call(bad)
        assert (e.value.code, str(e.value)) == (code, f"{what} {bad!r} is not a real number")
    # numpy floats and exact fractions are reals, with the float's result
    want = repr(call(good))
    assert repr(call(np.float64(good))) == repr(call(Fraction(good))) == want
    with pytest.raises(GapError) as e:
        call(float("nan"))  # nan keeps failing the range check
    assert e.value.code == code


INDEX_ENTRY_POINTS = {
    "make_sample": lambda p: make_sample(p, 6),
    "min_gap": lambda p: min_gap(c6_metric(), p),
    "max_gap": lambda p: max_gap(c6_metric(), p),
    "gap_ratio": lambda p: gap_ratio(c6_metric(), p),
    "gap_fraction": lambda p: gap_fraction(c6_metric(), p),
    "is_independent_dominating": lambda p: gs.is_independent_dominating(_hexagon(), p),
    "is_efficient_dominating": lambda p: gs.is_efficient_dominating(_hexagon(), p),
}


@pytest.mark.parametrize("name", sorted(INDEX_ENTRY_POINTS))
def test_index_sets_are_refused_alike(name):
    # one rule for every set of sites of the 6-site hexagon, in one order:
    # malformed-sample, duplicate-indices, then index-out-of-range
    call = INDEX_ENTRY_POINTS[name]
    for bad, code in (([0, -1], "index-out-of-range"), ([0, 6], "index-out-of-range"),
                      ([0, 0.5], "malformed-sample"), ([0, "x"], "malformed-sample"),
                      ([0, 3, 3], "duplicate-indices"), ([7, 7], "duplicate-indices"),
                      ([0.5, 0.5], "malformed-sample")):
        with pytest.raises(GapError) as e:
            call(bad)
        assert e.value.code == code, bad
    what = "vertex" if name.startswith("is_") else "sample index"
    with pytest.raises(GapError) as e:
        call([0, 6])
    assert str(e.value) == f"{what} 6 outside [0, 6)"
    call([0, 3])  # a valid set is answered


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
    assert vars(m)["_adj"] is not None


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
    """Reference: squared differences summed in coordinate order, then sqrt.

    The loop runs over the coordinates; each step is one elementwise
    subtract, multiply and add over every pair, which rounds each entry
    as the same operations on Python floats would."""
    acc = np.zeros((len(a), len(b)))
    for c in range(a.shape[1]):
        t = a[:, c, None] - b[None, :, c]
        acc = acc + t * t
    return np.sqrt(acc)


def broadcast_distances(a, b):
    """The difference-tensor expression the kernel replaced."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


DEFAULT_BLOCK = metric._BLOCK


def kernel_shapes(budget):
    """(rows, cols) around the kernel's row step max(1, budget // cols), for
    1, 3 and 64 columns and for more columns than the budget: a step less
    a row, one step, a step and a row, and two steps and a row."""
    shapes = [(1, 1)]
    for cols in (1, 3, 64, budget + 1):
        step = max(1, budget // cols)
        shapes += [(max(1, step - 1), cols), (step, cols), (step + 1, cols),
                   (2 * step + 1, cols)]
    return shapes


@pytest.fixture
def budgets(monkeypatch):
    """Sets metric._BLOCK to each budget in turn: one entry (one row per
    block), 7 entries (a few rows per block on narrow shapes) and the
    default; yields the shapes that straddle each budget's row step."""
    def each():
        for budget in (1, 7, DEFAULT_BLOCK):
            monkeypatch.setattr(metric, "_BLOCK", budget)
            yield kernel_shapes(budget)
    return each


@pytest.mark.parametrize("d", range(1, 13))
def test_pairwise_equals_coordinate_order_loop(d, budgets):
    rng = np.random.default_rng(d)
    for shapes in budgets():
        for na, nb in shapes:
            a = rng.normal(size=(na, d)) * 10.0 ** rng.integers(-3, 4)
            b = rng.normal(size=(nb, d))
            assert np.array_equal(_pairwise(a, b), loop_distances(a, b))


@pytest.mark.parametrize("d", range(1, 10))
def test_pairwise_against_broadcast_expression(d, budgets):
    rng = np.random.default_rng(100 + d)
    for shapes in budgets():
        for na, nb in shapes:
            a, b = rng.random((na, d)), rng.random((nb, d))
            got, old = _pairwise(a, b), broadcast_distances(a, b)
            if d <= 7:
                assert np.array_equal(got, old)
            else:  # numpy sums 8+ terms pairwise: last-bit differences only
                assert np.all(np.abs(got - old) <= 4 * 2.0 ** -52 * old)


def test_pairwise_self_is_exactly_symmetric(budgets):
    rng = np.random.default_rng(9)
    for _ in budgets():
        for d in (1, 2, 3, 8, 11):
            for n in (3, 400):  # 400 rows straddle the default budget's step
                p = rng.normal(size=(n, d))
                dist = _pairwise(p, p)
                assert np.array_equal(dist, dist.T)
                assert not np.diag(dist).any()


@pytest.mark.parametrize("d", [1, 2, 3, 9])
def test_pairwise_reduce_equals_the_reduced_block(d, budgets):
    # rows reduced block by block have the bits of the whole block's row
    # reductions: on lattice points, whose distances tie (argmin takes the
    # first), and at 1e154, where some squares overflow to inf
    rng = np.random.default_rng(400 + d)
    seen = set()
    for shapes in budgets():
        for na, nb in shapes:
            for kind in ("normal", "lattice", "overflow"):
                if kind == "lattice":
                    a, b = (rng.integers(-2, 3, (n, d)) * 0.5 for n in (na, nb))
                else:
                    scale = 1e154 if kind == "overflow" else 1.0
                    a, b = (rng.normal(size=(n, d)) * scale for n in (na, nb))
                with np.errstate(over="ignore"):
                    full = _pairwise(a, b)
                    for reduce in (np.min, np.max, np.argmin):
                        got, want = _pairwise(a, b, reduce), reduce(full, axis=1)
                        assert got.dtype == want.dtype and np.array_equal(got, want)
                if np.isinf(full).any():
                    seen.add("inf")
                if nb > 1 and (full == full.min(axis=1, keepdims=True)).sum(axis=1).max() > 1:
                    seen.add("tie")
    assert seen == {"inf", "tie"}


def scalar_dist_pairs(rng, d):
    """Point pairs at every scale the scalar rule must agree with the kernel
    on: ordinary, squares near overflow (1e154) and underflow (1e-161),
    subnormal coordinates, and lattice points, whose distances tie."""
    for scale in (1.0, 1e-3, 1e5, 1e154, 1e-161):
        yield rng.normal(size=(60, d)) * scale, rng.normal(size=(60, d)) * scale
    tiny = 2.0 ** -1074
    yield (rng.integers(-2000, 2000, (60, d)) * tiny,
           rng.integers(-2000, 2000, (60, d)) * tiny)
    yield (rng.integers(-3, 4, (60, d)) * 0.1, rng.integers(-3, 4, (60, d)) * 0.1)


@pytest.mark.parametrize("d", range(1, 10))
def test_scalar_dist_is_one_pairwise_entry(d):
    rng = np.random.default_rng(300 + d)
    for a, b in scalar_dist_pairs(rng, d):
        for p, q in zip(a, b):
            with np.errstate(over="ignore"):  # squares past 1e308 are inf in both
                want = _pairwise(p[None], q[None])[0, 0]
            got = _dist(p.tolist(), q.tolist())
            assert type(got) is float
            assert got == want, (p, q)


def test_scalar_dist_adds_squares_uncompensated():
    # builtin sum() of floats is compensated from Python 3.12 on and gives
    # sqrt(1e16 + 2) = 100000000.00000001 here; the kernel rounds each add
    a, origin = [1e8, 1.0, 1.0], [0.0, 0.0, 0.0]
    assert _dist(a, origin) == 1e8
    assert _pairwise(np.array([a]), np.array([origin]))[0, 0] == 1e8


def _three_backings() -> dict:
    """Makers of 3-site metrics that read their points, their graph or
    their matrix."""
    pts = np.random.default_rng(5).random((3, 2))
    path = build_graph(3, [(0, 1), (1, 2)])
    return {
        "points": lambda: build_euclidean(build_cloud(pts)),
        "graph": lambda: build_graph_metric(path),
        "explicit": lambda: build_explicit(build_euclidean(build_cloud(pts)).dist),
    }


def test_block_of_an_empty_selection_is_empty_on_every_backing():
    # no rows or no columns give the empty block, no rows the empty
    # reduction, and a reduction over no columns a coded error, whether
    # the metric reads its points, its graph or its matrix
    for name, make in _three_backings().items():
        m = make()
        for rows, cols, shape in (([0], [], (1, 0)), ([], None, (0, 3)),
                                  (None, [], (3, 0)), ([], [], (0, 0))):
            assert m.block(rows, cols).shape == shape, (name, rows, cols)
        for reduce in (np.min, np.max, np.argmin):
            for cols in (None, [1]):
                got = m.block([], cols, reduce)
                assert got.shape == (0,) and got.dtype == (
                    np.intp if reduce is np.argmin else np.float64)
            for rows in (None, [0], []):
                with pytest.raises(GapError) as e:
                    m.block(rows, [], reduce)
                assert e.value.code == "empty-selection", (name, rows)
        assert (m._dist is None) == (name != "explicit")  # each read its own backing


def test_block_refuses_indices_outside_the_sites_on_every_backing():
    # rows and cols are integers in [0, n), in any order and with repeats:
    # -1 is not read as the last site, nor n or 0.5 as a raw IndexError
    for name, make in _three_backings().items():
        m, ref = make(), make().dist
        for bad, code in (([-1], "index-out-of-range"), ([3], "index-out-of-range"),
                          ([0.5], "malformed-sample"), (["x"], "malformed-sample")):
            for rows, cols in ((bad, None), (None, bad), ([0], bad), (bad, [0])):
                for reduce in (None, np.min):
                    with pytest.raises(GapError) as e:
                        m.block(rows, cols, reduce)
                    assert e.value.code == code, (name, rows, cols)
        # an empty float array is the empty selection, like []
        assert m.block(np.array([]), [0]).shape == (0, 1)
        assert m.block([0], np.array([])).shape == (1, 0)
        with pytest.raises(GapError) as e:
            m.block(None, np.array([]), np.min)
        assert e.value.code == "empty-selection"
        rows, cols = [2, 0, 2], [1.0, np.int8(1), 0]
        assert np.array_equal(m.block(rows, cols), ref[np.ix_(rows, [1, 1, 0])]), name
        assert (m._dist is None) == (name != "explicit")


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


def reference_greedy(dist, k):
    """Farthest-point insertion in list loops over a nested-list matrix:
    (order, q, R) with q[s - 2] and R[s - 2] the minimum pair distance and
    covering radius of the first s sites.  Each scan keeps its first entry
    and moves only on a strictly larger one."""
    n = len(dist)
    i, j = 0, 1
    for a in range(n):
        for b in range(a + 1, n):
            if dist[a][b] > dist[i][j]:
                i, j = a, b
    order = [i, j]
    while True:
        near = [min(dist[x][s] for s in order) for x in range(n)]
        if len(order) == k:
            break
        c = 0
        for x in range(1, n):
            if near[x] > near[c]:
                c = x
        order.append(c)
    q, R = [], []
    for size in range(2, k + 1):
        q.append(min(dist[a][b] for a, b in itertools.combinations(order[:size], 2)))
        R.append(max(min(dist[x][s] for s in order[:size]) for x in range(n)))
    return order, q, R


def assert_trace_matches_reference(m, k):
    sample, trace = farthest_point_insertion(m, k)
    order, q, R = reference_greedy(m.dist.tolist(), k)
    assert repr(trace.init_pair) == repr((order[0], order[1]))
    assert (trace.r_init, trace.R_init) == (q[0] / 2.0, R[0])
    want = tuple(FpiStep(size_before=s, chosen=order[s], R_before=R[s - 2],
                         r_after=q[s - 1] / 2.0, R_after=R[s - 1])
                 for s in range(2, k))
    assert repr(trace.steps) == repr(want)  # Python ints and floats, bit for bit
    assert sample.indices == tuple(sorted(order))
    assert trace.final == gap_ratio(m, sample)


def test_fpi_traces_match_reference_greedy():
    rng = np.random.default_rng(23)
    metrics = [build_euclidean(build_cloud(pts)) for pts in lattice_clouds()]
    metrics += [build_graph_metric(g) for g in tie_heavy_graphs()]
    for t in range(30):
        pts = rng.random((int(rng.integers(2, 40)), int(rng.integers(1, 4))))
        if t % 2:
            pts = np.unique(np.round(pts * 3), axis=0)  # ties everywhere
        if len(pts) >= 2:
            metrics.append(build_euclidean(build_cloud(pts)))
    for m in metrics:
        for k in sorted({2, min(m.n, 5), m.n}):
            assert_trace_matches_reference(m, k)


def test_greedy_batch_matches_reference_greedy():
    (masks, D), = iter_connected_metrics(6)  # one chunk holds every graph
    pick = np.random.default_rng(1).choice(masks.shape[0], size=60, replace=False)
    for k in (3, 6):
        order, q, R, far = greedy_batch(D[pick], k)
        for b, row in enumerate(D[pick]):
            assert (order[b].tolist(), q[b].tolist(), R[b].tolist()) \
                == reference_greedy(row.tolist(), k)
            assert far[b] == row[:, order[b]].min(axis=1).argmax()


def sampled_subsets(m, rng, count=8):
    for _ in range(count):
        yield sorted(rng.choice(m.n, size=int(rng.integers(2, m.n + 1)), replace=False))


def test_min_gap_witness_matches_triu_scan():
    rng = np.random.default_rng(24)
    metrics = [build_euclidean(build_cloud(pts)) for pts in lattice_clouds()]
    metrics += [build_graph_metric(g) for g in tie_heavy_graphs()]
    # a weighted graph closed in float64 (tenths are not half-integers),
    # and a {1, 2}-metric, where nearly every pair ties
    cycle = [(i, (i + 1) % 12, float(rng.choice([0.1, 0.2, 0.3]))) for i in range(12)]
    weighted = build_graph_metric(build_graph(12, cycle + [(0, 6, 0.4), (3, 9, 0.7)]))
    assert not weighted.exact
    ones_twos = np.triu(rng.integers(1, 3, size=(15, 15)), 1).astype(float)
    metrics += [weighted, build_explicit(ones_twos + ones_twos.T)]
    for m in metrics:
        for idx in sampled_subsets(m, rng):
            a, b = triu_first(m.dist[np.ix_(idx, idx)], largest=False)
            assert min_gap(m, idx) == (m.dist[idx[a], idx[b]] / 2.0, (idx[a], idx[b]))


def full_block_min_gap(m, idx):
    """min_gap as it was: the whole (k, k) block, read from a matrix of the
    metric's own, with an inf diagonal; the first row holding the minimum,
    then its first column, and (0, 1) when every entry is inf."""
    if m.points is None:
        sub = m.dist[np.ix_(idx, idx)]
    else:
        with np.errstate(over="ignore"):
            sub = _pairwise(m.points[idx], m.points[idx])
    np.fill_diagonal(sub, np.inf)
    a = int(np.argmin(sub.min(axis=1)))
    b = int(np.argmin(sub[a]))
    b += a == b
    return float(sub[a, b]) / 2.0, (int(idx[a]), int(idx[b]))


def test_min_gap_row_blocks_match_the_full_block(budgets):
    rng = np.random.default_rng(27)
    clouds = list(lattice_clouds())
    clouds += [rng.random((n, 2)) * 1e160 for n in (2, 3, 40)]  # every distance is inf
    clouds += [np.c_[rng.random(30), np.zeros(30)], np.arange(12.0)[:, None] ** 2]
    metrics = [build_euclidean(build_cloud(pts)) for pts in clouds]
    metrics += [build_graph_metric(g) for g in tie_heavy_graphs()]
    for _ in budgets():
        for m in metrics:
            for idx in [list(range(m.n)), *sampled_subsets(m, rng, 4)]:
                assert repr(min_gap(m, idx)) == repr(full_block_min_gap(m, idx))
    assert all(vars(m)["_dist"] is None for m in metrics[:len(clouds)])
    for n in (2, 3, 40):  # a full tie of infs is (0, 1)
        m = build_euclidean(build_cloud(rng.random((n, 3)) * 1e160))
        assert min_gap(m, range(n)) == (np.inf, (0, 1))


def test_min_gap_reads_each_pair_once_and_one_block_more(monkeypatch):
    # row i is read against the sites before it only, a block of rows cut
    # at its last row's columns: k(k - 1) / 2 entries and at most a step
    # of rows' triangle more, not the (k, k) block
    k = 600
    m = build_euclidean(build_cloud(np.random.default_rng(28).random((k, 2))))
    read, block = [], metric.FiniteMetric.block

    def spy(self, *args, **kwargs):
        out = block(self, *args, **kwargs)
        read.append(out.size)
        return out

    monkeypatch.setattr(metric.FiniteMetric, "block", spy)
    got = min_gap(m, range(k))
    step = max(1, metric._BLOCK // k)
    assert sum(read) <= k * (k - 1) // 2 + k * step
    assert repr(got) == repr(full_block_min_gap(m, np.arange(k)))


def test_gap_fraction_matches_doubled_integers():
    rng = np.random.default_rng(25)
    graphs = list(tie_heavy_graphs())
    metrics = [build_graph_metric(g) for g in graphs] + [genmet_reduce(g) for g in graphs]
    metrics += [build_graph_metric(build_graph(
        g.n, [(u, v, float(rng.choice([0.5, 1.5, 3.0]))) for u, v, _ in g.edges]))
        for g in graphs]
    for m in metrics:
        e = m.exact2x
        for idx in sampled_subsets(m, rng):
            q2 = int(min(e[a, b] for a, b in itertools.combinations(idx, 2)))
            r2 = int(e[:, idx].min(axis=1).max())
            want = Fraction(2 * r2, q2)  # GR = 2 cover(e) / min_pair(e), in integers
            got = gap_fraction(m, idx)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


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


def test_unweighted_graph_is_the_hop_metric():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert not g.weighted and g.edges == ((0, 1, 1.0), (1, 2, 1.0))
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


def test_too_few_edges_are_refused_without_per_vertex_lists():
    # fewer than n - 1 edges cannot connect n vertices; the search reads the
    # edges alone, so a million vertices cost no per-vertex memory
    tracemalloc.start()
    try:
        with pytest.raises(GapError) as e:
            build_graph(10 ** 6, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == "vertices 0 and 1 are not connected"
    assert peak < 1 << 20
    rng = np.random.default_rng(34)
    for _ in range(30):
        n = int(rng.integers(4, 40))
        # a random tree over 0, 1 and a few other vertices, and a path
        # through some of the rest: fewer than n - 1 edges in all
        order = [0, 1] + (2 + rng.permutation(n - 2)).tolist()
        cut = int(rng.integers(2, n - 1))
        tree = [(order[int(rng.integers(0, i))], order[i]) for i in range(1, cut)]
        rest = order[cut:]
        path = list(zip(rest, rest[1:]))[:max(0, n - 2 - len(tree))]
        edges = [(min(e), max(e)) for e in tree + path]
        assert len(edges) < n - 1
        g = build_graph(n, edges, require_connected=False)
        first = np.flatnonzero(bfs_hops(g)[0] == math.inf)[0]
        want = f"vertices 0 and {first} are not connected"
        for refuse in (lambda: build_graph(n, edges), lambda: build_graph_metric(g)):
            with pytest.raises(GapError) as e:
                refuse()
            assert (e.value.code, str(e.value)) == ("disconnected-graph", want)


# ---------------------------------------------------------------------------
# the integer closure against the float64 closure it replaced


def float_closure_metric(g):
    """(dist, exact2x) as build_graph_metric made them before the integer
    closure: one float64 Floyd-Warshall loop over the edge lengths, with
    exact2x cast from 2 * dist whenever every length is a half-integer."""
    unreachable = np.flatnonzero(bfs_hops(g)[0] == math.inf)
    if unreachable.size:
        raise GapError("disconnected-graph",
                       f"vertices 0 and {unreachable[0]} are not connected")
    n = g.n
    lengths = [(u, v, w if g.weighted else 1.0) for u, v, w in g.edges]
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v, w in lengths:
        dist[u, v] = dist[v, u] = min(dist[u, v], w)
    for k in range(n):
        np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :], out=dist)
    half = all(float(w * 2).is_integer() for _, _, w in lengths)
    exact2x = (2 * dist).astype(np.int64) if half else None
    dist.setflags(write=False)
    if exact2x is not None:
        exact2x.setflags(write=False)
    return dist, exact2x


def path_graph(n, w=None):
    return build_graph(n, [(i, i + 1) if w is None else (i, i + 1, w)
                           for i in range(n - 1)])


def closure_families():
    rng = np.random.default_rng(36)
    for n in (1, 2, 63, 64, 65, 127, 128, 129):  # across uint8 -> uint16
        yield path_graph(n)
        yield path_graph(n, 0.5)
    yield path_graph(128, 0.5)  # (n - 1) * max(L) = 127: top = 128 needs uint16
    for t in range(24):
        n = int(rng.integers(2, 41))
        edges = random_connected_edges(rng, n, int(rng.integers(0, 2 * n)) if t % 3 else 0)
        yield build_graph(n, edges)  # random graphs (trees when t % 3 == 0)
        if t % 2:  # half-integer weights whose sentinel needs uint32 or more
            weights = rng.integers(1, 140001, len(edges)) / 2
        else:
            weights = rng.choice([0.5, 1.0, 1.5, 2.5], len(edges))
        yield build_graph(n, [(u, v, float(w)) for (u, v), w in zip(edges, weights)])
        lengths = [float(rng.choice([0.3, 2.5])) for _ in edges]
        yield build_graph(n, [(u, v, w) for (u, v), w in zip(edges, lengths)]
                          if t % 2 == 0 else edges)  # unit lengths at odd t
        yield build_graph(n, [e for e in edges if rng.random() < 0.7],
                          require_connected=False)
    for n in (2, 3, 7, 12, 30):
        yield build_graph(n, list(itertools.combinations(range(n), 2)))  # complete
    # at the top <= 2**53 bound (uint64): the float closure's sums of two
    # paths pass 2**52, where halves round, but every distance stays exact
    yield build_graph(2, [(0, 1, 2.0 ** 52 - 0.5)])  # top = 2**53
    yield path_graph(3, 2.0 ** 50)
    for n in (5, 17, 33):
        edges = random_connected_edges(rng, n, n)
        max_L = (2 ** 53 - 1) // (n - 1)
        weights = rng.integers(max_L // 2, max_L + 1, len(edges)) / 2
        weights[0] = max_L / 2  # top = (n - 1) * max_L + 1 <= 2**53
        yield build_graph(n, [(u, v, float(w)) for (u, v), w in zip(edges, weights)])
    yield from tie_heavy_graphs()


def test_graph_metric_matches_float_closure_bitwise():
    errors = exact = 0
    for g in closure_families():
        try:
            want = float_closure_metric(g)
        except GapError as ref:
            with pytest.raises(GapError) as e:
                build_graph_metric(g)
            assert (e.value.code, str(e.value)) == (ref.code, str(ref))
            errors += 1
            continue
        m = build_graph_metric(g)
        assert (m.exact2x is None) == (want[1] is None)  # every graph is inside the bound
        exact += m.exact2x is not None
        for got, ref in zip((m.dist, m.exact2x), want):
            if ref is None:
                continue
            assert (got.dtype, got.shape, got.flags.writeable, got.flags.c_contiguous) \
                == (ref.dtype, ref.shape, ref.flags.writeable, ref.flags.c_contiguous)
            assert got.tobytes() == ref.tobytes()
    assert errors > 10 and exact > 100


def test_integer_closure_sentinel_and_dtype(monkeypatch):
    """The closure starts from top = (n - 1) * max(L) + 1 off the edges and
    runs in np.min_scalar_type(2 * top); graphs past top <= 2**53 run in
    float64.  An unweighted graph's closure runs when dist is first read."""
    seen, kernel = [], metric._min_plus

    def spy(a, out):
        seen.append(a.copy())
        return kernel(a, out)

    monkeypatch.setattr(metric, "_min_plus", spy)
    dtypes = set()
    for g in closure_families():
        if g.weighted and not all(float(2 * w).is_integer() for *_, w in g.edges):
            continue
        try:
            build_graph_metric(g).dist
        except GapError:
            continue
        doubled = [2 * w if g.weighted else 2 for *_, w in g.edges]
        top = (g.n - 1) * int(max(doubled, default=0)) + 1
        seed = seen[-1]
        assert seed.dtype == np.min_scalar_type(2 * top)
        off = np.ones((g.n, g.n), dtype=bool)
        for u, v, _ in g.edges:
            off[u, v] = off[v, u] = False
        np.fill_diagonal(off, False)
        assert (seed[off] == top).all()
        dtypes.add(seed.dtype)
    assert {np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32),
            np.dtype(np.uint64)} <= dtypes
    build_graph_metric(path_graph(3, 2.0 ** 51))  # top = 2**53 + 1
    assert seen[-1].dtype == np.float64


@pytest.mark.parametrize("dtype, top", [(np.int16, BIG), (np.float64, np.inf)],
                         ids=["int16-hops", "float64-lengths"])
def test_min_plus_batch_is_the_trailing_axis(dtype, top):
    """Trailing axes of _min_plus's arrays are a batch: an (n, n, B) stack
    closes, and forms its (min, +) product, exactly as each (n, n) slice
    does alone."""
    rng = np.random.default_rng(23)
    n, B = 6, 37  # B != n, so a leading-axis batch reads the wrong axis
    edge = rng.random((n, n, B)) < 0.35
    edge |= edge.transpose(1, 0, 2)
    w = 1 if dtype is np.int16 else rng.random((n, n, B)) * 10
    S = np.where(edge, w, top).astype(dtype)
    S[np.arange(n), np.arange(n)] = 0
    closed = S.copy()
    metric._min_plus(closed, closed)
    assert (closed == top).any()  # some slices stay disconnected
    product = metric._min_plus(S, np.full_like(S, top))
    for b in range(B):
        d = np.ascontiguousarray(S[..., b])
        assert metric._min_plus(d, np.full_like(d, top)).tobytes() == \
            np.ascontiguousarray(product[..., b]).tobytes()
        metric._min_plus(d, d)
        assert d.tobytes() == np.ascontiguousarray(closed[..., b]).tobytes()
    assert (closed < S).any()  # the closure found shorter paths


def test_graph_metric_past_the_exact_bound():
    # top = 2**53: still closed in integers, exactly
    w = 2.0 ** 52 - 0.5
    m = build_graph_metric(build_graph(2, [(0, 1, w)]))
    assert m.exact2x.tolist() == [[0, 2 ** 53 - 1], [2 ** 53 - 1, 0]]
    assert m.dist.tolist() == [[0, w], [w, 0]]
    m = build_graph_metric(path_graph(3, 2.0 ** 50))  # top = 2**52 + 1
    L = 2 ** 51
    assert m.exact2x.tolist() == [[0, L, 2 * L], [L, 0, L], [2 * L, L, 0]]
    # top = 2**53 + 1: float64 closure, no exact2x
    m = build_graph_metric(path_graph(3, 2.0 ** 51))
    assert m.exact2x is None
    assert m.dist.tolist() == [[0, 2.0 ** 51, 2.0 ** 52], [2.0 ** 51, 0, 2.0 ** 51],
                               [2.0 ** 52, 2.0 ** 51, 0]]
    # integer weights far past 2**53 once cast to int64 overflowed
    m = build_graph_metric(path_graph(3, 1e19))
    assert m.exact2x is None and not m.dist.flags.writeable
    assert m.dist.tolist() == [[0, 1e19, 2e19], [1e19, 0, 1e19], [2e19, 1e19, 0]]
    rep = gap_ratio(m, (0, 2))
    assert (rep.r, rep.R, rep.gap_ratio, rep.exact) == (1e19, 1e19, 1.0, False)
    with pytest.raises(GapError) as e:
        gap_fraction(m, (0, 2))
    assert e.value.code == "exact-unavailable"


def test_graph_metric_overflow_is_a_coded_error():
    # 2 * (n - 1) * max(w) overflows: raised before the float64 closure,
    # which would otherwise warn and store inf
    g = build_graph(3, [(0, 1, 1e308), (1, 2, 1e308)])
    with pytest.raises(GapError) as e:
        gap_ratio(build_graph_metric(g), (0, 2))
    assert e.value.code == "distance-overflow"


def test_underflowed_distance_is_a_coded_error():
    m = build_euclidean(build_cloud([[0.0, 0.0], [1e-200, 0.0]]))
    assert m.dist[0, 1] == 0.0  # distinct points, squared distance underflows
    for run in (lambda: gap_ratio(m, (0, 1)),
                lambda: farthest_point_insertion(m, 2)):
        with pytest.raises(GapError) as e:
            run()
        assert (e.value.code, str(e.value)) == \
            ("zero-distance", "sites 0 and 1 are at distance 0")


def test_graph_metric_peak_memory():
    rows, cols = 20, 24
    n = rows * cols
    relabel = np.random.default_rng(37).permutation(n)
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    g = build_graph(n, [(int(relabel[u]), int(relabel[v])) for u, v in edges])
    tracemalloc.start()
    try:
        m = build_graph_metric(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.exact2x is not None
    assert peak <= 2.5 * n * n * 8


def test_graph_metric_keeps_one_matrix():
    # an exact metric stores only dist; exact2x is derived on request
    n = 1000
    g = build_graph(n, random_connected_edges(np.random.default_rng(5), n, n // 2))
    tracemalloc.start()
    try:
        m = build_graph_metric(g)
        farthest_point_insertion(m, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * n * n
    assert m.exact
    e = m.exact2x
    assert e.dtype == np.int64 and not e.flags.writeable
    assert np.array_equal(e, (2 * m.dist).astype(np.int64))


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
