"""Grid coreset construction and the (1+eps)-approximate subset search."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsampler import (GapError, GuardExceeded, approx_sample,
                        best_k_subset, build_cloud, build_euclidean,
                        build_explicit, build_graph, build_graph_metric,
                        build_grid_coreset, gap_ratio,
                        optimal_gap_ratio, static_params, stream_finalize,
                        stream_init)
from gapsampler import coreset, oracle
from gapsampler.coreset import _point_cell, grid_cells
from test_oracle import reference_search


def line(*xs):
    return build_cloud([float(x) for x in xs])


# ---------------------------------------------------------------------------
# parameter derivation


def test_params_worked_example():
    p = static_params(0.3, 4.0, 2)
    assert p.eps1 == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert p.eps2 == pytest.approx(0.11785113019775793, rel=1e-15)
    assert p.d == 2 and p.R_P1 == 4.0


def test_params_near_upper_limit():
    p = static_params(0.49, 1.0, 1)
    assert p.eps1 == pytest.approx(0.49 / 3.98, rel=1e-15)
    assert p.eps1 == pytest.approx(0.12311557788944723, rel=1e-15)
    # eps1 stays below 1/8 on the whole admissible range
    assert p.eps1 < 0.125


def test_params_validation():
    for eps in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(GapError) as e:
            static_params(eps, 1.0, 2)
        assert e.value.code == "eps-out-of-range"
    with pytest.raises(GapError):
        static_params(0.3, 0.0, 2)
    with pytest.raises(GapError):
        static_params(0.3, 1.0, 0)


# ---------------------------------------------------------------------------
# grid construction


def test_grid_worked_example():
    grid = build_grid_coreset(line(0.0, 0.05, 0.9), 0.5)
    assert grid.size == 2
    assert grid.representatives() == [0, 2]
    assert grid.cells == {(0,): 0, (1,): 2}


def test_grid_half_open_boundary():
    grid = build_grid_coreset(line(0.0, 0.5), 0.5)
    assert grid.size == 2  # 0.5 starts the next cell, not this one


def test_grid_representative_is_cell_member():
    rng = np.random.default_rng(3)
    cloud = build_cloud(rng.random((60, 3)))
    grid = build_grid_coreset(cloud, 0.21)
    for cell, rep in grid.cells.items():
        raw = np.floor((cloud.points[rep] - grid.origin) / grid.cell_side)
        assert tuple(int(c) for c in raw) == cell


def test_grid_covers_every_site():
    rng = np.random.default_rng(4)
    cloud = build_cloud(rng.random((40, 2)) * 5.0)
    grid = build_grid_coreset(cloud, 0.4)
    raw = np.floor((cloud.points - grid.origin) / grid.cell_side).astype(int)
    for row in raw:
        assert tuple(row) in grid.cells


def test_grid_seeded_choice_is_deterministic():
    cloud = build_cloud([[0.0, 0.0], [0.1, 0.1], [0.2, 0.0], [5.0, 5.0]])
    a = build_grid_coreset(cloud, 1.0, seed=11)
    b = build_grid_coreset(cloud, 1.0, seed=11)
    assert a.cells == b.cells
    default = build_grid_coreset(cloud, 1.0)
    assert default.cells[(0, 0)] == 0  # lowest index wins without a seed


@pytest.mark.parametrize("seed", [-1, 1.7, np.nan, "1"])
def test_seeds_that_are_not_natural_numbers_are_refused(seed):
    # int() read 1.7 as seed 1, and default_rng raised a raw ValueError on -1
    cloud = build_cloud(np.random.default_rng(9).random((30, 2)))
    for make in (lambda: build_grid_coreset(cloud, 0.2, seed=seed),
                 lambda: approx_sample(cloud, 3, 0.25, seed=seed)):
        with pytest.raises(GapError) as e:
            make()
        assert e.value.code == "invalid-seed"
    want = build_grid_coreset(cloud, 0.2, seed=1).cells
    assert build_grid_coreset(cloud, 0.2, seed=1.0).cells == want
    assert build_grid_coreset(cloud, 0.2, seed=np.int64(1)).cells == want


def test_grid_rejects_bad_cell_side():
    with pytest.raises(GapError):
        build_grid_coreset(line(0.0, 1.0), 0.0)


def cells_or_code(cells):
    """cells() or the code of the GapError it raises."""
    try:
        return cells()
    except GapError as e:
        return e.code


def test_grid_cells_stop_at_2_to_the_53():
    origin = np.zeros(1)
    below = np.array([[-(2.0 ** 53 - 1)], [-0.5], [2.0 ** 53 - 1]])
    cells = grid_cells(below, origin, 1.0)
    assert cells == [(-(2 ** 53 - 1),), (-1,), (2 ** 53 - 1,)]
    assert all(type(c[0]) is int for c in cells)
    assert _point_cell([2.5], [0.0], 1.0) == (2,)  # one point: one cell
    for bad in (2.0 ** 53, -(2.0 ** 53), np.inf, np.nan):
        assert cells_or_code(lambda: grid_cells(np.array([[0.0], [bad]]), origin, 1.0)) \
            == cells_or_code(lambda: _point_cell([bad], [0.0], 1.0)) == "grid-overflow"


@pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
def test_grid_cells_of_one_point_match_its_row(d):
    rng = np.random.default_rng(40 + d)
    origin = rng.normal(size=d)
    for side in (1e-3, 0.37, 10.0):
        points = np.concatenate([
            rng.normal(size=(40, d)) * 30.0,
            origin + rng.integers(-5, 6, (40, d)) * side,  # on cell boundaries
            np.nextafter(origin, -np.inf)[None],
            origin[None]])
        rows = grid_cells(points, origin, side)
        assert [_point_cell(p, origin.tolist(), side) for p in points.tolist()] == rows
        assert all(type(c) is int for cell in rows for c in cell)
    # -0.0 - 0.0 is -0.0: both forms put it in cell 0, below it is cell -1
    zero = np.zeros(d)
    points = np.array([[-0.0] * d, [-2.0 ** -1074] * d])
    assert grid_cells(points, zero, 1.0) == [(0,) * d, (-1,) * d]
    assert [_point_cell(p, [0.0] * d, 1.0) for p in points.tolist()] == [(0,) * d, (-1,) * d]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0 ** 53, -(2.0 ** 53)])
@pytest.mark.parametrize("d", [1, 3])
def test_grid_cells_refuse_the_same_inputs_in_both_forms(bad, d):
    origin = np.zeros(d)
    point = np.full(d, 0.5)
    point[d // 2] = bad
    assert cells_or_code(lambda: grid_cells(point[None], origin, 1.0)) \
        == cells_or_code(lambda: _point_cell(point.tolist(), [0.0] * d, 1.0)) == "grid-overflow"
    point[d // 2] = -(2.0 ** 53 - 1)  # the last cell index accepted
    assert grid_cells(point[None], origin, 1.0) == [_point_cell(point.tolist(), [0.0] * d, 1.0)]


BOUNDARY = [2.0 ** 53, 2.0 ** 53 - 1, 2.0 ** 53 - 2, 2.0 ** 52 + 0.5, 0.5, -0.0]


@st.composite
def grid_inputs(draw):
    """(rows (n, d), origin (d,), side): ordinary, non-finite and subnormal
    coordinates, quotients at and one ulp off integers, and quotients at
    the 2**53 boundary, in cells of ordinary, subnormal and huge sides."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    side = draw(st.sampled_from([1.0, 0.1, 0.37, 1e-3, 2.0 ** -1074, 1e300]))
    origin = [draw(st.one_of(st.just(0.0), st.floats(-1e3, 1e3))) for _ in range(d)]

    def coord(o):
        near = st.integers(-60, 60).map(lambda i: o + i * side)
        return draw(st.one_of(
            st.floats(),  # nan and inf included
            st.floats(-1e-300, 1e-300),  # subnormals
            near, near.map(lambda x: float(np.nextafter(x, np.inf))),
            near.map(lambda x: float(np.nextafter(x, -np.inf))),
            st.sampled_from(BOUNDARY + [-q for q in BOUNDARY]).map(lambda q: o + q * side)))

    rows = np.array([[coord(o) for o in origin] for _ in range(n)], dtype=float)
    return rows, np.array(origin), side


@settings(max_examples=400, deadline=None)
@given(grid_inputs())
def test_grid_cells_of_rows_match_the_one_point_rule(case):
    rows, origin, side = case
    o = origin.tolist()
    assert cells_or_code(lambda: grid_cells(rows, origin, side)) \
        == cells_or_code(lambda: [_point_cell(p, o, side) for p in rows.tolist()])


def test_grid_refuses_cells_past_2_to_the_53():
    # five distinct sites; an int64 cast merged them into three cells
    with pytest.raises(GapError) as e:
        build_grid_coreset(line(0.0, 1e-30, 1.0, 2.0, 3.0), 1e-31)
    assert e.value.code == "grid-overflow"


# ---------------------------------------------------------------------------
# subset search


def test_best_k_line4():
    m = build_euclidean(line(0, 1, 2, 3))
    sample, rep = best_k_subset(m, 2)
    assert sample.indices == (0, 3)
    assert rep.gap_ratio == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_best_k_matches_oracle():
    rng = np.random.default_rng(8)
    m = build_euclidean(build_cloud(rng.random((12, 2))))
    for k in (2, 3, 4):
        sample, rep = best_k_subset(m, k)
        res = optimal_gap_ratio(m, k)
        assert sample.indices == res.best_sample.indices
        assert rep.gap_ratio == res.gr_opt


def test_best_k_guard_and_size_errors():
    m = build_euclidean(build_cloud(np.arange(30.0)))
    with pytest.raises(GuardExceeded):
        best_k_subset(m, 15, guard=100)
    with pytest.raises(GapError) as e:
        best_k_subset(build_euclidean(line(0, 1, 2)), 5)
    assert e.value.code == "coreset-too-small"
    with pytest.raises(GapError):
        best_k_subset(m, 1)


def test_overflowing_distances_are_refused():
    # a squared distance past float64's range: refused, not an inf report
    far = build_euclidean(build_cloud([[0.0, 0.0], [1e154, 0.0], [2e154, 0.0]]))
    with pytest.raises(GapError) as e:
        best_k_subset(far, 2)
    assert e.value.code == "distance-overflow"
    with pytest.raises(GapError) as e:
        static_params(0.3, np.inf, 2)
    assert e.value.code == "distance-overflow"
    # an overflowed R_P1 used to give a grid of one cell and coreset-too-small
    huge = build_cloud(np.random.default_rng(1).random((300, 2)) * 2.0 ** 520)
    with pytest.raises(GapError) as e:
        approx_sample(huge, 8, 0.25)
    assert e.value.code == "distance-overflow"


def test_pruned_search_keeps_the_optimum_under_tolerated_violations(monkeypatch):
    # five sites on a line whose unit gaps shrink by delta, so triangle
    # inequalities fail by up to 2 * delta, under TRIANGLE_TOL.  FPI keeps
    # the diameter pair (0, 4) and leaves site 2 at R_FPI = 2, but (1, 4)
    # covers every site within 1 - delta, below Gonzalez's R_FPI / 2 = 1.
    # The floor reads rows against P = (0, 4, 2) by min and max alone, so
    # it needs no triangle inequality: row 1's second-smallest entry is
    # 1 - delta, exactly the optimum's cover, which the strict prune keeps
    delta = 4e-10
    D = np.zeros((5, 5))
    for (i, j), v in {(0, 1): 1 - delta, (1, 2): 1 - delta, (2, 3): 1 - delta / 2,
                      (3, 4): 1 - delta, (0, 2): 2, (0, 3): 3, (0, 4): 4,
                      (1, 3): 2, (1, 4): 3, (2, 4): 2}.items():
        D[i, j] = D[j, i] = v
    m = build_explicit(D)
    floor, seed = coreset._radius_floor(m.dist, 2)
    assert floor == 1 - delta
    # one a row per block: (0, 3), next best, is found a block before (1, 4)
    monkeypatch.setattr(oracle, "_BLOCK", 1)
    sample, rep = best_k_subset(m, 2)
    res = optimal_gap_ratio(m, 2)
    assert sample.indices == res.best_sample.indices == (1, 4)
    assert rep.gap_ratio == res.gr_opt
    # a floor of R_FPI / 2, above the optimum's cover, prunes the optimum
    monkeypatch.setattr(coreset, "_radius_floor", lambda dist, k: (1.0, seed))
    assert best_k_subset(m, 2)[0].indices == (0, 3)


@st.composite
def small_metrics(draw):
    """Metrics on at most 10 sites: clouds in d = 1, 2, 3 and 9 at scales
    1e-5 to 1e5, integer lattices (ties everywhere), {1, 2}-metrics,
    unweighted graphs, weighted graphs closed in float64 (tenths are not
    half-integers), and points on a line whose distances shrink by up to
    4e-10, so triangle inequalities fail under TRIANGLE_TOL."""
    kind = draw(st.sampled_from(["cloud", "lattice", "twelve", "graph", "weighted",
                                 "violated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 10))
    if kind == "cloud":
        pts = rng.random((n, draw(st.sampled_from([1, 2, 3, 9]))))
        return build_euclidean(build_cloud(pts * 10.0 ** draw(st.integers(-5, 5))))
    if kind == "lattice":
        pts = np.unique(rng.integers(0, 3, (n, 2)), axis=0).astype(float)
        return build_euclidean(build_cloud(pts if len(pts) > 1 else [[0.0], [1.0]]))
    if kind in ("twelve", "violated"):
        if kind == "twelve":
            d = rng.integers(1, 3, (n, n)).astype(float)
        else:
            x = rng.permutation(3 * n)[:n].astype(float)
            d = np.abs(x[:, None] - x[None]) - rng.uniform(0.0, 4e-10, (n, n))
        d = np.triu(d, 1)
        return build_explicit(d + d.T)
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    edges |= {tuple(sorted(map(int, rng.choice(n, 2, replace=False)))) for _ in range(3)}
    if kind == "graph":
        return build_graph_metric(build_graph(n, sorted(edges)))
    return build_graph_metric(build_graph(n, [(u, v, float(rng.integers(1, 10)) / 10)
                                              for u, v in sorted(edges)]))


@settings(max_examples=150, deadline=None)
@given(m=small_metrics())
def test_radius_floor_is_at_most_every_cover(m):
    # the floor holds for every k-subset, read from dist itself, and the
    # pruned search keeps the exhaustive answer bit for bit
    for k in range(2, m.n + 1):
        floor, _ = coreset._radius_floor(m.dist, k)
        best, gr, R_opt, _ = reference_search(m.dist, k)
        assert floor <= R_opt
        sample, rep = best_k_subset(m, k)
        assert (sample.indices, rep.gap_ratio) == (best, gr)


def exact_small_clouds(seed):
    """The bench's exact-small coreset inputs at a seed: the approx_sample
    clouds (100 uniform points; a jittered 15 x 10 lattice with up to 3
    rows repeated) and the 120 stream points."""
    rng = np.random.default_rng([seed, 24])
    gx, gy = np.meshgrid(np.arange(15), np.arange(10))
    centers = np.stack([(gx.ravel() + 0.5) / 15, (gy.ravel() + 0.5) / 10], axis=1)
    lattice = centers + rng.uniform(-0.1, 0.1, centers.shape) / [15, 10]
    lattice = lattice[rng.permutation(150)]
    repeats = int(rng.integers(0, 4))
    lattice[rng.choice(np.arange(1, 150), size=repeats, replace=False)] = lattice[0]
    return (np.random.default_rng([seed, 23]).random((100, 2)), lattice,
            np.random.default_rng([seed, 25]).random((120, 2)))


@pytest.mark.parametrize("seed", [0, 1])
def test_pipeline_searches_match_the_exhaustive_walk(seed, monkeypatch):
    searched = []
    search = coreset.best_k_subset

    def spy(m, k, guard):
        searched.append((m, k, search(m, k, guard)))
        return searched[-1][-1]

    monkeypatch.setattr(coreset, "best_k_subset", spy)
    uniform, lattice, stream = exact_small_clouds(seed)
    approx_sample(build_cloud(uniform), 3, 0.3)
    approx_sample(build_cloud(lattice), 3, 0.45)
    stream_finalize(stream_init(stream, 3, 0.1))
    assert len(searched) == 3
    for m, k, (sample, rep) in searched:
        best, gr, _, _ = reference_search(m.dist, k)
        assert (sample.indices, rep.gap_ratio) == (best, gr)


# ---------------------------------------------------------------------------
# end-to-end approximation


def test_approx_line10_equals_optimum():
    # cell side stays below the site spacing, so the coreset is the full
    # input and the search is exact
    cloud = line(*range(10))
    sample, rep, params, grid = approx_sample(cloud, 2, 0.45)
    assert sample.indices == (2, 7)
    assert rep.gap_ratio == pytest.approx(0.8, rel=1e-15)
    assert grid.size == 10
    assert params.R_P1 == 4.0


def test_approx_within_guarantee_random():
    rng = np.random.default_rng(21)
    for trial in range(6):
        pts = rng.random((18, 2)) * 10.0
        cloud = build_cloud(pts)
        m = build_euclidean(cloud)
        for k, eps in ((2, 0.1), (3, 0.3), (4, 0.49)):
            sample, rep, params, grid = approx_sample(cloud, k, eps)
            opt = optimal_gap_ratio(m, k)
            assert rep.gap_ratio <= (1.0 + eps) * opt.gr_opt + 1e-12
            assert grid.size >= k


def test_approx_clustered_input_shrinks_coreset():
    rng = np.random.default_rng(5)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    pts = np.concatenate([c + rng.random((5, 2)) * 1e-4 for c in centers])
    cloud = build_cloud(pts)
    sample, rep, params, grid = approx_sample(cloud, 2, 0.3)
    assert grid.size < cloud.n  # clusters collapse to a handful of cells
    opt = optimal_gap_ratio(build_euclidean(cloud), 2)
    assert rep.gap_ratio <= (1.0 + 0.3) * opt.gr_opt + 1e-12


def test_approx_coreset_covering_radius_property():
    # replacing sites by their cell representatives inflates the covering
    # radius of any subset by at most the factor 1/(1 - eps1)
    rng = np.random.default_rng(13)
    cloud = build_cloud(rng.random((25, 2)) * 4.0)
    _, _, params, grid = approx_sample(cloud, 3, 0.4)
    reps = grid.representatives()
    m_full = build_euclidean(cloud)
    m_core = build_euclidean(build_cloud(cloud.points[reps]))
    blow = 1.0 + params.eps1 / (1.0 - params.eps1)
    for _ in range(20):
        local = tuple(sorted(rng.choice(len(reps), size=3, replace=False)))
        chosen = [reps[i] for i in local]
        R_full = gap_ratio(m_full, chosen).R
        R_core = gap_ratio(m_core, local).R
        assert R_full <= blow * R_core + 1e-12


def test_approx_k_equals_n_shortcut():
    cloud = line(0, 1, 5)
    sample, rep, params, grid = approx_sample(cloud, 3, 0.2)
    assert sample.indices == (0, 1, 2)
    assert rep.gap_ratio == 0.0 and rep.R == 0.0
    assert params is None and grid is None


def test_approx_seeded_replay():
    rng = np.random.default_rng(30)
    cloud = build_cloud(rng.random((30, 2)))
    a = approx_sample(cloud, 3, 0.25, seed=7)
    b = approx_sample(cloud, 3, 0.25, seed=7)
    assert a[0].indices == b[0].indices
    assert a[1].gap_ratio == b[1].gap_ratio


def test_approx_k_range_and_guard():
    cloud = line(0, 1, 2, 3)
    with pytest.raises(GapError):
        approx_sample(cloud, 1, 0.2)
    with pytest.raises(GapError):
        approx_sample(cloud, 5, 0.2)
    rng = np.random.default_rng(2)
    big = build_cloud(rng.random((30, 2)) * 100.0)
    with pytest.raises(GuardExceeded):
        approx_sample(big, 10, 0.45, guard=1000)


def test_approx_search_memory_does_not_grow_with_subset_count():
    # one jittered point per cell of a 15 x 10 lattice: at eps = 0.45 the
    # coreset keeps all 150 points and searches C(150, 3) = 551,300 subsets
    rng = np.random.default_rng(4)
    gx, gy = np.meshgrid(np.arange(15), np.arange(10))
    centers = np.stack([(gx.ravel() + 0.5) / 15, (gy.ravel() + 0.5) / 10], axis=1)
    cloud = build_cloud(centers + rng.uniform(-0.1, 0.1, centers.shape) / [15, 10])
    tracemalloc.start()
    try:
        _, _, _, grid = approx_sample(cloud, 3, 0.45)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.size == 150
    assert peak < 40e6


def test_subset_search_memory_is_one_block():
    # the pruned search allocates per block, not a kernel-sized scratch
    m = build_euclidean(build_cloud(np.random.default_rng(0).random((150, 2))))
    tracemalloc.start()
    try:
        best_k_subset(m, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_far_pair_rows_are_built_in_blocks():
    # dist is built first, so the peak is the walk's: one block and the
    # n^2 / 8 bytes of far-pair bits; a prune over all of dist at once
    # would add two n x n float temporaries, 16 MB here
    m = build_euclidean(build_cloud(np.random.default_rng(0).random((1000, 2))))
    m.dist
    tracemalloc.start()
    try:
        best_k_subset(m, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
