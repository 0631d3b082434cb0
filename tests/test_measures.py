"""Exact star discrepancy, the gap-based bound, and closed-form floors."""

import itertools
import tracemalloc
from math import sqrt

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gapsampler import (GapError, analytic_bounds, build_cloud,
                        gap_based_discrepancy_bound, gap_report_unit_square,
                        measures, star_discrepancy)


def centered_lattice(m):
    ax = (np.arange(m) + 0.5) / m
    gx, gy = np.meshgrid(ax, ax)
    return build_cloud(np.stack([gx.ravel(), gy.ravel()], axis=1))


# ---------------------------------------------------------------------------
# star discrepancy


def test_single_center_point():
    rep = star_discrepancy(build_cloud([[0.5, 0.5]]))
    assert rep.d_star == 0.75
    assert rep.witness == (0.5, 0.5, "closed")
    assert rep.n == 1


def test_single_corner_point_needs_open_limit():
    rep = star_discrepancy(build_cloud([[1.0, 1.0]]))
    assert rep.d_star == 1.0
    assert rep.witness == (1.0, 1.0, "open-limit")


def test_two_point_diagonal():
    rep = star_discrepancy(build_cloud([[0.25, 0.25], [0.75, 0.75]]))
    assert rep.d_star == 0.4375
    assert rep.witness == (0.25, 0.25, "closed")


def test_witness_reproduces_value():
    for seed in (3, 4, 5):
        rng = np.random.default_rng(seed)
        pts = rng.random((20, 2))
        rep = star_discrepancy(build_cloud(pts))
        x, y, kind = rep.witness
        closed = int(((pts[:, 0] <= x) & (pts[:, 1] <= y)).sum())
        opened = int(((pts[:, 0] < x) & (pts[:, 1] < y)).sum())
        if kind == "closed":
            assert closed / rep.n - x * y == rep.d_star
        else:
            assert x * y - opened / rep.n == rep.d_star


def test_no_random_rectangle_beats_the_scan():
    rng = np.random.default_rng(11)
    pts = rng.random((25, 2))
    rep = star_discrepancy(build_cloud(pts))
    xs, ys = rng.random(4000), rng.random(4000)
    counts = ((pts[None, :, 0] <= xs[:, None])
              & (pts[None, :, 1] <= ys[:, None])).sum(axis=1)
    dev = np.abs(counts / rep.n - xs * ys)
    assert dev.max() <= rep.d_star + 1e-12
    assert 0.0 <= rep.d_star <= 1.0


def test_centered_lattice_refinement():
    values = [star_discrepancy(centered_lattice(m)).d_star
              for m in (1, 2, 3, 4, 5, 8)]
    assert values[0] == 0.75
    assert values[1] == 0.4375
    assert values[3] == pytest.approx(0.234375, rel=1e-15)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_discrepancy_input_validation():
    with pytest.raises(GapError):
        star_discrepancy(build_cloud([[0.5, 0.5, 0.5]]))
    with pytest.raises(GapError) as e:
        star_discrepancy(build_cloud([[0.5, 1.2]]))
    assert e.value.code == "point-outside-square"


def reference_counts(pts):
    """The counts as 0/1 indicator matrix products, one term per point."""
    xs = np.unique(np.append(pts[:, 0], 1.0))
    ys = np.unique(np.append(pts[:, 1], 1.0))
    le_x = (pts[None, :, 0] <= xs[:, None]).astype(np.int64)
    lt_x = (pts[None, :, 0] < xs[:, None]).astype(np.int64)
    le_y = (pts[None, :, 1] <= ys[:, None]).astype(np.int64)
    lt_y = (pts[None, :, 1] < ys[:, None]).astype(np.int64)
    return xs, ys, le_x @ le_y.T, lt_x @ lt_y.T


def count_clouds():
    rng = np.random.default_rng(31)
    for n in (2, 7, 40, 150):
        yield rng.random((n, 2))
    for side in (2, 3, 6):  # every x and every y shared by `side` points
        axis = np.arange(side) / (side - 1)
        yield np.array(list(itertools.product(axis, axis)))
        yield np.array(list(itertools.product(axis, axis)))[rng.permutation(side * side)]
    for seed in range(3):  # coarse snapping: repeated x and y, on the 0 and 1 edges
        yield np.round(np.random.default_rng(seed).random((30, 2)) * 4) / 4
    yield np.array([[0.0, 0.3], [1.0, 0.7], [0.4, 0.0], [0.6, 1.0], [1.0, 1.0], [0.0, 0.0]])
    for single in ([0.5, 0.5], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]):
        yield np.array([single])


def reference_blocks(pts):
    """The indicator-product counts as one block, in _count_blocks' form."""
    xs, ys, closed, open_ = reference_counts(pts)
    yield xs[:, None], ys, closed, open_


DEFAULT_BLOCK = measures._BLOCK


@pytest.fixture
def budgets(monkeypatch):
    """Sets measures._BLOCK to each budget in turn: one cell (so one row per
    block), a ragged 7 cells and the default."""
    def each():
        for cells in (1, 7, DEFAULT_BLOCK):
            monkeypatch.setattr(measures, "_BLOCK", cells)
            yield cells
    return each


def test_counts_equal_indicator_products(budgets):
    clouds = [build_cloud(pts).points for pts in count_clouds()]
    wants = [reference_counts(pts) for pts in clouds]
    for cells in budgets():
        for pts, want in zip(clouds, wants):
            blocks = list(measures._count_blocks(pts))
            ys = blocks[0][1]
            rows = [len(closed) for _, _, closed, _ in blocks]
            assert rows[:-1] == [max(1, cells // ys.size)] * (len(rows) - 1)
            assert 1 <= rows[-1] <= max(1, cells // ys.size)
            got = (np.concatenate([xb[:, 0] for xb, _, _, _ in blocks]), ys,
                   np.vstack([closed for _, _, closed, _ in blocks]),
                   np.vstack([open_ for _, _, _, open_ in blocks]))
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def test_discrepancy_and_bound_match_reference_counts(monkeypatch, budgets):
    clouds = [build_cloud(pts) for pts in count_clouds()]
    reports = [gap_report_unit_square(c) if c.n >= 2 else None for c in clouds]

    def run():
        out = []
        for cloud, rep in zip(clouds, reports):
            out.append(star_discrepancy(cloud))
            if rep is not None:
                out.append(gap_based_discrepancy_bound(cloud, rep.r, rep.R))
            out.append(gap_based_discrepancy_bound(cloud, 0.1, 0.3))
        return out

    got = [run() for _ in budgets()]
    monkeypatch.setattr(measures, "_count_blocks", reference_blocks)
    want = run()
    assert all(g == want for g in got)  # exact floats, same witness rectangles and kinds


def reference_discrepancy(cloud):
    """star_discrepancy with over and under as two out-of-place expressions."""
    pts = cloud.points
    n = pts.shape[0]
    xs, ys, closed, open_ = reference_counts(pts)
    area = xs[:, None] * ys[None, :]
    over = closed / n - area
    under = area - open_ / n
    oi = np.unravel_index(int(np.argmax(over)), over.shape)
    ui = np.unravel_index(int(np.argmax(under)), under.shape)
    if over[oi] >= under[ui]:
        return float(over[oi]), (float(xs[oi[0]]), float(ys[oi[1]]), "closed")
    return float(under[ui]), (float(xs[ui[0]]), float(ys[ui[1]]), "open-limit")


def test_discrepancy_matches_out_of_place_expression(budgets):
    clouds = [build_cloud(pts) for pts in count_clouds()]
    clouds += [centered_lattice(m) for m in (1, 4, 9)]
    wants = [reference_discrepancy(cloud) for cloud in clouds]
    for _ in budgets():
        for cloud, (d_star, witness) in zip(clouds, wants):
            rep = star_discrepancy(cloud)
            assert rep.d_star.hex() == d_star.hex() and rep.witness == witness


def lattice_clouds():
    """Clouds snapped to the k/8 lattice: shared x and y values, and points
    on the 0 and 1 edges."""
    cell = st.tuples(st.integers(0, 8), st.integers(0, 8))
    return st.lists(cell, min_size=1, max_size=40).map(lambda c: np.array(c) / 8.0)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pts=lattice_clouds(), cells=st.one_of(st.integers(1, 120), st.just(DEFAULT_BLOCK)),
       r=st.floats(1e-3, 2.0), R=st.floats(1e-3, 2.0))
def test_blocked_sweep_matches_dense_reference(monkeypatch, pts, cells, r, R):
    monkeypatch.setattr(measures, "_BLOCK", cells)
    cloud = build_cloud(pts)
    rep = star_discrepancy(cloud)
    d_star, witness = reference_discrepancy(cloud)
    assert rep.d_star.hex() == d_star.hex() and rep.witness == witness
    got = gap_based_discrepancy_bound(cloud, r, R)
    assert got.hex() == reference_gap_bound(cloud, r, R).hex()


def test_discrepancy_peak_memory():
    # the dense grids took about 32 bytes x n^2, over 500 MB here
    cloud = build_cloud(np.random.default_rng(13).random((4000, 2)))
    tracemalloc.start()
    try:
        star_discrepancy(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ---------------------------------------------------------------------------
# gap-based bound


def test_packing_term_worked_example():
    assert gap_based_discrepancy_bound(
        build_cloud([[1.0, 1.0]]), 1.0, 1.0) == 1.0


def test_covering_term_worked_example():
    corners = build_cloud([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert gap_based_discrepancy_bound(corners, 1.0, 0.5) == 0.5


def test_bound_dominates_exact_discrepancy():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        cloud = build_cloud(rng.random((int(rng.integers(5, 30)), 2)))
        rep = gap_report_unit_square(cloud)
        bound = gap_based_discrepancy_bound(cloud, rep.r, rep.R)
        assert bound >= star_discrepancy(cloud).d_star - 1e-9


def test_bound_never_negative():
    cloud = centered_lattice(4)
    rep = gap_report_unit_square(cloud)
    assert gap_based_discrepancy_bound(cloud, rep.r, rep.R) >= 0.0


def reference_gap_bound(cloud, r, R):
    """The bound with out-of-place grids and fancy-indexed masked maxima."""
    n = cloud.n
    xs, ys, closed, open_ = reference_counts(cloud.points)
    area = xs[:, None] * ys[None, :]
    s2 = xs[:, None] ** 2 + ys[None, :] ** 2
    a_vals = s2 / (r * r * n) - area
    b_vals = area - s2 / (4.0 * R * R * n)
    a_ok = (closed >= n * area) | (open_ >= n * area)
    b_ok = (closed <= n * area) | (open_ <= n * area)
    best = 0.0
    if a_ok.any():
        best = max(best, float(a_vals[a_ok].max()))
    if b_ok.any():
        best = max(best, float(b_vals[b_ok].max()))
    return best


def test_bound_matches_reference_bitwise(budgets):
    rng = np.random.default_rng(17)
    clouds = [build_cloud(rng.random((n, 2))) for n in (1, 7, 100, 800)]
    clouds += [centered_lattice(5), build_cloud(np.round(rng.random((60, 2)) * 8) / 8),
               build_cloud([[0, 0], [1, 0], [0, 1], [1, 1]])]
    radii = ((0.01, 0.05), (0.2, 0.3), (1.0, 0.5), (1e-3, 2.0))
    wants = [[reference_gap_bound(cloud, r, R).hex() for r, R in radii] for cloud in clouds]
    for _ in budgets():
        for cloud, want in zip(clouds, wants):
            got = [gap_based_discrepancy_bound(cloud, r, R).hex() for r, R in radii]
            assert got == want


def test_bound_peak_memory():
    # the dense grids took about 36 bytes x n^2, over 500 MB here
    cloud = build_cloud(np.random.default_rng(13).random((4000, 2)))
    tracemalloc.start()
    try:
        gap_based_discrepancy_bound(cloud, 0.01, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_bound_radius_validation():
    cloud = build_cloud([[0.5, 0.5]])
    with pytest.raises(GapError):
        gap_based_discrepancy_bound(cloud, 0.0, 1.0)
    with pytest.raises(GapError):
        gap_based_discrepancy_bound(cloud, 1.0, -1.0)


# ---------------------------------------------------------------------------
# closed-form floors


def test_analytic_values():
    assert analytic_bounds("graph") == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert analytic_bounds("path-connected") == 1.0
    got = analytic_bounds("unit-square", 100)
    assert got == pytest.approx(1.0306198904989716, rel=1e-15)
    assert got == pytest.approx(2.0 / sqrt(3.0) - 2.0 ** 1.5 / 3.0 ** 0.75 / 10.0,
                                rel=1e-15)


def test_analytic_accepts_underscore_spelling():
    assert analytic_bounds("unit_square", 9) == analytic_bounds("unit-square", 9)


def test_analytic_floor_increases_with_k():
    vals = [analytic_bounds("unit-square", k) for k in (2, 5, 20, 100, 10000)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 2.0 / sqrt(3.0)


def test_analytic_errors():
    with pytest.raises(GapError) as e:
        analytic_bounds("unit-square")
    assert e.value.code == "missing-k"
    with pytest.raises(GapError):
        analytic_bounds("unit-square", 1)
    with pytest.raises(GapError) as e:
        analytic_bounds("torus")
    assert e.value.code == "unknown-space"
