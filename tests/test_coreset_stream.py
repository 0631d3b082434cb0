"""One-pass doubling coreset: traces, invariants, end-to-end guarantee."""

import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from math import inf, sqrt

import numpy as np
import pytest

from gapsampler import (GapError, StreamState, build_cloud, build_euclidean,
                        gap_ratio, optimal_gap_ratio, stream_finalize,
                        stream_ingest, stream_init, stream_params, stream_reps)
from gapsampler.coreset import grid_cells
from gapsampler.metric import _dist, _pairwise


def run_stream(points, k, eps):
    points = [np.asarray(p, dtype=float) for p in points]
    state = stream_init(points[:k], k, eps)
    for x in points[k:]:
        stream_ingest(state, x)
    return state


# ---------------------------------------------------------------------------
# parameters


def test_params_worked_example():
    p = stream_params(0.1, 1)
    assert p.eps1 == pytest.approx(1.0 / 21.0, rel=1e-15)
    assert p.eps3 == pytest.approx(1.0 / 260.0, rel=1e-12)


def test_params_validation():
    for eps in (0.0, 0.125, 0.2, -0.05):
        with pytest.raises(GapError) as e:
            stream_params(eps, 2)
        assert e.value.code == "eps-out-of-range"
    with pytest.raises(GapError):
        stream_params(0.1, 0)


# ---------------------------------------------------------------------------
# initialization


def test_init_first_k_distinct():
    state = stream_init([[0.0], [10.0], [0.0], [3.0]], 2, 0.1)
    assert [i for i, _ in state.T] == [0, 1]
    assert state.R_thresh == 10.0
    assert state.phase == 0 and state.points_seen == 4
    # the duplicate collapsed into cell (0,); 3.0 got its own cell
    indices, pts = stream_reps(state)
    assert indices == [0, 1, 3]
    assert state.cell_side == pytest.approx(
        state.params.eps3 * 10.0 / 2.0, rel=1e-15)


def test_init_needs_k_distinct():
    with pytest.raises(GapError) as e:
        stream_init([[1.0], [1.0], [1.0]], 2, 0.1)
    assert e.value.code == "too-few-distinct"
    with pytest.raises(GapError):
        stream_init([[0.0], [1.0]], 1, 0.1)


def test_init_reads_reals_only():
    # a complex or string coordinate is refused in the prefix too; exact
    # fractions are reals, held as the floats they round to
    for bad in ([0.3 + 1j, 0.2], np.array([0.3 + 1j, 0.2]), ["0.3", "0.2"]):
        with pytest.raises(GapError) as e:
            stream_init([[0.0, 0.0], bad, [1.0, 1.0]], 2, 0.1)
        assert e.value.code == "malformed-points"
    state = stream_init([[Fraction(1, 3), 0.0], [1, Fraction(1, 2)]], 2, 0.1)
    assert [p for _, p in state.T] == [(1 / 3, 0.0), (1.0, 0.5)]


def test_init_rejects_mixed_dimension():
    with pytest.raises(GapError) as e:
        stream_init([[0.0], [1.0, 2.0]], 2, 0.1)
    assert e.value.code == "dimension-mismatch"


def assert_same_state(a, b):
    assert (a.params, a.k, a.cell_side, a.R_thresh) == (b.params, b.k, b.cell_side, b.R_thresh)
    assert (a.points_seen, a.phase, a.peak_cells) == (b.points_seen, b.phase, b.peak_cells)
    assert np.array_equal(a.origin, b.origin)
    assert a.cells.keys() == b.cells.keys()
    for c, (i, p) in a.cells.items():
        assert b.cells[c][0] == i and np.array_equal(b.cells[c][1], p)
    assert [i for i, _ in a.T] == [i for i, _ in b.T]
    assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(a.T, b.T))


def test_init_streams_the_rest_of_a_generator():
    rng = np.random.default_rng(31)
    pts = rng.random((400, 2))
    pts[2] = pts[0]  # a duplicate inside the k-distinct prefix
    k = 3
    state = stream_init((p for p in pts), k, 0.1)
    ref = stream_init(pts[:k + 1], k, 0.1)
    for x in pts[k + 1:]:
        stream_ingest(ref, x)
    assert state.points_seen == len(pts)
    assert_same_state(state, ref)


def test_init_holds_only_the_distinct_points():
    # repeats of the first point (-0.0 equals 0.0) before the second
    # distinct one are counted, not kept
    def points():
        for i in range(100_000):
            yield [-0.0 if i % 2 else 0.0, 0.25]
        yield [1.0, 2.0]
    tracemalloc.start()
    try:
        state = stream_init(points(), 2, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    assert state.points_seen == 100_001
    assert repr(state.T) == "[(0, (0.0, 0.25)), (100000, (1.0, 2.0))]"
    assert state.cells == {(0, 0): state.T[0], (364, 638): state.T[1]}
    assert state.origin is state.T[0][1] and state.peak_cells == 2


def test_init_refuses_zero_distance():
    # the two points are distinct, but their distance underflows to 0, and
    # a threshold of 0 would never double past the next distinct point
    with pytest.raises(GapError) as e:
        stream_init([[0.0, 0.0], [1e-300, 0.0]], 2, 0.1)
    assert e.value.code == "zero-distance"


@pytest.mark.parametrize("prefix, bad", [([[np.nan], [1.0]], 0), ([[0.0], [np.inf]], 1),
                                         ([[0.0], [1.0], [np.nan]], 2)])
def test_init_refuses_nonfinite_prefix(prefix, bad):
    with pytest.raises(GapError) as e:
        stream_init(prefix, len(prefix), 0.1)
    assert e.value.code == "nonfinite-coordinate"
    assert f"stream point {bad} " in str(e.value)


@pytest.mark.parametrize("x, code", [
    ([np.nan, 0.5], "nonfinite-coordinate"),
    ([1e300, 0.0], "grid-overflow"),
    # never cut to a real part or parsed from a string
    (np.array([0.3 + 1j, 0.2]), "malformed-points"),
    ([np.complex128(0.3 + 1j), 0.2], "malformed-points"),
    (["0.3", "0.2"], "malformed-points"),
    ([Fraction(1, 2), "0.3"], "malformed-points"),
    ([Decimal("0.5"), 0.2], "malformed-points"),
    ([10 ** 400, 0.0], "malformed-points"),
    ("ab", "malformed-points"),
    ([[0.3], [0.2, 0.1]], "malformed-points"),
])
def test_ingest_refusal_leaves_state_unchanged(x, code):
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    state, ref = run_stream(pts, 2, 0.1), run_stream(pts, 2, 0.1)
    with pytest.raises(GapError) as e:
        stream_ingest(state, x)
    assert e.value.code == code
    if code == "nonfinite-coordinate":
        assert "stream point 4 " in str(e.value)
    assert_same_state(state, ref)


def test_ingest_refuses_an_overflowing_center_distance():
    # the point is in range of the grid, but its squared distance to every
    # center overflows: taken as infinitely far, it would become a center
    pts = [[0.0, 0.0], [1e150, 0.0], [0.0, 1e150]]
    state, ref = run_stream(pts, 2, 0.1), run_stream(pts, 2, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GapError) as e:
            stream_ingest(state, [-1e155, 0.0])
    assert e.value.code == "distance-overflow"
    assert "stream point 3 " in str(e.value)
    assert_same_state(state, ref)
    stream_ingest(state, [-1e153, 0.0])  # far, but its square is finite
    assert state.points_seen == 4


def test_state_owns_its_points():
    # a caller that refills one buffer per point must not rewrite the
    # representatives and centers already kept
    pts = np.random.default_rng(5).random((47, 2)) * 10.0
    buf = np.empty(2)

    def refilled(rows):
        for p in rows:
            buf[:] = p
            yield buf

    by_init = stream_init(refilled(pts), 3, 0.1)
    by_ingest = stream_init(refilled(pts[:3]), 3, 0.1)
    for _ in refilled(pts[3:]):
        stream_ingest(by_ingest, buf)
    ref = run_stream(pts, 3, 0.1)
    for state in (by_init, by_ingest):
        indices, reps = stream_reps(state)
        assert np.array_equal(reps, pts[indices])
        assert all(np.array_equal(p, pts[i]) for i, p in state.T)
        assert_same_state(state, ref)


def test_state_holds_float_tuples():
    # one representation for every point held, whatever form the input has
    pts = np.random.default_rng(8).random((60, 2)).astype(np.float32) * 10.0
    state = stream_init(pts[:2].tolist(), 2, 0.1)
    for x in pts[2:]:
        stream_ingest(state, x)
    assert state.phase > 0
    held = [state.origin] + [p for _, p in state.T] + [p for _, p in state.cells.values()]
    for p in held:
        assert type(p) is tuple and len(p) == 2
        assert all(type(v) is float for v in p)
    grid = stream_finalize(state)[2]
    assert grid.origin.dtype == np.float64 and np.array_equal(grid.origin, state.origin)


def test_init_mixed_dimension_after_prefix():
    def points():
        yield from ([0.0, 0.0], [1.0, 0.0], [0.0, 2.0])
        yield [5.0]
    with pytest.raises(GapError) as e:
        stream_init(points(), 2, 0.1)
    assert e.value.code == "dimension-mismatch"


# ---------------------------------------------------------------------------
# doubling trace


def test_doubling_trace():
    state = stream_init([[0.0], [1.0]], 2, 0.1)
    assert state.R_thresh == 1.0 and state.phase == 0
    stream_ingest(state, [10.0])  # 9 > 2 * R_thresh forces a center, then a merge
    assert state.phase == 1
    assert state.R_thresh == 2.0
    assert [(i, float(p[0])) for i, p in state.T] == [(0, 0.0), (4 - 2, 10.0)]


def test_doubling_merges_sibling_cells():
    state = stream_init([[0.0], [1.0]], 2, 0.1)
    side0 = state.cell_side
    stream_ingest(state, [3.5 * side0])  # cell (3,), stream index 2
    stream_ingest(state, [2.5 * side0])  # cell (2,), stream index 3
    assert sorted(state.cells) == [(0,), (2,), (3,), (520,)]
    stream_ingest(state, [10.0])
    # cells halve: 2 and 3 collapse onto 1 and the smaller CHILD INDEX
    # donates the representative, not the earlier stream index
    assert state.cell_side == 2.0 * side0
    assert {c: iv[0] for c, iv in state.cells.items()} == {
        (0,): 0, (1,): 3, (260,): 1, (2600,): 4}
    assert state.peak_cells == 5
    sample, rep, grid = stream_finalize(state)
    assert sample.indices == (3, 4)
    assert rep.gap_ratio == pytest.approx(0.19913419913419914, rel=1e-12)
    assert grid.cells == {(0,): 0, (1,): 3, (260,): 1, (2600,): 4}


def test_center_invariants_across_phases():
    rng = np.random.default_rng(17)
    pts = rng.random((80, 2)) * 50.0
    state = run_stream(pts, 4, 0.1)
    T_pts = [p for _, p in state.T]
    assert len(T_pts) <= 4
    for i, a in enumerate(T_pts):
        for b in T_pts[i + 1:]:
            gap = float(np.linalg.norm(np.subtract(a, b)))
            if state.phase == 0:
                assert gap >= state.R_thresh
            else:
                assert gap > state.R_thresh
    # every streamed point sits within 2 * R_thresh of a center
    for x in pts:
        assert min(float(np.linalg.norm(x - t)) for t in T_pts) \
            <= 2.0 * state.R_thresh + 1e-9


def test_grid_tracks_threshold():
    rng = np.random.default_rng(23)
    # tight prefix, wide tail: the threshold starts small and must double
    pts = np.concatenate([rng.random((3, 3)) * 0.5,
                          rng.random((57, 3)) * 30.0])
    state = run_stream(pts, 3, 0.05)
    assert state.phase >= 1
    p = state.params
    assert state.cell_side == pytest.approx(
        p.eps3 * state.R_thresh / (2.0 * sqrt(3)), rel=1e-12)
    # every point is in the same current cell as its representative
    _, reps = stream_reps(state)
    bound = sqrt(3) * state.cell_side + 1e-12
    for x in pts:
        assert min(float(np.linalg.norm(x - r)) for r in reps) <= bound
    assert state.peak_cells >= len(state.cells)


# ---------------------------------------------------------------------------
# the per-point rules against a reference on numpy rows


def distinct_prefix(points, k):
    """Length of the shortest prefix holding k distinct points, or None."""
    seen = []
    for end, x in enumerate(points, 1):
        if not any(np.array_equal(x, p) for p in seen):
            seen.append(x)
            if len(seen) == k:
                return end
    return None


def reference_stream(points, k, eps):
    """The doubling ingest on _pairwise blocks and the row form of grid_cells."""
    end = distinct_prefix(points, k)
    T = []
    for idx, x in enumerate(points[:end]):
        if not any(np.array_equal(x, p) for _, p in T):
            T.append((idx, x))
    P = np.array([p for _, p in T])
    R = _pairwise(P, P)[np.triu_indices(k, 1)].min()
    params = stream_params(eps, points.shape[1])
    state = StreamState(params=params, k=k, origin=points[0].copy(),
                        cell_side=params.eps3 * R / (2.0 * sqrt(params.d)),
                        cells={}, T=T, R_thresh=R)

    def file(idx, x):
        cell = grid_cells(x[None], state.origin, state.cell_side)[0]
        state.cells.setdefault(cell, (idx, x))
        state.peak_cells = max(state.peak_cells, len(state.cells))
        state.points_seen += 1

    for idx, x in enumerate(points[:end]):
        file(idx, x)
    for idx, x in enumerate(points[end:], end):
        file(idx, x)
        centers = np.array([p for _, p in state.T])
        if _pairwise(x[None], centers).min() > 2.0 * state.R_thresh:
            state.T.append((idx, x))
        while len(state.T) > k:
            state.phase += 1
            state.R_thresh *= 2.0
            state.cell_side *= 2.0
            merged = {}
            for c in sorted(state.cells):
                merged.setdefault(tuple(ci // 2 for ci in c), state.cells[c])
            state.cells = merged
            kept = state.T[:1]
            for i, p in state.T[1:]:
                if _pairwise(p[None], np.array([q for _, q in kept])).min() > state.R_thresh:
                    kept.append((i, p))
            state.T = kept
    return state


def fuzzed_streams(rng, d):
    """Uniform, lattice (tied distances and points on cell boundaries) and
    tight-prefix streams (the threshold doubles) at scales 1e-3 to 1e6."""
    for scale in (1e-3, 1.0, 1e6):
        n = int(rng.integers(40, 160))
        yield rng.random((n, d)) * scale
        yield rng.integers(-3, 4, (n, d)) * (scale / 8.0)
        yield np.concatenate([rng.random((5, d)) * scale * 1e-3,
                              rng.normal(size=(n, d)) * scale])


@pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
def test_ingest_matches_the_row_reference(d):
    rng = np.random.default_rng(70 + d)
    phases = 0
    for pts in fuzzed_streams(rng, d):
        for k, eps in ((2, 0.1), (3, 0.05), (4, 0.12)):
            end = distinct_prefix(pts, k)
            if end is None:
                continue
            ref = reference_stream(pts, k, eps)
            state = stream_init(pts[:end], k, eps)
            for x in pts[end:]:
                stream_ingest(state, x)
            assert_same_state(state, ref)
            phases += ref.phase
    assert phases > 0


def ingest_under_warnings_as_errors(points, k, eps=0.1):
    """stream_init on the first k points, then stream_ingest, compared with
    reference_stream, which takes every point's full center minimum."""
    points = np.array(points, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = stream_init(points[:k], k, eps)
        for x in points[k:]:
            stream_ingest(state, x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the reference's squares may overflow
        assert_same_state(state, reference_stream(points, k, eps))
    return state


def test_center_test_stops_at_distance_equal_to_the_reach():
    # T = [0, 1] and R_thresh = 1: reach is 2, and distance 2 is in reach
    state = ingest_under_warnings_as_errors([[0.0], [1.0], [-2.0]], 2)
    assert (state.R_thresh, state.phase) == (1.0, 0)
    assert [i for i, _ in state.T] == [0, 1]
    beyond = np.nextafter(-2.0, -np.inf)
    state = ingest_under_warnings_as_errors([[0.0], [1.0], [beyond]], 2)
    assert (state.R_thresh, state.phase) == (2.0, 1)  # x joined T, which overflowed


def test_center_test_takes_a_far_point_with_one_overflowing_distance():
    # -1e152 is past 2 * R_thresh = 2e150 from every center; its squared
    # distance to 1.34e154 overflows, to the other two it does not
    prefix = [[0.0], [1e150], [1.34e154]]
    x = -1e152
    assert [_dist(c, [x]) for c in prefix] == [1e152, 1e150 - x, inf]
    state = ingest_under_warnings_as_errors(prefix + [[x]], 3)
    assert state.phase == 1 and state.points_seen == 4
    assert [i for i, _ in state.T] == [0, 2, 3]  # x joined T and outlived 1e150


def test_center_test_files_a_point_in_reach_of_a_later_center():
    # 1.5e154's squared distance to the first center overflows, but the
    # second center is 5e153 away, inside the reach of 2e154
    state = ingest_under_warnings_as_errors([[0.0], [1e154], [1.5e154]], 2)
    assert _dist((0.0,), (1.5e154,)) == inf
    assert [i for i, _ in state.T] == [0, 1] and state.phase == 0
    assert state.points_seen == 3 and len(state.cells) == 3


# ---------------------------------------------------------------------------
# finalize


def test_finalize_one_phase_equals_static_optimum():
    state = run_stream([[0.0], [10.0], [3.0], [6.0]], 2, 0.1)
    sample, rep, grid = stream_finalize(state)
    assert sample.indices == (0, 1)
    assert rep.gap_ratio == pytest.approx(0.8, rel=1e-15)
    assert grid.size == 4


def test_finalize_guarantee_and_center_quality():
    rng = np.random.default_rng(42)
    pts = rng.random((30, 3)) * 5.0
    state = run_stream(pts, 3, 0.1)
    sample, _, _ = stream_finalize(state)
    m = build_euclidean(build_cloud(pts))
    full = gap_ratio(m, sample.indices)
    opt = optimal_gap_ratio(m, 3)
    assert full.gap_ratio <= (1.0 + 0.1) * opt.gr_opt + 1e-12
    R_T = max(min(float(np.linalg.norm(x - p)) for _, p in state.T)
              for x in pts)
    assert R_T <= 8.0 * opt.R_opt + 1e-9


def test_finalize_guarantee_second_config():
    rng = np.random.default_rng(7)
    pts = rng.random((40, 2)) * 3.0
    state = run_stream(pts, 2, 0.12)
    sample, _, _ = stream_finalize(state)
    m = build_euclidean(build_cloud(pts))
    opt = optimal_gap_ratio(m, 2)
    assert gap_ratio(m, sample.indices).gap_ratio \
        <= (1.0 + 0.12) * opt.gr_opt + 1e-12


def test_finalize_replay_bitexact():
    rng = np.random.default_rng(99)
    pts = rng.random((50, 2))
    a = stream_finalize(run_stream(pts, 3, 0.1))
    b = stream_finalize(run_stream(pts, 3, 0.1))
    assert a[0].indices == b[0].indices
    assert a[1].gap_ratio == b[1].gap_ratio
    assert a[2].cells == b[2].cells


def test_finalize_too_small():
    state = run_stream([[0.0], [10.0], [3.0], [6.0]], 2, 0.1)
    state.k = 10  # more than the 4 cells
    with pytest.raises(GapError) as e:
        stream_finalize(state)
    assert e.value.code == "coreset-too-small"


def test_ingest_rejects_wrong_dimension():
    state = stream_init([[0.0, 0.0], [1.0, 1.0]], 2, 0.1)
    with pytest.raises(GapError):
        stream_ingest(state, [1.0])
