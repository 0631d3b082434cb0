"""Point-backed Euclidean metrics against their materialised distance matrix.

A Euclidean metric keeps its points and reads distance rows and blocks
from them; every report must equal, bit for bit, the one computed from
the n x n matrix, which the point-backed metric builds only when ``dist``
is read.
"""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from gapsampler import (FiniteMetric, GapError, GuardExceeded, approx_sample,
                        best_k_subset, build_cloud, build_euclidean, diameter,
                        farthest_point_insertion, gap_ratio, max_gap, min_gap,
                        optimal_gap_ratio)
from gapsampler import cli, coreset, metric
from gapsampler.fpi import greedy_batch
from gapsampler.metric import _farthest_pair, _first_pair, _pairwise


def matrix_metric(cloud):
    """The metric build_euclidean made before it became point-backed."""
    with np.errstate(over="ignore"):
        dist = _pairwise(cloud.points, cloud.points)
    dist.setflags(write=False)
    return FiniteMetric(n=cloud.n, dist=dist)


def full_scan(cloud):
    m = matrix_metric(cloud)
    i, j = map(int, _first_pair(m.dist))
    return i, j, float(m.dist[i, j])


def tie_clouds():
    rng = np.random.default_rng(61)
    lattice = np.array(list(itertools.product(range(30), range(40))), dtype=float)
    yield "lattice", lattice
    yield "lattice-shuffled", lattice[rng.permutation(len(lattice))]
    yield "corners", np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    yield "corners-centre", np.array([[0.5, 0.5], [1.0, 1.0], [0.0, 0.0],
                                      [1.0, 0.0], [0.0, 1.0]])
    t = 2.0 * np.pi * np.arange(2000) / 2000
    yield "cocircular", np.c_[np.cos(t), np.sin(t)]
    yield "d1", rng.random((300, 1))
    yield "d1-grid", np.arange(50.0)[:, None]
    yield "d9", rng.normal(size=(300, 9))
    yield "n2", np.array([[0.0, 0.0], [3.0, 4.0]])
    yield "uniform-3d", rng.random((1500, 3))
    yield "rounded", np.unique(np.round(rng.random((400, 2)) * 6), axis=0)


CLOUDS = dict(tie_clouds())


@pytest.mark.parametrize("name", sorted(CLOUDS))
def test_fpi_traces_and_reports_match_the_matrix(name):
    cloud = build_cloud(CLOUDS[name])
    m, ref = build_euclidean(cloud), matrix_metric(cloud)
    for k in sorted({2, min(cloud.n, 7), min(cloud.n, 32)}):
        got, want = farthest_point_insertion(m, k), farthest_point_insertion(ref, k)
        assert repr(got) == repr(want)  # Python ints and floats, bit for bit
        # the row path against the array path: order, q, R and far
        for a, b in zip(greedy_batch(m, k), greedy_batch(ref.dist[None], k)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    rng = np.random.default_rng(len(name))
    for _ in range(6):
        idx = sorted(rng.choice(cloud.n, size=int(rng.integers(2, min(cloud.n, 40) + 1)),
                                replace=False).tolist())
        assert repr(gap_ratio(m, idx)) == repr(gap_ratio(ref, idx))
        assert repr(min_gap(m, idx)) == repr(min_gap(ref, idx))
        assert repr(max_gap(m, idx)) == repr(max_gap(ref, idx))
    assert diameter(m) == diameter(ref) == full_scan(cloud)
    assert vars(m)["_dist"] is None  # nothing above built the matrix


def test_dist_is_built_once_read_only_and_equal():
    cloud = build_cloud(np.random.default_rng(62).random((70, 3)))
    m = build_euclidean(cloud)
    assert m.points is cloud.points and vars(m)["_dist"] is None
    d = m.dist
    assert m.dist is d and not d.flags.writeable
    assert np.array_equal(d, matrix_metric(cloud).dist)
    rows = [5, 0, 69]
    assert np.array_equal(m.block(rows), d[rows])
    with pytest.raises(AttributeError):
        m.dist = d


# rounding: |a - c| + |b - c| rounds below |a - b|, which the pruning
# margin absorbs.  overflow: points past 1.34e154 apart have an inf
# distance; the centroid of the 1e308 clouds overflows too.  underflow:
# squares below 2**-1022.
EDGE = [
    [[0.01229282299097877], [0.08690862715979325]],
    [[6.214700335783615], [1.7060055105057745], [1.1158531540442052],
     [11.086451717434294]],
    [[1e308, 0.0], [-1e308, 0.0], [0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
    [[0.5], [1e308], [-1e308]],
    [[1e308, 1e308], [-1e308, -1e308], [1e308, -1e308], [3.0, 3.0]],
    [[-8e153], [-3e153], [5e153], [6e153]],
    [[0.0], [3e-161], [6e-161]],
    [[0.0, 0.0], [1e-170, 0.0], [3e-170, 1e-170], [2e-170, 2e-170]],
]


@pytest.mark.parametrize("pts", EDGE, ids=range(len(EDGE)))
def test_diameter_at_rounding_edges_matches_the_full_scan(pts):
    cloud = build_cloud(np.array(pts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = diameter(build_euclidean(cloud))
    assert got == full_scan(cloud)


def test_diameter_matches_the_full_scan_across_scales():
    rng = np.random.default_rng(63)
    for t in range(400):
        scale = 10.0 ** rng.choice([-162, -161, -160, 0, 153, 154, 155, 307])
        pts = rng.random((int(rng.integers(2, 40)), int(rng.integers(1, 4)))) * scale
        if t % 2:
            pts = np.unique(np.round(pts / scale * 4) * scale / 4, axis=0)
        if len(pts) >= 2:
            cloud = build_cloud(pts)
            assert diameter(build_euclidean(cloud)) == full_scan(cloud)


@pytest.mark.parametrize("budget", [1, metric._BLOCK])
def test_farthest_pair_is_first_pair_under_budgets(monkeypatch, budget):
    # a budget of one entry scans each surviving row as its own block
    monkeypatch.setattr(metric, "_BLOCK", budget)
    clouds = [build_cloud(pts) for pts in CLOUDS.values()]
    clouds += [build_cloud(np.array(pts)) for pts in EDGE]
    for cloud in clouds:
        assert _farthest_pair(cloud.points) == full_scan(cloud)


def test_greedy_path_never_builds_the_matrix():
    # the matrix would take 3.2 GB; FPI, its report and the diameter read
    # a few rows, and the report reduces its (n, k) block row by row
    cloud = build_cloud(np.random.default_rng(64).random((20000, 2)))
    m = build_euclidean(cloud)
    tracemalloc.start()
    try:
        sample, trace = farthest_point_insertion(m, 32)
        rep = gap_ratio(m, sample)
        i, j, diam = diameter(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert vars(m)["_dist"] is None
    assert rep == trace.final and (i, j) == trace.init_pair
    assert diam == 2.0 * trace.r_init


@pytest.mark.parametrize("call, ceiling", [
    (lambda m: farthest_point_insertion(m, 1024), 16e6),
    (diameter, 8e6),
], ids=["fpi-k1024", "diameter"])
def test_greedy_peak_memory(call, ceiling):
    # 10^5 uniform 2-D points: the report's (n, k) block alone would be
    # 819 MB at k = 1,024, and the points are 1.6 MB
    m = build_euclidean(build_cloud(np.random.default_rng(0).random((100000, 2))))
    call(m)  # first calls of some numpy routines allocate
    tracemalloc.start()
    try:
        call(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ceiling


def test_guard_refuses_before_the_matrix():
    # C(3000, 3) = 4.5e9 subsets; the 72 MB matrix is never built
    m = build_euclidean(build_cloud(np.random.default_rng(3).random((3000, 2))))
    for search in (best_k_subset, optimal_gap_ratio):
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceeded):
                search(m, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert vars(m)["_dist"] is None


def test_approx_sample_matches_the_matrix(monkeypatch):
    rng = np.random.default_rng(65)
    cloud = build_cloud(rng.random((90, 2)))
    got = approx_sample(cloud, 3, 0.3)
    monkeypatch.setattr(coreset, "build_euclidean", matrix_metric)
    want = approx_sample(cloud, 3, 0.3)
    assert repr(got[:3]) == repr(want[:3])
    assert got[3].cells == want[3].cells


def cli_bytes(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", ["lattice-shuffled", "corners", "cocircular", "d1",
                                  "d9", "n2"])
def test_cli_reports_match_the_matrix(tmp_path, monkeypatch, capsys, name):
    pts = CLOUDS[name]
    data, sample = tmp_path / "points.txt", tmp_path / "sample.txt"
    data.write_text("".join(" ".join(repr(float(x)) for x in p) + "\n" for p in pts))
    sample.write_text("".join(f"{i}\n" for i in range(0, len(pts), 3)) + "1\n")
    runs = [["fpi", "--points", str(data), "-k", str(min(len(pts), 12))],
            ["evaluate", "--points", str(data), "--sample", str(sample)]]
    got = [cli_bytes(capsys, argv) for argv in runs]
    monkeypatch.setattr(cli, "build_euclidean", matrix_metric)
    want = [cli_bytes(capsys, argv) for argv in runs]
    assert got == want
    assert all(code == 0 and err == "" for code, _, err in got)


@pytest.mark.parametrize("pts, code", [
    ([[1e200, 0.0], [0.0, 0.0]], None),  # r = inf: the report writer refuses it
    ([[0.0, 0.0], [1e-200, 0.0]], "zero-distance"),
])
def test_gap_report_edge_codes(pts, code):
    m = build_euclidean(build_cloud(pts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if code is None:
            rep = gap_ratio(m, (0, 1))
            assert (rep.r, rep.R) == (np.inf, 0.0)
        else:
            with pytest.raises(GapError) as e:
                gap_ratio(m, (0, 1))
            assert e.value.code == code
