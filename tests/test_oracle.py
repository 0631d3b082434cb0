"""Gap-ratio oracle and the two domination-reduction certifiers."""

import gc
import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gapsampler import (CertificationError, GapError, GuardExceeded,
                        approx_sample, best_k_subset, build_cloud, build_euclidean,
                        build_explicit, build_graph, build_graph_metric,
                        check_eds_equivalence, check_genmet_equivalence,
                        gap_ratio, genmet_reduce, is_efficient_dominating,
                        is_independent_dominating, optimal_gap_ratio,
                        stream_finalize, stream_init, sweep_fpi_guarantees,
                        sweep_fpi_vs_oracle, sweep_graph_lower_bound,
                        sweep_reduction_certificates)
from gapsampler import oracle
from gapsampler.fpi import greedy_batch
from gapsampler.oracle import DEFAULT_GUARD

from graph_masks import graph_from_mask


def c6():
    return build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def p4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3)])


# ---------------------------------------------------------------------------
# oracle


def test_line4_k2():
    m = build_euclidean(build_cloud([0.0, 1.0, 2.0, 3.0]))
    res = optimal_gap_ratio(m, 2)
    assert res.best_sample.indices == (0, 3)
    assert res.gr_opt == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert res.R_opt == 1.0 and res.r_opt == 1.5
    assert res.subsets_examined == 6


def test_c6_k2_exact_floor():
    res = optimal_gap_ratio(build_graph_metric(c6()), 2)
    assert res.best_sample.indices == (0, 3)
    assert res.gr_opt == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_k_equals_n_zero():
    m = build_euclidean(build_cloud([0.0, 1.0, 5.0]))
    res = optimal_gap_ratio(m, 3)
    assert res.gr_opt == 0.0 and res.R_opt == 0.0


def test_guard_refuses_huge_enumerations():
    m = build_euclidean(build_cloud(np.random.default_rng(0).random((40, 2))))
    with pytest.raises(GuardExceeded):
        optimal_gap_ratio(m, 16, guard=1000)
    res = optimal_gap_ratio(m, 2, guard=1000)  # C(40,2) = 780 fits
    assert res.subsets_examined == 780


def guarded_entries():
    """Every public entry that takes a guard, each at k = 2 on a small input
    whose search fits a guard of 100."""
    cloud = build_cloud(np.arange(10.0))
    pts = np.random.default_rng(6).random((8, 2))
    return {
        "optimal_gap_ratio": lambda g: optimal_gap_ratio(build_euclidean(cloud), 2, guard=g),
        "best_k_subset": lambda g: best_k_subset(build_euclidean(cloud), 2, guard=g),
        "approx_sample": lambda g: approx_sample(cloud, 2, 0.45, guard=g),
        "stream_finalize": lambda g: stream_finalize(stream_init(pts, 2, 0.1), guard=g),
        "check_genmet_equivalence": lambda g: check_genmet_equivalence(p4(), 2, guard=g),
        "check_eds_equivalence": lambda g: check_eds_equivalence(p4(), 2, guard=g),
    }


GUARDED_ENTRIES = guarded_entries()


@pytest.mark.parametrize("name", GUARDED_ENTRIES)
def test_guards_are_refused_with_one_rule(name):
    # a guard is an integer >= 0, read by the one size rule: nan never
    # switches it off, and a negative or fractional one is not reported as
    # an exceeded guard
    call = GUARDED_ENTRIES[name]
    for bad in (float("nan"), float("inf"), "x", "100", None, 2.5):
        with pytest.raises(GapError) as e:
            call(bad)
        assert (e.value.code, str(e.value)) == ("invalid-guard", f"guard {bad!r} is not an integer")
    with pytest.raises(GapError) as e:
        call(-1)
    assert (e.value.code, str(e.value)) == ("invalid-guard", "guard must be >= 0, got -1")
    with pytest.raises(GuardExceeded):
        call(0)  # 0 admits no subset
    want = repr(call(100))
    assert repr(call(np.int64(100))) == repr(call(100.0)) == want


@pytest.mark.parametrize("scale, code", [(1e160, "distance-overflow"),
                                         (1e-170, "zero-distance")])
def test_oracle_refuses_clouds_whose_distances_all_over_or_underflow(scale, code):
    # every gap ratio would be inf / inf or 0 / 0, so no subset is best
    m = build_euclidean(build_cloud(np.random.default_rng(0).random((10, 2)) * scale))
    with pytest.raises(GapError) as e:
        optimal_gap_ratio(m, 3)
    assert e.value.code == code


def test_oracle_matches_bruteforce_replay():
    rng = np.random.default_rng(19)
    pts = rng.random((9, 2))
    m = build_euclidean(build_cloud(pts))
    res = optimal_gap_ratio(m, 3)
    best = None
    R_best, r_best = np.inf, -np.inf
    for subset in itertools.combinations(range(9), 3):
        rep = gap_ratio(m, subset)
        if best is None or rep.gap_ratio < best[1]:
            best = (subset, rep.gap_ratio)
        R_best = min(R_best, rep.R)
        r_best = max(r_best, rep.r)
    assert res.best_sample.indices == best[0]
    assert res.gr_opt == best[1]
    # R_opt and r_opt are independent optima, generally from other subsets
    assert res.R_opt == R_best and res.r_opt == r_best


def test_oracle_tie_break_lexicographic():
    # unit square: the two diagonal pairs tie, (0, 3) enumerates first
    m = build_euclidean(build_cloud([[0, 0], [1, 0], [0, 1], [1, 1]]))
    res = optimal_gap_ratio(m, 2)
    first, best = None, np.inf
    for subset in itertools.combinations(range(4), 2):
        gr = gap_ratio(m, subset).gap_ratio
        if gr < best:
            best, first = gr, subset
    assert res.best_sample.indices == first == (0, 3)


# ---------------------------------------------------------------------------
# the prefix-shared subset kernel against a plain combinations scan


def grid_graph(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return build_graph(rows * cols, edges)


def kernel_metrics():
    """Float clouds and tie-heavy integer metrics on 10 to 12 sites."""
    rng = np.random.default_rng(7)
    lattice = [[x, y] for x in range(3) for y in range(4)]
    mask = int(rng.integers(1 << 45))
    return {
        "uniform": build_euclidean(build_cloud(rng.random((11, 2)))),
        "lattice": build_euclidean(build_cloud(lattice)),
        "grid-graph": build_graph_metric(grid_graph(3, 4)),
        "genmet": genmet_reduce(graph_from_mask(10, mask, require_connected=False)),
    }


KERNEL_METRICS = kernel_metrics()

# 1: one a row per block; 500: a few rows, several blocks per prefix
BUDGETS = (None, 1, 500)


def reference_scan(dist, k):
    """(subsets, cover, q) for every k-subset in itertools order."""
    subsets = list(itertools.combinations(range(dist.shape[0]), k))
    cover = [dist[list(s)].min(axis=0).max() for s in subsets]
    q = [min(dist[i, j] for i, j in itertools.combinations(s, 2)) for s in subsets]
    return subsets, cover, q


def reference_search(dist, k):
    """First subset with the smallest cover / (q / 2.0), R_opt, r_opt."""
    best, best_gr = None, np.inf
    R_opt, r_opt = np.inf, -np.inf
    for s, cover, q in zip(*reference_scan(dist, k)):
        gr = cover / (q / 2.0)
        if gr < best_gr:
            best, best_gr = s, gr
        R_opt = min(R_opt, cover)
        r_opt = max(r_opt, q / 2.0)
    return best, best_gr, R_opt, r_opt


@pytest.fixture(params=BUDGETS, ids=lambda b: f"block{b}")
def budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(oracle, "_BLOCK", request.param)
    return request.param


@pytest.mark.parametrize("name", KERNEL_METRICS)
def test_kernel_blocks_match_combinations(name, budget):
    # every block holds at most max(1, _BLOCK // n) pairs, as a pruned
    # walk's do
    m = KERNEL_METRICS[name]
    cap = max(1, oracle._BLOCK // m.n)
    for dist in filter(lambda d: d is not None, (m.dist, m.exact2x)):
        for k in (2, 3, 5, m.n - 1, m.n):
            subsets, cover, q = [], [], []
            for prefix, a, b, c, qq in oracle._subset_blocks(dist, k):
                assert 1 <= a.size <= cap
                subsets += [prefix + (int(x), int(y)) for x, y in zip(a, b)]
                cover += list(c)
                q += list(qq)
            assert (subsets, cover, q) == reference_scan(dist, k)


@pytest.mark.parametrize("name", KERNEL_METRICS)
def test_kernel_prune_yields_the_surviving_subsets(name, budget):
    # a prune on q drops every subset whose q it flags, prefixes included,
    # and keeps the others in order with their cover and q
    m = KERNEL_METRICS[name]
    cap = max(1, oracle._BLOCK // m.n)
    for dist in filter(lambda d: d is not None, (m.dist, m.exact2x)):
        t = np.median(dist)
        for k in (2, 3, 5, m.n - 1, m.n):
            got = []
            for prefix, a, b, c, qq in oracle._subset_blocks(dist, k, lambda q: q < t):
                assert 1 <= a.size <= cap
                got += [(prefix + (int(x), int(y)), v, w)
                        for x, y, v, w in zip(a, b, c, qq)]
            assert got == [row for row in zip(*reference_scan(dist, k))
                           if not row[2] < t]


@pytest.mark.parametrize("name", KERNEL_METRICS)
def test_kernel_prune_follows_a_bound_that_tightens_mid_walk(name, budget):
    # the consumer raises the prune's threshold to the next distinct
    # distance after every block, so the far-pair rows go stale and are
    # rebuilt mid-walk; what is yielded lies between the subsets that
    # survive the final bound and those that survive the initial one, in
    # the reference's order and with its cover and q
    m = KERNEL_METRICS[name]
    for dist in filter(lambda d: d is not None, (m.dist, m.exact2x)):
        levels = np.unique(dist)
        for k in (2, 3, 5, m.n - 1):
            step = [len(levels) // 4]
            got = []
            walk = oracle._subset_blocks(dist, k, lambda q: q < levels[step[0]])
            for prefix, a, b, c, qq in walk:
                assert 1 <= a.size <= max(1, oracle._BLOCK // m.n)
                got += [(prefix + (int(x), int(y)), v, w)
                        for x, y, v, w in zip(a, b, c, qq)]
                step[0] = min(step[0] + 1, len(levels) - 1)
            first, last = levels[len(levels) // 4], levels[step[0]]
            ref = list(zip(*reference_scan(dist, k)))
            yielded = {row[0] for row in got}
            assert got == [row for row in ref if row[0] in yielded]
            assert all(not q < first for _, _, q in got)
            assert yielded >= {s for s, _, q in ref if not q < last}


@pytest.mark.parametrize("name", KERNEL_METRICS)
def test_oracle_and_coreset_search_match_reference(name, budget):
    m = KERNEL_METRICS[name]
    for k in (2, 3, 4, 5, 6, m.n - 1, m.n):
        best, gr, R_opt, r_opt = reference_search(m.dist, k)
        res = optimal_gap_ratio(m, k)
        assert res.best_sample.indices == best
        assert (res.gr_opt, res.R_opt, res.r_opt) == (gr, R_opt, r_opt)
        assert res.subsets_examined == comb(m.n, k)
        sample, _ = best_k_subset(m, k)
        assert sample.indices == best


# the largest n <= 40 with C(n, k) <= 3000, which keeps one a row per block
# affordable
MAX_N = {k: max(n for n in range(5, 41) if comb(n, k) <= 3000) for k in range(2, 6)}


@st.composite
def search_instances(draw):
    """(cloud, k): uniform points, points of a small integer lattice (many
    exact ties) or collinear points at integer steps, 5 <= n <= 40, scaled
    by a power of two that keeps every square in float64's normal range."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(5, MAX_N[k]))
    kind = draw(st.sampled_from(["uniform", "lattice", "collinear"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "uniform":
        pts = rng.random((n, 2))
    elif kind == "lattice":
        side = int(np.ceil(np.sqrt(n))) + 1
        cells = rng.choice(side * side, size=n, replace=False)
        pts = np.stack([cells // side, cells % side], axis=1).astype(float)
    else:
        pts = rng.choice(3 * n, size=n, replace=False)[:, None] * [1.0, 2.0]
    return build_cloud(pts * draw(st.sampled_from([2.0 ** -400, 1.0, 2.0 ** 400]))), k


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(instance=search_instances())
def test_pruned_search_is_the_exhaustive_walk(budget, instance):
    # the fixture's _BLOCK holds for every example, so pruning decisions
    # fall on both sides of block boundaries
    cloud, k = instance
    m = build_euclidean(cloud)
    best, gr, _, _ = reference_search(m.dist, k)
    sample, rep = best_k_subset(m, k)
    assert (sample.indices, rep.gap_ratio) == (best, gr)


def closed_weights(rng, n, high):
    """Shortest paths over a complete graph with integer weights in
    [1, high]: an explicit metric with many exact ties."""
    w = rng.integers(1, high + 1, size=(n, n)).astype(float)
    d = np.minimum(w, w.T)
    np.fill_diagonal(d, 0.0)
    for v in range(n):
        d = np.minimum(d, d[:, v, None] + d[None, v])
    return d


def random_tree_graph(rng, n, extra, weighted):
    """A connected graph: a random tree plus ``extra`` random edges, with
    weights 1-3 if ``weighted``."""
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    for _ in range(extra):
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((u, v))
    if weighted:
        return build_graph(n, [(u, v, float(rng.integers(1, 4))) for u, v in sorted(edges)])
    return build_graph(n, sorted(edges))


@st.composite
def oracle_instances(draw):
    """(metric, k) on 2 to 14 sites, k from 2 to n: search_instances' cloud
    shapes at its three scales, grid, path and random graphs, {1,2}-metrics
    and explicit shortest-path matrices.  n and k come from the drawn seed,
    so they spread evenly rather than toward hypothesis's small values."""
    kind = draw(st.sampled_from(["uniform", "lattice", "collinear", "grid", "path",
                                 "graph", "genmet", "explicit"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = int(rng.integers(2, 15))
    scale = draw(st.sampled_from([2.0 ** -400, 1.0, 2.0 ** 400]))
    if kind == "uniform":
        m = build_euclidean(build_cloud(rng.random((n, 2)) * scale))
    elif kind == "lattice":
        cells = rng.choice(16, size=n, replace=False)
        pts = np.stack([cells // 4, cells % 4], axis=1).astype(float)
        m = build_euclidean(build_cloud(pts * scale))
    elif kind == "collinear":
        pts = rng.choice(3 * n, size=n, replace=False)[:, None] * [1.0, 2.0]
        m = build_euclidean(build_cloud(pts * scale))
    elif kind == "grid":
        rows = int(rng.integers(1, 4))
        m = build_graph_metric(grid_graph(rows, max(2, n // rows)))
    elif kind == "path":
        m = build_graph_metric(build_graph(n, [(v, v + 1) for v in range(n - 1)]))
    elif kind == "graph":
        g = random_tree_graph(rng, n, int(rng.integers(n + 1)), draw(st.booleans()))
        m = build_graph_metric(g)
    elif kind == "genmet":
        mask = int.from_bytes(rng.bytes(12), "little") % (1 << (n * (n - 1) // 2))
        m = genmet_reduce(graph_from_mask(n, mask, require_connected=False))
    else:
        m = build_explicit(closed_weights(rng, n, draw(st.sampled_from([2, 4, 50]))))
    return m, int(rng.integers(2, m.n + 1))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(instance=oracle_instances())
def test_oracle_is_the_exhaustive_optimum(budget, instance):
    # the sample and the bits of all three optima equal the per-subset
    # reference's, under every block budget
    m, k = instance
    best, gr, R_opt, r_opt = reference_search(m.dist, k)
    res = optimal_gap_ratio(m, k)
    assert res.best_sample.indices == best
    assert ([float(x).hex() for x in (res.gr_opt, res.R_opt, res.r_opt)]
            == [float(x).hex() for x in (gr, R_opt, r_opt)])
    assert res.subsets_examined == comb(m.n, k)


def decision_metrics():
    """Metrics on 8 or 9 sites with many distinct thresholds and many ties."""
    rng = np.random.default_rng(31)
    lattice = [[x, y] for x in range(3) for y in range(3)]
    return {
        "uniform": build_euclidean(build_cloud(rng.random((9, 2)))),
        "lattice": build_euclidean(build_cloud(lattice)),
        "path": build_graph_metric(build_graph(8, [(v, v + 1) for v in range(7)])),
        "graph": build_graph_metric(random_tree_graph(rng, 9, 3, True)),
        "genmet": genmet_reduce(graph_from_mask(9, int(rng.integers(1 << 36)),
                                                require_connected=False)),
        "explicit": build_explicit(closed_weights(rng, 9, 4)),
    }


DECISION_METRICS = decision_metrics()


@pytest.mark.parametrize("name", DECISION_METRICS)
def test_cover_decision_matches_brute_force(name):
    # at every distinct entry t of dist and every k, some k sites cover
    # every site within t (dist[s, v] <= t) iff _coverable says so
    dist = DECISION_METRICS[name].dist
    n = dist.shape[0]
    for t in np.unique(dist):
        within = dist <= t
        for k in range(1, n + 1):
            want = any(within[list(s)].any(axis=0).all()
                       for s in itertools.combinations(range(n), k))
            assert oracle._coverable(dist, k, t) == want, (t, k)


@pytest.mark.parametrize("name", DECISION_METRICS)
def test_min_cover_is_the_smallest_covering_radius(name):
    # for every k, from the cover of the first k-subset, the search over
    # the upper triangle's entries finds the exhaustive optimum's bits
    dist = DECISION_METRICS[name].dist
    n = dist.shape[0]
    for k in range(1, n + 1):
        covers = [dist[list(s)].min(axis=0).max()
                  for s in itertools.combinations(range(n), k)]
        assert oracle._min_cover(dist, k, covers[0]).hex() == float(min(covers)).hex()


def test_min_cover_candidates_skip_the_lower_triangle():
    # 600 uniform points at k = 2: every entry below the farthest-point
    # cover, both triangles and the diagonal, peaked at 2.9x dist's bytes
    # beside dist; the upper triangle's, a row at a time, at 1.9x
    dist = build_euclidean(build_cloud(np.random.default_rng(5).random((600, 2)))).dist
    _, _, R, _ = greedy_batch(dist[None], 2)
    tracemalloc.start()
    try:
        oracle._min_cover(dist, 2, R[0, -1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4 * dist.nbytes


def gc_entries():
    """Every public entry that runs a recursive walk, on small inputs."""
    pts = np.random.default_rng(6).random((30, 2))
    cloud = build_cloud(pts)
    g = grid_graph(4, 5)
    return {
        "optimal_gap_ratio": lambda: optimal_gap_ratio(build_euclidean(cloud), 3),
        "best_k_subset": lambda: best_k_subset(build_euclidean(cloud), 3),
        "approx_sample": lambda: approx_sample(cloud, 3, 0.3),
        "stream_finalize": lambda: stream_finalize(stream_init(pts, 3, 0.1)),
        "check_genmet_equivalence": lambda: check_genmet_equivalence(g, 3),
        "check_eds_equivalence": lambda: check_eds_equivalence(g, 4),
        "sweep_fpi_guarantees": lambda: sweep_fpi_guarantees(5),
        "sweep_fpi_vs_oracle": lambda: sweep_fpi_vs_oracle(5),
        "sweep_graph_lower_bound": lambda: sweep_graph_lower_bound(5),
        "sweep_reduction_certificates": lambda: sweep_reduction_certificates(5),
    }


GC_ENTRIES = gc_entries()


@pytest.mark.parametrize("name", GC_ENTRIES)
def test_walks_leave_no_cyclic_garbage(name):
    # a recursive nested walk that keeps its own cell would form a cycle
    # holding its batches until the next gc pass
    call = GC_ENTRIES[name]
    call()  # first calls fill caches
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_oracle_keeps_the_exhaustive_bits_at_n96():
    # the exhaustive walk's answer on 96 uniform points at k = 4, recorded
    # before the bounded searches replaced it
    m = build_euclidean(build_cloud(np.random.default_rng(0).random((96, 2))))
    res = optimal_gap_ratio(m, 4)
    assert res.best_sample.indices == (1, 7, 49, 77)
    assert [x.hex() for x in (res.gr_opt, res.R_opt, res.r_opt)] == [
        "0x1.24f6de34adb47p+0", "0x1.4b569ec9d7c47p-2", "0x1.b26cb4bda49c5p-2"]
    assert res.subsets_examined == comb(96, 4)


def scalar_genmet(g, k):
    """The per-subset genmet certifier the kernel replaced."""
    ids = next((s for s in itertools.combinations(range(g.n), k)
                if is_independent_dominating(g, s)), None)
    e = genmet_reduce(g).exact2x
    subsets, R2, q2 = reference_scan(e, k)
    gr1 = next((s for s, c, q in zip(subsets, R2, q2) if 2 * c == q), None)
    assert (ids is None) == (gr1 is None)
    return ids is not None, {"independent_dominating": ids, "gap_ratio_one": gr1,
                             "subsets_examined": comb(g.n, k)}


def scalar_eds(g, k, e):
    """The per-subset EDS certifier the kernel replaced, on metric e."""
    witness, count = None, 0
    for s, R2, q2 in zip(*reference_scan(e, k)):
        profile = (q2 == 6) and (R2 == 2)
        eds = is_efficient_dominating(g, s)
        if eds != profile:
            raise CertificationError(
                f"equivalence failed on n={g.n}, k={k}, D={s}: "
                f"efficient-dominating={eds} but (r=3/2, R=1)={profile}")
        if eds:
            count += 1
            witness = witness or s
    return witness is not None, {"efficient_dominating": witness,
                                 "eds_count": count,
                                 "subsets_examined": comb(g.n, k)}


def certifier_graphs():
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    rng = np.random.default_rng(11)
    randoms = []
    while len(randoms) < 3:
        try:
            randoms.append(graph_from_mask(8, int(rng.integers(1 << 28))))
        except GapError:  # disconnected
            pass
    return [c6(), p4(), grid_graph(3, 4), build_graph(10, petersen),
            build_graph(7, [(0, v) for v in range(1, 7)])] + randoms


@pytest.mark.parametrize("budget", (None, 1), indirect=True,
                         ids=lambda b: f"block{b}")
def test_certificates_match_scalar_path(budget):
    for g in certifier_graphs():
        for k in range(2, min(g.n, 6)):
            assert check_genmet_equivalence(g, k) == scalar_genmet(g, k)
            e = build_graph_metric(g).exact2x
            assert check_eds_equivalence(g, k) == scalar_eds(g, k, e)


def test_eds_mismatch_reports_first_subset(monkeypatch):
    # feed the certifier a wrong metric; it must name the same first bad
    # subset, in the same words, as the scalar loop
    cases = [(c6(), genmet_reduce(c6())),   # three EDS, none at (3/2, 1)
             (c4(), build_graph_metric(p4()))]  # (3/2, 1) but not EDS
    for g, wrong in cases:
        with pytest.raises(CertificationError) as want:
            scalar_eds(g, 2, wrong.exact2x)
        monkeypatch.setattr(oracle, "build_graph_metric", lambda _: wrong)
        with pytest.raises(CertificationError) as got:
            check_eds_equivalence(g, 2)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("budget", (None, 1), indirect=True,
                         ids=lambda b: f"block{b}")
def test_genmet_witnesses_on_a_wrong_metric(budget, monkeypatch):
    # feed the certifier a wrong {1,2}-metric: each witness is still the
    # first subset of its kind, a missing one is named in the error, and at
    # one a row per block the two witnesses of the last case lie in
    # different blocks
    k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
    p3 = build_graph(4, [(0, 1), (1, 2)], require_connected=False)
    cases = [(c4(), genmet_reduce(k4), (0, 2), None),  # no GR = 1 subset
             (k4, genmet_reduce(c4()), None, (0, 2)),  # no IDS of size 2
             (c4(), genmet_reduce(p3), (0, 2), (1, 3))]
    for g, wrong, ids, gr1 in cases:
        monkeypatch.setattr(oracle, "genmet_reduce", lambda _: wrong)
        if (ids is None) == (gr1 is None):
            assert check_genmet_equivalence(g, 2) == (True, {
                "independent_dominating": ids, "gap_ratio_one": gr1,
                "subsets_examined": 6})
            continue
        with pytest.raises(CertificationError) as got:
            check_genmet_equivalence(g, 2)
        assert str(got.value) == (
            f"equivalence failed on n=4, k=2: independent dominating "
            f"witness {ids}, gap-ratio-1 witness {gr1}")


# ---------------------------------------------------------------------------
# domination predicates


def test_independent_dominating_examples():
    assert is_independent_dominating(c4(), [0, 2])
    assert not is_independent_dominating(c4(), [0, 1])  # edge inside D
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert is_independent_dominating(p3, [1])


def test_efficient_dominating_examples():
    assert is_efficient_dominating(p4(), [0, 3])
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(4), k) for k in range(1, 5))
    assert not any(is_efficient_dominating(c4(), s) for s in subsets)
    k1 = build_graph(1, [])
    assert is_efficient_dominating(k1, [0])


def test_domination_input_validation():
    with pytest.raises(GapError):
        is_independent_dominating(c4(), [0, 9])
    with pytest.raises(GapError):
        is_efficient_dominating(c4(), [0, 0])


def test_domination_vertices_are_not_truncated():
    # int() read 1.5 and 1.9 as vertex 1, which dominates the path 0-1-2
    p3 = build_graph(3, [(0, 1), (1, 2)])
    for predicate, vertex in ((is_independent_dominating, 1.5),
                              (is_efficient_dominating, 1.9)):
        with pytest.raises(GapError) as e:
            predicate(p3, [vertex])
        assert e.value.code == "malformed-sample"
        assert predicate(p3, [1.0]) and predicate(p3, [np.int64(1)])


# ---------------------------------------------------------------------------
# reductions


def test_genmet_reduce_matrices():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    m = genmet_reduce(p3)
    assert m.dist[0, 1] == 1.0 and m.dist[1, 2] == 1.0 and m.dist[0, 2] == 2.0
    assert m.exact2x[0, 2] == 4 and m.source == "explicit"
    k3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert (genmet_reduce(k3).dist + np.eye(3) == 1.0).all()
    e3 = build_graph(3, [], require_connected=False)
    assert (genmet_reduce(e3).dist + 2.0 * np.eye(3) == 2.0).all()


def test_genmet_reduce_passes_the_explicit_audit():
    # genmet_reduce skips build_explicit's checks: every {1,2} profile is a
    # metric, so the audit must accept it and change no field
    for n in range(2, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            m = genmet_reduce(graph_from_mask(n, mask, require_connected=False))
            ref = build_explicit(m.dist)
            assert (m.n, m.source) == (ref.n, ref.source)
            exact2x = (2 * ref.dist).astype(np.int64)
            for got, want in ((m.dist, ref.dist), (m.exact2x, exact2x)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert not got.flags.writeable


def test_genmet_equivalence_c4():
    answer, certs = check_genmet_equivalence(c4(), 2)
    assert answer
    assert certs["independent_dominating"] == (0, 2)
    assert certs["gap_ratio_one"] == (0, 2)
    assert certs["subsets_examined"] == 6


def test_genmet_equivalence_k3_negative():
    k3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    answer, certs = check_genmet_equivalence(k3, 2)
    assert not answer
    assert certs["independent_dominating"] is None
    assert certs["gap_ratio_one"] is None


def test_genmet_witness_has_gap_ratio_one():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    answer, certs = check_genmet_equivalence(g, 2)
    assert answer
    rep = gap_ratio(genmet_reduce(g), certs["gap_ratio_one"])
    assert rep.gap_ratio == 1.0


def test_eds_equivalence_p4_and_c6():
    ok, certs = check_eds_equivalence(p4(), 2)
    assert ok and certs["efficient_dominating"] == (0, 3)
    rep = gap_ratio(build_graph_metric(p4()), (0, 3))
    assert rep.r == 1.5 and rep.R == 1.0
    ok, certs = check_eds_equivalence(c6(), 2)
    assert ok and certs["efficient_dominating"] == (0, 3)
    assert certs["eds_count"] == 3  # the three antipodal pairs


def test_eds_negative_case():
    ok, certs = check_eds_equivalence(c4(), 2)
    assert not ok and certs["efficient_dominating"] is None


def test_certifier_k_range():
    for k in (1, 4):
        with pytest.raises(GapError) as e:
            check_genmet_equivalence(c4(), k)
        assert e.value.code == "k-out-of-range"
    with pytest.raises(GapError):
        check_eds_equivalence(c4(), 1)


def test_eds_rejects_weighted():
    g = build_graph(3, [(0, 1, 2.0), (1, 2, 2.0)])
    with pytest.raises(GapError) as e:
        check_eds_equivalence(g, 2)
    assert e.value.code == "weighted-unsupported"


@pytest.mark.parametrize("certify", [check_genmet_equivalence, check_eds_equivalence],
                         ids=["genmet", "eds"])
def test_certifiers_refuse_weighted_graphs(certify):
    # codes in order of precedence: k-out-of-range, weighted-unsupported,
    # guard-exceeded; neither certifier may drop the weights silently
    g = build_graph(4, [(0, 1, 5.0), (1, 2, 0.5), (2, 3, 7.0)])
    for k, guard, code in ((1, 0, "k-out-of-range"), (2, 0, "weighted-unsupported"),
                           (2, 10, "weighted-unsupported")):
        with pytest.raises(GapError) as e:
            certify(g, k, guard=guard)
        assert e.value.code == code
    unweighted = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(GapError) as e:
        certify(unweighted, 2, guard=0)
    assert e.value.code == "guard-exceeded"


def test_certifiers_small_exhaustive(monkeypatch):
    # every labeled graph on 4 and 5 vertices, every valid k, against the
    # scalar certifiers; one a row per block splits each prefix's pairs
    # over several blocks, so the genmet pass also stops in a later block
    for budget in (oracle._BLOCK, 1):
        monkeypatch.setattr(oracle, "_BLOCK", budget)
        for n in (4, 5):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = graph_from_mask(n, mask, require_connected=False)
                for k in range(2, n):
                    assert check_genmet_equivalence(g, k) == scalar_genmet(g, k)
                    if _connected(g):
                        e = build_graph_metric(g).exact2x
                        assert check_eds_equivalence(g, k) == scalar_eds(g, k, e)


def _connected(g):
    adj = {u: set() for u in range(g.n)}
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n
