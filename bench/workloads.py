"""Seeded inputs and the request lists of the three benchmark workloads.

A request is a closure over inputs generated at set-up time.  ``run`` is the
timed call into gapsampler; ``check`` asserts the paper's guarantees on its
output and returns a list of problems (empty when the output is right);
``summary`` reduces the output to plain JSON values for the golden
comparison.  ``check`` and ``summary`` run outside the timed interval.

Every call into the package goes through a module attribute looked up at
call time (``gs.build_euclidean``, ``cli.main``), so the tracing wrappers
installed by ``tracing.patched`` see it.  Requests are independent of each
other, so any subset of them can run in any process.

Every workload has 15 requests.  With a count of 5 modulo 10, the 50th and
90th latency percentiles over m passes land mid-way through one request's m
samples instead of on the boundary between two requests, where they would
swing between one request's slowest sample and the next one's fastest.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import asin, ceil, comb, sqrt
from typing import Any, Callable

import numpy as np

import gapsampler as gs
from gapsampler import cli

# Relative tolerances for float checks that are not bit-exact by contract.
REL = 1e-12
MARGIN_TOL = 1e-9

# Connected labelled graphs on n vertices (OEIS A001187).
CONNECTED_LABELLED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}


@dataclass
class Request:
    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], list]
    summary: Callable[[Any], Any]


class Context:
    """Handed to every request; forwards work counters to the tracer."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def count(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.count(name, value)


# ---------------------------------------------------------------------------
# input generators


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _repeat_row0(rng: np.random.Generator, pts: np.ndarray, repeats: int) -> np.ndarray:
    """Overwrite up to ``repeats`` seed-chosen rows with copies of row 0, so
    build_cloud's de-duplication runs and the deduplicated size varies a
    little with the seed."""
    if repeats:
        j = int(rng.integers(0, repeats + 1))
        pts[rng.choice(np.arange(1, len(pts)), size=j, replace=False)] = pts[0]
    return pts


def uniform_cloud(seed: int, tag: int, n: int, d: int, repeats: int = 0) -> np.ndarray:
    """n uniform points in [0,1]^d, with ``repeats`` as in _repeat_row0."""
    rng = _rng(seed, tag)
    return _repeat_row0(rng, rng.random((n, d)), repeats)


def jittered_lattice(seed: int, tag: int, cols: int, rows: int, repeats: int = 0) -> np.ndarray:
    """One point near the centre of each cell of a cols x rows lattice over
    [0,1]^2 (jitter up to 0.1 of the spacing), in seed order."""
    rng = _rng(seed, tag)
    gx, gy = np.meshgrid(np.arange(cols), np.arange(rows))
    centers = np.stack([(gx.ravel() + 0.5) / cols, (gy.ravel() + 0.5) / rows], axis=1)
    pts = centers + rng.uniform(-0.1, 0.1, centers.shape) / [cols, rows]
    return _repeat_row0(rng, pts[rng.permutation(len(pts))], repeats)


def grid_graph(rows: int, cols: int, perm: np.ndarray) -> tuple:
    """(n, edges, coords): rows x cols grid with vertices relabelled by perm;
    coords[v] is the (row, col) of relabelled vertex v."""
    n = rows * cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((int(perm[v]), int(perm[v + 1])))
            if r + 1 < rows:
                edges.append((int(perm[v]), int(perm[v + cols])))
    coords = np.empty((n, 2), dtype=np.int64)
    coords[perm] = np.stack(np.divmod(np.arange(n), cols), axis=1)
    return n, edges, coords


def random_connected_graph(seed: int, tag: int, n: int, extra: int) -> list:
    """Random spanning tree plus ``extra`` distinct chords: n - 1 + extra edges."""
    rng = _rng(seed, tag)
    perm = rng.permutation(n)
    edges = {tuple(sorted((int(perm[i]), int(perm[rng.integers(0, i)]))))
             for i in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _write(path: str, text: str) -> None:
    """Atomic replace: processes of one run rewrite the same input files
    (the CLI reports echo their paths) while others may be reading them."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_points(path: str, pts: np.ndarray) -> None:
    _write(path, "".join(" ".join(repr(float(x)) for x in row) + "\n" for row in pts))


def write_graph(path: str, n: int, edges: list) -> None:
    _write(path, f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))


def write_sample(path: str, indices) -> None:
    _write(path, "".join(f"{int(i)}\n" for i in indices))


# ---------------------------------------------------------------------------
# shared checks


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def fpi_problems(sample, trace, k: int) -> list:
    """Halving identity, non-increasing R and GR <= 2 along the whole run."""
    out = []
    if len(sample.indices) != k:
        out.append(f"sample has {len(sample.indices)} sites, k={k}")
    if trace.R_init > 2.0 * trace.r_init:
        out.append("diameter-pair gap ratio above 2")
    prev = trace.R_init
    for s in trace.steps:
        if s.r_after != s.R_before / 2.0:
            out.append(f"halving identity broken at size {s.size_before}")
        if s.R_before != prev or s.R_after > prev:
            out.append(f"covering radius increased at size {s.size_before}")
        if s.R_after > 2.0 * s.r_after:
            out.append(f"gap ratio above 2 at size {s.size_before}")
        prev = s.R_after
    fin = trace.final
    if fin.gap_ratio > 2.0:
        out.append(f"final gap ratio {fin.gap_ratio} above 2")
    if trace.steps and (fin.R != prev or fin.r != trace.steps[-1].r_after):
        out.append("final report disagrees with the last step")
    return out


def fpi_summary(sample, trace) -> dict:
    return {"sample": list(sample.indices), "init_pair": list(trace.init_pair),
            "R": [s.R_after for s in trace.steps], "r": trace.final.r,
            "R_final": trace.final.R, "gap_ratio": trace.final.gap_ratio,
            "closest_pair": list(trace.final.closest_pair),
            "farthest_site": trace.final.farthest_site}


def report_summary(rep) -> dict:
    return {"r": rep.r, "R": rep.R, "gap_ratio": rep.gap_ratio,
            "closest_pair": list(rep.closest_pair),
            "farthest_site": rep.farthest_site}


def hull_size(pts: np.ndarray) -> int:
    """Vertices of the convex hull (Andrew's monotone chain, collinear
    points on an edge excluded)."""
    order = sorted(map(tuple, pts))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out
    return len(chain(order)) + len(chain(order[::-1])) - 2


def delaunay_problems(tri, pts: np.ndarray) -> list:
    out = []
    n = pts.shape[0]
    want = 2 * n - 2 - hull_size(pts)
    if len(tri.triangles) != want:
        out.append(f"{len(tri.triangles)} triangles, 2n-2-h = {want}")
    margins = gs.circumcircle_margins(tri)
    scale = np.maximum(tri.circumradii, 1.0)[:, None]
    worst = float((margins / scale).min())
    if worst < -MARGIN_TOL:
        out.append(f"a site lies {-worst:.3g} inside a circumcircle")
    return out


def square_problems(rep, pts: np.ndarray) -> list:
    """r from the closest pair; R realised at the witness and not beaten on
    a 65 x 65 probe grid of the square."""
    out = []
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    np.fill_diagonal(d, np.inf)
    if not _close(rep.r, float(d.min()) / 2.0):
        out.append(f"r={rep.r} but half the closest pair is {d.min() / 2.0}")
    w = np.asarray(rep.farthest_point)
    if not (0.0 <= w.min() and w.max() <= 1.0):
        out.append("covering-radius witness outside the square")
    at_w = float(np.sqrt(((pts - w) ** 2).sum(axis=1)).min())
    if not _close(rep.R, at_w, 1e-9):
        out.append(f"R={rep.R} but the witness is {at_w} from the sample")
    axis = np.linspace(0.0, 1.0, 65)
    probe = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    best = float(np.sqrt(((probe[:, None, :] - pts[None, :, :]) ** 2)
                         .sum(axis=-1)).min(axis=1).max())
    if best > rep.R * (1.0 + 1e-9):
        out.append(f"probe point at distance {best} beats R={rep.R}")
    if not _close(rep.gap_ratio, rep.R / rep.r):
        out.append("gap ratio is not R / r")
    return out


def discrepancy_problems(rep, pts: np.ndarray) -> list:
    """The witness rectangle reproduces d_star with its count convention."""
    x, y, kind = rep.witness
    n = pts.shape[0]
    if kind == "closed":
        dev = ((pts[:, 0] <= x) & (pts[:, 1] <= y)).sum() / n - x * y
    else:
        dev = x * y - ((pts[:, 0] < x) & (pts[:, 1] < y)).sum() / n
    if not _close(float(dev), rep.d_star, 1e-9):
        return [f"witness gives {dev}, d_star={rep.d_star}"]
    return []


def discrepancy_summary(rep) -> dict:
    return {"d_star": rep.d_star, "witness": list(rep.witness), "n": rep.n}


class OracleCache:
    """Full-cloud optima used as references by the coreset and stream
    checks; computed once per process, outside every timed interval."""

    def __init__(self):
        self._memo: dict = {}

    def get(self, key, pts: np.ndarray, k: int):
        if key not in self._memo:
            m = gs.build_euclidean(gs.build_cloud(pts))
            self._memo[key] = (m, gs.optimal_gap_ratio(m, k))
        return self._memo[key]


# ---------------------------------------------------------------------------
# CLI requests


def cli_request(name: str, argv: list, check_result: Callable[[dict], list]) -> Request:
    def run(ctx):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        text = out.getvalue()
        ctx.count("cli.report_bytes", len(text.encode("utf-8")))
        return code, text, err.getvalue()

    def check(res):
        code, text, err = res
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        report = json.loads(text)
        if report["command"] != argv[0] or report["argv"] != argv:
            return ["report names another command"]
        return check_result(report["result"])

    return Request(name, run, check, lambda res: res[1])


def _cli_fpi_problems(k: int):
    def check(res):
        out = []
        if len(res["sample"]) != k:
            out.append("wrong sample size")
        for s in res["trace"]["steps"]:
            if s["r_after"] != s["R_before"] / 2.0 or s["R_after"] > s["R_before"]:
                out.append(f"trace step {s['size_before']} breaks FPI")
        if res["gap_ratio"] > 2.0:
            out.append("gap ratio above 2")
        return out
    return check


def _cli_exact_problems(res) -> list:
    frac = Fraction(*res["exact_ratio"])
    if not _close(float(frac), res["gap_ratio"]):
        return [f"exact ratio {frac} disagrees with {res['gap_ratio']}"]
    if not _close(res["gap_ratio"], res["R"] / res["r"]):
        return ["gap ratio is not R / r"]
    return []


# ---------------------------------------------------------------------------
# greedy-large


FPI_CLOUDS = ((1000, 2), (2000, 2), (3000, 2), (2500, 3))
FPI_ONLY = (((1500, 2), 64), ((600, 3), 32))
GRID_EPS = 0.45
# Graph sizes are held down by the memory pass: the per-source BFS of
# build_graph_metric is pure Python, and under tracemalloc a 30 x 40 grid
# took 24 s instead of 2 s.
GRID_ROWS, GRID_COLS = 20, 24
RANDOM_GRAPH_N = 400
CLI_GRAPH_N = 200


def greedy_large(seed: int, workdir: str, refs: OracleCache) -> list:
    reqs = []
    clouds = {}
    for tag, (n, d) in enumerate(FPI_CLOUDS + tuple(key for key, _ in FPI_ONLY)):
        clouds[(n, d)] = uniform_cloud(seed, tag, n, d, repeats=7)

    def fpi_request(key, k):
        pts = clouds[key]

        def run(ctx):
            m = gs.build_euclidean(gs.build_cloud(pts))
            return gs.farthest_point_insertion(m, k)

        return Request(f"fpi-{key[0]}x{key[1]}-k{k}", run,
                       lambda res: fpi_problems(*res, k),
                       lambda res: fpi_summary(*res))

    def fpi_grid_request(key):
        """FPI(k=32), then the static grid at eps2 for its covering radius."""
        pts = clouds[key]
        d = key[1]

        def run(ctx):
            cloud = gs.build_cloud(pts)
            sample, trace = gs.farthest_point_insertion(gs.build_euclidean(cloud), 32)
            params = gs.static_params(GRID_EPS, trace.final.R, d)
            ctx.count("coreset.cap", 32 * ceil(1.0 / params.eps1) ** d)
            return sample, trace, cloud, gs.build_grid_coreset(cloud, params.eps2)

        def check(res):
            sample, trace, cloud, grid = res
            cells = np.floor((cloud.points - grid.origin) / grid.cell_side).astype(np.int64)
            keys, first = np.unique(cells, axis=0, return_index=True)
            want = {tuple(int(c) for c in row): int(i) for row, i in zip(keys, first)}
            out = fpi_problems(sample, trace, 32)
            if want != grid.cells:
                out.append("grid cells or representatives differ from the "
                           "lowest-index site of each occupied cell")
            return out

        return Request(f"fpi-grid-{key[0]}x{key[1]}", run, check,
                       lambda res: {**fpi_summary(*res[:2]), "grid_size": res[3].size,
                                    "cell_side": res[3].cell_side,
                                    "reps": res[3].representatives()})

    for key in FPI_CLOUDS:
        reqs.append(fpi_grid_request(key))
    reqs.append(fpi_request((2000, 2), 256))
    for key, k in FPI_ONLY:
        reqs.append(fpi_request(key, k))

    perm = _rng(seed, 10).permutation(GRID_ROWS * GRID_COLS)
    gn, gedges, coords = grid_graph(GRID_ROWS, GRID_COLS, perm)

    def run_grid_graph(ctx):
        m = gs.build_graph_metric(gs.build_graph(gn, gedges))
        return (m,) + gs.farthest_point_insertion(m, 32)

    def check_grid_graph(res):
        m, sample, trace = res
        manhattan = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=-1)
        out = [] if (m.dist == manhattan).all() else ["grid distances are not Manhattan"]
        if not (m.exact2x == 2 * manhattan).all():
            out.append("exact2x is not twice the distances")
        return out + fpi_problems(sample, trace, 32)

    reqs.append(Request(f"graph-grid-{GRID_ROWS}x{GRID_COLS}", run_grid_graph, check_grid_graph,
                        lambda res: fpi_summary(*res[1:])))

    rn = RANDOM_GRAPH_N
    redges = random_connected_graph(seed, 11, rn, rn // 2)

    def run_random_graph(ctx):
        m = gs.build_graph_metric(gs.build_graph(rn, redges))
        return (m,) + gs.farthest_point_insertion(m, 32)

    def check_random_graph(res):
        m, sample, trace = res
        out = []
        adj = [[] for _ in range(rn)]
        for u, v in redges:
            adj[u].append(v)
            adj[v].append(u)
        for src in (0, rn // 2, rn - 1):  # reference BFS rows
            d = np.full(rn, -1)
            d[src] = 0
            frontier = [src]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in adj[u]:
                        if d[v] < 0:
                            d[v] = d[u] + 1
                            nxt.append(v)
                frontier = nxt
            if not (m.dist[src] == d).all():
                out.append(f"shortest paths from {src} disagree with BFS")
        if not (m.dist == m.dist.T).all() or not (m.exact2x == 2 * m.dist).all():
            out.append("metric not symmetric or exact2x wrong")
        return out + fpi_problems(sample, trace, 32)

    reqs.append(Request(f"graph-random-{rn}", run_random_graph, check_random_graph,
                        lambda res: fpi_summary(*res[1:])))

    def stream_request(tag, n, d):
        stream_pts = uniform_cloud(seed, tag, n, d)

        def run(ctx):
            state = gs.stream_init(stream_pts[:3], 3, 0.1)
            for x in stream_pts[3:]:
                gs.stream_ingest(state, x)
            return state

        def check(state):
            out = []
            if state.points_seen != n or len(state.T) > state.k:
                out.append("stream lost points or kept too many centers")
            T = np.array([p for _, p in state.T])
            gaps = np.sqrt(((T[:, None] - T[None]) ** 2).sum(axis=-1))[np.triu_indices(len(T), 1)]
            # init centers are R_thresh apart at closest; later ones farther
            if gaps.size and gaps.min() < state.R_thresh * (1.0 - REL):
                out.append("two centers closer than R_thresh")
            cells = np.floor((stream_pts - state.origin) / state.cell_side).astype(np.int64)
            occupied = {tuple(int(c) for c in row) for row in np.unique(cells, axis=0)}
            if occupied != set(state.cells):
                out.append("live cells are not exactly the occupied cells")
            if state.peak_cells < len(state.cells):
                out.append("peak cells below live cells")
            for c, (i, p) in state.cells.items():
                if not np.array_equal(p, stream_pts[i]):
                    out.append(f"cell {c} holds a point that is not stream point {i}")
                    break
            return out

        return Request(f"stream-ingest-{n}x{d}", run, check,
                       lambda st: {"points_seen": st.points_seen, "phase": st.phase,
                                   "R_thresh": st.R_thresh, "peak_cells": st.peak_cells,
                                   "cells": len(st.cells), "T": [i for i, _ in st.T]})

    reqs.append(stream_request(12, 20_000, 2))
    reqs.append(stream_request(16, 5_000, 3))

    pts_file = os.path.join(workdir, "cloud1000.txt")
    write_points(pts_file, uniform_cloud(seed, 13, 1000, 2))
    reqs.append(cli_request("cli-fpi", ["fpi", "--points", pts_file, "-k", "32"],
                            _cli_fpi_problems(32)))

    en = CLI_GRAPH_N
    eedges = random_connected_graph(seed, 14, en, en // 2 - 1)
    graph_file = os.path.join(workdir, f"graph{en}.txt")
    sample_file = os.path.join(workdir, f"sample{en}.txt")
    write_graph(graph_file, en, eedges)
    write_sample(sample_file, sorted(_rng(seed, 15).choice(en, size=16, replace=False)))
    reqs.append(cli_request("cli-evaluate-graph",
                            ["evaluate", "--graph", graph_file, "--sample", sample_file],
                            _cli_exact_problems))
    reqs.append(cli_request("cli-fpi-graph", ["fpi", "--graph", graph_file, "-k", "16"],
                            _cli_fpi_problems(16)))

    cloud_sample = os.path.join(workdir, "sample1000.txt")
    write_sample(cloud_sample, sorted(_rng(seed, 17).choice(1000, size=32, replace=False)))

    def cli_evaluate_points_problems(res):
        if len(res["sample"]) != 32 or not _close(res["gap_ratio"], res["R"] / res["r"]):
            return ["evaluate CLI sample size or gap ratio wrong"]
        return []

    reqs.append(cli_request("cli-evaluate-points",
                            ["evaluate", "--points", pts_file, "--sample", cloud_sample],
                            cli_evaluate_points_problems))
    return reqs


# ---------------------------------------------------------------------------
# exact-small


def exact_small(seed: int, workdir: str, refs: OracleCache) -> list:
    reqs = []

    def oracle_problems(m, res, k):
        out = []
        _, trace = gs.farthest_point_insertion(m, k)
        if res.gr_opt > trace.final.gap_ratio * (1.0 + REL):
            out.append(f"oracle GR {res.gr_opt} above FPI's {trace.final.gap_ratio}")
        if not _close(res.gr_opt, gs.gap_ratio(m, res.best_sample).gap_ratio):
            out.append("gr_opt is not the gap ratio of best_sample")
        if res.subsets_examined != comb(m.n, k):
            out.append("oracle did not examine C(n, k) subsets")
        if not (res.R_opt <= gs.gap_ratio(m, res.best_sample).R
                and res.r_opt >= gs.gap_ratio(m, res.best_sample).r):
            out.append("R_opt / r_opt not optimal against best_sample")
        return out

    def oracle_summary(res):
        return {"sample": list(res.best_sample.indices), "gr_opt": res.gr_opt,
                "R_opt": res.R_opt, "r_opt": res.r_opt,
                "subsets": res.subsets_examined}

    for tag, n in ((20, 40), (21, 50)):
        pts = uniform_cloud(seed, tag, n, 2)

        def run(ctx, pts=pts):
            m = gs.build_euclidean(gs.build_cloud(pts))
            return m, gs.optimal_gap_ratio(m, 4)

        reqs.append(Request(f"oracle-euclid-{n}-k4", run,
                            lambda res: oracle_problems(*res, 4),
                            lambda res: oracle_summary(res[1])))

    gn, gedges, _ = grid_graph(6, 7, _rng(seed, 22).permutation(42))

    def run_grid_oracle(ctx):
        m = gs.build_graph_metric(gs.build_graph(gn, gedges))
        return m, gs.optimal_gap_ratio(m, 4)

    def check_grid_oracle(res):
        m, r = res
        out = oracle_problems(m, r, 4)
        if float(gs.gap_fraction(m, r.best_sample)) != r.gr_opt:
            out.append("exact gap fraction disagrees with gr_opt")
        return out

    reqs.append(Request("oracle-grid-6x7-k4", run_grid_oracle, check_grid_oracle,
                        lambda res: oracle_summary(res[1])))

    # The n=150 cloud has one point per grid cell at eps=0.45, so the coreset
    # keeps them all and the C(reps, 3) search does the same work for every
    # seed.  On uniform points the kept count varied from 134 to 147, and
    # the search time with its cube.
    approx_inputs = ((23, 100, 0.3, uniform_cloud(seed, 23, 100, 2)),
                     (24, 150, 0.45, jittered_lattice(seed, 24, 15, 10, repeats=3)))
    for tag, n, eps, pts in approx_inputs:

        def run(ctx, pts=pts, eps=eps):
            return gs.approx_sample(gs.build_cloud(pts), 3, eps)

        def check(res, pts=pts, eps=eps, key=(tag, n)):
            sample, rep, params, grid = res
            out = []
            if len(sample.indices) != 3 or grid.size > len(pts):
                out.append("wrong sample size or coreset larger than the cloud")
            # the (1+eps) guarantee against the exhaustive full-cloud optimum
            m, opt = refs.get(key, pts, 3)
            if rep != gs.gap_ratio(m, sample):
                out.append("report is not the full-cloud gap report of the sample")
            if rep.gap_ratio > (1.0 + eps) * opt.gr_opt * (1.0 + REL):
                out.append(f"GR {rep.gap_ratio} above (1+eps) * {opt.gr_opt}")
            return out

        reqs.append(Request(f"approx-{n}-k3-eps{eps}", run, check,
                            lambda res: {"sample": list(res[0].indices),
                                         **report_summary(res[1]),
                                         "reps": res[3].representatives(),
                                         "eps2": res[2].eps2}))

    spts = uniform_cloud(seed, 25, 120, 2)

    def run_stream(ctx):
        state = gs.stream_init(spts, 3, 0.1)
        return (state,) + gs.stream_finalize(state)

    def check_stream(res):
        state, sample, rep, grid = res
        out = []
        m, opt = refs.get("stream", spts, 3)
        gr_full = gs.gap_ratio(m, sample).gap_ratio
        if gr_full > 1.1 * opt.gr_opt * (1.0 + REL):
            out.append(f"stream GR {gr_full} above (1+eps) * {opt.gr_opt}")
        T = np.array([p for _, p in state.T])
        R_T = float(np.sqrt(((spts[:, None] - T[None]) ** 2).sum(axis=-1)).min(axis=1).max())
        if R_T > 8.0 * opt.R_opt * (1.0 + REL):
            out.append(f"center cover {R_T} above 8 R_opt")
        if state.points_seen != len(spts) or grid.size != len(state.cells):
            out.append("stream state lost points or cells")
        return out

    reqs.append(Request("stream-finalize-120", run_stream, check_stream,
                        lambda res: {"sample": list(res[1].indices),
                                     **report_summary(res[2]),
                                     "cells": res[3].size, "phase": res[0].phase}))

    rn, redges, _ = grid_graph(4, 5, _rng(seed, 26).permutation(20))

    def closed_hits(D):
        adj = np.eye(rn, dtype=np.int64)
        for u, v in redges:
            adj[u, v] = adj[v, u] = 1
        return adj[:, list(D)].sum(axis=1)

    def run_eds(ctx):
        return gs.check_eds_equivalence(gs.build_graph(rn, redges), 4)

    def check_eds(res):
        exists, certs = res
        w = certs["efficient_dominating"]
        out = []
        if exists != (w is not None) or certs["subsets_examined"] != comb(rn, 4):
            out.append("certificate fields disagree")
        if w is not None and not (closed_hits(w) == 1).all():
            out.append(f"{w} is not an efficient dominating set")
        return out

    reqs.append(Request("reduce-eds-4x5-k4", run_eds, check_eds,
                        lambda res: {"answer": res[0], **{
                            k: list(v) if isinstance(v, tuple) else v
                            for k, v in res[1].items()}}))

    def run_genmet(ctx):
        return gs.check_genmet_equivalence(gs.build_graph(rn, redges), 4)

    def check_genmet(res):
        exists, certs = res
        out = []
        for key in ("independent_dominating", "gap_ratio_one"):
            w = certs[key]
            if exists != (w is not None):
                out.append(f"{key} witness disagrees with the answer")
            elif w is not None:
                D = set(w)
                if any(u in D and v in D for u, v in redges) or not (closed_hits(w) >= 1).all():
                    out.append(f"{key} witness {w} is not independent dominating")
        return out

    reqs.append(Request("reduce-genmet-4x5-k4", run_genmet, check_genmet,
                        lambda res: {"answer": res[0], **{
                            k: list(v) if isinstance(v, tuple) else v
                            for k, v in res[1].items()}}))

    max_n = 6
    all_graphs = sum(1 << (n * (n - 1) // 2) for n in range(3, max_n + 1))
    sweeps = (  # function, graph-count field, graph orders it covers
        ("sweep_fpi_guarantees", "graphs", range(2, max_n + 1)),
        ("sweep_fpi_vs_oracle", "graphs", range(2, max_n + 1)),
        ("sweep_graph_lower_bound", "graphs", range(3, max_n + 1)),
        ("sweep_reduction_certificates", "eds_graphs", range(3, max_n + 1)),
    )

    def run_sweeps(ctx):
        return {fn: getattr(gs, fn)(max_n=max_n) for fn, _, _ in sweeps}

    def check_sweeps(res):
        out = []
        for fn, field, orders in sweeps:
            want = sum(CONNECTED_LABELLED[n] for n in orders)
            if res[fn]["violations"]:
                out.append(f"{fn}: {len(res[fn]['violations'])} violations")
            if res[fn][field] != want:
                out.append(f"{fn}: {res[fn][field]} graphs swept, {want} connected")
        if res["sweep_reduction_certificates"]["genmet_graphs"] != all_graphs:
            out.append("reduction sweep skipped simple graphs")
        return out

    reqs.append(Request(f"sweeps-{max_n}", run_sweeps, check_sweeps, lambda res: res))

    ogn, ogedges, _ = grid_graph(5, 6, _rng(seed, 27).permutation(30))
    oracle_file = os.path.join(workdir, "grid5x6.txt")
    write_graph(oracle_file, ogn, ogedges)

    def cli_oracle_problems(res):
        if res["subsets_examined"] != comb(ogn, 3):
            return ["oracle CLI examined the wrong number of subsets"]
        if Fraction(*res["exact_ratio"]) != Fraction(res["gap_ratio"]):
            return ["oracle CLI exact ratio disagrees"]
        return []

    reqs.append(cli_request("cli-oracle-graph",
                            ["oracle", "--graph", oracle_file, "-k", "3"],
                            cli_oracle_problems))

    cpts = uniform_cloud(seed, 28, 60, 2)
    coreset_file = os.path.join(workdir, "cloud60.txt")
    write_points(coreset_file, cpts)

    def cli_coreset_problems(res):
        m, opt = refs.get("cli-coreset", cpts, 3)
        if res["gap_ratio"] > 1.3 * opt.gr_opt * (1.0 + REL):
            return ["coreset CLI sample outside (1+eps) of optimal"]
        return []

    reqs.append(cli_request("cli-coreset",
                            ["coreset", "--points", coreset_file, "-k", "3",
                             "--epsilon", "0.3", "--seed", "1"],
                            cli_coreset_problems))

    stream_file = os.path.join(workdir, "stream80.txt")
    write_points(stream_file, uniform_cloud(seed, 29, 80, 2))
    reqs.append(cli_request(
        "cli-stream", ["stream", "--points", stream_file, "-k", "3", "--epsilon", "0.1"],
        lambda res: [] if res["state"]["points_seen"] == 80 and len(res["sample"]) == 3
        else ["stream CLI lost points"]))

    eds_file = os.path.join(workdir, "grid4x5.txt")
    write_graph(eds_file, rn, redges)
    reqs.append(cli_request(
        "cli-reduce-eds", ["reduce", "--graph", eds_file, "--claim", "eds", "-k", "4"],
        lambda res: [] if res["certificates"]["subsets_examined"] == comb(rn, 4)
        else ["reduce CLI examined the wrong number of subsets"]))

    reqs.append(cli_request(
        "cli-certify", ["certify", "--claim", "graph-floor", "--max-n", "5"],
        lambda res: [] if not res["violations"]
        and res["graphs"] == sum(CONNECTED_LABELLED[n] for n in range(3, 6))
        else ["certify CLI found violations or missed graphs"]))

    reqs.append(cli_request(
        "cli-bounds", ["bounds", "--space", "unit-square", "-k", "16"],
        lambda res: [] if _close(res["value"], 2 / sqrt(3) - 2 ** 1.5 / 3 ** 0.75 / 4)
        else ["unit-square floor is wrong"]))
    return reqs


# ---------------------------------------------------------------------------
# planar-audit

# The incremental Delaunay is pure Python; under tracemalloc n=400 took
# 13.5 s of the memory pass.  The CLI file is 60 points for the same reason.
DELAUNAY_N = 200


def planar_audit(seed: int, workdir: str, refs: OracleCache) -> list:
    reqs = []
    clouds = {n: uniform_cloud(seed, 40 + i, n, 2)
              for i, n in enumerate((50, 100, 150, DELAUNAY_N, 800, 75, 400))}

    for n in (50, 75, 100, 150):
        pts = clouds[n]

        def run(ctx, pts=pts):
            return gs.gap_report_unit_square(gs.build_cloud(pts))

        reqs.append(Request(f"square-{n}", run,
                            lambda rep, pts=pts: square_problems(rep, pts),
                            lambda rep: {"r": rep.r, "R": rep.R,
                                         "gap_ratio": rep.gap_ratio,
                                         "closest_pair": list(rep.closest_pair),
                                         "farthest_point": [float(v) for v in rep.farthest_point],
                                         "kind": rep.candidate_kind}))

    for n in (50, 100, 150):
        pts = clouds[n]

        def run(ctx, pts=pts):
            return gs.delaunay_angle_audit(gs.build_cloud(pts))

        def check(rep):
            out = [f"{len(rep.violations)} interior triangles break the angle bound"] \
                if rep.violations else []
            if rep.theta_bound != asin(min(1.0, 1.0 / rep.gap_ratio)):
                out.append("angle bound is not arcsin(1/g)")
            return out

        reqs.append(Request(f"audit-{n}", run, check,
                            lambda rep: {"gap_ratio": rep.gap_ratio,
                                         "R": rep.covering_radius,
                                         "theta": rep.theta_bound,
                                         "interior": list(rep.interior_triangles),
                                         "min_angle": rep.min_interior_angle}))

    for n in (100, DELAUNAY_N):
        dpts = clouds[n]
        reqs.append(Request(f"delaunay-{n}",
                            lambda ctx, dpts=dpts: gs.delaunay(gs.build_cloud(dpts)),
                            lambda tri, dpts=dpts: delaunay_problems(tri, dpts),
                            lambda tri: {"triangles": tri.triangles.tolist()}))

    for n in (400, 800):
        spts = clouds[n]
        reqs.append(Request(f"discrepancy-{n}",
                            lambda ctx, spts=spts: gs.star_discrepancy(gs.build_cloud(spts)),
                            lambda rep, spts=spts: discrepancy_problems(rep, spts),
                            discrepancy_summary))

    bpts = clouds[100]

    def run_bound(ctx):
        cloud = gs.build_cloud(bpts)
        sq = gs.gap_report_unit_square(cloud)
        return gs.star_discrepancy(cloud), gs.gap_based_discrepancy_bound(cloud, sq.r, sq.R)

    def check_bound(res):
        rep, bound = res
        out = discrepancy_problems(rep, bpts)
        if bound < rep.d_star:
            out.append(f"gap-based bound {bound} below d_star {rep.d_star}")
        return out

    reqs.append(Request("discrepancy-bound-100", run_bound, check_bound,
                        lambda res: {**discrepancy_summary(res[0]), "bound": res[1]}))

    cpts = uniform_cloud(seed, 45, 60, 2)
    cli_file = os.path.join(workdir, "square60.txt")
    write_points(cli_file, cpts)

    def cli_square_problems(res):
        return [] if _close(res["gap_ratio"], res["R"] / res["r"]) else ["square CLI GR"]

    reqs.append(cli_request("cli-square", ["square", "--points", cli_file],
                            cli_square_problems))
    reqs.append(cli_request(
        "cli-delaunay-audit", ["delaunay-audit", "--points", cli_file],
        lambda res: [] if not res["violations"] else ["delaunay-audit CLI violations"]))
    reqs.append(cli_request(
        "cli-discrepancy", ["discrepancy", "--points", cli_file],
        lambda res: [] if res["bound"]["value"] >= res["d_star"]
        else ["discrepancy CLI bound below d_star"]))
    return reqs


WORKLOADS = {
    "greedy-large": greedy_large,
    "exact-small": exact_small,
    "planar-audit": planar_audit,
}
