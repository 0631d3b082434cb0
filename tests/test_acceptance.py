"""Acceptance gate: ten desk-scale criteria, one PASS/FAIL line each.

Each test prints its verdict line straight to the real stdout so the line
survives pytest's capture, then asserts.  Scales and tolerances follow the
package contract: exact identities are checked bit-for-bit, floating
comparisons carry the stated slack, exhaustive graph checks use integer
arithmetic only.
"""

import subprocess
import sys
import time
from math import ceil, sqrt

import numpy as np

from gapsampler import (analytic_bounds, approx_sample, build_cloud,
                        build_euclidean, check_eds_equivalence,
                        check_genmet_equivalence, covering_radius_unit_square,
                        delaunay_angle_audit, farthest_point_insertion,
                        fpi_ratio_bound, gap_based_discrepancy_bound,
                        gap_ratio, gap_report_unit_square,
                        optimal_gap_ratio, star_discrepancy,
                        stream_finalize, stream_ingest, stream_init,
                        sweep_fpi_guarantees, sweep_fpi_vs_oracle,
                        sweep_graph_lower_bound, sweep_reduction_certificates)
from gapsampler.errors import GapError

from graph_masks import graph_from_mask

SIZE_C = 1.0  # frozen constant for the coreset-size regression bounds


def announce(capfd, num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"\nCRITERION {num}: {verdict} -- {detail}", flush=True)


def euclidean_instances(count, seed, n_lo, n_hi, dims):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        d = int(rng.choice(dims))
        scale = float(rng.uniform(0.5, 20.0))
        out.append(rng.random((n, d)) * scale)
    return out


def coreset_instances():
    return euclidean_instances(100, 20260814, 6, 40, (2,))


# ---------------------------------------------------------------------------


def test_criterion_01_fpi_guarantees(capfd):
    t0 = time.perf_counter()
    bad = 0
    steps = 0
    rng = np.random.default_rng(1)
    for pts in euclidean_instances(500, 11, 5, 200, (1, 2, 3)):
        k = min(int(rng.integers(2, 11)), pts.shape[0])
        m = build_euclidean(build_cloud(pts))
        _, trace = farthest_point_insertion(m, k)
        if trace.R_init / trace.r_init > 2.0 + 1e-12:
            bad += 1
        prev_R = trace.R_init
        for step in trace.steps:
            steps += 1
            if step.r_after != step.R_before / 2.0:   # exact halving
                bad += 1
            if step.R_after > prev_R:
                bad += 1
            if step.R_after / step.r_after > 2.0 + 1e-12:
                bad += 1
            prev_R = step.R_after
    sweep = sweep_fpi_guarantees(max_n=7)
    ok = bad == 0 and sweep["violations"] == []
    announce(capfd, 1, ok,
             f"500 Euclidean runs ({steps} steps) + {sweep['graphs']} "
             f"connected graphs n<=7, {bad + len(sweep['violations'])} "
             f"violations ({time.perf_counter() - t0:.1f}s)")
    assert ok


def test_criterion_02_fpi_vs_oracle(capfd):
    t0 = time.perf_counter()
    bad = 0
    rng = np.random.default_rng(2)
    worst = 0.0
    for pts in euclidean_instances(200, 12, 5, 25, (1, 2, 3)):
        k = int(rng.integers(2, 4))
        m = build_euclidean(build_cloud(pts))
        sample, _ = farthest_point_insertion(m, k)
        gr_fpi = gap_ratio(m, sample.indices).gap_ratio
        gr_opt = optimal_gap_ratio(m, k).gr_opt
        worst = max(worst, gr_fpi / gr_opt)
        if gr_fpi > fpi_ratio_bound(gr_opt) * gr_opt + 1e-9:
            bad += 1
        if gr_fpi > 3.0 * gr_opt + 1e-9:
            bad += 1
    sweep = sweep_fpi_vs_oracle(max_n=7)
    worst = max(worst, sweep["worst_ratio"])
    ok = bad == 0 and sweep["violations"] == [] and worst <= 3.0 + 1e-9
    announce(capfd, 2, ok,
             f"200 Euclidean + {sweep['graphs']} graphs n<=7 at k in (2,3); "
             f"worst GR_FPI/GR_OPT = {worst:.6f} <= 3 "
             f"({time.perf_counter() - t0:.1f}s)")
    assert ok


def test_criterion_03_static_coreset(capfd):
    t0 = time.perf_counter()
    bad = 0
    checks = 0
    max_size_ratio = 0.0
    for pts in coreset_instances():
        cloud = build_cloud(pts)
        m = build_euclidean(cloud)
        opts = {k: optimal_gap_ratio(m, k).gr_opt for k in (2, 3)}
        for k in (2, 3):
            for eps in (0.1, 0.3, 0.45):
                _, rep, params, grid = approx_sample(cloud, k, eps, seed=0)
                checks += 1
                if rep.gap_ratio > (1.0 + eps) * opts[k] + 1e-9:
                    bad += 1
                cap = SIZE_C * k * ceil(1.0 / params.eps1) ** 2
                max_size_ratio = max(max_size_ratio, grid.size / cap)
                if grid.size > cap:
                    bad += 1
    ok = bad == 0
    announce(capfd, 3, ok,
             f"100 instances x 6 (k, eps) combos = {checks} runs within "
             f"(1+eps) of optimal; size <= {SIZE_C}*k*ceil(1/eps1)^2, max "
             f"fill {max_size_ratio:.3f} ({time.perf_counter() - t0:.1f}s)")
    assert ok


def test_criterion_04_streaming_coreset(capfd):
    t0 = time.perf_counter()
    bad = 0
    checks = 0
    max_fill = 0.0
    for pts in coreset_instances():
        cloud = build_cloud(pts)
        m = build_euclidean(cloud)
        opts = {k: optimal_gap_ratio(m, k) for k in (2, 3)}
        for k in (2, 3):
            for eps in (0.05, 0.1):
                state = stream_init(pts[:k], k, eps)
                for x in pts[k:]:
                    stream_ingest(state, x)
                sample, _, _ = stream_finalize(state)
                checks += 1
                gr_full = gap_ratio(m, sample.indices).gap_ratio
                if gr_full > (1.0 + eps) * opts[k].gr_opt + 1e-9:
                    bad += 1
                R_T = max(min(float(np.linalg.norm(x - p))
                              for _, p in state.T) for x in pts)
                if R_T > 8.0 * opts[k].R_opt + 1e-9:
                    bad += 1
                cap = SIZE_C * k * ceil(1.0 / state.params.eps3) ** 2
                max_fill = max(max_fill, state.peak_cells / cap)
                if state.peak_cells > cap:
                    bad += 1
    ok = bad == 0
    announce(capfd, 4, ok,
             f"100 instances x 4 (k, eps) combos = {checks} streams within "
             f"(1+eps); R_T <= 8*R_OPT; peak cells <= {SIZE_C}*k*"
             f"ceil(1/eps3)^2, max fill {max_fill:.2e} "
             f"({time.perf_counter() - t0:.1f}s)")
    assert ok


def test_criterion_05_graph_lower_bound(capfd):
    t0 = time.perf_counter()
    out = sweep_graph_lower_bound(max_n=7)
    ok = (out["violations"] == []
          and out["samples_checked"] == 223598480
          and out["equality_cases"] == 698412)
    announce(capfd, 5, ok,
             f"{out['samples_checked']} samples over {out['graphs']} "
             f"connected graphs n<=7: GR >= 2/3, {out['equality_cases']} "
             f"equalities all at (r, R) = (3/2, 1) "
             f"({time.perf_counter() - t0:.1f}s)")
    assert ok


def test_criterion_06_reduction_certificates(capfd):
    t0 = time.perf_counter()
    sweep = sweep_reduction_certificates(max_n=6)
    genmet_checks = 0
    eds_checks = 0
    for n in (3, 4, 5, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_mask(n, mask, require_connected=False)
            connected = None
            for k in range(2, n):
                check_genmet_equivalence(g, k)  # raises on disagreement
                genmet_checks += 1
                if connected is None:
                    try:
                        connected = graph_from_mask(n, mask)
                    except GapError:
                        connected = False
                if connected:
                    check_eds_equivalence(connected, k)
                    eds_checks += 1
    ok = (sweep["violations"] == [] and genmet_checks == 134280
          and eds_checks == 109080)
    announce(capfd, 6, ok,
             f"scalar certifiers: {genmet_checks} genmet + {eds_checks} eds "
             f"checks over all graphs n<=6, batched sweep agrees "
             f"({time.perf_counter() - t0:.1f}s)")
    assert ok


def test_criterion_07_unit_square_floor(capfd):
    t0 = time.perf_counter()
    bad = 0
    rng = np.random.default_rng(7)
    for k in range(2, 13):
        floor = analytic_bounds("unit-square", k)
        for _ in range(50):
            rep = gap_report_unit_square(build_cloud(rng.random((k, 2))))
            if rep.gap_ratio < floor - 1e-9:
                bad += 1
    ok = bad == 0
    announce(capfd, 7, ok,
             f"550 configurations, k = 2..12: GR >= 2/sqrt(3) - C/sqrt(k), "
             f"{bad} violations ({time.perf_counter() - t0:.1f}s)")
    assert ok


def test_criterion_08_delaunay_audit(capfd):
    t0 = time.perf_counter()
    bad_audit = 0
    worst_gap = 0.0
    axis = np.arange(1001) / 1000.0
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(3, 61))
        pts = rng.random((n, 2))
        audit = delaunay_angle_audit(build_cloud(pts))
        if audit.violations:
            bad_audit += 1
        R, _, _ = covering_radius_unit_square(build_cloud(pts))
        p2 = (pts * pts).sum(axis=1)
        best2 = 0.0
        for lo in range(0, 1001, 112):
            rows = axis[lo:lo + 112]
            gx, gy = np.meshgrid(rows, axis, indexing="ij")
            cand = np.stack([gx.ravel(), gy.ravel()], axis=1)
            d2 = ((cand * cand).sum(axis=1)[:, None] + p2[None, :]
                  - 2.0 * (cand @ pts.T))
            best2 = max(best2, float(d2.min(axis=1).max()))
        grid_R = sqrt(max(best2, 0.0))
        gap = R - grid_R
        worst_gap = max(worst_gap, abs(gap))
        if not -1e-9 <= gap <= 2e-3:
            bad_audit += 1
    ok = bad_audit == 0
    announce(capfd, 8, ok,
             f"100 configurations n<=60: zero interior-angle violations; "
             f"largest-empty-circle vs 1e-3 grid within 2e-3 (worst "
             f"{worst_gap:.2e}) ({time.perf_counter() - t0:.1f}s)")
    assert ok


def test_criterion_09_discrepancy_chain(capfd):
    t0 = time.perf_counter()
    bad = 0
    worst_gap = 0.0
    gaxis = np.arange(1, 1001) / 1000.0
    area = gaxis[:, None] * gaxis[None, :]
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(5, 61))
        pts = rng.random((n, 2))
        cloud = build_cloud(pts)
        d_star = star_discrepancy(cloud).d_star
        rep = gap_report_unit_square(cloud)
        bound = gap_based_discrepancy_bound(cloud, rep.r, rep.R)
        if d_star > bound + 1e-9:
            bad += 1
        le_x = (pts[None, :, 0] <= gaxis[:, None]).astype(np.float64)
        le_y = (pts[None, :, 1] <= gaxis[:, None]).astype(np.float64)
        est = float(np.abs(le_x @ le_y.T / n - area).max())
        worst_gap = max(worst_gap, abs(d_star - est))
        if abs(d_star - est) > 3e-3:
            bad += 1
    ok = bad == 0
    announce(capfd, 9, ok,
             f"100 configurations: D* <= gap bound and matches the 1e-3 "
             f"grid estimate (worst gap {worst_gap:.2e}) "
             f"({time.perf_counter() - t0:.1f}s)")
    assert ok


def test_criterion_10_cli_determinism(tmp_path, capfd):
    t0 = time.perf_counter()
    points = tmp_path / "pts.txt"
    points.write_text("".join(f"{i}\n" for i in range(10)))
    square = tmp_path / "sq.txt"
    square.write_text("0 0\n1 0\n0 1\n1 1\n0.5 0.5\n")
    graph = tmp_path / "g.edges"
    graph.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    sample = tmp_path / "s.txt"
    sample.write_text("0\n3\n")
    invocations = [
        ("evaluate", "--points", str(points), "--sample", str(sample)),
        ("fpi", "--points", str(points), "-k", "3"),
        ("coreset", "--points", str(points), "-k", "2", "--epsilon", "0.3",
         "--seed", "7"),
        ("stream", "--points", str(points), "-k", "2", "--epsilon", "0.1"),
        ("oracle", "--graph", str(graph), "-k", "2", "--exact"),
        ("square", "--points", str(square)),
        ("delaunay-audit", "--points", str(square)),
        ("discrepancy", "--points", str(square)),
        ("reduce", "--graph", str(graph), "--claim", "eds", "-k", "2"),
        ("bounds", "--space", "unit-square", "-k", "100"),
        ("certify", "--claim", "fpi-guarantees", "--max-n", "4"),
    ]
    bad = 0
    for args in invocations:
        runs = [subprocess.run([sys.executable, "-m", "gapsampler", *args],
                               capture_output=True) for _ in range(2)]
        if not (runs[0].returncode == runs[1].returncode == 0
                and runs[0].stdout == runs[1].stdout):
            bad += 1
    ok = bad == 0
    announce(capfd, 10, ok,
             f"{len(invocations)} commands replayed byte-identically "
             f"({time.perf_counter() - t0:.1f}s)")
    assert ok
