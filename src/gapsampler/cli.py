"""Command-line surface: data ingestion, algorithm invocation, reports.

Every subcommand prints a single deterministic JSON report on standard
output and exits 0.  Domain failures exit 1 with one machine-parsable line
``error: <code>: <message>`` on standard error; usage errors exit 2 (via
argparse).  Identical inputs and flags produce byte-identical reports;
--timing adds a wall_time_ms field and is therefore the one flag that
deliberately breaks reproducibility of the bytes.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional

from . import certify as certify_mod
from .coreset import ENUM_GUARD, approx_sample
from .errors import GapError
from .fileio import dumps_report, read_graph, read_points, read_sample
from .fpi import farthest_point_insertion
from .geometry import delaunay_angle_audit, gap_report_unit_square
from .measures import analytic_bounds, gap_based_discrepancy_bound, star_discrepancy
from .metric import (_exact_fraction, build_cloud, build_euclidean, build_graph,
                     build_graph_metric, gap_ratio, make_sample)
from .oracle import (DEFAULT_GUARD, check_eds_equivalence,
                     check_genmet_equivalence, optimal_gap_ratio)
from .streaming import stream_finalize, stream_init


@dataclass
class Outcome:
    result: dict
    digest: dict
    warnings: List[str] = field(default_factory=list)
    verbose: List[str] = field(default_factory=list)
    # (code, message) when the command ran but the check it performs failed
    failure: Optional[tuple] = None


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise GapError("unreadable-file",
                       f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError:
        raise GapError("unreadable-file", f"{path}: not UTF-8 text") from None


def _load_cloud(path: str):
    cloud = build_cloud(read_points(_read_text(path)))
    digest = {"sites": cloud.n, "dim": cloud.dim}
    warnings = []
    if cloud.duplicates_removed:
        warnings.append(f"dropped {cloud.duplicates_removed} duplicate points")
    return cloud, digest, warnings


def _load_metric(args):
    """Metric from --points or --graph (exactly one)."""
    if args.points:
        cloud, digest, warnings = _load_cloud(args.points)
        return build_euclidean(cloud), digest, warnings
    n, edges, weighted = read_graph(_read_text(args.graph))
    digest = {"vertices": n, "edges": len(edges), "weighted": weighted}
    return build_graph_metric(build_graph(n, edges)), digest, []


def _exact_fields(metric, report, args) -> dict:
    """exact flag plus the rational gap ratio where available/requested;
    ``report()`` makes the sample's GapReport, called only for that ratio."""
    out = {"exact": metric.exact}
    if args.float_only:
        return out
    if args.exact or metric.exact:
        frac = _exact_fraction(metric, report)  # raises exact-unavailable
        out["exact_ratio"] = [int(frac.numerator), int(frac.denominator)]
        out["exact"] = True
    return out


def _report_fields(sample, rep) -> dict:
    """The sample and its gap report, in the report's field order."""
    return {"sample": list(sample.indices),
            "r": rep.r, "R": rep.R, "gap_ratio": rep.gap_ratio,
            "closest_pair": list(rep.closest_pair),
            "farthest_site": rep.farthest_site}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_evaluate(args) -> Outcome:
    metric, digest, warnings = _load_metric(args)
    sample = make_sample(read_sample(_read_text(args.sample)), metric.n)
    rep = gap_ratio(metric, sample)
    result = _report_fields(sample, rep)
    result.update(_exact_fields(metric, lambda: rep, args))
    return Outcome(result, digest, warnings,
                   [f"r={rep.r:g} R={rep.R:g} gap_ratio={rep.gap_ratio:g}"])


def _cmd_fpi(args) -> Outcome:
    metric, digest, warnings = _load_metric(args)
    sample, trace = farthest_point_insertion(metric, args.k)
    rep = trace.final
    result = _report_fields(sample, rep)
    result["trace"] = {
        "init_pair": list(trace.init_pair),
        "r_init": trace.r_init, "R_init": trace.R_init,
        "steps": [{"size_before": s.size_before, "chosen": s.chosen,
                   "R_before": s.R_before, "r_after": s.r_after,
                   "R_after": s.R_after} for s in trace.steps],
    }
    result.update(_exact_fields(metric, lambda: rep, args))
    return Outcome(result, digest, warnings,
                   [f"k={args.k} gap_ratio={rep.gap_ratio:g}"])


def _cmd_coreset(args) -> Outcome:
    cloud, digest, warnings = _load_cloud(args.points)
    sample, rep, params, grid = approx_sample(
        cloud, args.k, args.epsilon, seed=args.seed, guard=args.guard)
    result = {
        "sample": list(sample.indices),
        "r": rep.r, "R": rep.R, "gap_ratio": rep.gap_ratio,
        "params": None if params is None else {
            "eps": params.eps, "eps1": params.eps1, "eps2": params.eps2,
            "R_P1": params.R_P1},
        "coreset": None if grid is None else {
            "size": grid.size, "cell_side": grid.cell_side},
    }
    size = "none (k = n shortcut)" if grid is None else str(grid.size)
    return Outcome(result, digest, warnings,
                   [f"coreset size {size}, gap_ratio={rep.gap_ratio:g}"])


def _cmd_stream(args) -> Outcome:
    # the points file is replayed as the stream, one point per line
    points = read_points(_read_text(args.points))
    state = stream_init(points, args.k, args.epsilon)
    sample, rep, grid = stream_finalize(state, guard=args.guard)
    digest = {"sites": state.points_seen, "dim": state.params.d}
    result = {
        "sample": list(sample.indices),
        "coreset_r": rep.r, "coreset_R": rep.R,
        "coreset_gap_ratio": rep.gap_ratio,
        "params": {"eps": state.params.eps, "eps1": state.params.eps1,
                   "eps3": state.params.eps3},
        "state": {"points_seen": state.points_seen, "phases": state.phase,
                  "R_thresh": state.R_thresh, "peak_cells": state.peak_cells,
                  "coreset_size": len(grid.cells)},
    }
    return Outcome(result, digest, [],
                   [f"{state.points_seen} points, {state.phase} doublings, "
                    f"{len(grid.cells)} cells kept"])


def _cmd_oracle(args) -> Outcome:
    metric, digest, warnings = _load_metric(args)
    res = optimal_gap_ratio(metric, args.k, guard=args.guard)
    result = {
        "sample": list(res.best_sample.indices),
        "gap_ratio": res.gr_opt,
        "R_opt": res.R_opt, "r_opt": res.r_opt,
        "subsets_examined": res.subsets_examined,
    }
    result.update(_exact_fields(metric, lambda: gap_ratio(metric, res.best_sample), args))
    return Outcome(result, digest, warnings,
                   [f"C(n, k) = {res.subsets_examined} subsets under the guard, "
                    f"best gap_ratio={res.gr_opt:g}"])


def _cmd_square(args) -> Outcome:
    cloud, digest, warnings = _load_cloud(args.points)
    rep = gap_report_unit_square(cloud)
    result = {
        "r": rep.r, "R": rep.R, "gap_ratio": rep.gap_ratio,
        "closest_pair": list(rep.closest_pair),
        "farthest_point": [float(rep.farthest_point[0]),
                           float(rep.farthest_point[1])],
        "candidate_kind": rep.candidate_kind,
    }
    return Outcome(result, digest, warnings,
                   [f"R={rep.R:g} at {rep.candidate_kind}"])


def _cmd_delaunay_audit(args) -> Outcome:
    cloud, digest, warnings = _load_cloud(args.points)
    rep = delaunay_angle_audit(cloud)
    result = {
        "gap_ratio": rep.gap_ratio,
        "covering_radius": rep.covering_radius,
        "theta_bound": rep.theta_bound,
        "interior_triangles": list(rep.interior_triangles),
        "min_interior_angle": rep.min_interior_angle,
        "violations": [{"triangle": int(t), "min_angle": lo, "max_angle": hi}
                       for t, lo, hi in rep.violations],
    }
    failure = None
    if rep.violations:
        failure = ("audit-failed",
                   f"{len(rep.violations)} interior triangles break the angle bound")
    return Outcome(result, digest, warnings,
                   [f"{len(rep.interior_triangles)} interior triangles, "
                    f"{len(rep.violations)} violations"], failure)


def _cmd_discrepancy(args) -> Outcome:
    cloud, digest, warnings = _load_cloud(args.points)
    rep = star_discrepancy(cloud)
    result = {
        "n": rep.n,
        "d_star": rep.d_star,
        "witness": {"x": rep.witness[0], "y": rep.witness[1],
                    "kind": rep.witness[2]},
    }
    if cloud.n >= 2:
        square = gap_report_unit_square(cloud)
        bound = gap_based_discrepancy_bound(cloud, square.r, square.R)
        result["bound"] = {"value": bound, "r": square.r, "R": square.R}
    else:
        result["bound"] = None
    return Outcome(result, digest, warnings, [f"d_star={rep.d_star:g}"])


def _cmd_reduce(args) -> Outcome:
    n, edges, weighted = read_graph(_read_text(args.graph))
    g = build_graph(n, edges, require_connected=False)
    digest = {"vertices": n, "edges": len(edges), "weighted": weighted}
    certify = (check_genmet_equivalence if args.claim == "genmet"
               else check_eds_equivalence)
    answer, certs = certify(g, args.k, guard=args.guard)
    result = {
        "claim": args.claim,
        "answer": answer,
        "certificates": {key: (list(v) if isinstance(v, tuple) else v)
                         for key, v in certs.items()},
    }
    return Outcome(result, digest, [], [f"{args.claim}: {answer}"])


def _cmd_bounds(args) -> Outcome:
    value = analytic_bounds(args.space, args.k)
    result = {"space": args.space, "k": args.k, "value": value}
    return Outcome(result, {}, [], [f"{args.space}: {value:g}"])


_SWEEPS = {
    "fpi-guarantees": certify_mod.sweep_fpi_guarantees,
    "fpi-vs-oracle": certify_mod.sweep_fpi_vs_oracle,
    "graph-floor": certify_mod.sweep_graph_lower_bound,
    "reductions": certify_mod.sweep_reduction_certificates,
}


def _cmd_certify(args) -> Outcome:
    summary = _SWEEPS[args.claim](max_n=args.max_n)
    result = {"claim": args.claim, "max_n": args.max_n}
    result.update(summary)
    failure = None
    if summary["violations"]:
        failure = ("certification-failed",
                   f"{len(summary['violations'])} violations in {args.claim}")
    return Outcome(result, {}, [],
                   [f"{args.claim} up to n={args.max_n}: "
                    f"{len(summary['violations'])} violations"], failure)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true",
                        help="human summary on standard error")
    common.add_argument("--timing", action="store_true",
                        help="add wall_time_ms to the report (breaks byte "
                             "reproducibility by design)")

    parser = argparse.ArgumentParser(
        prog="gapsampler",
        description="Gap-ratio evaluation, greedy sampling, coresets, and "
                    "uniformity audits over finite metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, points=False, graph=False, k=None, eps=False,
            guard=None, seed=False, exact=False):
        p = sub.add_parser(name, parents=[common], help=help_)
        if points and graph:
            grp = p.add_mutually_exclusive_group(required=True)
            grp.add_argument("--points", metavar="FILE")
            grp.add_argument("--graph", metavar="FILE")
        elif points:
            p.add_argument("--points", metavar="FILE", required=True)
        elif graph:
            p.add_argument("--graph", metavar="FILE", required=True)
        if k == "required":
            p.add_argument("-k", type=int, required=True)
        elif k == "optional":
            p.add_argument("-k", type=int, default=None)
        if eps:
            p.add_argument("--epsilon", type=float, required=True)
        if guard is not None:
            p.add_argument("--guard", type=int, default=guard,
                           help="subset-enumeration cap (default %(default)s)")
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if exact:
            grp = p.add_mutually_exclusive_group()
            grp.add_argument("--exact", action="store_true",
                             help="require the exact rational gap ratio")
            grp.add_argument("--float", dest="float_only", action="store_true",
                             help="suppress exact fields")
        p.set_defaults(func=func)
        return p

    add("evaluate", _cmd_evaluate, "gap report of a given sample",
        points=True, graph=True, exact=True).add_argument(
            "--sample", metavar="FILE", required=True)
    add("fpi", _cmd_fpi, "farthest-point insertion sample",
        points=True, graph=True, k="required", exact=True)
    add("coreset", _cmd_coreset, "(1+eps)-approximate sample via grid coreset",
        points=True, k="required", eps=True, guard=ENUM_GUARD, seed=True)
    add("stream", _cmd_stream, "one-pass streaming coreset sample",
        points=True, k="required", eps=True, guard=ENUM_GUARD)
    add("oracle", _cmd_oracle, "exact optimal gap ratio",
        points=True, graph=True, k="required", guard=DEFAULT_GUARD, exact=True)
    add("square", _cmd_square, "gap report against the continuous unit square",
        points=True)
    add("delaunay-audit", _cmd_delaunay_audit,
        "interior-angle audit of the Delaunay triangulation", points=True)
    add("discrepancy", _cmd_discrepancy,
        "exact star discrepancy and its gap-based bound", points=True)
    p = add("reduce", _cmd_reduce, "certify a domination reduction",
            graph=True, k="required", guard=DEFAULT_GUARD)
    p.add_argument("--claim", choices=["genmet", "eds"], required=True)
    p = add("bounds", _cmd_bounds, "closed-form gap-ratio floors",
            k="optional")
    p.add_argument("--space", required=True,
                   choices=["graph", "path-connected", "unit-square"])
    p = add("certify", _cmd_certify, "exhaustive sweeps over all small graphs")
    p.add_argument("--claim", choices=sorted(_SWEEPS), required=True)
    p.add_argument("--max-n", type=int, default=5,
                   help="largest graph order to sweep (default 5)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        outcome = args.func(args)
        report = {
            "command": args.command,
            "argv": argv,
            "input": outcome.digest,
            "result": outcome.result,
            "warnings": outcome.warnings,
        }
        if args.timing:
            report["wall_time_ms"] = (time.perf_counter() - t0) * 1000.0
        text = dumps_report(report)  # raises non-finite-report
    except GapError as e:
        print(f"error: {e.code}: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    if args.verbose:
        for line in outcome.verbose:
            print(line, file=sys.stderr)
    if outcome.failure is not None:
        print(f"error: {outcome.failure[0]}: {outcome.failure[1]}",
              file=sys.stderr)
        return 1
    return 0
