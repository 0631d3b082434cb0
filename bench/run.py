#!/usr/bin/env python3
"""gapsampler benchmark: one client, one request at a time, closed loop.

    python3 bench/run.py --workload greedy-large --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Workloads (see bench/README.md): greedy-large,
exact-small, planar-audit.

--trace 0 measures the end-to-end metrics: set-up time (median of several
fresh processes), pass time (sum over requests of each request's median
latency) and request latency percentiles from timed passes repeated for
--seconds, the largest per-request tracemalloc peak from a separate untimed
memory pass, and the share of requests whose output passed every check.
Times are scaled to a reference host speed, measured by a fixed reference
kernel timed around every request and in every set-up probe (see
reference_kernel).
--trace 1 measures the per-layer metrics: spans and work counters from
traced passes, alternated with untraced passes to get the tracing overhead,
plus per-layer tracemalloc peaks from a traced memory pass.  The memory
passes run in two worker processes side by side; timed passes run in this
process, one request at a time.  Every request's output is checked in every
pass, outside the timed interval; with the default seed it is also compared
with bench/goldens/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = str(NPROC)
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 7
SETUP_REF_RUNS = 5
MIN_TIMED_PASSES = 2
MEMORY_WORKERS = max(1, min(2, NPROC))
GOLDEN_REL = 1e-9
MB = 1e6

# On a shared host, speed can drift by up to a third over minutes, for the
# program and for any other code alike, and no median inside one run can
# average that out.  So times are scaled to a reference speed: in a
# timed pass the reference kernel runs just before and just after every
# request, and the request time is multiplied by REF_KERNEL_S / t, with t
# the mean of those two kernel times; a set-up probe times the kernel
# itself (see probe_setup_s).  The kernel never calls gapsampler, so a
# change to the program moves the scaled times in full.
REF_KERNEL_S = 0.006
REF_PTS = np.linspace(0.0, 1.0, 2 * 200).reshape(200, 2)

# spans whose tracemalloc peak is reported as <span>.peak_mb
PEAK_SPANS = ("metric.build_euclidean", "oracle.search", "streaming.ingest",
              "geometry.cover", "measures.discrepancy")
COUNTERS = {
    "metric.build_euclidean.pairs": "count",
    "metric.build_euclidean.computed_mb": "MB",
    "metric.build_graph_metric.vertices": "count",
    "fpi.steps": "count",
    "oracle.search.subsets": "count",
    "oracle.reduce.subsets": "count",
    "coreset.grid.points": "count",
    "coreset.reps": "count",
    "coreset.cap": "count",
    "coreset.search.subsets": "count",
    "geometry.delaunay.triangles": "count",
    "measures.discrepancy.rects": "count",
    "certify.sweep.graphs": "count",
    "cli.report_bytes": "bytes",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-goldens", action="store_true",
                   help="write bench/goldens/<workload>.json from this run "
                        "(default seed only)")
    # internal modes: set up, print ready and exit / run one memory shard
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--memory-shard", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import gapsampler from this checkout's src/, or return None."""
    try:
        import gapsampler
    except ImportError as e:
        print(f"bench: cannot import gapsampler from {ROOT}/src: {e}", file=sys.stderr)
        return None
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(gapsampler.__file__).startswith(src):
        print(f"bench: gapsampler resolved outside {src}", file=sys.stderr)
        return None
    return gapsampler


def setup(workload, seed, workdir):
    import workloads
    os.makedirs(workdir, exist_ok=True)
    return workloads.WORKLOADS[workload](seed, workdir, workloads.OracleCache())


def self_command(args, *extra) -> list:
    """Command line that reruns this script on the same workload and seed."""
    return [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
            args.workload, "--seed", str(args.seed), *extra]


def reference_kernel() -> float:
    """Time fixed work that does not call gapsampler: a pure-Python loop
    like the BFS, Delaunay and subset loops, then a pairwise-difference
    numpy kernel like build_euclidean.  Returns seconds."""
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(16_000):
        acc += i * i
        seen[i & 1023] = acc
    d = REF_PTS[:, None, :] - REF_PTS[None, :, :]
    np.sqrt((d * d).sum(axis=-1))
    return time.perf_counter() - t0


def probe_setup_s(args) -> tuple:
    """Process start -> inputs ready, in fresh interpreters.  Returns the
    measured times and the times scaled to the reference speed.  Each probe
    runs the reference kernel itself once its inputs are ready: the vCPUs of
    a shared host can run at different speeds, and a kernel timed in this
    process, maybe on another vCPU, did not follow the probe's speed."""
    measured, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(self_command(args, "--setup-probe"),
                                stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            rest = proc.stdout.read().split()
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0 or rest[:1] != ["reference"]:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        measured.append(dt)
        scaled.append(dt * REF_KERNEL_S / float(rest[1]))
    return measured, scaled


# ---------------------------------------------------------------------------
# passes


class Ledger:
    """Attempts, failures and their reasons across every pass of a run."""

    def __init__(self, goldens):
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.recorded: dict = {}

    def judge(self, req, res, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                problems = list(req.check(res))
                summary = json.loads(json.dumps(req.summary(res)))
            except Exception as e:  # a broken output may break its checker
                problems, summary = [f"check raised {type(e).__name__}: {e}"], None
            if summary is not None:
                self.recorded[req.name] = summary
                if self.goldens is not None:
                    if req.name not in self.goldens:
                        problems.append("no golden recorded")
                    else:
                        problems += golden_diff(self.goldens[req.name], summary, "")
        else:
            problems = [f"raised {type(error).__name__}: {error}"]
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{req.name}: {'; '.join(problems[:3])}")

    def to_json(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems, "recorded": self.recorded}

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.problems += other["problems"][:20 - len(self.problems)]
        self.recorded.update(other["recorded"])


def golden_diff(want, got, path) -> list:
    """Exact for ints, strings and structure; floats to GOLDEN_REL."""
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if abs(want - got) <= GOLDEN_REL * max(abs(want), abs(got)):
            return []
    elif isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"golden{path}: keys differ"]
        return [d for k in want for d in golden_diff(want[k], got[k], f"{path}.{k}")]
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"golden{path}: length {len(got)} != {len(want)}"]
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in golden_diff(a, b, f"{path}[{i}]")]
    elif type(want) is type(got) and want == got:
        return []
    return [f"golden{path}: {str(got)[:60]!r} != {str(want)[:60]!r}"]


def call(req, ctx):
    """Run one request: (output, error, seconds)."""
    t0 = time.perf_counter()
    try:
        res = req.run(ctx)
        err = None
    except Exception as e:  # counted as a failed request, the run goes on
        res, err = None, e
    return res, err, time.perf_counter() - t0


def timed_pass(requests, ledger, reference=False) -> list:
    """One pass; returns each request's latency in seconds, paired with the
    mean time of the reference kernel run just before and just after it
    (None without ``reference``)."""
    import workloads
    ctx = workloads.Context()
    out = []
    for req in requests:
        gc.collect()
        before = reference_kernel() if reference else None
        res, err, dt = call(req, ctx)
        out.append((dt, (before + reference_kernel()) / 2.0 if reference else None))
        ledger.judge(req, res, err)
        del res
    return out


def memory_pass(requests, ledger) -> dict:
    """Untimed pass: per-request tracemalloc peak of the memory the request
    allocates.  Tracing runs only around the request, not its checks."""
    import workloads
    ctx = workloads.Context()
    peaks = {}
    for req in requests:
        gc.collect()
        tracemalloc.start()
        try:
            res, err, _ = call(req, ctx)
            peaks[req.name] = tracemalloc.get_traced_memory()[1] / MB
        finally:
            tracemalloc.stop()
        ledger.judge(req, res, err)
        del res
    return peaks


def memory_shard(requests, ledger, shard: int, trace: int) -> dict:
    """Worker side of the memory pass: every MEMORY_WORKERS-th request."""
    mine = requests[shard::MEMORY_WORKERS]
    if trace:
        return {"layer_peaks": dict(traced_pass(mine, ledger, memory=True).peaks)}
    return {"request_peaks": memory_pass(mine, ledger)}


def parallel_memory_pass(args, ledger) -> dict:
    """The untimed memory pass, split over MEMORY_WORKERS fresh processes
    (peaks are per process, so running the shards side by side leaves them
    unchanged).  Returns merged request peaks or layer peaks."""
    procs = [subprocess.Popen(
        self_command(args, "--trace", str(args.trace), "--memory-shard", str(i),
                     *(["--record-goldens"] if args.record_goldens else [])),
        stdout=subprocess.PIPE, cwd=ROOT, text=True) for i in range(MEMORY_WORKERS)]
    outs = [proc.communicate()[0] for proc in procs]  # waits for every worker
    merged: dict = {"request_peaks": {}, "layer_peaks": {}}
    for proc, out in zip(procs, outs):
        if proc.returncode != 0:
            raise RuntimeError(f"memory worker failed (exit {proc.returncode})")
        res = json.loads(out.strip().splitlines()[-1])
        ledger.merge(res["ledger"])
        merged["request_peaks"].update(res.get("request_peaks", {}))
        for name, peak in res.get("layer_peaks", {}).items():
            merged["layer_peaks"][name] = max(peak, merged["layer_peaks"].get(name, 0.0))
    return merged


def traced_pass(requests, ledger, memory=False):
    import tracing
    import workloads
    tracer = tracing.Tracer(memory=memory)
    ctx = workloads.Context(tracer)
    with tracing.patched(tracer):
        for i, req in enumerate(requests):
            gc.collect()
            with tracer.request_span(i):
                res, err, _ = call(req, ctx)
            ledger.judge(req, res, err)
            del res
    return tracer


# ---------------------------------------------------------------------------
# metrics


def harrell_davis(xs: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of all order statistics.  Latencies pool requests of very
    different sizes, so a single order statistic jumps whenever one noisy
    sample crosses from one request's cluster into the next; the weighted
    mean moves smoothly instead."""
    x = np.sort(np.asarray(xs, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 200 * n + 1)
    inner = t[1:-1]
    pdf = np.zeros_like(t)
    pdf[1:-1] = np.exp((a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
                       + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * np.diff(t))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def percentile_report(lat_ms: list) -> dict:
    """p50, p90 and the highest whole percentile with >= 10 samples above
    it, as Harrell-Davis estimates."""
    n = len(lat_ms)
    top = max(1, min(99, int(100 * (n - 10) / n))) if n > 10 else None
    plain = statistics.quantiles(lat_ms, n=100, method="inclusive") if n > 1 else lat_ms * 99
    return {"p50": harrell_davis(lat_ms, 0.5), "p90": harrell_davis(lat_ms, 0.9),
            "n": n, "top": top,
            "top_value": harrell_davis(lat_ms, top / 100.0) if top else None,
            "plain_p50": plain[49], "plain_p90": plain[89]}


def layer_metrics(tracers, layer_peaks, untraced_s) -> dict:
    import tracing
    last = tracers[-1]
    selfs = [t.self_ms() for t in tracers]
    out = {}
    for span in tracing.SPANS:
        out[f"{span}.ms"] = (statistics.median(s.get(span, 0.0) for s in selfs), "ms")
    for metric, unit in COUNTERS.items():
        out[metric] = (last.counts.get(metric, 0.0), unit)
    for span in PEAK_SPANS:
        out[f"{span}.peak_mb"] = (layer_peaks.get(span, 0.0) / MB, "MB")
    for layer in tracing.WRAPPED:  # modules are the layers
        out[f"{layer}.errors"] = (sum(t.errors.get(layer, 0) for t in tracers), "count")

    def rate(num, ms):
        return out[num][0] / (out[ms][0] / 1000.0) if out[ms][0] > 0 else 0.0

    def ratio(num, den):
        return out[num][0] / out[den][0] if out[den][0] > 0 else 0.0

    states = list(last.streams.values())  # every stream this pass fed
    out["streaming.ingest.points"] = (float(sum(s.points_seen for s in states)), "count")
    out["streaming.peak_cells"] = (float(sum(s.peak_cells for s in states)), "count")
    out["streaming.phases"] = (float(sum(s.phase for s in states)), "count")
    out["oracle.search.subsets_per_s"] = (rate("oracle.search.subsets", "oracle.search.ms"), "1/s")
    out["coreset.search.subsets_per_s"] = (rate("coreset.search.subsets", "coreset.search.ms"), "1/s")
    out["streaming.ingest.points_per_s"] = (rate("streaming.ingest.points", "streaming.ingest.ms"), "1/s")
    out["certify.sweep.graphs_per_s"] = (rate("certify.sweep.graphs", "certify.sweep.ms"), "1/s")
    out["coreset.reps_over_cap"] = (ratio("coreset.reps", "coreset.cap"), "ratio")
    out["coreset.reps_over_n"] = (ratio("coreset.reps", "coreset.grid.points"), "ratio")
    out["streaming.cells_over_points"] = (ratio("streaming.peak_cells", "streaming.ingest.points"), "ratio")
    traced_s = statistics.median(t.request_ms() for t in tracers) / 1000.0
    out["trace.pass_ms"] = (traced_s * 1000.0, "ms")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


def environment(args) -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": NPROC, "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "ref_kernel_s": REF_KERNEL_S}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    os.chdir(ROOT)
    if import_package() is None:
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workdir = os.path.join(".bench_work", f"{args.workload}-{os.getpid()}")
        try:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            ref = statistics.median(reference_kernel() for _ in range(SETUP_REF_RUNS))
            print(f"reference {ref!r}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    # CLI reports echo their argv, so the golden inputs live at a fixed path
    workdir = os.path.join(".bench_work", args.workload)
    golden_path = os.path.join(BENCH_DIR, "goldens", f"{args.workload}.json")
    goldens = None
    if args.seed == DEFAULT_SEED and not args.record_goldens:
        if not os.path.exists(golden_path):
            print(f"bench: missing {golden_path}", file=sys.stderr)
            return 2
        with open(golden_path, encoding="utf-8") as fh:
            goldens = json.load(fh)
    ledger = Ledger(goldens)

    if args.memory_shard is not None:
        requests = setup(args.workload, args.seed, workdir)
        res = memory_shard(requests, ledger, args.memory_shard, args.trace)
        print(json.dumps({"ledger": ledger.to_json(), **res}))
        return 0

    try:
        requests = setup(args.workload, args.seed, workdir)
        setup_main_s = time.perf_counter() - T_START
        env = environment(args)
        t_probe = time.perf_counter()
        setup_runs, setup_scaled = probe_setup_s(args) if args.trace == 0 else ([], [])
        t_mem = time.perf_counter()
        peaks = parallel_memory_pass(args, ledger)
        t0 = time.perf_counter()
        print(f"# phases: set-up probes {t_mem - t_probe:.1f} s, memory pass "
              f"({MEMORY_WORKERS} workers) {t0 - t_mem:.1f} s")
        if args.trace == 0:
            latencies: dict = {}   # request -> scaled latencies
            raw: dict = {}         # request -> measured latencies
            walls, pass_refs = [], []
            # stop before a pass that would end past --seconds
            while len(walls) < MIN_TIMED_PASSES or \
                    time.perf_counter() - t0 + statistics.median(walls) <= args.seconds:
                timed = timed_pass(requests, ledger, reference=True)
                for req, (dt, ref_s) in zip(requests, timed):
                    raw.setdefault(req.name, []).append(dt)
                    latencies.setdefault(req.name, []).append(dt * REF_KERNEL_S / ref_s)
                walls.append(sum(dt for dt, _ in timed))
                pass_refs.append(statistics.median(ref_s for _, ref_s in timed))
            lat_ms = [x * 1000.0 for xs in latencies.values() for x in xs]
            pct = percentile_report(lat_ms)
            req_peaks = peaks["request_peaks"]
            metrics = {
                "setup_s": (statistics.median(setup_scaled), "s"),
                "wall_s": (sum(statistics.median(x) for x in latencies.values()), "s"),
                "req_p50_ms": (pct["p50"], "ms"),
                "req_p90_ms": (pct["p90"], "ms"),
                "peak_mb": (max(req_peaks.values()), "MB"),
                "ok_frac": (1.0 - ledger.failed / ledger.attempted, "ratio"),
            }
            print(f"# setup_s runs, scaled: {', '.join(f'{x:.4f}' for x in setup_scaled)}; "
                  f"measured: {', '.join(f'{x:.4f}' for x in setup_runs)} "
                  f"(this process: {setup_main_s:.4f})")
            print(f"# passes: {len(walls)}, measured pass sums (s): "
                  f"{', '.join(f'{w:.4f}' for w in walls)}")
            print(f"# reference kernel {REF_KERNEL_S * 1000:.1f} ms at reference speed; "
                  f"median per pass (ms): {', '.join(f'{x * 1000:.2f}' for x in pass_refs)}")
            print(f"# measured wall_s (sum of measured request medians): "
                  f"{sum(statistics.median(x) for x in raw.values()):.4f} s")
            top = f"p{pct['top']} = {pct['top_value']:.3f} ms" if pct["top"] else "none"
            print(f"# latency samples: {pct['n']}; highest percentile with >= 10 "
                  f"samples above it: {top}; plain sample percentiles: p50 = "
                  f"{pct['plain_p50']:.3f} ms, p90 = {pct['plain_p90']:.3f} ms")
            print(f"# fail_frac: {ledger.failed}/{ledger.attempted}")
            for req in requests:
                print(f"#   {req.name:28s} median {statistics.median(latencies[req.name]) * 1000:10.3f} ms"
                      f" (measured {statistics.median(raw[req.name]) * 1000:10.3f} ms)"
                      f"   peak {req_peaks.get(req.name, 0.0):9.3f} MB")
        else:
            untraced, tracers = [], []
            while not tracers or time.perf_counter() - t0 + 1.1 * (
                    untraced[-1] + tracers[-1].request_ms() / 1000.0) <= args.seconds:
                untraced.append(sum(dt for dt, _ in timed_pass(requests, ledger)))
                tracers.append(traced_pass(requests, ledger))
            metrics = layer_metrics(tracers, peaks["layer_peaks"], statistics.median(untraced))
            layer_sum = sum(v for m, (v, unit) in metrics.items()
                            if m.endswith(".ms") and m != "trace.pass_ms")
            print(f"# traced passes: {len(tracers)}; traced pass "
                  f"{metrics['trace.pass_ms'][0]:.3f} ms; layer and bench self "
                  f"times sum to {layer_sum:.3f} ms (medians per name); untraced "
                  f"pass {statistics.median(untraced) * 1000:.3f} ms")
            print(f"# spans per traced pass: {len(tracers[-1].spans)}")
        if args.record_goldens:
            if args.seed != DEFAULT_SEED or ledger.failed:
                print("bench: goldens are recorded only from a clean default-seed run",
                      file=sys.stderr)
                return 2
            os.makedirs(os.path.dirname(golden_path), exist_ok=True)
            with open(golden_path, "w", encoding="utf-8") as fh:
                json.dump(ledger.recorded, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:  # another run's files are still there
            pass

    print(f"# env {json.dumps(env, sort_keys=True)}")
    for problem in ledger.problems:
        print(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
