"""End-to-end command-line tests through a real subprocess."""

import json
import re
import subprocess
import sys

import pytest

LINE10 = "".join(f"{i}\n" for i in range(10))
C6 = "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"
SQUARE = "0 0\n1 0\n0 1\n1 1\n"


def run_cli(*args, env=None):
    # a hang fails its own test instead of stalling the suite
    return subprocess.run([sys.executable, "-m", "gapsampler", *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("line10.txt", LINE10), ("c6.edges", C6),
                       ("square.txt", SQUARE), ("sample.txt", "0\n3\n")):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def report_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# per-command behavior


def test_fpi_command(files):
    rep = report_of(run_cli("fpi", "--points", files["line10.txt"], "-k", "3"))
    res = rep["result"]
    assert res["sample"] == [0, 4, 9]
    assert res["trace"]["init_pair"] == [0, 9]
    assert res["trace"]["r_init"] == 4.5
    assert res["trace"]["steps"][0]["chosen"] == 4
    assert res["gap_ratio"] == 1.0
    assert rep["input"] == {"sites": 10, "dim": 1}
    assert rep["command"] == "fpi" and rep["warnings"] == []


def test_evaluate_command(files):
    rep = report_of(run_cli("evaluate", "--points", files["line10.txt"],
                            "--sample", files["sample.txt"]))
    res = rep["result"]
    assert (res["r"], res["R"], res["gap_ratio"]) == (1.5, 6.0, 4.0)
    assert res["farthest_site"] == 9 and res["exact"] is False


def test_oracle_exact_ratio(files):
    rep = report_of(run_cli("oracle", "--graph", files["c6.edges"],
                            "-k", "2", "--exact"))
    res = rep["result"]
    assert res["sample"] == [0, 3]
    assert res["exact_ratio"] == [2, 3]
    assert res["exact"] is True
    assert res["subsets_examined"] == 15
    # graph metrics carry exact ratios by default too
    default = report_of(run_cli("oracle", "--graph", files["c6.edges"],
                                "-k", "2"))["result"]
    assert default["exact_ratio"] == [2, 3]
    floated = report_of(run_cli("oracle", "--graph", files["c6.edges"],
                                "-k", "2", "--float"))["result"]
    assert "exact_ratio" not in floated


def test_evaluate_graph_past_the_exact_bound(tmp_path):
    # path lengths far past 2**53: a float metric, not an overflowed int64 one
    graph = tmp_path / "huge.edges"
    graph.write_text("3 2\n0 1 1e19\n1 2 1e19\n")
    sample = tmp_path / "ends.txt"
    sample.write_text("0\n2\n")
    proc = run_cli("evaluate", "--graph", str(graph), "--sample", str(sample))
    assert proc.stderr == ""
    res = report_of(proc)["result"]
    assert (res["r"], res["R"], res["gap_ratio"]) == (1e19, 1e19, 1.0)
    assert res["exact"] is False and "exact_ratio" not in res


@pytest.mark.parametrize("flag, text, sample, code", [
    ("--graph", "3 2\n0 1 1e308\n1 2 1e308\n", "0\n2\n", "distance-overflow"),
    ("--points", "1e200 0\n0 0\n", "0\n1\n", "non-finite-report"),
    ("--points", "0 0\n1e-200 0\n", "0\n1\n", "zero-distance"),
], ids=["graph", "cloud", "cloud-underflow"])
def test_overflow_is_one_error_line(tmp_path, flag, text, sample, code):
    data, ends = tmp_path / "data.txt", tmp_path / "ends.txt"
    data.write_text(text)
    ends.write_text(sample)
    proc = run_cli("evaluate", flag, str(data), "--sample", str(ends))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert re.fullmatch(rf"error: {code}: [^\n]+\n", proc.stderr), proc.stderr


@pytest.mark.parametrize("scale, code", [(1e160, "distance-overflow"),
                                         (1e-170, "zero-distance")])
def test_oracle_refuses_over_and_underflow(tmp_path, scale, code):
    data = tmp_path / "scaled.txt"
    pts = [[(7 * i % 10 + 0.5) * scale, (3 * i % 10 + 0.25) * scale] for i in range(10)]
    data.write_text("".join(f"{x!r} {y!r}\n" for x, y in pts))
    proc = run_cli("oracle", "--points", str(data), "-k", "3")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert re.fullmatch(rf"error: {code}: [^\n]+\n", proc.stderr), proc.stderr


def test_signed_zero_duplicates_are_dropped(tmp_path):
    # "-0 1" repeats "0 1": one site, not two at distance 0
    data = tmp_path / "zeros.txt"
    data.write_text("0 1\n-0 1\n1 1\n0 0\n")
    proc = run_cli("oracle", "--points", str(data), "-k", "2")
    assert proc.stderr == ""
    rep = report_of(proc)
    assert rep["input"]["sites"] == 3
    assert rep["warnings"] == ["dropped 1 duplicate points"]
    assert (rep["result"]["sample"], rep["result"]["R_opt"]) == ([1, 2], 1.0)


def test_coreset_command(files):
    res = report_of(run_cli("coreset", "--points", files["line10.txt"],
                            "-k", "2", "--epsilon", "0.45"))["result"]
    assert res["sample"] == [2, 7]
    assert res["gap_ratio"] == 0.8
    assert res["coreset"]["size"] == 10
    assert res["params"]["R_P1"] == 4.0


def test_stream_command(files):
    res = report_of(run_cli("stream", "--points", files["line10.txt"],
                            "-k", "2", "--epsilon", "0.1"))["result"]
    assert res["sample"] == [2, 7]
    assert res["coreset_gap_ratio"] == 0.8
    assert res["state"]["points_seen"] == 10
    assert res["state"]["coreset_size"] == 10


def test_square_command(files):
    res = report_of(run_cli("square", "--points", files["square.txt"]))["result"]
    assert res["farthest_point"] == [0.5, 0.5]
    assert res["candidate_kind"] == "voronoi-vertex"
    assert res["gap_ratio"] == pytest.approx(2.0 ** 0.5, rel=1e-15)


def test_delaunay_audit_command(files):
    res = report_of(run_cli("delaunay-audit", "--points",
                            files["square.txt"]))["result"]
    assert res["violations"] == []
    assert res["interior_triangles"] == []
    assert res["min_interior_angle"] is None


def test_discrepancy_command(files):
    res = report_of(run_cli("discrepancy", "--points",
                            files["square.txt"]))["result"]
    assert res["d_star"] == 0.75
    assert res["witness"] == {"x": 1.0, "y": 1.0, "kind": "open-limit"}
    assert res["bound"]["value"] == 1.0


def test_reduce_command(files):
    res = report_of(run_cli("reduce", "--graph", files["c6.edges"],
                            "--claim", "eds", "-k", "2"))["result"]
    assert res["answer"] is True
    assert res["certificates"]["efficient_dominating"] == [0, 3]
    assert res["certificates"]["eds_count"] == 3


def test_bounds_command():
    res = report_of(run_cli("bounds", "--space", "unit-square",
                            "-k", "100"))["result"]
    assert res["value"] == 1.0306198904989716
    graph = report_of(run_cli("bounds", "--space", "graph"))["result"]
    assert graph["value"] == pytest.approx(2.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_certify_out_of_range_order_is_one_error_line(max_n):
    proc = run_cli("certify", "--claim", "graph-floor", "--max-n", max_n)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert re.fullmatch(r"error: max-n-out-of-range: [^\n]+\n", proc.stderr), proc.stderr


def test_certify_command():
    res = report_of(run_cli("certify", "--claim", "graph-floor",
                            "--max-n", "4"))["result"]
    assert res["graphs"] == 42
    assert res["equality_cases"] == 12
    assert res["violations"] == []


# ---------------------------------------------------------------------------
# report contract


def test_byte_identical_replay(files):
    args = ("coreset", "--points", files["line10.txt"], "-k", "2",
            "--epsilon", "0.3", "--seed", "5")
    a, b = run_cli(*args), run_cli(*args)
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_timing_field_presence(files):
    plain = report_of(run_cli("fpi", "--points", files["line10.txt"], "-k", "2"))
    timed = report_of(run_cli("fpi", "--points", files["line10.txt"], "-k", "2",
                              "--timing"))
    assert "wall_time_ms" not in plain
    assert isinstance(timed["wall_time_ms"], (int, float))
    del timed["wall_time_ms"]
    timed["argv"].remove("--timing")
    assert timed == plain


def test_verbose_goes_to_stderr(files):
    proc = run_cli("fpi", "--points", files["line10.txt"], "-k", "3",
                   "--verbose")
    assert proc.returncode == 0
    assert proc.stderr.strip() != ""
    json.loads(proc.stdout)  # stdout stays pure JSON


def test_oracle_verbose_names_the_guarded_count(files):
    # the bounded searches visit fewer subsets than C(n, k); stderr says
    # which count it prints, and the report is the one without --verbose
    proc = run_cli("oracle", "--graph", files["c6.edges"], "-k", "2", "--verbose")
    assert proc.returncode == 0
    assert "C(n, k) = 15 subsets under the guard, best gap_ratio=0.666667" in proc.stderr
    assert "examined" not in proc.stderr
    verbose = report_of(proc)
    plain = report_of(run_cli("oracle", "--graph", files["c6.edges"], "-k", "2"))
    verbose["argv"].remove("--verbose")
    assert verbose == plain and verbose["result"]["subsets_examined"] == 15


# ---------------------------------------------------------------------------
# failure modes


def test_domain_error_contract(files, tmp_path):
    proc = run_cli("fpi", "--points", files["line10.txt"], "-k", "99")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert re.match(r"^error: [a-z][a-z-]*: .+", proc.stderr)
    missing = run_cli("evaluate", "--points", str(tmp_path / "nope.txt"),
                      "--sample", files["sample.txt"])
    assert missing.returncode == 1
    assert missing.stderr.startswith("error: unreadable-file:")


@pytest.mark.parametrize("command", [
    ("oracle", "--graph", "c6.edges"), ("reduce", "--claim", "genmet", "--graph", "c6.edges"),
    ("reduce", "--claim", "eds", "--graph", "c6.edges"),
    ("coreset", "--points", "line10.txt", "--epsilon", "0.3"),
    ("stream", "--points", "line10.txt", "--epsilon", "0.1"),
], ids=["oracle", "reduce-genmet", "reduce-eds", "coreset", "stream"])
def test_guard_zero_is_a_guard(files, command):
    # --guard 0 admits no subset; it must not fall back to the default guard
    args = [files.get(a, a) for a in command]
    proc = run_cli(*args, "-k", "2", "--guard", "0")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert re.fullmatch(r"error: guard-exceeded: [^\n]+\n", proc.stderr), proc.stderr


@pytest.mark.parametrize("command, text, code", [
    # distinct points whose distance underflows: R_thresh = 0 never doubles away
    (("stream", "-k", "2", "--epsilon", "0.1"), "0 0\n1e-300 0\n1 0\n2 0\n",
     "zero-distance: "),
    # named by its index in the stream, before the point reaches the coreset
    (("stream", "-k", "2", "--epsilon", "0.1"), "0 0\n1 0\n0 1\n0 0\nnan 0.5\n",
     "nonfinite-coordinate: stream point 4 "),
    # cell indices past 2**53 used to wrap into fewer, merged cells
    (("coreset", "-k", "4", "--epsilon", "0.3"), "0\n1e-30\n1\n2\n3\n",
     "grid-overflow: "),
    (("stream", "-k", "2", "--epsilon", "0.1"), "0 0\n1e-30 0\n1 0\n1 1e-30\n",
     "grid-overflow: "),
    # differences past float64's range, with no numpy warning: an inf first
    # distance (a cell side of inf would put every point in cell 0) ...
    (("stream", "-k", "2", "--epsilon", "0.1"), "1e308 0\n-1e308 0\n0 0\n0.5 0\n1 0\n",
     "distance-overflow: "),
    (("stream", "-k", "2", "--epsilon", "0.1"), "0 0\n-1e308 0\n1e308 0\n",
     "distance-overflow: "),
    # ... and an inf quotient in the cell rule
    (("stream", "-k", "2", "--epsilon", "0.1"), "0 0\n1 0\n0 1\n1e308 0\n",
     "grid-overflow: "),
    # a late point in range of the grid whose squared distance to every
    # center overflows: it would join the centers as infinitely far
    (("stream", "-k", "2", "--epsilon", "0.1"), "0 0\n1e150 0\n-1e155 0\n",
     "distance-overflow: stream point 2 "),
    # each point is in range of its nearest center or grid neighbour, but
    # the coreset's two end points are too far apart for a squared distance
    (("stream", "-k", "2", "--epsilon", "0.1"), "0 0\n1e154 0\n2e154 0\n",
     "distance-overflow: two coreset sites "),
    (("coreset", "-k", "2", "--epsilon", "0.1"), "0 0\n1e154 0\n2e154 0\n",
     "distance-overflow: two coreset sites "),
], ids=["stream-zero-distance", "stream-nan", "coreset-overflow", "stream-overflow",
        "stream-far-prefix", "stream-inf-distance", "stream-far-late-point",
        "stream-far-late-center", "stream-far-coreset-pair", "coreset-far-pair"])
def test_grid_refusals_are_one_error_line(tmp_path, command, text, code):
    data = tmp_path / "points.txt"
    data.write_text(text)
    proc = run_cli(*command, "--points", str(data))
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert re.fullmatch(rf"error: {code}[^\n]+\n", proc.stderr), proc.stderr


def test_negative_seed_is_one_error_line(files):
    proc = run_cli("coreset", "--points", files["line10.txt"], "-k", "2",
                   "--epsilon", "0.3", "--seed", "-1")
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr == "error: invalid-seed: seed -1 is negative\n"


@pytest.mark.parametrize("argv, calls", [
    (("evaluate", "--graph", "c6.edges", "--sample", "sample.txt"), 1),
    (("evaluate", "--points", "line10.txt", "--sample", "sample.txt"), 1),
    # fpi's report comes from the run's own state, with no gap_ratio call
    (("fpi", "--graph", "c6.edges", "-k", "3"), 0),
    (("fpi", "--points", "line10.txt", "-k", "3", "--exact"), 0),  # exact-unavailable
    (("oracle", "--graph", "c6.edges", "-k", "2"), 1),
    (("oracle", "--graph", "c6.edges", "-k", "2", "--float"), 0),
], ids=["evaluate-graph", "evaluate-points", "fpi-graph", "fpi-points-exact",
        "oracle-graph", "oracle-float"])
def test_each_command_makes_one_gap_report(files, monkeypatch, capsys, argv, calls):
    """evaluate and fpi read their exact ratio off the report they print,
    and fpi builds that report from its run, without gap_ratio; oracle
    makes its best sample's report only for the exact ratio.  Run in
    process, to count the calls."""
    from gapsampler import cli, metric

    made, gap_ratio = [], metric.gap_ratio

    def counted(m, p):
        made.append(p)
        return gap_ratio(m, p)

    for name, mod in list(sys.modules.items()):
        if name.startswith("gapsampler") and getattr(mod, "gap_ratio", None) is gap_ratio:
            monkeypatch.setattr(mod, "gap_ratio", counted)
    cli.main([files.get(a, a) for a in argv])
    capsys.readouterr()
    assert len(made) == calls


def test_reduce_genmet_refuses_weighted_graph(tmp_path):
    graph = tmp_path / "weighted.edges"
    graph.write_text("4 3\n0 1 5\n1 2 0.5\n2 3 7\n")
    proc = run_cli("reduce", "--claim", "genmet", "--graph", str(graph), "-k", "2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert re.fullmatch(r"error: weighted-unsupported: [^\n]+\n", proc.stderr), proc.stderr


def test_malformed_input_reports_line(files, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n1 oops\n")
    proc = run_cli("fpi", "--points", str(bad), "-k", "2")
    assert proc.returncode == 1
    assert "error: malformed-points" in proc.stderr
    assert "line 2" in proc.stderr


def test_control_characters_keep_the_report_json(tmp_path):
    # argv is echoed in the report: every control character is escaped
    path = tmp_path / "pts\x01\r\b.txt"
    path.write_text(LINE10)
    rep = report_of(run_cli("fpi", "--points", str(path), "-k", "2"))
    assert rep["argv"] == ["fpi", "--points", str(path), "-k", "2"]


def test_usage_errors_exit_two(files):
    assert run_cli("fpi", "--no-such-flag").returncode == 2
    assert run_cli().returncode == 2
    assert run_cli("no-such-command").returncode == 2


def test_all_commands_smoke(files):
    invocations = [
        ("evaluate", "--points", files["line10.txt"], "--sample",
         files["sample.txt"]),
        ("fpi", "--points", files["line10.txt"], "-k", "2"),
        ("coreset", "--points", files["line10.txt"], "-k", "2",
         "--epsilon", "0.3"),
        ("stream", "--points", files["line10.txt"], "-k", "2",
         "--epsilon", "0.1"),
        ("oracle", "--points", files["line10.txt"], "-k", "2"),
        ("square", "--points", files["square.txt"]),
        ("delaunay-audit", "--points", files["square.txt"]),
        ("discrepancy", "--points", files["square.txt"]),
        ("reduce", "--graph", files["c6.edges"], "--claim", "genmet",
         "-k", "2"),
        ("bounds", "--space", "path-connected"),
        ("certify", "--claim", "reductions", "--max-n", "3"),
    ]
    for args in invocations:
        proc = run_cli(*args)
        assert proc.returncode == 0, (args, proc.stderr)
        json.loads(proc.stdout)
