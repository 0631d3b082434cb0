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
    return subprocess.run([sys.executable, "-m", "gapsampler", *args],
                          capture_output=True, text=True, env=env)


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


def test_malformed_input_reports_line(files, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n1 oops\n")
    proc = run_cli("fpi", "--points", str(bad), "-k", "2")
    assert proc.returncode == 1
    assert "error: malformed-points" in proc.stderr
    assert "line 2" in proc.stderr


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
