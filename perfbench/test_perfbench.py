"""Tests of the benchmark itself: output checks, span arithmetic, parsers.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
TRACER = Path(__file__).resolve().parent / "tracing.py"


def cli(*args, tracer_spans=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    prefix = ([sys.executable, str(TRACER), str(tracer_spans)] if tracer_spans
              else [sys.executable, "-m", "casorati.cli"])
    return subprocess.run(prefix + list(args), env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.fixture(scope="module")
def chen_sweep():
    axes = [("t", 0.4, 2.9, 2), ("u", 0.3, 0.3, 1), ("v", 1.1, 1.1, 1)]
    spec, points = workloads.grid_spec(axes)
    done = cli("sweep", "--chart", "chen_ideal", "--param", "a=1.0", "--grid", spec)
    assert done.returncode == 0, done.stderr

    def check(stdout, returncode=0, stderr=""):
        return workloads.check_sweep(
            ("t", "u", "v"), points,
            lambda row: workloads.chen_row_problems(1.0, 1e-8, row),
            returncode, stdout, stderr)

    return done.stdout, check


def test_chen_sweep_passes_its_oracle(chen_sweep):
    stdout, check = chen_sweep
    out = check(stdout)
    assert (out.failed, out.wrong) == (0, [])


def test_flipped_classification_fails(chen_sweep):
    stdout, check = chen_sweep
    out = check(stdout.replace("Ideal41", "Ideal11", 1))
    assert out.failed == 1 and "Ideal11" in out.wrong[0]


def test_wrong_value_fails(chen_sweep):
    stdout, check = chen_sweep
    header, first, second = stdout.splitlines()
    cols = header.split(",")
    cells = first.split(",")
    C = cols.index("C")
    cells[C] = repr(float(cells[C]) * (1 + 1e-6))
    out = check("\n".join([header, ",".join(cells), second]) + "\n")
    assert out.failed == 1 and "C " in out.wrong[0]


def test_missing_row_fails_every_point(chen_sweep):
    stdout, check = chen_sweep
    out = check("\n".join(stdout.splitlines()[:-1]) + "\n")
    assert out.failed == 2 and out.wrong


def test_crash_fails_every_point(chen_sweep):
    stdout, check = chen_sweep
    out = check(stdout, returncode=1, stderr="Traceback (most recent call last):\n")
    assert out.failed == 2 and out.wrong


SEED_VERIFY_CLEAN = """verify: 100 inputs checked, 0 violations
  worst slack: 4.166667e-02 at phi1=0.5,phi2=0.6,phi3=1
  worst Gauss residual: 6.224600e-08 at phi1=0.5,phi2=0.6,phi3=3.66667
"""
SEED_VERIFY_GAUSS = """verify: 16 inputs checked, 16 violations
  worst slack: -4.440892e-16 at t=1.59334,u=-1.5428,v=0.0265634
  worst Gauss residual: 4.163632e+01 at t=0.0341366,u=1.54287,v=0.0265634
  VIOLATION t=0.0341366,u=-1.5428,v=0.0265634: Gauss residual 4.104e+01
"""
SEED_VERIFY_SYNTHETIC = """verify: 88 inputs checked, 0 violations
  worst slack: -8.881784e-16 at entry 43
"""
SEED_VERIFY_NO_SLACK = """verify: 25 inputs checked, 0 violations
  worst Gauss residual: 3.397484e-16 at th1=6.24694,th2=6.25175
"""


@pytest.mark.parametrize("text, expected", [
    (SEED_VERIFY_CLEAN, (100, 0, 4.166667e-02)),
    (SEED_VERIFY_GAUSS, (16, 16, -4.440892e-16)),
    (SEED_VERIFY_SYNTHETIC, (88, 0, -8.881784e-16)),
    (SEED_VERIFY_NO_SLACK, (25, 0, None)),
    ("error: bad grid\n", None),
])
def test_parse_verify_summary(text, expected):
    assert workloads.parse_verify_summary(text) == expected


def test_parse_verify_summary_of_live_output():
    spec, points = workloads.grid_spec([("th1", 0.5, 5.5, 2), ("th2", 0.5, 5.5, 2)])
    done = cli("verify", "--chart", "flat_torus", "--grid", spec)
    assert workloads.parse_verify_summary(done.stdout) == (len(points), 0, None)
    out = workloads.check_verify(len(points), done.returncode, done.stdout, done.stderr)
    assert (out.failed, out.wrong) == (0, [])


def test_gauss_violations_fail_points_without_wrong_output():
    out = workloads.check_verify(20, 1, SEED_VERIFY_GAUSS, "")
    assert (out.failed, out.skipped, out.violations, out.wrong) == (20, 4, 16, [])


def test_planted_slack_violation_is_wrong():
    text = ("verify: 88 inputs checked, 1 violations\n"
            "  worst slack: -3.000000e-04 at entry 7\n"
            "  VIOLATION entry 7: slack -3.000e-04\n")
    out = workloads.check_verify(88, 1, text, "")
    assert out.failed == 1 and out.wrong


def test_violation_with_exit_0_is_wrong():
    text = SEED_VERIFY_SYNTHETIC.replace("0 violations", "2 violations")
    out = workloads.check_verify(88, 0, text, "")
    assert out.failed == 2 and out.wrong


def test_skipped_points_fail():
    out = workloads.check_verify(120, 0, SEED_VERIFY_CLEAN, "")
    assert (out.failed, out.skipped, out.wrong) == (20, 20, [])


def test_self_times_on_hand_built_tree():
    spans = [
        ("main", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 7.0, 2),
        ("d", 6.5, 8.0, 2),   # overlaps c: b's children cover [6, 8]
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])


def test_layer_totals_sum_self_time_and_main():
    spans = [
        ("casorati.cli.main", 0.0, 10.0, -1),
        ("casorati.cli.frame_at", 1.0, 5.0, 0),
        ("casorati.geometry.jet2", 2.0, 4.5, 1),
        ("casorati.immersions.jacobi_elliptic", 3.0, 3.5, 2),
        ("casorati.immersions.jacobi_elliptic", 4.0, 4.25, 2),
    ]
    totals = tracing.layer_totals([{"spans": spans, "grid_nodes": 7,
                                    "missing": ["casorati.cli.gone"]}])
    assert totals["main_s"] == 10.0
    assert totals["calls"]["elliptic.jacobi"] == 2
    assert totals["self_s"]["elliptic.jacobi"] == pytest.approx(0.75)
    assert totals["self_s"]["immersions.jet"] == pytest.approx(1.75)
    assert totals["self_s"]["geometry.frame"] == pytest.approx(1.5)
    assert totals["self_s"]["cli.main"] == pytest.approx(6.0)
    assert (totals["grid_nodes"], totals["missing"]) == (7, ["casorati.cli.gone"])


def test_missing_boundary_is_reported_not_raised():
    recorder = tracing.Recorder()
    missing = recorder.install(["casorati.cli.no_such_function",
                                "casorati_no_such_module.f"])
    assert missing == ["casorati.cli.no_such_function", "casorati_no_such_module.f"]


def test_traced_output_matches_untraced(tmp_path):
    spec, points = workloads.grid_spec([("t", 0.5, 2.5, 2), ("u", 0.3, 0.3, 1),
                                        ("v", 1.1, 1.1, 1)])
    args = ("verify", "--chart", "chen_ideal", "--param", "a=1.0", "--grid", spec)
    plain = cli(*args)
    traced = cli(*args, tracer_spans=tmp_path / "spans.json")
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    totals = tracing.layer_totals([tracing.load_spans(tmp_path / "spans.json")])
    assert totals["missing"] == []
    assert totals["calls"]["cli.main"] == 1
    assert totals["calls"]["geometry.riemann"] == len(points)
    assert totals["calls"]["immersions.jet"] == 2 * len(points)
    assert totals["calls"]["elliptic.jacobi"] > 0 and totals["main_s"] > 0


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       numpy.core",
        "import time:        50 |         60 |     numpy",
        "import time:         5 |          5 |           scipy._lib",
        "import time:        20 |         20 |           numpy.linalg",
        "import time:       100 |        125 |         scipy.special",
        "import time:       300 |        300 |         scipy.stats",
        "import time:        40 |        465 |       casorati.invariants",
        "import time:        30 |        555 |     casorati",
        "import time:        45 |       1000 | casorati.cli",
    ])
    assert run.parse_importtime(text) == pytest.approx((1000e-6, 425e-6))


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        a = [(i.args, i.points) for i in build(3, tmp_path)]
        b = [(i.args, i.points) for i in build(3, tmp_path)]
        c = [(i.args, i.points) for i in build(4, tmp_path)]
        assert a == b, name
        assert name == "synthetic_verify" or a != c, name
    assert workloads.synthetic_corpus(3) != workloads.synthetic_corpus(4)


def test_synthetic_corpus_size_and_symmetry():
    corpus = workloads.synthetic_corpus(5)
    assert len(corpus) == 4 * 3 * 3 * 2 + 4 * 4
    for entry in corpus:
        h = entry["h"]
        assert len(h) == entry["p"] and all(len(m) == entry["n"] for m in h)
        assert all(m[i][j] == m[j][i] for m in h for i in range(entry["n"])
                   for j in range(entry["n"]))


def declared(kind):
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def fake_pass(walls):
    children = [run.Child(0, w, 0.9 * w, 100.0 + w, "", "") for w in walls]
    return run.Pass(wall_s=sum(walls), children=children,
                    outcomes=[workloads.Outcome() for _ in walls])


def test_end_to_end_metrics_are_those_declared():
    passes = [fake_pass([2.0, 3.0]), fake_pass([1.5, 3.5])]
    metrics = run.end_to_end(1.2, passes, 50)
    assert {k: u for k, (_, u) in metrics.items()} == declared("end_to_end")
    assert metrics["wall_s"][0] == 4.5          # fastest of each invocation
    assert metrics["points_per_s"][0] == 50 / 4.5
    assert metrics["peak_rss_mb"][0] == 103.5


def test_per_layer_metrics_are_those_declared():
    spans = [("casorati.cli.main", 0.0, 2.0, -1),
             ("casorati.cli.inequality_report", 0.5, 1.5, 0),
             ("casorati.invariants.extremize_hyperplane", 0.6, 1.4, 1)]
    totals = [tracing.layer_totals([{"spans": spans, "grid_nodes": 4096}])]
    invocations = [workloads.Invocation("x", [], 1, None)]
    metrics = run.per_layer(invocations, [(1.0, 0.8)], [fake_pass([3.0])],
                            [fake_pass([3.3])], totals)
    assert {k: u for k, (_, u) in metrics.items()} == declared("per_layer")
    assert metrics["invariants.extremize_self_share"][0] == pytest.approx(0.4)
    assert metrics["invariants.grid_nodes_per_extremum"][0] == 4096
    assert metrics["trace.overhead_share"][0] == pytest.approx(0.1)
