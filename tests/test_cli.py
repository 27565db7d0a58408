"""End-to-end tests for the command-line interface: output formats, exit
codes, determinism, and the JSON round trip."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from casorati import cli
from casorati.cli import (
    MAX_ORACLE_N,
    MAX_QP_N,
    MAX_SYNTHETIC_N,
    _build_parser,
    main,
)
from casorati.geometry import SecondForm, frame_at, second_form
from casorati.immersions import MAX_SPHERE_N, make_chart
from casorati.invariants import inequality_report

SRC = Path(__file__).resolve().parent.parent / "src"


def run(args, tmp_path, name="out"):
    path = tmp_path / name
    rc = main(list(args) + ["--out", str(path)])
    return rc, path.read_text(encoding="utf-8")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name} in CLI output")


def loads_strict(text):
    """CLI JSON output, parsed so that a NaN or Infinity in it fails."""
    return json.loads(text, parse_constant=_reject_constant)


def write_synthetic(tmp_path, data, name="syn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_import_loads_no_scipy():
    code = ("import sys, casorati.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


CHART_LAYER = ("casorati.immersions", "casorati.geometry", "casorati.elliptic",
               "dataclasses")


@pytest.mark.parametrize("code", [
    "from casorati.cli import main; "
    "assert main(['verify', '--synthetic', sys.argv[1]]) == 0",
    "import casorati; casorati.SecondForm",
], ids=["verify-synthetic", "package-second-form"])
def test_synthetic_path_loads_no_chart_layer(tmp_path, code):
    # The chart layer, and with it the dataclass machinery, loads only for
    # --chart input.
    path = write_synthetic(tmp_path, [identity_form(), identity_form(
        p=2, h=np.eye(3)[None].repeat(2, 0).tolist())])
    code = (f"import sys; {code}; "
            f"print([m for m in {CHART_LAYER!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, path], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def run_child(args, **env_extra):
    """Run `python ARGS` in a fresh interpreter on this source tree, with no
    OPENBLAS_NUM_THREADS but what `env_extra` sets."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=str(SRC), **env_extra)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy without show_config(mode=...)
        return ""


needs_openblas_on_linux = pytest.mark.skipif(
    not (Path("/proc/self/task").is_dir() and "openblas" in _blas_name()),
    reason="counts OS threads in /proc of a numpy linked to OpenBLAS")
COUNT_THREADS = "import os; print(len(os.listdir('/proc/self/task')))"


class TestBlasThreads:
    @needs_openblas_on_linux
    def test_cli_runs_one_thread(self):
        done = run_child(["-c", "import casorati.cli; " + COUNT_THREADS])
        assert (done.returncode, done.stdout) == (0, "1\n"), done.stderr

    @needs_openblas_on_linux
    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="OpenBLAS starts no more threads than cores")
    def test_caller_thread_count_wins(self):
        done = run_child(["-c", "import casorati.cli; " + COUNT_THREADS],
                         OPENBLAS_NUM_THREADS="2")
        assert (done.returncode, done.stdout) == (0, "2\n"), done.stderr

    def test_package_import_loads_no_numpy(self):
        done = run_child(["-c", "import casorati, sys; "
                          "assert 'numpy' not in sys.modules"])
        assert done.returncode == 0, done.stderr

    def test_environment_untouched_once_numpy_is_loaded(self):
        done = run_child(["-c", "import os, numpy; before = dict(os.environ); "
                          "import casorati.cli; assert dict(os.environ) == before"])
        assert done.returncode == 0, done.stderr


GC_STATE = "import gc; print(gc.isenabled(), gc.get_freeze_count() > 0)"


class TestImportCollector:
    """As the program's entry the CLI imports with the cyclic collector off
    and freezes what the imports made; otherwise it leaves the collector
    alone."""

    def test_entry_freezes_and_collects_again(self):
        done = run_child(["-c", "import casorati.cli; " + GC_STATE])
        assert (done.returncode, done.stdout) == (0, "True True\n"), done.stderr

    def test_collector_untouched_once_numpy_is_loaded(self):
        done = run_child(["-c", "import numpy, casorati.cli; " + GC_STATE])
        assert (done.returncode, done.stdout) == (0, "True False\n"), done.stderr

    @pytest.mark.parametrize("first,frozen", [("", "True"), ("numpy, ", "False")],
                             ids=["entry", "after-numpy"])
    def test_chart_layer_loads_under_the_same_regime(self, first, frozen):
        # `catalog` loads the chart layer, after the CLI's own imports.
        done = run_child(["-c", f"import gc, os, {first}casorati.cli; "
                          "before = gc.get_freeze_count(); "
                          "casorati.cli.main(['catalog', '--out', os.devnull]); "
                          "print(gc.isenabled(), gc.get_freeze_count() > before)"])
        assert (done.returncode, done.stdout) == (0, f"True {frozen}\n"), done.stderr

    def test_chart_layer_imports_once(self):
        # A later bind, direct or through a deleted name read again, imports
        # and freezes nothing, so the objects made since stay collectable.
        done = run_child(["-c", "import gc, os, casorati.cli as cli; "
                          "cli.main(['catalog', '--out', os.devnull]); "
                          "made = [[] for _ in range(100)]; "
                          "before = gc.get_freeze_count(); "
                          "cli._bind_chart_layer(); del cli.frame_at; cli.frame_at; "
                          "print(gc.isenabled(), gc.get_freeze_count() == before)"])
        assert (done.returncode, done.stdout) == (0, "True True\n"), done.stderr

    def test_caller_disabled_collector_stays_off(self):
        done = run_child(["-c", "import gc; gc.disable(); "
                          "import casorati.cli; print(gc.isenabled())"])
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def _mixed_corpus(tmp_path) -> dict:
    """Files CORPUS (n = 3..6, p = 1..3) and FORM (its n = 6, p = 3 entry).
    n = 5 and 6 scan 16384 and 32768 grid nodes per p >= 2 form, so the grid
    scan's matmul runs at its full chunk."""
    rng = np.random.default_rng(13)
    corpus = []
    for n in range(3, 7):
        for p in range(1, 4):
            h = rng.uniform(-1, 1, (p, n, n))
            corpus.append({"n": n, "p": p, "c_tilde": float(rng.uniform(-1, 1)),
                           "h": (0.5 * (h + h.transpose(0, 2, 1))).tolist()})
    return {"CORPUS": write_synthetic(tmp_path, corpus, "corpus.json"),
            "FORM": write_synthetic(tmp_path, corpus[-1], "form.json")}


@pytest.mark.parametrize("command", [
    ["verify", "--synthetic", "CORPUS"],
    ["report", "--synthetic", "FORM"],
    ["sweep", "--chart", "chen_ideal", "--param", "a=1",
     "--grid", "t=0.05:3.6:12,u=-0.4:0.4:2,v=1.1"],
    ["verify", "--chart", "hypersphere", "--param", "R=2,n=3",
     "--grid", "phi1=0.02:2.5:3,phi2=0.6:2.4:3,phi3=1.0:5.0:2"],
], ids=["verify-synthetic", "report-synthetic", "sweep-chen-ideal",
        "verify-hypersphere"])
def test_output_independent_of_blas_threads(tmp_path, command):
    files = _mixed_corpus(tmp_path)
    args = ["-m", "casorati.cli", *(files.get(a, a) for a in command)]
    one, two = (run_child(args, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert (one.returncode, one.stdout) == (two.returncode, two.stdout)
    assert one.stdout, one.stderr


def identity_form(**extra):
    return {"n": 3, "p": 1, "h": np.eye(3)[None].tolist(), **extra}


NONFINITE = (math.nan, math.inf, -math.inf)


def assert_input_error(capsys, rc, *words):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    for word in words:
        assert word in err


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", NONFINITE)
    def test_h_entry(self, tmp_path, capsys, bad):
        entry = identity_form()
        entry["h"][0][1][1] = bad
        path = write_synthetic(tmp_path, entry)
        for command in ("verify", "report"):
            assert_input_error(capsys, main([command, "--synthetic", path]),
                               "finite")

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_c_tilde_in_file(self, tmp_path, capsys, bad):
        path = write_synthetic(tmp_path, [identity_form(c_tilde=bad)])
        assert_input_error(capsys, main(["verify", "--synthetic", path]),
                           "c_tilde", "finite")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_c_tilde_flag(self, tmp_path, capsys, bad):
        path = write_synthetic(tmp_path, identity_form())
        rc = main(["report", "--synthetic", path, f"--c-tilde={bad}"])
        assert_input_error(capsys, rc, "--c-tilde", "finite")

    @pytest.mark.parametrize("flag", ["--tol-algebraic", "--tol-geometric",
                                      "--margin"])
    def test_float_flags(self, capsys, flag):
        # A NaN tolerance would make every comparison false: a silent pass.
        rc = main(["verify", "--chart", "paraboloid",
                   "--grid", "x=0:0.5:3,y=0", f"{flag}=nan"])
        assert_input_error(capsys, rc, flag, "finite")

    @pytest.mark.parametrize("args", [
        ["--param", "R=nan,n=3", "--point", "phi1=0.9,phi2=1.2,phi3=2.0"],
        ["--param", "R=1,n=3", "--point", "phi1=nan,phi2=1.2,phi3=2.0"],
    ])
    def test_chart_numbers(self, capsys, args):
        rc = main(["report", "--chart", "hypersphere", *args])
        assert_input_error(capsys, rc, "finite")

    def test_grid_value(self, capsys):
        rc = main(["sweep", "--chart", "paraboloid", "--grid", "x=0:0.5:3,y=inf"])
        assert_input_error(capsys, rc, "grid value", "finite")

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_oversized_n(self, tmp_path, capsys, command):
        # A tiny h: the limit is checked before anything of size n exists.
        entry = {"n": MAX_SYNTHETIC_N + 1, "p": 2, "h": [[[0.0]]]}
        path = write_synthetic(tmp_path, entry)
        assert_input_error(capsys, main([command, "--synthetic", path]),
                           "MAX_SYNTHETIC_N", str(MAX_SYNTHETIC_N))

    @pytest.mark.parametrize("entry", [
        identity_form(n=math.inf), identity_form(n=None),
        identity_form(c_tilde=None), [1.0, 2.0], 5])
    def test_malformed_entry(self, tmp_path, capsys, entry):
        path = write_synthetic(tmp_path, [entry])
        assert_input_error(capsys, main(["verify", "--synthetic", path]))

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_deeply_nested_file(self, tmp_path, capsys, command):
        # json.loads raised RecursionError: a traceback and exit 1, the
        # exit code of a violation.
        path = tmp_path / "deep.json"
        path.write_text("[" * 3000 + "]" * 3000, encoding="utf-8")
        assert_input_error(capsys, main([command, "--synthetic", str(path)]),
                           "synthetic file", str(path), "nests too deeply")

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("key,bad,shown", [
        ("n", 3.7, "3.7"), ("p", 1.2, "1.2"), ("p", True, "true"),
        ("n", "3", '"3"')])
    def test_non_integer_dimension(self, tmp_path, capsys, command, key, bad,
                                   shown):
        # int() would read each of these as the identity form's own n or p.
        path = write_synthetic(tmp_path, identity_form(**{key: bad}))
        assert_input_error(capsys, main([command, "--synthetic", path]),
                           f"synthetic {key} must be an integer", shown)

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("bad,shown", [
        (True, "true"), ("0.5", '"0.5"'), (10 ** 400, "1" + "0" * 400)],
        ids=["true", "string", "beyond-float"])
    def test_non_numeric_c_tilde(self, tmp_path, capsys, command, bad, shown):
        # float() would read true as 1.0 and "0.5" as 0.5, and overflows on
        # an integer beyond the float range.
        path = write_synthetic(tmp_path, identity_form(c_tilde=bad))
        assert_input_error(capsys, main([command, "--synthetic", path]),
                           "synthetic c_tilde must be a finite number", shown)

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("bad,shown", [
        (True, "true"), ("0", '"0"'), (None, "null"), ({"x": 1}, '{"x": 1}'),
        (10 ** 400, "1" + "0" * 400)],
        ids=["true", "string", "null", "object", "beyond-float"])
    def test_non_numeric_h_entry(self, tmp_path, capsys, command, bad, shown):
        # A float array would read true as 1.0 and "0" as 0.0 (a form
        # reported as Ideal41, exit 0), and overflows on an integer beyond the
        # float range.
        entry = {"n": 3, "p": 1, "h": [[[1, 0, 0], [0, bad, 0], [0, 0, 2]]]}
        path = write_synthetic(tmp_path, [entry] if command == "verify" else entry)
        assert_input_error(capsys, main([command, "--synthetic", path]),
                           "synthetic h entry must be a finite number", shown)

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("key,bad", [("n", -1), ("n", 0), ("p", -2),
                                         ("p", 0)])
    def test_dimension_below_one(self, tmp_path, capsys, command, key, bad):
        # Without the check the shape test of h reported a negative shape.
        path = write_synthetic(tmp_path, identity_form(**{key: bad, "h": []}))
        assert_input_error(capsys, main([command, "--synthetic", path]),
                           f"synthetic {key} must be >= 1, got {bad}")

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_integral_float_dimension(self, tmp_path, capsys, command):
        path = write_synthetic(tmp_path, identity_form(n=3.0, p=1.0))
        assert main([command, "--synthetic", path]) == 0
        capsys.readouterr()


class TestOverflowingInput:
    # The invariants are quadratic in h and linear in c_tilde: past their
    # bound a report would hold inf or NaN, which no check may pass.
    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_huge_h(self, tmp_path, capsys, command, p):
        entry = {"n": 3, "p": p, "h": np.full((p, 3, 3), 1e200).tolist()}
        path = write_synthetic(tmp_path, [entry] if command == "verify" else entry)
        assert_input_error(capsys, main([command, "--synthetic", path]),
                           "max |h|", "overflow")

    def test_huge_h_corpus_checks_nothing(self, tmp_path, capsys):
        corpus = [identity_form(), identity_form(), identity_form()]
        corpus[2]["h"][0][0][0] = 1e200
        path = write_synthetic(tmp_path, corpus)
        rc = main(["verify", "--synthetic", path])
        out = capsys.readouterr().out
        assert (rc, out) == (2, "")

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_huge_c_tilde_in_file(self, tmp_path, capsys, command):
        path = write_synthetic(tmp_path, identity_form(c_tilde=1e308))
        assert_input_error(capsys, main([command, "--synthetic", path]),
                           "c_tilde", "overflow")

    def test_huge_c_tilde_flag(self, tmp_path, capsys):
        path = write_synthetic(tmp_path, identity_form())
        rc = main(["report", "--synthetic", path, "--c-tilde=-1e308"])
        assert_input_error(capsys, rc, "c_tilde", "overflow")

    def test_large_form_reports_strict_json(self, tmp_path):
        entry = {"n": 3, "p": 2, "h": (1e70 * np.eye(3)[None].repeat(2, 0)).tolist()}
        rc, text = run(["report", "--synthetic", write_synthetic(tmp_path, entry)],
                       tmp_path, "rep.json")
        assert rc == 0
        assert loads_strict(text)["C"] == pytest.approx(2e140)

    def test_nan_slack_is_a_violation(self, tmp_path, capsys, monkeypatch):
        real = cli.inequality_reports

        def nan_slack(items, **kwargs):
            return [rep._replace(slack41=math.nan)
                    for rep in real(items, **kwargs)]

        monkeypatch.setattr(cli, "inequality_reports", nan_slack)
        path = write_synthetic(tmp_path, [identity_form()])
        rc = main(["verify", "--synthetic", path])
        out = capsys.readouterr().out
        assert rc == 1
        assert "VIOLATION entry 0: slack nan" in out

    def test_nan_gauss_residual_is_a_violation(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gauss_residual", lambda *args: math.nan)
        rc = main(["verify", "--chart", "hypersphere", "--param", "R=2,n=3",
                   "--grid", "phi1=0.9,phi2=1.2,phi3=2.0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "Gauss residual nan" in out


class TestChartInput:
    SPHERE_POINT = "phi1=0.9,phi2=1.2,phi3=2.0"

    def test_non_integer_sphere_dimension(self, tmp_path, capsys):
        rc = main(["report", "--chart", "hypersphere", "--param", "n=2.7",
                   "--point", self.SPHERE_POINT])
        assert_input_error(capsys, rc, "integer", "2.7")
        rc, text = run(["report", "--chart", "hypersphere", "--param", "n=3.0",
                        "--point", self.SPHERE_POINT], tmp_path)
        assert rc == 0
        assert loads_strict(text)["n"] == 3

    def test_sphere_dimension_over_limit(self, capsys):
        # Rejected before the chart's n(n + 1)-entry factor table is built.
        tracemalloc.start()
        try:
            rc = main(["report", "--chart", "hypersphere", "--param", "n=1e9",
                       "--point", self.SPHERE_POINT])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_input_error(capsys, rc, "MAX_SPHERE_N", str(MAX_SPHERE_N))
        assert peak < 10 ** 6

    def test_negative_margin(self, capsys):
        # t = -0.2 lies outside chen_ideal's t > 0 domain at any margin >= 0.
        rc = main(["report", "--chart", "chen_ideal", "--margin", "-0.5",
                   "--point", "t=-0.2,u=0.3,v=1"])
        assert_input_error(capsys, rc, "margin", "-0.5")

    def test_margin_empties_an_axis(self, capsys):
        rc = main(["verify", "--chart", "chen_ideal", "--margin", "5",
                   "--grid", "t=0.5:3:4,u=0.3,v=1"])
        assert_input_error(capsys, rc, "margin", "empty")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("args,words", [
        # Lower-case r was ignored: the unit sphere was reported, C = 1.
        (["report", "--chart", "hypersphere", "--param", "r=2,n=3",
          "--point", SPHERE_POINT], ["unknown parameters", "'r'"]),
        # R1 was ignored: the Gauss check ran on r1 = 1.
        (["verify", "--chart", "flat_torus", "--param", "R1=3",
          "--grid", "th1=0.5:2:3,th2=1"], ["unknown parameters", "'R1'"]),
        # phi9 was dropped and the point reported without it.
        (["report", "--chart", "hypersphere", "--param", "R=1,n=3",
          "--point", SPHERE_POINT + ",phi9=4"], ["unknown point axes", "'phi9'"]),
    ], ids=["sphere-parameter", "torus-parameter", "point-axis"])
    def test_unknown_key(self, capsys, args, words):
        assert_input_error(capsys, main(args), *words)

    @pytest.mark.parametrize("args,key", [
        (["report", "--chart", "hypersphere", "--param", "R=1,R=2,n=3",
          "--point", SPHERE_POINT], "'R'"),
        (["report", "--chart", "hypersphere", "--param", "R=1,n=3",
          "--point", SPHERE_POINT + ",phi1=0.5"], "'phi1'"),
        (["sweep", "--chart", "chen_ideal",
          "--grid", "t=0.5:1.0:2,u=0.3,v=1.1,t=2.0"], "'t'"),
    ], ids=["param", "point", "grid"])
    def test_repeated_key(self, capsys, args, key):
        # The last value was kept: the sweep ran over t = 2.0 alone.
        assert_input_error(capsys, main(args), "repeated", key)


class TestParser:
    def test_options_per_command(self):
        parser = _build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        options = {name: sorted(s for a in sp._actions for s in a.option_strings
                                if s not in ("-h", "--help"))
                   for name, sp in commands.items()}
        chart = ["--chart", "--jet-mode", "--margin", "--out", "--param"]
        assert options == {
            "catalog": ["--out"],
            "report": sorted(chart + ["--c-tilde", "--point", "--synthetic"]),
            "sweep": sorted(chart + ["--format", "--grid"]),
            "verify": sorted(chart + ["--grid", "--synthetic", "--tol-algebraic",
                                      "--tol-geometric"]),
            "qp": ["--k", "--n", "--out", "--variant"],
        }

    @pytest.mark.parametrize("command,rest", [
        ("report", ["--point", "phi1=0.9,phi2=1.2,phi3=2.0"]),
        ("verify", ["--grid", "phi1=0.9,phi2=1.2,phi3=2.0"]),
    ])
    def test_synthetic_excludes_chart(self, tmp_path, capsys, command, rest):
        # --synthetic won silently: the chart and its point were ignored.
        path = write_synthetic(tmp_path, identity_form())
        with pytest.raises(SystemExit) as exc:
            main([command, "--synthetic", path, "--chart", "hypersphere",
                  "--param", "R=1,n=3", *rest])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--chart" in err and "--synthetic" in err

    @pytest.mark.parametrize("command,flags", [
        ("report", ["--param", "R=2", "--point", "phi1=1"]),
        ("verify", ["--grid", "x=1", "--tol-geometric", "0",
                    "--jet-mode", "numeric", "--margin", "0.4"]),
        ("verify", ["--margin", "1e-3"]),
        ("report", ["--jet-mode", "analytic"]),
    ], ids=["report", "verify", "default-margin", "default-jet-mode"])
    def test_synthetic_rejects_chart_flags(self, tmp_path, capsys, command,
                                           flags):
        # Each flag was ignored and the form reported with exit 0, even
        # when it spelled the default.
        path = write_synthetic(tmp_path, identity_form())
        given = [f for f in flags if f.startswith("--")]
        assert_input_error(capsys, main([command, "--synthetic", path, *flags]),
                           "--synthetic", *given)

    def test_sweep_needs_chart(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--grid", "x=0:0.5:3,y=0"])
        assert exc.value.code == 2
        assert "--chart" in capsys.readouterr().err


class TestCatalog:
    def test_lists_all_charts(self, tmp_path):
        # Byte for byte: names, axes, parameters (an integer n) and domains.
        two_pi = [0.0, 6.283185307179586]
        expected = {
            "chen_ideal": {"axes": ["t", "u", "v"],
                           "domain": [[0.001, 3.7071493546027434],
                                      [-1.5697963267948967, 1.5697963267948967], two_pi],
                           "n": 3, "p": 1, "params": {"a": 1.0}},
            "flat_torus": {"axes": ["th1", "th2"], "domain": [two_pi, two_pi],
                           "n": 2, "p": 2, "params": {"r1": 1.0, "r2": 1.0}},
            "hypersphere": {"axes": ["phi1", "phi2"],
                            "domain": [[0.001, 3.1405926535897932], two_pi],
                            "n": 2, "p": 1, "params": {"R": 1.0, "n": 2}},
            "paraboloid": {"axes": ["x", "y"], "domain": [[-1.0, 1.0], [-1.0, 1.0]],
                           "n": 2, "p": 1, "params": {"c": 1.0}},
        }
        assert run(["catalog"], tmp_path) == (
            0, json.dumps(expected, indent=2, sort_keys=True))


class TestReport:
    def test_sphere_slack(self, tmp_path):
        rc, text = run(["report", "--chart", "hypersphere",
                        "--param", "R=1,n=3",
                        "--point", "phi1=0.9,phi2=1.2,phi3=2.0"], tmp_path)
        assert rc == 0
        rep = loads_strict(text)
        assert rep["slack_41"] == pytest.approx(1.0 / 6.0, abs=1e-6)
        assert rep["classification"] == "Umbilical"

    def test_ill_conditioned_point_exits_3(self):
        # The metric of the polar chart degenerates at phi1 = 0; with no
        # margin the point is admissible and frame_at rejects it.
        done = run_child(["-m", "casorati.cli", "report", "--chart", "hypersphere",
                          "--param", "R=1,n=3", "--margin", "0",
                          "--point", "phi1=1e-6,phi2=1,phi3=1"])
        assert done.returncode == 3
        assert done.stderr.startswith("numerical failure: Gram matrix condition ")
        assert done.stdout == ""

    def test_chen_ideal_classification(self, tmp_path):
        rc, text = run(["report", "--chart", "chen_ideal", "--param", "a=1",
                        "--point", "t=0.8,u=0.3,v=1.1"], tmp_path)
        assert rc == 0
        rep = loads_strict(text)
        assert rep["classification"] == "Ideal41"
        assert rep["slack_41"] <= 1e-6

    def test_synthetic_geodesic(self, tmp_path):
        syn = write_synthetic(tmp_path, {
            "n": 3, "p": 1, "c_tilde": 1.0,
            "h": np.zeros((1, 3, 3)).tolist()})
        rc, text = run(["report", "--synthetic", syn], tmp_path)
        assert rc == 0
        rep = loads_strict(text)
        assert rep["classification"] == "TotallyGeodesic"
        assert rep["rho"] == pytest.approx(1.0, abs=1e-12)

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        h = rng.uniform(-1, 1, (2, 4, 4))
        h = 0.5 * (h + h.transpose(0, 2, 1))
        syn = write_synthetic(tmp_path, {
            "n": 4, "p": 2, "c_tilde": 0.25, "h": h.tolist()})
        rc, first = run(["report", "--synthetic", syn], tmp_path, "a.json")
        assert rc == 0
        # Feed the emitted report (which echoes h) back through the
        # synthetic-input path; every value must reproduce bit for bit.
        back = write_synthetic(tmp_path, loads_strict(first), "back.json")
        rc, second = run(["report", "--synthetic", back], tmp_path, "b.json")
        assert rc == 0
        assert first == second

    def test_inadmissible_point_exit_2(self, tmp_path, capsys):
        rc = main(["report", "--chart", "chen_ideal", "--param", "a=1",
                   "--point", "t=0.0,u=0.3,v=1.1"])
        capsys.readouterr()
        assert rc == 2

    def test_missing_arguments_exit_2(self, tmp_path, capsys):
        rc = main(["report", "--chart", "hypersphere"])
        capsys.readouterr()
        assert rc == 2

    def test_nonzero_c_tilde_needs_synthetic(self, capsys):
        rc = main(["report", "--chart", "hypersphere", "--param", "R=1,n=3",
                   "--point", "phi1=0.9,phi2=1.2,phi3=2.0",
                   "--c-tilde", "1.0"])
        capsys.readouterr()
        assert rc == 2


def report_columns(rep, frame_condition):
    """The sweep columns of one `InvariantReport`."""
    return {
        "n": rep.n, "p": rep.p, "c_tilde": rep.c_tilde, "C": rep.C,
        "inf_CL": rep.infCL.value, "sup_CL": rep.supCL.value,
        "mean_H": rep.meanH, "tau": rep.tau, "rho": rep.rho,
        "delta_hat": rep.delta_hat, "delta_C": rep.delta_C,
        "delta_c_legacy": rep.delta_c_legacy, "slack_11": rep.slack11,
        "slack_41": rep.slack41, "classification": rep.classification.kind,
        "frame_condition": frame_condition,
    }


def shown(value) -> str:
    # A float as the CSV writes it: repr, 17 significant digits.
    return repr(value) if isinstance(value, float) else str(value)


class TestSweep:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chart,params,grid,statuses", [
        ("chen_ideal", {"a": 1.0}, "t=0.0:3.0:4,u=-0.4:0.4:2,v=1.1",
         {"ok", "inadmissible"}),
        ("hypersphere", {"R": 2.0, "n": 4}, "phi1=0.02:1.5:3,phi2=0.02,"
         "phi3=0.02:1:2,phi4=1", {"ok", "ill-conditioned"}),
    ], ids=["chen-ideal", "hypersphere-n4"])
    def test_rows_equal_per_point_reports(self, tmp_path, fmt, chart, params,
                                          grid, statuses):
        # The sweep reports its points in one batch; each ok row must equal
        # the report of that point's form alone, value by value.
        param = ",".join(f"{k}={v}" for k, v in params.items())
        rc, text = run(["sweep", "--chart", chart, "--param", param,
                        "--grid", grid, "--format", fmt], tmp_path)
        assert rc == 0
        rows = (loads_strict(text) if fmt == "json"
                else list(csv.DictReader(text.splitlines())))
        assert {row["status"] for row in rows} == statuses
        c = make_chart(chart, params)
        for row in rows:
            if row["status"] != "ok":
                continue
            pt = np.array([float(row[a]) for a in c.axis_names])
            frame = frame_at(c, pt)
            # 1e-6: the CLI's classification tolerance for analytic jets.
            rep = inequality_report(second_form(c, pt, frame), 0.0,
                                    classify_tol=1e-6)
            want = report_columns(rep, frame.condition)
            assert {k: shown(row[k]) for k in want} == {
                k: shown(v) for k, v in want.items()}

    def test_inadmissible_rows_kept(self, tmp_path):
        rc, text = run(["sweep", "--chart", "chen_ideal", "--param", "a=1",
                        "--grid", "t=0.0:2.0:5,u=0.3,v=1.1"], tmp_path,
                       "sweep.csv")
        assert rc == 0
        rows = list(csv.DictReader(text.splitlines()))
        assert len(rows) == 5
        assert rows[0]["status"] == "inadmissible"
        for row in rows[1:]:
            assert row["status"] == "ok"
            assert float(row["slack_41"]) <= 1e-6
            assert row["classification"] == "Ideal41"

    def test_sphere_radius_sweep(self, tmp_path):
        for i, R in enumerate((0.5, 1.0, 2.0)):
            rc, text = run(["sweep", "--chart", "hypersphere",
                            "--param", f"R={R},n=3",
                            "--grid", "phi1=0.9,phi2=1.2,phi3=2.0"],
                           tmp_path, f"s{i}.csv")
            assert rc == 0
            row = next(csv.DictReader(text.splitlines()))
            assert float(row["slack_41"]) == pytest.approx(
                1.0 / (6.0 * R * R), abs=1e-6)

    def test_json_format(self, tmp_path):
        rc, text = run(["sweep", "--chart", "hypersphere",
                        "--param", "R=1,n=3",
                        "--grid", "phi1=0.8:1.2:2,phi2=1.0,phi3=2.0",
                        "--format", "json"], tmp_path, "sweep.json")
        assert rc == 0
        rows = loads_strict(text)
        assert len(rows) == 2
        assert all(r["status"] == "ok" for r in rows)

    def test_deterministic_output(self, tmp_path):
        args = ["sweep", "--chart", "chen_ideal", "--param", "a=1",
                "--grid", "t=0.3:2.1:4,u=-0.4:0.4:3,v=1.0"]
        _, a = run(args, tmp_path, "a.csv")
        _, b = run(args, tmp_path, "b.csv")
        assert a == b

    def test_bad_grid_axis_exit_2(self, capsys):
        rc = main(["sweep", "--chart", "paraboloid", "--grid", "q=0:1:5,y=0"])
        capsys.readouterr()
        assert rc == 2

    def test_oversized_grid_exit_2(self, capsys):
        rc = main(["sweep", "--chart", "paraboloid",
                   "--grid", "x=0:0.5:2000,y=0:0.5:2000"])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_oversized_axis_counted_before_allocation(self, capsys, command):
        # 10^13 points on one axis would need 80 TB if the axis were built.
        rc = main([command, "--chart", "paraboloid",
                   "--grid", "x=0:0.5:10000000000000,y=0.1"])
        assert_input_error(capsys, rc, "10000000000000 points", "limit is 1000000")

    @pytest.mark.parametrize("grid", ["th1=0,th2=0.5", "th1=0:1:3,th2=0.5"],
                             ids=["inadmissible-point", "three-points"])
    def test_n2_chart_exits_2_before_any_point(self, capsys, grid):
        # An n = 2 chart has no inequality report, whether or not a grid
        # point would have a form.
        rc = main(["sweep", "--chart", "flat_torus", "--grid", grid])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == "error: inequality report needs n >= 3\n"

    def test_synthetic_is_not_a_sweep_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--chart", "chen_ideal", "--param", "a=1",
                  "--grid", "t=0.5:2.0:4,u=0.3,v=1.1", "--synthetic", "x"])
        capsys.readouterr()
        assert exc.value.code == 2


class TestVerify:
    def test_chart_grid_passes(self, tmp_path, capsys):
        rc = main(["verify", "--chart", "hypersphere", "--param", "R=2,n=3",
                   "--grid", "phi1=0.5:2.5:3,phi2=0.6:2.4:3,phi3=1.0:5.0:2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 violations" in out
        assert "skipped" not in out

    @pytest.mark.parametrize("chart,param,grid,summary,skipped", [
        ("chen_ideal", "a=1", "t=0.0:3.7:4,u=0.2,v=1",
         "verify: 2 inputs checked, 0 violations",
         "  skipped: 2 (inadmissible 1, boundary stencil 1)"),
        ("hypersphere", "R=2,n=4", "phi1=0.02,phi2=0.02,phi3=0.02,phi4=1",
         "verify: 0 inputs checked, 0 violations",
         "  skipped: 1 (ill-conditioned 1)"),
    ])
    def test_skips_counted_by_reason(self, capsys, chart, param, grid, summary,
                                     skipped):
        rc = main(["verify", "--chart", chart, "--param", param, "--grid", grid])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[:2] == [summary, skipped]

    def test_chart_output_in_grid_order(self, capsys):
        # All three skip reasons, and with --tol-geometric 0 every checked
        # point is a Gauss violation: every line names its point in grid order.
        rc = main(["verify", "--chart", "hypersphere", "--param", "R=2,n=3",
                   "--grid", "phi1=0:0.01:3,phi2=0.005:1.205:3,phi3=1:6.28:2",
                   "--tol-geometric", "0"])
        assert rc == 1
        assert capsys.readouterr().out.splitlines() == [
            "verify: 4 inputs checked, 4 violations",
            "  skipped: 14 (inadmissible 6, ill-conditioned 4, boundary stencil 4)",
            "  worst slack: 4.166667e-02 at phi1=0.005,phi2=0.605,phi3=1",
            "  worst Gauss residual: 7.936547e+01 at phi1=0.005,phi2=0.605,phi3=1",
            "  VIOLATION phi1=0.005,phi2=0.605,phi3=1: Gauss residual 7.937e+01",
            "  VIOLATION phi1=0.005,phi2=1.205,phi3=1: Gauss residual 7.937e+01",
            "  VIOLATION phi1=0.01,phi2=0.605,phi3=1: Gauss residual 1.052e+00",
            "  VIOLATION phi1=0.01,phi2=1.205,phi3=1: Gauss residual 1.052e+00",
        ]

    SPHERE = ["verify", "--chart", "hypersphere", "--param", "R=2,n=3",
              "--grid", "phi1=0.9,phi2=1.2,phi3=2.0"]

    @pytest.mark.parametrize("args,flag", [
        (SPHERE + ["--tol-algebraic", "-1"], "--tol-algebraic"),
        (["verify", "--chart", "paraboloid", "--grid", "x=0:0.5:3,y=0",
          "--tol-geometric=-1e-3"], "--tol-geometric"),
    ], ids=["tol-algebraic", "tol-geometric"])
    def test_negative_tolerance_exit_2(self, capsys, args, flag):
        # Each would turn an exact immersion into a false violation (exit 1).
        assert_input_error(capsys, main(args), flag, ">= 0")

    def test_zero_tolerance_valid(self, capsys):
        rc = main(self.SPHERE + ["--tol-algebraic", "0"])
        assert (rc, capsys.readouterr().out.splitlines()[0]) == (
            0, "verify: 1 inputs checked, 0 violations")

    def test_synthetic_corpus_passes(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        corpus = []
        for _ in range(25):
            h = rng.uniform(-1, 1, (2, 4, 4))
            h = 0.5 * (h + h.transpose(0, 2, 1))
            corpus.append({"n": 4, "p": 2,
                           "c_tilde": float(rng.uniform(-1, 1)),
                           "h": h.tolist()})
        path = write_synthetic(tmp_path, corpus, "corpus.json")
        rc = main(["verify", "--synthetic", path])
        capsys.readouterr()
        assert rc == 0

    def test_synthetic_reports_in_input_order(self, tmp_path, capsys):
        # A corpus mixing (n, p) groups: the worst slack must name the entry
        # whose own report has it.
        rng = np.random.default_rng(21)
        corpus, slacks = [], []
        for k in range(12):
            n, p = 3 + k % 3, 1 + k % 4 // 2 + k % 2
            h = rng.uniform(-1, 1, (p, n, n))
            h = 0.5 * (h + h.transpose(0, 2, 1))
            corpus.append({"n": n, "p": p, "c_tilde": float(k % 3 - 1),
                           "h": h.tolist()})
            rep = inequality_report(SecondForm(n, p, h), float(k % 3 - 1))
            slacks.append(min(rep.slack11, rep.slack41))
        path = write_synthetic(tmp_path, corpus, "corpus.json")
        rc = main(["verify", "--synthetic", path])
        lines = capsys.readouterr().out.splitlines()
        worst = int(np.argmin(slacks))
        assert rc == 0
        assert lines == ["verify: 12 inputs checked, 0 violations",
                         f"  worst slack: {slacks[worst]:.6e} at entry {worst}"]

    @pytest.mark.parametrize("synthetic", [True, False],
                             ids=["synthetic", "chart-violation"])
    def test_out_writes_the_summary(self, tmp_path, capsys, synthetic):
        command = (["verify", "--synthetic",
                    write_synthetic(tmp_path, [identity_form()], "corpus.json")]
                   if synthetic else self.SPHERE + ["--tol-geometric", "0"])
        rc = main(command)
        shown = capsys.readouterr().out
        assert rc == (0 if synthetic else 1)
        assert run(command, tmp_path, "summary.txt") + (
            capsys.readouterr().out,) == (rc, shown, "")

    def test_bad_entry_mid_corpus_exit_2(self, tmp_path, capsys):
        corpus = [identity_form() for _ in range(5)]
        corpus[2] = {"n": 2, "p": 1, "h": np.eye(2)[None].tolist()}
        path = write_synthetic(tmp_path, corpus, "corpus.json")
        rc = main(["verify", "--synthetic", path])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith("error: synthetic entry 2: n >= 3")

    def test_corrupted_input_exit_2(self, tmp_path, capsys):
        path = write_synthetic(tmp_path, [{
            "n": 3, "p": 1,
            "h": [[[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]}],
            "bad.json")
        rc = main(["verify", "--synthetic", path])
        capsys.readouterr()
        assert rc == 2

    def test_missing_file_exit_2(self, capsys):
        rc = main(["verify", "--synthetic", "/nonexistent/corpus.json"])
        capsys.readouterr()
        assert rc == 2

    def test_empty_corpus_exit_2(self, tmp_path, capsys):
        # Nothing checked is no pass.
        path = write_synthetic(tmp_path, [], "corpus.json")
        rc = main(["verify", "--synthetic", path])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (2, "", "error: synthetic corpus is empty\n")

    @pytest.mark.parametrize("corpus", [5, None, True])
    def test_corpus_neither_list_nor_object_exit_2(self, tmp_path, capsys, corpus):
        path = write_synthetic(tmp_path, corpus, "corpus.json")
        assert_input_error(capsys, main(["verify", "--synthetic", path]),
                           "synthetic corpus")


class TestOracleLimit:
    def test_over_limit_exit_2(self, capsys):
        # Checked before any point: at n = 64 the stencil alone would take
        # 2.2 GB.
        n = MAX_ORACLE_N + 1
        grid = ",".join(f"phi{j + 1}=1.3" for j in range(n))
        t0 = time.perf_counter()
        rc = main(["verify", "--chart", "hypersphere", "--param", f"n={n}",
                   "--grid", grid])
        assert time.perf_counter() - t0 < 1.0
        assert_input_error(capsys, rc, "MAX_ORACLE_N", str(MAX_ORACLE_N))


class TestQP:
    def test_golden_point(self, tmp_path):
        rc, text = run(["qp", "--variant", "P", "--n", "3", "--k", "5"],
                       tmp_path, "qp.json")
        assert rc == 0
        sol = loads_strict(text)
        assert sol["point"] == pytest.approx([2.0, 2.0, 1.0], abs=1e-12)
        assert sol["value"] == pytest.approx(0.0, abs=1e-12)
        assert sol["min_restricted_hessian_eig"] == pytest.approx(
            5.0, abs=1e-10)

    def test_q_variant(self, tmp_path):
        rc, text = run(["qp", "--variant", "Q", "--n", "3", "--k", "4"],
                       tmp_path, "qp.json")
        assert rc == 0
        sol = loads_strict(text)
        assert sol["point"] == pytest.approx([1.0, 1.0, 2.0], abs=1e-12)

    def test_bad_n_exit_2(self, capsys):
        rc = main(["qp", "--variant", "P", "--n", "2", "--k", "1"])
        capsys.readouterr()
        assert rc == 2

    def test_n_over_limit_exit_2(self, capsys):
        rc = main(["qp", "--variant", "Q", "--n", str(MAX_QP_N + 1), "--k", "1"])
        assert rc == 2
        assert str(MAX_QP_N) in capsys.readouterr().err

    def test_n_at_limit(self, tmp_path):
        rc, text = run(["qp", "--variant", "Q", "--n", str(MAX_QP_N),
                        "--k", "1"], tmp_path, "qp.json")
        assert rc == 0
        assert len(loads_strict(text)["point"]) == MAX_QP_N

    @pytest.mark.parametrize("variant", ["P", "Q"])
    @pytest.mark.parametrize("k", ["1e155", "-1e155", "6.8e153"])
    def test_overflowing_k_exit_2(self, capsys, variant, k):
        rc = main(["qp", "--variant", variant, "--n", "3", f"--k={k}"])
        assert_input_error(capsys, rc, "--k")

    @pytest.mark.parametrize("variant", ["P", "Q"])
    @pytest.mark.parametrize("n", [3, MAX_QP_N])
    def test_k_at_bound(self, tmp_path, variant, n):
        k = 0.5 * math.sqrt(sys.float_info.max)
        rc, text = run(["qp", "--variant", variant, "--n", str(n),
                        "--k", repr(k)], tmp_path, "qp.json")
        assert rc == 0
        assert loads_strict(text)["k"] == k

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_k_exit_2(self, capsys, bad):
        rc = main(["qp", "--variant", "P", "--n", "4", "--k", bad])
        assert_input_error(capsys, rc, "--k", "finite")
