"""End-to-end tests for the command-line interface: output formats, exit
codes, determinism, and the JSON round trip."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from casorati.cli import MAX_QP_N, MAX_SYNTHETIC_N, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(args, tmp_path, name="out"):
    path = tmp_path / name
    rc = main(list(args) + ["--out", str(path)])
    return rc, path.read_text(encoding="utf-8")


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


class TestCatalog:
    def test_lists_all_charts(self, tmp_path):
        rc, text = run(["catalog"], tmp_path)
        assert rc == 0
        entries = json.loads(text)
        assert set(entries) == {"hypersphere", "chen_ideal",
                                "flat_torus", "paraboloid"}
        assert entries["chen_ideal"]["axes"] == ["t", "u", "v"]


class TestReport:
    def test_sphere_slack(self, tmp_path):
        rc, text = run(["report", "--chart", "hypersphere",
                        "--param", "R=1,n=3",
                        "--point", "phi1=0.9,phi2=1.2,phi3=2.0"], tmp_path)
        assert rc == 0
        rep = json.loads(text)
        assert rep["slack_41"] == pytest.approx(1.0 / 6.0, abs=1e-6)
        assert rep["classification"] == "Umbilical"

    def test_chen_ideal_classification(self, tmp_path):
        rc, text = run(["report", "--chart", "chen_ideal", "--param", "a=1",
                        "--point", "t=0.8,u=0.3,v=1.1"], tmp_path)
        assert rc == 0
        rep = json.loads(text)
        assert rep["classification"] == "Ideal41"
        assert rep["slack_41"] <= 1e-6

    def test_synthetic_geodesic(self, tmp_path):
        syn = write_synthetic(tmp_path, {
            "n": 3, "p": 1, "c_tilde": 1.0,
            "h": np.zeros((1, 3, 3)).tolist()})
        rc, text = run(["report", "--synthetic", syn], tmp_path)
        assert rc == 0
        rep = json.loads(text)
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
        back = write_synthetic(tmp_path, json.loads(first), "back.json")
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


class TestSweep:
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
        rows = json.loads(text)
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

    @pytest.mark.parametrize("corpus", [5, None, True])
    def test_corpus_neither_list_nor_object_exit_2(self, tmp_path, capsys, corpus):
        path = write_synthetic(tmp_path, corpus, "corpus.json")
        assert_input_error(capsys, main(["verify", "--synthetic", path]),
                           "synthetic corpus")


class TestQP:
    def test_golden_point(self, tmp_path):
        rc, text = run(["qp", "--variant", "P", "--n", "3", "--k", "5"],
                       tmp_path, "qp.json")
        assert rc == 0
        sol = json.loads(text)
        assert sol["point"] == pytest.approx([2.0, 2.0, 1.0], abs=1e-12)
        assert sol["value"] == pytest.approx(0.0, abs=1e-12)
        assert sol["min_restricted_hessian_eig"] == pytest.approx(
            5.0, abs=1e-10)

    def test_q_variant(self, tmp_path):
        rc, text = run(["qp", "--variant", "Q", "--n", "3", "--k", "4"],
                       tmp_path, "qp.json")
        assert rc == 0
        sol = json.loads(text)
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
        assert len(json.loads(text)["point"]) == MAX_QP_N

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_k_exit_2(self, capsys, bad):
        rc = main(["qp", "--variant", "P", "--n", "4", "--k", bad])
        assert_input_error(capsys, rc, "--k", "finite")
