"""Command-line front end: invariant reports, sweeps, verification runs, and
trace-constrained QP solutions in JSON/CSV.

Exit codes: 0 success, 1 inequality/consistency violation, 2 invalid input,
3 numerical admissibility failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np

from .geometry import (
    SecondForm,
    frame_at,
    gauss_residual,
    intrinsic_riemann,
    second_form,
)
from .immersions import (
    CATALOG_NAMES,
    BoundaryProximityError,
    DomainError,
    IllConditionedPointError,
    domain_check,
    make_chart,
)
from .invariants import inequality_report, oprea_qp

__all__ = ["main"]

REPORT_COLUMNS = [
    "n", "p", "c_tilde", "C", "inf_CL", "sup_CL", "mean_H", "tau", "rho",
    "delta_hat", "delta_C", "delta_c_legacy", "slack_11", "slack_41",
    "classification", "frame_condition",
]

MAX_GRID_POINTS = 10 ** 6
# `qp` certifies its minimizer with a dense eigendecomposition of the
# (n-1) x (n-1) restricted Hessian, O(n^3): about 0.2 s at this limit.
MAX_QP_N = 1000
# A p >= 2 extremum scans the sphere grid through n(n+1)/2 monomial rows of
# up to 2^14 doubles each: about 360 MB peak and 2 s per report at this limit.
MAX_SYNTHETIC_N = 64


def _finite(value: float, what: str) -> float:
    # float() parses "nan" and "inf", and JSON has NaN/Infinity literals.
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def _parse_kv(spec: str, what: str) -> dict:
    out = {}
    if not spec:
        return out
    for item in spec.split(","):
        if "=" not in item:
            raise ValueError(f"bad {what} entry {item!r}, expected key=value")
        key, val = item.split("=", 1)
        out[key.strip()] = _finite(float(val), f"{what} {key.strip()!r}")
    return out


def _parse_grid(spec: str, axis_names: tuple) -> list:
    """Grid spec 'axis=lo:hi:count' or 'axis=value'; returns points in
    deterministic row-major order over the chart's axis order."""
    per_axis = {}  # axis -> (point count, function making its values)
    for item in spec.split(","):
        if "=" not in item:
            raise ValueError(f"bad grid entry {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        if key not in axis_names:
            raise ValueError(f"unknown grid axis {key!r}; chart axes: {axis_names}")
        if ":" in val:
            parts = val.split(":")
            if len(parts) != 3:
                raise ValueError(f"bad grid range {val!r}, expected lo:hi:count")
            lo, hi, cnt = float(parts[0]), float(parts[1]), int(parts[2])
            if cnt < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"bad grid range {val!r}")
            per_axis[key] = (cnt, partial(np.linspace, lo, hi, cnt))
        else:
            value = _finite(float(val), f"grid value {key!r}")
            per_axis[key] = (1, partial(np.array, [value]))
    missing = [a for a in axis_names if a not in per_axis]
    if missing:
        raise ValueError(f"grid spec missing axes {missing}")
    # Count before allocating: one oversized axis must not exhaust memory.
    total = math.prod(per_axis[a][0] for a in axis_names)
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid has {total} points, limit is {MAX_GRID_POINTS}")
    grids = np.meshgrid(*[per_axis[a][1]() for a in axis_names], indexing="ij")
    return [np.array(pt) for pt in zip(*[g.ravel() for g in grids])]


def _load_synthetic(path: str) -> tuple:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return _synthetic_from_dict(data)


def _synthetic_from_dict(data: dict) -> tuple:
    if not isinstance(data, dict):
        raise ValueError("synthetic input must be a JSON object {n, p, c_tilde, h}")
    for key in ("n", "p", "h"):
        if key not in data:
            raise ValueError(f"synthetic input missing key {key!r}")
    try:
        n = int(data["n"])
        p = int(data["p"])
        c_tilde = float(data.get("c_tilde", 0.0))
    except (TypeError, OverflowError) as exc:  # null, list, infinite n or p
        raise ValueError(f"synthetic n, p and c_tilde must be finite "
                         f"numbers: {exc}") from exc
    if n > MAX_SYNTHETIC_N:
        raise ValueError(f"synthetic n = {n} exceeds the limit "
                         f"MAX_SYNTHETIC_N = {MAX_SYNTHETIC_N}")
    h = np.asarray(data["h"], dtype=float)
    sf = SecondForm(n, p, h)  # validates shape, finiteness and symmetry
    return sf, _finite(c_tilde, "c_tilde")


def _report_dict(sf: SecondForm, c_tilde: float, classify_tol: float,
                 frame_condition: float | None, echo_h: bool = True) -> dict:
    rep = inequality_report(sf, c_tilde, classify_tol=classify_tol)
    out = {
        "n": rep.n,
        "p": rep.p,
        "c_tilde": rep.c_tilde,
        "C": rep.C,
        "inf_CL": rep.infCL.value,
        "sup_CL": rep.supCL.value,
        "mean_H": rep.meanH,
        "tau": rep.tau,
        "rho": rep.rho,
        "delta_hat": rep.delta_hat,
        "delta_C": rep.delta_C,
        "delta_c_legacy": rep.delta_c_legacy,
        "slack_11": rep.slack11,
        "slack_41": rep.slack41,
        "classification": rep.classification.kind,
        "frame_condition": frame_condition,
    }
    if echo_h:
        out["h"] = sf.h.tolist()
    return out


def _chart_secondform(chart, point):
    frame = frame_at(chart, point)
    sf = second_form(chart, point, frame)
    return sf, frame.condition


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _make_cli_chart(args):
    params = _parse_kv(args.param or "", "param")
    return make_chart(args.chart, params, jet_mode=args.jet_mode,
                      margin=args.margin)


def _classify_tol_for(jet_mode: str | None) -> float:
    """Classification tolerance for a form from a chart in `jet_mode`, or
    from synthetic input (None). Synthetic inputs are exact; chart-derived
    forms carry jet noise, larger for numeric jets."""
    if jet_mode is None:
        return 1e-8
    return 1e-4 if jet_mode == "numeric" else 1e-6


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_catalog(args) -> int:
    entries = {}
    for name in CATALOG_NAMES:
        chart = make_chart(name)
        entries[name] = {
            "n": chart.n,
            "p": chart.p,
            "params": chart.params,
            "axes": list(chart.axis_names),
            "domain": [list(b) for b in chart.domain],
        }
    _emit(json.dumps(entries, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_report(args) -> int:
    if args.synthetic:
        sf, c_file = _load_synthetic(args.synthetic)
        c_tilde = args.c_tilde if args.c_tilde is not None else c_file
        cond, jet_mode = None, None
    else:
        if not args.chart or not args.point:
            raise ValueError("report needs --synthetic or both --chart and --point")
        if args.c_tilde not in (None, 0.0):
            raise ValueError("numeric charts are Euclidean: nonzero --c-tilde "
                             "is only valid with --synthetic")
        chart = _make_cli_chart(args)
        point_kv = _parse_kv(args.point, "point")
        try:
            point = np.array([point_kv[a] for a in chart.axis_names])
        except KeyError as exc:
            raise ValueError(f"point missing axis {exc}") from exc
        sf, cond = _chart_secondform(chart, point)
        c_tilde, jet_mode = 0.0, chart.jet_mode
    out = _report_dict(sf, c_tilde, _classify_tol_for(jet_mode), cond)
    _emit(json.dumps(out, indent=2, sort_keys=True), args.out)
    return 0


def _sweep_rows(args):
    chart = _make_cli_chart(args)
    points = _parse_grid(args.grid, chart.axis_names)
    rows = []
    for pt in points:
        row = {a: float(v) for a, v in zip(chart.axis_names, pt)}
        verdict = domain_check(chart, pt)
        if not verdict.admissible:
            row["status"] = "inadmissible"
            rows.append(row)
            continue
        try:
            sf, cond = _chart_secondform(chart, pt)
        except (IllConditionedPointError, DomainError):
            row["status"] = "ill-conditioned"
            rows.append(row)
            continue
        rep = _report_dict(sf, 0.0, _classify_tol_for(chart.jet_mode), cond,
                           echo_h=False)
        row["status"] = "ok"
        row.update(rep)
        rows.append(row)
    return chart, rows


def _cmd_sweep(args) -> int:
    chart, rows = _sweep_rows(args)
    columns = list(chart.axis_names) + ["status"] + REPORT_COLUMNS
    if args.format == "json":
        _emit(json.dumps(rows, indent=2, sort_keys=True), args.out)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        out = []
        for col in columns:
            v = row.get(col, "")
            if isinstance(v, float):
                v = repr(v)  # 17 significant digits, lossless round-trip
            out.append(v)
        writer.writerow(out)
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_verify(args) -> int:
    tol_alg = args.tol_algebraic
    violations = []
    checked = 0
    worst_slack = ("", math.inf)
    worst_gauss = ("", 0.0)
    skipped = Counter()  # reason -> points of the chart grid not checked

    if args.synthetic:
        corpus = json.loads(Path(args.synthetic).read_text(encoding="utf-8"))
        if isinstance(corpus, dict):
            corpus = [corpus]
        if not isinstance(corpus, list):
            raise ValueError("synthetic corpus must be a JSON list of "
                             "{n, p, c_tilde, h} objects or one such object")
        for i, entry in enumerate(corpus):
            sf, c_tilde = _synthetic_from_dict(entry)
            if sf.n < 3:
                raise ValueError(f"synthetic entry {i}: n >= 3 required")
            rep = inequality_report(sf, c_tilde, classify_tol=_classify_tol_for(None))
            checked += 1
            s = min(rep.slack11, rep.slack41)
            if s < worst_slack[1]:
                worst_slack = (f"entry {i}", s)
            if s < -tol_alg:
                violations.append(f"entry {i}: slack {s:.3e}")
    else:
        if not args.chart or not args.grid:
            raise ValueError("verify needs --synthetic or both --chart and --grid")
        chart = _make_cli_chart(args)
        tol_geom = args.tol_geometric
        if tol_geom is None:
            tol_geom = 1e-5 if chart.jet_mode == "numeric" else 1e-7
        points = _parse_grid(args.grid, chart.axis_names)
        for pt in points:
            label = ",".join(f"{a}={v:.6g}" for a, v in zip(chart.axis_names, pt))
            if not domain_check(chart, pt).admissible:
                skipped["inadmissible"] += 1
                continue
            try:
                sf, _ = _chart_secondform(chart, pt)
                riem = intrinsic_riemann(chart, pt)
            except IllConditionedPointError:
                skipped["ill-conditioned"] += 1
                continue
            except BoundaryProximityError:
                skipped["boundary stencil"] += 1
                continue
            checked += 1
            resid = gauss_residual(sf, riem, 0.0)
            if resid > worst_gauss[1]:
                worst_gauss = (label, resid)
            if resid > tol_geom:
                violations.append(f"{label}: Gauss residual {resid:.3e}")
            if chart.n >= 3:
                rep = inequality_report(sf, 0.0,
                                        classify_tol=_classify_tol_for(chart.jet_mode))
                s = min(rep.slack11, rep.slack41)
                if s < worst_slack[1]:
                    worst_slack = (label, s)
                if s < -tol_alg:
                    violations.append(f"{label}: slack {s:.3e}")

    print(f"verify: {checked} inputs checked, {len(violations)} violations")
    if skipped:
        reasons = ", ".join(f"{r} {k}" for r, k in skipped.items())
        print(f"  skipped: {skipped.total()} ({reasons})")
    if worst_slack[0]:
        print(f"  worst slack: {worst_slack[1]:.6e} at {worst_slack[0]}")
    if worst_gauss[0]:
        print(f"  worst Gauss residual: {worst_gauss[1]:.6e} at {worst_gauss[0]}")
    for v in violations[:10]:
        print(f"  VIOLATION {v}")
    return 1 if violations else 0


def _cmd_qp(args) -> int:
    if not 3 <= args.n <= MAX_QP_N:
        raise ValueError(f"qp needs 3 <= n <= {MAX_QP_N}, got {args.n}")
    sol = oprea_qp(args.variant, args.n, args.k)
    out = {
        "variant": sol.variant,
        "n": sol.n,
        "k": sol.k,
        "point": sol.point.tolist(),
        "t": sol.t,
        "value": sol.value,
        "min_restricted_hessian_eig": sol.min_restricted_hessian_eig,
    }
    _emit(json.dumps(out, indent=2, sort_keys=True), args.out)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casorati",
        description="Curvature invariants and Casorati-inequality verification "
                    "for immersed submanifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, chart_mode=True):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--tol-algebraic", type=float, default=1e-8)
        sp.add_argument("--tol-geometric", type=float, default=None)
        if chart_mode:
            sp.add_argument("--chart", choices=CATALOG_NAMES, default=None)
            sp.add_argument("--param", default=None,
                            help="chart parameters, e.g. R=1,n=3")
            sp.add_argument("--jet-mode", choices=("analytic", "numeric"),
                            default="analytic")
            sp.add_argument("--margin", type=float, default=1e-3)

    sp = sub.add_parser("catalog", help="list catalog charts")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_catalog)

    sp = sub.add_parser("report", help="invariant report at one point")
    add_common(sp)
    sp.add_argument("--point", default=None, help="e.g. t=0.8,u=0.3,v=1.1")
    sp.add_argument("--synthetic", default=None,
                    help="JSON file {n, p, c_tilde, h}")
    sp.add_argument("--c-tilde", type=float, default=None,
                    help="ambient curvature (synthetic mode only)")
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser("sweep", help="grid sweep over a chart")
    add_common(sp)
    sp.add_argument("--grid", required=True,
                    help="e.g. t=0.1:3.5:50,u=0.3,v=1.1")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("verify", help="batch inequality + Gauss checks")
    add_common(sp)
    sp.add_argument("--grid", default=None)
    sp.add_argument("--synthetic", default=None,
                    help="JSON corpus: list of {n, p, c_tilde, h}")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("qp", help="trace-constrained quadratic minimization")
    sp.add_argument("--variant", choices=("P", "Q"), required=True)
    sp.add_argument("--n", type=int, required=True,
                    help=f"dimension, 3 <= n <= {MAX_QP_N}")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_qp)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float):
                _finite(value, "--" + name.replace("_", "-"))
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IllConditionedPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
