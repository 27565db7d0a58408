"""Command-line front end: invariant reports, sweeps, verification runs, and
trace-constrained QP solutions in JSON/CSV.

Exit codes: 0 success, 1 inequality/consistency violation, 2 invalid input,
3 numerical admissibility failure.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
from collections import Counter
from functools import partial
from importlib import import_module
from pathlib import Path

from . import CATALOG_NAMES

# numpy's OpenBLAS starts a pool of one thread per core when numpy loads. The
# matrices here are too small for it (n <= 64, and grid-scan products of at
# most 128 KiB, such as (8 forms x 4 rows, 21) @ (21, 512) at n = 6): on 2
# cores the second thread cost 60-90 ms of CPU per process and saved no wall
# time. So the command line asks for one thread unless the caller set a
# count. Once numpy is loaded the pool exists, and the variable would only
# pass on to child processes: leave it alone then.
_entry = "numpy" not in sys.modules
if _entry:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


class _EntryImports:
    """Every object an import makes stays alive, so a cyclic-collector pass
    over them finds nothing: as the program's entry, the CLI imports with
    the collector off, then freezes those objects out of later passes. A
    collector the caller switched off stays off."""

    def __enter__(self):
        self.collecting = gc.isenabled()
        if _entry:
            gc.disable()

    def __exit__(self, *exc_info):
        if _entry:
            gc.freeze()
            if self.collecting:
                gc.enable()


# Everything but chart input needs only numpy and the invariants: the chart
# layer (immersions, geometry and, through them, elliptic) loads on demand.
with _EntryImports():
    import numpy as np

    from .invariants import (
        InvariantReport,
        SecondForm,
        inequality_report,
        inequality_reports,
        oprea_qp,
    )

# The chart layer's names the commands call, by the module that defines them.
# `_bind_chart_layer` makes each a module attribute, looked up at call time.
_CHART_NAMES = {
    "immersions": ("BoundaryProximityError", "IllConditionedPointError",
                   "domain_check", "make_chart"),
    "geometry": ("frame_at", "gauss_residual", "intrinsic_riemann", "second_form"),
}
_chart_modules = None           # the modules, once imported


def _bind_chart_layer() -> None:
    """Bind `_CHART_NAMES` here. Only the first call imports the chart
    layer, under `_EntryImports`, so a later one freezes nothing. A name
    already bound, such as a test's patch or a tracer's wrapper, is kept."""
    global _chart_modules
    if _chart_modules is None:
        with _EntryImports():
            _chart_modules = {m: import_module(f".{m}", __package__)
                              for m in _CHART_NAMES}
    for m, names in _CHART_NAMES.items():
        for name in names:
            globals().setdefault(name, getattr(_chart_modules[m], name))


def __getattr__(name: str):
    # PEP 562: reading a chart-layer name as an attribute binds the layer.
    if not any(name in names for names in _CHART_NAMES.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_chart_layer()
    return globals()[name]


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
# 256 doubles per grid block from n = 8 on: at this limit a p = 2 `report`
# process peaks at about 38 MB and takes 0.5-0.7 s (2-core Xeon).
MAX_SYNTHETIC_N = 64
# `verify --chart` takes (1 + 4n)^2 metric points per grid point: at this
# limit one hypersphere point takes 0.84 s and peaks at 162 MB (about n^4).
MAX_ORACLE_N = 24


def _finite(value: float, what: str) -> float:
    # float() parses "nan" and "inf", and JSON has NaN/Infinity literals.
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def _split_kv(spec: str, what: str) -> dict:
    """'key=value,...' as {key: value text}; an entry without '=' or a
    repeated key is an error."""
    out = {}
    if not spec:
        return out
    for item in spec.split(","):
        if "=" not in item:
            raise ValueError(f"bad {what} entry {item!r}, expected key=value")
        key, val = item.split("=", 1)
        key = key.strip()
        if key in out:
            raise ValueError(f"repeated {what} key {key!r}")
        out[key] = val
    return out


def _parse_kv(spec: str, what: str) -> dict:
    return {key: _finite(float(val), f"{what} {key!r}")
            for key, val in _split_kv(spec, what).items()}


def _parse_grid(spec: str, axis_names: tuple) -> list:
    """Grid spec 'axis=lo:hi:count' or 'axis=value'; returns points in
    deterministic row-major order over the chart's axis order."""
    per_axis = {}  # axis -> (point count, function making its values)
    for key, val in _split_kv(spec, "grid").items():
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


def _synthetic_number(value, what: str, integer: bool = False):
    """A number of synthetic JSON input: an int if `integer`, else a finite
    float. int() and float() would read true as 1 and "3" as 3, and int()
    would truncate 3.7 to 3; an integral float such as 3.0 spells 3."""
    valid = isinstance(value, (int, float)) and not isinstance(value, bool)
    if integer:
        valid = valid and (isinstance(value, int) or value.is_integer())
    else:  # also rejects NaN, infinities and integers beyond the float range
        valid = valid and abs(value) <= sys.float_info.max
    if not valid:
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"synthetic {what} must be {kind}, got {json.dumps(value)}")
    return int(value) if integer else float(value)


def _load_synthetic(path: str):
    """The JSON value of the synthetic input file `path`. One nested too
    deeply for the parser is bad input, like malformed JSON, not a crash."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"synthetic file {path} nests too deeply") from None


def _synthetic_from_dict(data: dict) -> tuple:
    if not isinstance(data, dict):
        raise ValueError("synthetic input must be a JSON object {n, p, c_tilde, h}")
    for key in ("n", "p", "h"):
        if key not in data:
            raise ValueError(f"synthetic input missing key {key!r}")
    n = _synthetic_number(data["n"], "n", integer=True)
    p = _synthetic_number(data["p"], "p", integer=True)
    c_tilde = _synthetic_number(data.get("c_tilde", 0.0), "c_tilde")
    for key, value in (("n", n), ("p", p)):
        if value < 1:
            raise ValueError(f"synthetic {key} must be >= 1, got {value}")
    if n > MAX_SYNTHETIC_N:
        raise ValueError(f"synthetic n = {n} exceeds the limit "
                         f"MAX_SYNTHETIC_N = {MAX_SYNTHETIC_N}")
    todo = [data["h"]]  # each entry of h follows the rule of n, p and c_tilde
    while todo:
        x = todo.pop()
        if isinstance(x, list):
            todo += x
        else:
            _synthetic_number(x, "h entry")
    h = np.asarray(data["h"], dtype=float)
    return SecondForm(n, p, h), c_tilde  # validates shape and symmetry


def _report_dict(rep: InvariantReport, frame_condition: float | None) -> dict:
    """The REPORT_COLUMNS of `rep`; the frame condition is None for a
    synthetic form."""
    return {
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


def _point_form(chart, pt, riemann: bool = False) -> tuple:
    """`(status, SecondForm, frame condition, RiemannTensor or None)` at a
    grid point. The status is "ok", or the reason the point has no form:
    "inadmissible", "ill-conditioned", or with `riemann` "boundary stencil"
    (the intrinsic curvature stencil leaves the domain)."""
    if not domain_check(chart, pt).admissible:
        return "inadmissible", None, None, None
    try:
        frame = frame_at(chart, pt)
        sf = second_form(chart, pt, frame)
        riem = intrinsic_riemann(chart, pt) if riemann else None
    except IllConditionedPointError:
        return "ill-conditioned", None, None, None
    except BoundaryProximityError:
        return "boundary stencil", None, None, None
    return "ok", sf, frame.condition, riem


def _batch_reports(items: list, jet_mode: str | None) -> list:
    """Reports of `(SecondForm, c_tilde)` items, in order, from one batched
    `inequality_reports` call; an item None gets the report None. Each
    report equals that of its form reported alone, bit for bit."""
    reports = iter(inequality_reports([it for it in items if it is not None],
                                      classify_tol=_classify_tol_for(jet_mode)))
    return [None if it is None else next(reports) for it in items]


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _make_cli_chart(args):
    _bind_chart_layer()
    params = _parse_kv(args.param or "", "param")
    return make_chart(args.chart, params, jet_mode=args.jet_mode or "analytic",
                      margin=1e-3 if args.margin is None else args.margin)


def _reject_chart_flags(args) -> None:
    """Synthetic input has no chart: a chart flag given with it is an error,
    not silently ignored."""
    given = [f"--{name.replace('_', '-')}" for name in
             ("param", "point", "grid", "jet_mode", "margin", "tol_geometric")
             if getattr(args, name, None) is not None]
    if given:
        raise ValueError(f"{', '.join(given)} only apply to --chart input, "
                         f"not --synthetic")


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
    _bind_chart_layer()
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
        _reject_chart_flags(args)
        sf, c_file = _synthetic_from_dict(_load_synthetic(args.synthetic))
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
        unknown = [a for a in point_kv if a not in chart.axis_names]
        if unknown:
            raise ValueError(f"unknown point axes {unknown}; "
                             f"chart axes: {chart.axis_names}")
        try:
            point = np.array([point_kv[a] for a in chart.axis_names])
        except KeyError as exc:
            raise ValueError(f"point missing axis {exc}") from exc
        # Unlike a grid point, an inadmissible or ill-conditioned point is
        # an error here: frame_at raises it with its reason.
        frame = frame_at(chart, point)
        sf, cond = second_form(chart, point, frame), frame.condition
        c_tilde, jet_mode = 0.0, chart.jet_mode
    rep = inequality_report(sf, c_tilde, classify_tol=_classify_tol_for(jet_mode))
    out = {**_report_dict(rep, cond), "h": sf.h.tolist()}
    _emit(json.dumps(out, indent=2, sort_keys=True), args.out)
    return 0


def _sweep_rows(args):
    chart = _make_cli_chart(args)
    grid = _parse_grid(args.grid, chart.axis_names)
    # Before any point: whether a point has a form must not decide the exit.
    if chart.n < 3:
        raise ValueError("inequality report needs n >= 3")
    rows, items, conds = [], [], []
    for pt in grid:
        status, sf, cond, _ = _point_form(chart, pt)
        row = {a: float(v) for a, v in zip(chart.axis_names, pt)}
        row["status"] = status
        rows.append(row)
        items.append(None if sf is None else (sf, 0.0))
        conds.append(cond)
    for row, rep, cond in zip(rows, _batch_reports(items, chart.jet_mode), conds):
        if rep is not None:
            row.update(_report_dict(rep, cond))
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
    skipped = Counter()  # reason -> points of the chart grid not checked
    if args.synthetic:
        _reject_chart_flags(args)
        corpus = _load_synthetic(args.synthetic)
        if isinstance(corpus, dict):
            corpus = [corpus]
        if not isinstance(corpus, list):
            raise ValueError("synthetic corpus must be a JSON list of "
                             "{n, p, c_tilde, h} objects or one such object")
        if not corpus:  # nothing checked must not pass
            raise ValueError("synthetic corpus is empty")
        # Validate every entry before any report, then report them together.
        items = []
        for i, entry in enumerate(corpus):
            sf, c_tilde = _synthetic_from_dict(entry)
            if sf.n < 3:
                raise ValueError(f"synthetic entry {i}: n >= 3 required")
            items.append((sf, c_tilde))
        labels = [f"entry {i}" for i in range(len(items))]
        resids = [None] * len(items)
        jet_mode = tol_geom = None
    else:
        if not args.chart or not args.grid:
            raise ValueError("verify needs --synthetic or both --chart and --grid")
        chart = _make_cli_chart(args)
        if chart.n > MAX_ORACLE_N:
            raise ValueError(f"verify --chart needs n <= MAX_ORACLE_N = "
                             f"{MAX_ORACLE_N}, got n = {chart.n}")
        jet_mode, tol_geom = chart.jet_mode, args.tol_geometric
        if tol_geom is None:
            tol_geom = 1e-5 if jet_mode == "numeric" else 1e-7
        labels, resids, items = [], [], []
        for pt in _parse_grid(args.grid, chart.axis_names):
            status, sf, _, riem = _point_form(chart, pt, riemann=True)
            if status != "ok":
                skipped[status] += 1
                continue
            labels.append(",".join(f"{a}={v:.6g}"
                                   for a, v in zip(chart.axis_names, pt)))
            resids.append(gauss_residual(sf, riem, 0.0))
            # An n = 2 chart has no inequality report: only the Gauss check.
            items.append((sf, 0.0) if chart.n >= 3 else None)

    violations = []
    worst_slack = ("", math.inf)
    worst_gauss = ("", 0.0)
    for label, resid, rep in zip(labels, resids, _batch_reports(items, jet_mode)):
        if resid is not None:
            if resid > worst_gauss[1]:
                worst_gauss = (label, resid)
            if not resid <= tol_geom:  # a NaN residual fails
                violations.append(f"{label}: Gauss residual {resid:.3e}")
        if rep is not None:
            s = min(rep.slack11, rep.slack41)
            if math.isnan(rep.slack41):  # min() keeps slack11 against a NaN
                s = rep.slack41
            if s < worst_slack[1]:
                worst_slack = (label, s)
            if not s >= -args.tol_algebraic:  # a NaN slack fails
                violations.append(f"{label}: slack {s:.3e}")

    lines = [f"verify: {len(labels)} inputs checked, {len(violations)} violations"]
    if skipped:
        reasons = ", ".join(f"{r} {k}" for r, k in skipped.items())
        lines.append(f"  skipped: {skipped.total()} ({reasons})")
    if worst_slack[0]:
        lines.append(f"  worst slack: {worst_slack[1]:.6e} at {worst_slack[0]}")
    if worst_gauss[0]:
        lines.append(f"  worst Gauss residual: {worst_gauss[1]:.6e} at {worst_gauss[0]}")
    lines += [f"  VIOLATION {v}" for v in violations[:10]]
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if violations else 0


def _cmd_qp(args) -> int:
    if not 3 <= args.n <= MAX_QP_N:
        raise ValueError(f"qp needs 3 <= n <= {MAX_QP_N}, got {args.n}")
    # The objective at the minimizer sums terms of at most 2k^2 in size
    # ((sum x)^2 = k^2), so its partial sums stay below 4k^2 <= float_max.
    k_max = 0.5 * math.sqrt(sys.float_info.max)
    if abs(args.k) > k_max:
        raise ValueError(f"--k must satisfy |k| <= {k_max:.6g}, got {args.k!r}")
    sol = oprea_qp(args.variant, args.n, args.k)
    out = {**sol._asdict(), "point": sol.point.tolist()}
    _emit(json.dumps(out, indent=2, sort_keys=True), args.out)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casorati",
        description="Curvature invariants and Casorati-inequality verification "
                    "for immersed submanifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, synthetic_help=None):
        """--out and the chart options; with `synthetic_help`, --chart is
        optional and excludes --synthetic, else it is required."""
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if synthetic_help is None:
            sp.add_argument("--chart", choices=CATALOG_NAMES, required=True)
        else:
            source = sp.add_mutually_exclusive_group()
            source.add_argument("--chart", choices=CATALOG_NAMES, default=None)
            source.add_argument("--synthetic", default=None, help=synthetic_help)
        sp.add_argument("--param", default=None,
                        help="chart parameters, e.g. R=1,n=3")
        # None, left to `_make_cli_chart`, marks a flag as given.
        sp.add_argument("--jet-mode", choices=("analytic", "numeric"),
                        default=None, help="default analytic")
        sp.add_argument("--margin", type=float, default=None,
                        help="default 1e-3")

    sp = sub.add_parser("catalog", help="list catalog charts")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_catalog)

    sp = sub.add_parser("report", help="invariant report at one point")
    add_common(sp, synthetic_help="JSON file {n, p, c_tilde, h}")
    sp.add_argument("--point", default=None, help="e.g. t=0.8,u=0.3,v=1.1")
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
    add_common(sp, synthetic_help="JSON corpus: list of {n, p, c_tilde, h}")
    sp.add_argument("--grid", default=None)
    sp.add_argument("--tol-algebraic", type=float, default=1e-8)
    sp.add_argument("--tol-geometric", type=float, default=None)
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
                flag = "--" + name.replace("_", "-")
                _finite(value, flag)
                # A negative tolerance flags exact equality cases as violations.
                if name in ("tol_algebraic", "tol_geometric") and value < 0:
                    raise ValueError(f"{flag} must be >= 0, got {value!r}")
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Only the chart layer raises it, so it is bound by the time it can be.
    except globals().get("IllConditionedPointError", ()) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
