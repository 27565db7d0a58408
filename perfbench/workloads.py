"""Seeded CLI workloads for the casorati benchmark and the checks on their output.

A workload is a list of `Invocation`s: the arguments after
`python -m casorati.cli`, the number of points the invocation attempts, and a
check that turns its exit code, stdout and stderr into an `Outcome`. The
program sees only the generated grids and files; every expected value comes
from an oracle that does not import casorati (mpmath for the Jacobi functions,
closed forms for the sphere, the theorem for the inequality slacks).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import mpmath

# Jacobi modulus of the chen_ideal profile: k = 1/sqrt(2), parameter m = k^2.
CHEN_M = 0.5
CHEN_K = float(mpmath.ellipk(CHEN_M))
# The CLI's default guard strip; every grid stays at least this far inside.
MARGIN = 1e-3
# Default algebraic tolerance of `verify`; a slack below -TOL_ALG is a violation.
TOL_ALG = 1e-8

SUMMARY_RE = re.compile(r"^verify: (\d+) inputs checked, (\d+) violations$", re.M)
WORST_SLACK_RE = re.compile(r"^  worst slack: (\S+) at ", re.M)


@dataclass
class Outcome:
    """What the benchmark concluded about one invocation's output."""

    failed: int = 0          # points that failed (wrong, skipped or violated)
    wrong: list = field(default_factory=list)  # outputs contradicting an oracle
    skipped: int = 0         # points `verify` attempted but did not check
    violations: int = 0      # violations `verify` reported


@dataclass
class Invocation:
    label: str
    args: list
    points: int
    check: Callable[[int, str, str], Outcome] = field(repr=False)


def linspace(lo: float, hi: float, count: int) -> list:
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count - 1)] + [hi]


def grid_spec(axes: list) -> tuple:
    """axes: [(name, lo, hi, count)] in chart order -> (--grid spec, points
    in the CLI's row-major order)."""
    spec = ",".join(f"{name}={lo!r}:{hi!r}:{count}" for name, lo, hi, count in axes)
    points = [()]
    for _, lo, hi, count in axes:
        points = [p + (v,) for p in points for v in linspace(lo, hi, count)]
    return spec, points


def span(rng: random.Random, lo: float, hi: float, count: int,
         inset: float = 0.02) -> tuple:
    """An axis from just inside `lo` to just inside `hi` (open ends): each end
    is moved in by `inset` plus a seeded 0 to 0.03."""
    return (lo + inset + 0.03 * rng.random(), hi - inset - 0.03 * rng.random(),
            count)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def chen_lambda(a: float, t: float) -> float:
    """Shape-operator eigenvalue of chen_ideal: lambda = a sd(a t, 1/sqrt 2) / 2."""
    with mpmath.workdps(30):
        u = mpmath.mpf(a) * mpmath.mpf(t)
        sd = mpmath.ellipfun("sn", u, m=CHEN_M) / mpmath.ellipfun("dn", u, m=CHEN_M)
        return float(mpmath.mpf(a) * sd / 2)


def chen_row_problems(a: float, rtol: float, row: dict) -> list:
    """chen_ideal is Ideal41 with spectrum {lam, lam, 2 lam}: C = 2 lam^2 and
    |H| = 4 lam / 3, and the delta_C inequality is an equality."""
    lam = chen_lambda(a, float(row["t"]))
    out = []
    if row["classification"] != "Ideal41":
        out.append(f"classification {row['classification']} != Ideal41")
    if not abs(float(row["slack_41"])) <= 1e-6:
        out.append(f"slack_41 {row['slack_41']} exceeds 1e-6")
    for col, want in (("C", 2.0 * lam * lam), ("mean_H", 4.0 * lam / 3.0)):
        got = float(row[col])
        if not abs(got - want) <= rtol * abs(want):
            out.append(f"{col} {got!r} != {want!r}")
    return out


def sphere_row_problems(R: float, rtol: float, row: dict) -> list:
    """The round sphere of radius R is umbilical with C = 1 / R^2."""
    out = []
    if row["classification"] != "Umbilical":
        out.append(f"classification {row['classification']} != Umbilical")
    got, want = float(row["C"]), 1.0 / (R * R)
    if not abs(got - want) <= rtol * want:
        out.append(f"C {got!r} != {want!r}")
    return out


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def crashed(points: int, returncode: int, stderr: str, allowed: tuple) -> Outcome | None:
    if returncode in allowed and "Traceback" not in stderr:
        return None
    tail = stderr.strip().splitlines()[-1:] or [""]
    return Outcome(failed=points, wrong=[f"exit {returncode}: {tail[0]}"])


def check_sweep(axis_names: tuple, expected: list, row_problems: Callable,
                returncode: int, stdout: str, stderr: str) -> Outcome:
    """One CSV row per grid point, in grid order, each passing the oracle."""
    out = crashed(len(expected), returncode, stderr, (0,))
    if out:
        return out
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if len(rows) != len(expected):
        return Outcome(failed=len(expected),
                       wrong=[f"{len(rows)} rows for {len(expected)} grid points"])
    out = Outcome()
    for row, point in zip(rows, expected):
        try:
            coords = [float(row[a]) for a in axis_names]
            problems = []
            if any(abs(c - p) > 1e-12 * max(1.0, abs(p)) for c, p in zip(coords, point)):
                problems.append(f"row at {coords}")
            if row["status"] != "ok":
                problems.append(f"status {row['status']}")
            else:
                problems += row_problems(row)
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"unreadable row: {exc!r}"]
        if problems:
            out.failed += 1
            out.wrong.append(f"{point}: {'; '.join(problems)}")
    return out


def parse_verify_summary(stdout: str) -> tuple | None:
    """(checked, violations, worst_slack or None) from `verify` output."""
    m = SUMMARY_RE.search(stdout)
    if not m:
        return None
    w = WORST_SLACK_RE.search(stdout)
    return int(m.group(1)), int(m.group(2)), float(w.group(1)) if w else None


def check_verify(points: int, returncode: int, stdout: str, stderr: str) -> Outcome:
    """Every attempted point is checked and none is in violation.

    A slack below -TOL_ALG contradicts the theorem (the slacks are >= 0), so
    it is a wrong output. A Gauss-residual violation on an exact immersion is
    the oracle missing its tolerance: the point fails, but no reported
    invariant is contradicted. `verify` prints only the first ten violation
    lines, so each violation counts as one failed point, capped at the
    number attempted.
    """
    out = crashed(points, returncode, stderr, (0, 1))
    if out:
        return out
    summary = parse_verify_summary(stdout)
    if summary is None:
        return Outcome(failed=points, wrong=["no verify summary line"])
    checked, violations, worst_slack = summary
    out = Outcome(skipped=max(0, points - checked), violations=violations)
    out.failed = min(points, out.skipped + violations)
    if checked > points:
        out.wrong.append(f"{checked} checked of {points} attempted")
    if returncode != (1 if violations else 0):
        out.wrong.append(f"exit {returncode} with {violations} violations")
    if worst_slack is not None and worst_slack < -TOL_ALG:
        out.wrong.append(f"negative slack {worst_slack!r}")
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _sweep(label: str, chart: str, param: str, axes: list, row_problems: Callable,
           extra: tuple = ()) -> Invocation:
    spec, expected = grid_spec(axes)
    names = tuple(a[0] for a in axes)
    args = ["sweep", "--chart", chart, "--param", param, "--grid", spec, *extra]
    return Invocation(label, args, len(expected),
                      lambda rc, so, se: check_sweep(names, expected, row_problems,
                                                     rc, so, se))


def _verify(label: str, chart: str, param: str | None, axes: list,
            extra: tuple = ()) -> Invocation:
    spec, expected = grid_spec(axes)
    args = ["verify", "--chart", chart, *(["--param", param] if param else []),
            "--grid", spec, *extra]
    n = len(expected)
    return Invocation(label, args, n, lambda rc, so, se: check_verify(n, rc, so, se))


def chart_sweep(seed: int, workdir: Path) -> list:
    """The catalog -> report path: chen_ideal sweeps over the whole t domain
    for three values of a, a numeric-jet chen_ideal slice, and a sphere."""
    rng = random.Random(seed)
    half = 0.5 * math.pi - MARGIN
    invs = []
    for a in (0.5, 1.0, 2.0):
        axes = [("t", *span(rng, MARGIN, 2.0 * CHEN_K / a - MARGIN, 4)),
                ("u", *span(rng, -half, half, 2)),
                ("v", *span(rng, 0.0, 2.0 * math.pi, 2))]
        invs.append(_sweep(f"chen_ideal a={a}", "chen_ideal", f"a={a!r}", axes,
                           lambda row, a=a: chen_row_problems(a, 1e-8, row)))
    # A numeric chen_ideal jet costs about t^2 seconds, so the slice sits at
    # fixed fractions of the domain: the cost then does not depend on the seed.
    t1 = 2.0 * CHEN_K * (0.15 + 0.02 * rng.random())
    t2 = 2.0 * CHEN_K * (0.3 + 0.02 * rng.random())
    u, v = rng.uniform(-1.2, 1.2), rng.uniform(0.1, 6.1)
    axes = [("t", t1, t2, 2), ("u", u, u, 1), ("v", v, v, 1)]
    invs.append(_sweep("chen_ideal a=1.0 numeric", "chen_ideal", "a=1.0", axes,
                       lambda row: chen_row_problems(1.0, 1e-4, row),
                       ("--jet-mode", "numeric")))
    R = round(rng.uniform(0.5, 3.0), 6)
    axes = [("phi1", *span(rng, MARGIN, math.pi - MARGIN, 4)),
            ("phi2", *span(rng, MARGIN, math.pi - MARGIN, 4)),
            ("phi3", *span(rng, 0.0, 2.0 * math.pi, 3))]
    invs.append(_sweep(f"hypersphere n=3 R={R}", "hypersphere", f"R={R!r},n=3", axes,
                       lambda row: sphere_row_problems(R, 1e-8, row)))
    return invs


def _random_orthogonal(rng: random.Random, n: int) -> list:
    rows = []
    while len(rows) < n:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        for b in rows:
            d = sum(x * y for x, y in zip(v, b))
            v = [x - d * y for x, y in zip(v, b)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            rows.append([x / norm for x in v])
    return rows


def _spectral_form(rng: random.Random, n: int, p: int, eigs: list) -> list:
    """h^r = nu_r Q^T diag(eigs) Q: one normal direction nu, shape operator
    with the given spectrum in a random tangent frame."""
    Q = _random_orthogonal(rng, n)
    A = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = sum(Q[k][i] * eigs[k] * Q[k][j] for k in range(n))
    nu = _random_orthogonal(rng, p)[0]
    return [[[c * x for x in row] for row in A] for c in nu]


def synthetic_corpus(seed: int) -> list:
    """Random symmetric forms, two per (n, p, c_tilde) with n in 3..6,
    p in 1..3 and c_tilde in {-1, 0, 1}, plus the equality cases (totally
    geodesic, umbilical, Ideal11 and Ideal41 spectra) for each n."""
    rng = random.Random(seed)
    corpus = []
    for n in range(3, 7):
        for p in range(1, 4):
            for c in (-1.0, 0.0, 1.0):
                for _ in range(2):
                    scale = rng.uniform(0.2, 3.0)
                    h = [[[0.0] * n for _ in range(n)] for _ in range(p)]
                    for r in range(p):
                        for i in range(n):
                            for j in range(i, n):
                                h[r][i][j] = h[r][j][i] = scale * rng.gauss(0.0, 1.0)
                    corpus.append({"n": n, "p": p, "c_tilde": c, "h": h})
        for kind in ("TotallyGeodesic", "Umbilical", "Ideal11", "Ideal41"):
            p, c = rng.randint(1, 3), rng.choice((-1.0, 0.0, 1.0))
            lam = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0)
            eigs = {"TotallyGeodesic": [0.0] * n,
                    "Umbilical": [lam] * n,
                    "Ideal11": [2.0 * lam] * (n - 1) + [lam],
                    "Ideal41": [lam] * (n - 1) + [2.0 * lam]}[kind]
            corpus.append({"n": n, "p": p, "c_tilde": c,
                           "h": _spectral_form(rng, n, p, eigs)})
    return corpus


def synthetic_verify(seed: int, workdir: Path) -> list:
    """`verify --synthetic` over a seeded corpus: all hyperplane extrema."""
    corpus = synthetic_corpus(seed)
    path = workdir / f"corpus-{seed}.json"
    path.write_text(json.dumps(corpus), encoding="utf-8")
    n = len(corpus)
    return [Invocation(f"synthetic corpus of {n}", ["verify", "--synthetic", str(path)],
                       n, lambda rc, so, se: check_verify(n, rc, so, se))]


def gauss_verify(seed: int, workdir: Path) -> list:
    """`verify --chart` on every catalog chart, each grid spanning its domain
    to near the coordinate singularities and ends."""
    rng = random.Random(seed)
    pi, half = math.pi, 0.5 * math.pi - MARGIN
    polar = (MARGIN, pi - MARGIN)
    return [
        _verify("hypersphere n=3", "hypersphere", "R=2.0,n=3",
                [("phi1", *span(rng, *polar, 4)), ("phi2", *span(rng, *polar, 3)),
                 ("phi3", *span(rng, 0.0, 2.0 * pi, 3))]),
        _verify("hypersphere n=4", "hypersphere", "R=2.0,n=4",
                [("phi1", *span(rng, *polar, 3)), ("phi2", *span(rng, *polar, 2)),
                 ("phi3", *span(rng, *polar, 2)), ("phi4", *span(rng, 0.0, 2.0 * pi, 3))]),
        # With numeric jets the intrinsic stencil spans about 0.07 max(1, |x|)
        # per axis and `verify` skips points whose stencil leaves the domain;
        # an inset of 0.5 keeps every point of this grid checkable.
        _verify("hypersphere n=3 numeric", "hypersphere", "R=2.0,n=3",
                [("phi1", *span(rng, *polar, 3, 0.5)), ("phi2", *span(rng, *polar, 2, 0.5)),
                 ("phi3", *span(rng, 0.0, 2.0 * pi, 2, 0.5))], ("--jet-mode", "numeric")),
        _verify("flat_torus", "flat_torus", None,
                [("th1", *span(rng, 0.0, 2.0 * pi, 5)), ("th2", *span(rng, 0.0, 2.0 * pi, 5))]),
        _verify("paraboloid", "paraboloid", None,
                [("x", *span(rng, -1.0, 1.0, 5)), ("y", *span(rng, -1.0, 1.0, 5))]),
        _verify("chen_ideal a=1", "chen_ideal", "a=1.0",
                [("t", *span(rng, MARGIN, 2.0 * CHEN_K - MARGIN, 6)),
                 ("u", *span(rng, -half, half, 2)), ("v", *span(rng, 0.0, 2.0 * pi, 1))]),
    ]


WORKLOADS = {
    "chart_sweep": chart_sweep,
    "synthetic_verify": synthetic_verify,
    "gauss_verify": gauss_verify,
}
