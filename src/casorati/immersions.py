"""Catalog of parametrized immersions into Euclidean space with 2-jet evaluation.

Every chart maps an open parameter box in R^n into R^(n+p). Its jet mode is
fixed when it is built: an analytic chart takes its first partials and 2-jets
in closed form, a numeric one by central differences of the position with one
Richardson extrapolation level. `first_partials`, `jet2` and `domain_check`
read the chart and do not branch on its mode or its name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .elliptic import _jacobi_sd_squared_integral, complete_K, jacobi_elliptic
# No chart calls the quadrature; the name stays a module attribute
# because perfbench/tracing.py wraps it as its elliptic.quad layer boundary.
from .elliptic import integrate  # noqa: F401

__all__ = [
    "Chart",
    "Jet2",
    "DomainError",
    "BoundaryProximityError",
    "IllConditionedPointError",
    "CATALOG_NAMES",
    "COND_LIMIT",
    "make_chart",
    "jet2",
    "domain_check",
    "DomainVerdict",
]

_EPS = np.finfo(float).eps
_SQRT_HALF = 1.0 / math.sqrt(2.0)
# Largest Gram-matrix condition number `jet2` accepts.
COND_LIMIT = 1e8

CATALOG_NAMES = ("hypersphere", "chen_ideal", "flat_torus", "paraboloid")


class DomainError(ValueError):
    """Parameter point outside the chart's open domain."""


class BoundaryProximityError(DomainError):
    """Point admissible but too close to the boundary for finite differencing."""


class IllConditionedPointError(RuntimeError):
    """Induced metric too ill-conditioned for reliable downstream use."""


@dataclass(frozen=True)
class Jet2:
    """Position plus first and second partial derivatives of an immersion.

    d1 has shape (n, N) and d2 shape (n, n, N) with N the ambient dimension;
    d2 is symmetric in its two parameter indices.
    """

    position: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


@dataclass(frozen=True)
class DomainVerdict:
    admissible: bool
    distance_to_boundary: float
    reason: str


@dataclass(frozen=True)
class Chart:
    """A catalog immersion in one jet mode.

    `_position` and `_first_partials` take a point (n,) or points (G, n);
    `_jet` takes one point. `_boundary` holds, per axis, the reasons
    `domain_check` gives for a point past its low and its high end.
    """

    name: str
    n: int
    p: int
    domain: tuple
    axis_names: tuple
    jet_mode: str
    params: dict
    _position: Callable = field(repr=False, compare=False)
    _first_partials: Callable = field(repr=False, compare=False)
    _jet: Callable = field(repr=False, compare=False)
    _boundary: tuple = field(repr=False, compare=False)

    @property
    def ambient_dim(self) -> int:
        return self.n + self.p


def _get_param(params: dict, key: str, default: float, positive: bool = True) -> float:
    v = float(params.get(key, default))
    if positive and v <= 0.0:
        raise ValueError(f"parameter {key!r} must be positive, got {v}")
    return v


def _outside(names) -> tuple:
    """Boundary reasons of axes with no singularity at either end."""
    return tuple((f"outside open domain (axis {a})",) * 2 for a in names)


# --- hypersphere: round S^n(R) in E^(n+1), polar angles ------------------

def _sphere_factor(tag: str, order: int, s, c):
    """Derivative of the given order of one polar factor, from the sine s and
    cosine c of its angle (floats or arrays)."""
    if tag == "one":
        return 1.0 if order == 0 else 0.0
    if tag == "sin":
        return s if order == 0 else c if order == 1 else -s
    return c if order == 0 else -s if order == 1 else -c


def _make_hypersphere(params: dict, margin: float) -> Chart:
    R = _get_param(params, "R", 1.0)
    n = int(params.get("n", 2))
    if n < 2:
        raise ValueError("hypersphere needs intrinsic dimension n >= 2")
    N = n + 1
    # Coordinate m of the immersion is R * prod_j factor[m][j](phi_j).
    factors = ([["sin"] * m + ["cos"] + ["one"] * (n - 1 - m) for m in range(n)]
               + [["sin"] * n])

    def sin_cos(x: np.ndarray) -> tuple:
        # Per-axis sines and cosines: floats for one point (scalar arithmetic
        # is faster there), arrays over the points otherwise.
        s, c = np.sin(x.T), np.cos(x.T)
        return (s.tolist(), c.tolist()) if x.ndim == 1 else (s, c)

    def factor_tables(x: np.ndarray, orders: tuple) -> list:
        # tables[k][m][j]: derivative orders[k] of factor (m, j) at x[..., j].
        s, c = sin_cos(x)
        return [[[_sphere_factor(factors[m][j], k, s[j], c[j]) for j in range(n)]
                 for m in range(N)] for k in orders]

    def product(v, row: list, skip: tuple):
        # v times the factors of one coordinate, in axis order, leaving out
        # the skipped axes.
        for j, f in enumerate(row):
            if j not in skip:
                v = v * f
        return v

    def d1_from(vals: list, der1: list, lead: tuple) -> np.ndarray:
        d1 = np.empty(lead + (n, N))
        for m in range(N):
            for a in range(n):
                d1[..., a, m] = product(R * der1[m][a], vals[m], (a,))
        return d1

    def position(x: np.ndarray) -> np.ndarray:
        # Coordinate m is (R s_0 ... s_{m-1}) c_m, the last R s_0 ... s_{n-1};
        # the factors 1 of the table are exact and left out.
        s, c = sin_cos(x)
        out, v = [], R
        for j in range(n):
            out.append(v * c[j])
            v = v * s[j]
        out.append(v)
        return np.array(out).T

    def analytic_d1(x: np.ndarray) -> np.ndarray:
        return d1_from(*factor_tables(x, (0, 1)), x.shape[:-1])

    def analytic_jet(x: np.ndarray) -> Jet2:
        vals, der1, der2 = factor_tables(x, (0, 1, 2))
        d2 = np.empty((n, n, N))
        for m in range(N):
            for a in range(n):
                d2[a, a, m] = product(R * der2[m][a], vals[m], (a,))
                for b in range(a + 1, n):
                    d2[a, b, m] = d2[b, a, m] = product(
                        R * der1[m][a] * der1[m][b], vals[m], (a, b))
        return Jet2(position(x), d1_from(vals, der1, ()), d2)

    domain = tuple((margin, math.pi - margin) for _ in range(n - 1)) + ((0.0, 2.0 * math.pi),)
    names = tuple(f"phi{j + 1}" for j in range(n))
    boundary = tuple((f"polar coordinate singularity (axis {a})",) * 2
                     for a in names[:-1]) + _outside(names[-1:])
    return Chart("hypersphere", n, 1, domain, names, "analytic", {"R": R, "n": n},
                 position, analytic_d1, analytic_jet, boundary)


# --- chen_ideal: rotational hypersurface of E^4 with sd-profile ----------

def _make_chen_ideal(params: dict, margin: float) -> Chart:
    a = _get_param(params, "a", 1.0)
    k = _SQRT_HALF
    Kk = complete_K(k)
    t_hi = 2.0 * Kk / a

    def profile_terms(sn: float, cn: float, dn: float):
        sd = sn / dn
        r = sd / a
        rp = cn / dn ** 2
        rpp = a * sn * (2.0 * k * k * cn * cn - dn * dn) / dn ** 3
        zp = 0.5 * sd * sd
        zpp = a * sd * rp
        return r, rp, rpp, zp, zpp

    def profile_and_height(t: float):
        # One Landen sweep gives the profile and the height
        # z(t) = 1/2 int_0^t sd(a s)^2 ds, in closed form.
        sn, cn, dn, sd2_integral = _jacobi_sd_squared_integral(a * t, k)
        return profile_terms(sn, cn, dn), sd2_integral / (2.0 * a)

    def sphere_dir(u: float, v: float):
        su, cu = math.sin(u), math.cos(u)
        sv, cv = math.sin(v), math.cos(v)
        S = np.array([su, cu * sv, cu * cv])
        Su = np.array([cu, -su * sv, -su * cv])
        Sv = np.array([0.0, cu * cv, -cu * sv])
        Suu = -S
        Suv = np.array([0.0, -su * cv, su * sv])
        Svv = np.array([0.0, -cu * sv, -cu * cv])
        return S, Su, Sv, Suu, Suv, Svv

    def position(x: np.ndarray) -> np.ndarray:
        t, u, v = x
        (r, *_), z = profile_and_height(t)
        S = sphere_dir(u, v)[0]
        return np.append(r * S, z)

    def d1_from(r, rp, zp, S, Su, Sv) -> np.ndarray:
        d1 = np.zeros((3, 4))
        d1[0, :3] = rp * S
        d1[0, 3] = zp
        d1[1, :3] = r * Su
        d1[2, :3] = r * Sv
        return d1

    def analytic_d1(x: np.ndarray) -> np.ndarray:
        # First partials never need the height z, only z' = sd^2 / 2.
        t, u, v = x
        trip = jacobi_elliptic(a * t, k)
        r, rp, _, zp, _ = profile_terms(trip.sn, trip.cn, trip.dn)
        return d1_from(r, rp, zp, *sphere_dir(u, v)[:3])

    def analytic_jet(x: np.ndarray) -> Jet2:
        t, u, v = x
        (r, rp, rpp, zp, zpp), z = profile_and_height(t)
        S, Su, Sv, Suu, Suv, Svv = sphere_dir(u, v)
        pos = np.append(r * S, z)
        d2 = np.zeros((3, 3, 4))
        d2[0, 0, :3] = rpp * S
        d2[0, 0, 3] = zpp
        d2[0, 1, :3] = d2[1, 0, :3] = rp * Su
        d2[0, 2, :3] = d2[2, 0, :3] = rp * Sv
        d2[1, 1, :3] = r * Suu
        d2[1, 2, :3] = d2[2, 1, :3] = r * Suv
        d2[2, 2, :3] = r * Svv
        return Jet2(pos, d1_from(r, rp, zp, S, Su, Sv), d2)

    domain = ((margin, t_hi - margin),
              (-0.5 * math.pi + margin, 0.5 * math.pi - margin),
              (0.0, 2.0 * math.pi))
    boundary = (("rotational axis (t near 0)", "domain endpoint (t near 2K/a)"),
                ("coordinate singularity (cos u near 0)",) * 2) + _outside(("v",))
    # Points of shape (G, n) loop over the scalar Landen sweep: np.arcsin
    # rounds differently from its math.asin on some arguments.
    return Chart("chen_ideal", 3, 1, domain, ("t", "u", "v"), "analytic", {"a": a},
                 _per_point(position), _per_point(analytic_d1), analytic_jet,
                 boundary)


# --- flat_torus: S^1(r1) x S^1(r2) in E^4 --------------------------------

def _make_flat_torus(params: dict, margin: float) -> Chart:
    r1 = _get_param(params, "r1", 1.0)
    r2 = _get_param(params, "r2", 1.0)

    def position(x: np.ndarray) -> np.ndarray:
        s, t = x.T
        return np.array([r1 * np.cos(s), r1 * np.sin(s),
                         r2 * np.cos(t), r2 * np.sin(t)]).T

    def analytic_d1(x: np.ndarray) -> np.ndarray:
        s, t = x.T
        d1 = np.zeros(x.shape[:-1] + (2, 4))
        d1[..., 0, 0] = -r1 * np.sin(s)
        d1[..., 0, 1] = r1 * np.cos(s)
        d1[..., 1, 2] = -r2 * np.sin(t)
        d1[..., 1, 3] = r2 * np.cos(t)
        return d1

    def analytic_jet(x: np.ndarray) -> Jet2:
        s, t = x
        d2 = np.zeros((2, 2, 4))
        d2[0, 0] = [-r1 * math.cos(s), -r1 * math.sin(s), 0.0, 0.0]
        d2[1, 1] = [0.0, 0.0, -r2 * math.cos(t), -r2 * math.sin(t)]
        return Jet2(position(x), analytic_d1(x), d2)

    domain = ((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi))
    names = ("th1", "th2")
    return Chart("flat_torus", 2, 2, domain, names, "analytic", {"r1": r1, "r2": r2},
                 position, analytic_d1, analytic_jet, _outside(names))


# --- paraboloid: graph patch z = c (x^2 + y^2) ---------------------------

def _make_paraboloid(params: dict, margin: float) -> Chart:
    c = _get_param(params, "c", 1.0)

    def position(x: np.ndarray) -> np.ndarray:
        u, v = x.T
        return np.array([u, v, c * (u * u + v * v)]).T

    def analytic_d1(x: np.ndarray) -> np.ndarray:
        u, v = x.T
        d1 = np.zeros(x.shape[:-1] + (2, 3))
        d1[..., 0, 0] = 1.0
        d1[..., 1, 1] = 1.0
        d1[..., 0, 2] = 2.0 * c * u
        d1[..., 1, 2] = 2.0 * c * v
        return d1

    def analytic_jet(x: np.ndarray) -> Jet2:
        d2 = np.zeros((2, 2, 3))
        d2[0, 0, 2] = 2.0 * c
        d2[1, 1, 2] = 2.0 * c
        return Jet2(position(x), analytic_d1(x), d2)

    domain = ((-1.0, 1.0), (-1.0, 1.0))
    names = ("x", "y")
    return Chart("paraboloid", 2, 1, domain, names, "analytic", {"c": c},
                 position, analytic_d1, analytic_jet, _outside(names))


_BUILDERS = {
    "hypersphere": _make_hypersphere,
    "chen_ideal": _make_chen_ideal,
    "flat_torus": _make_flat_torus,
    "paraboloid": _make_paraboloid,
}


def make_chart(name: str, params: dict | None = None, *,
               jet_mode: str = "analytic", margin: float = 1e-3) -> Chart:
    """Build a catalog chart in the given jet mode. Raises ValueError for
    unknown names, modes or bad params."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown chart {name!r}; catalog: {CATALOG_NAMES}")
    if jet_mode not in ("analytic", "numeric"):
        raise ValueError(f"jet_mode must be 'analytic' or 'numeric', got {jet_mode!r}")
    chart = _BUILDERS[name](params or {}, margin)
    if jet_mode == "numeric":
        chart = replace(chart, jet_mode=jet_mode,
                        _first_partials=partial(_numeric_d1, chart._position),
                        _jet=partial(_numeric_jet, chart._position))
    return chart


def domain_check(chart: Chart, x) -> DomainVerdict:
    """Total admissibility check: strict-interior flag plus boundary distance."""
    x = np.asarray(x, dtype=float)
    if x.shape != (chart.n,):
        return DomainVerdict(False, -math.inf, "wrong point dimension")
    if not np.isfinite(x).all():
        return DomainVerdict(False, -math.inf, "non-finite coordinate")
    dist, worst = math.inf, 0
    for j, (lo, hi) in enumerate(chart.domain):
        d = min(x[j] - lo, hi - x[j])
        if d < dist:
            dist, worst = d, j
    if dist <= 0.0:
        at_lo, at_hi = chart._boundary[worst]
        reason = at_lo if x[worst] <= chart.domain[worst][0] else at_hi
        return DomainVerdict(False, dist, reason)
    return DomainVerdict(True, dist, "interior")


def _per_point(fn: Callable) -> Callable:
    """Lift a function of one point x (n,) to points of shape (n,) or
    (G, n), stacking the per-point results."""
    def lifted(x: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            return fn(x)
        return np.array([fn(y) for y in x])
    return lifted


def _numeric_d1(position: Callable, x: np.ndarray) -> np.ndarray:
    """First partials at a point x (n,) or points x (G, n), shape (n, N) or
    (G, n, N): O(h^4) via one Richardson level on central differences."""
    h1 = np.cbrt(_EPS) * np.maximum(1.0, np.abs(x))

    def moved(j: int, d: np.ndarray) -> np.ndarray:
        y = x.copy()
        y[..., j] += d
        return np.asarray(position(y), dtype=float)

    rows = []
    for j in range(x.shape[-1]):
        h = h1[..., j]
        hc = h[..., None]
        D_h = (moved(j, h) - moved(j, -h)) / (2.0 * hc)
        D_h2 = (moved(j, 0.5 * h) - moved(j, -0.5 * h)) / hc
        rows.append((4.0 * D_h2 - D_h) / 3.0)
    return np.stack(rows, axis=-2)


def _numeric_jet(position: Callable, x: np.ndarray) -> Jet2:
    """2-jet at one point x: first partials from `_numeric_d1`, position and
    second partials from one `position` call over x and its shifted points."""
    n = x.shape[0]
    # Second partials use a larger step: the cube-root step leaves the
    # rounding term eps/h^2 at ~1e-5, far too coarse for the 1e-5 jet
    # agreement contract.
    h = _EPS ** 0.25 * np.maximum(1.0, np.abs(x))
    # (axis, offset) moves of each point after x: x +- h_j/2 e_j and
    # x +- h_j e_j per axis, then x + s(+-h_j e_j +- h_i e_i) per pair j < i
    # and s = 1/2, 1.
    pairs = [(j, i) for j in range(n) for i in range(j + 1, n)]
    moves = [[(j, d)] for j in range(n) for d in (0.5 * h[j], -0.5 * h[j], h[j], -h[j])]
    moves += [[(j, a * s * h[j]), (i, b * s * h[i])] for j, i in pairs
              for s in (0.5, 1.0)
              for a, b in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))]
    y = np.repeat(x[None], 1 + len(moves), axis=0)
    for row, deltas in enumerate(moves, 1):
        for j, d in deltas:
            y[row, j] += d
    f = np.asarray(position(y), dtype=float)

    # Each entry: Richardson on the half-step and the full-step difference.
    d2 = np.empty((n, n, f.shape[1]))
    for j in range(n):
        pure = [(f[r] - 2.0 * f[0] + f[r + 1]) / d ** 2
                for r, d in ((1 + 4 * j, 0.5 * h[j]), (3 + 4 * j, h[j]))]
        d2[j, j] = (4.0 * pure[0] - pure[1]) / 3.0
    for q, (j, i) in enumerate(pairs):
        cross = [(f[r] - f[r + 1] - f[r + 2] + f[r + 3]) / (4.0 * s * s * h[j] * h[i])
                 for r, s in ((1 + 4 * n + 8 * q, 0.5), (5 + 4 * n + 8 * q, 1.0))]
        d2[j, i] = d2[i, j] = (4.0 * cross[0] - cross[1]) / 3.0
    return Jet2(f[0], _numeric_d1(position, x), d2)


def first_partials(chart: Chart, x) -> np.ndarray:
    """First partials only: the fast path for metric fields. A point x of
    shape (n,) gives shape (n, N); points of shape (G, n) give (G, n, N).

    Skips the admissibility and conditioning checks of `jet2`; callers that
    sweep finite-difference stencils are responsible for staying inside the
    domain.
    """
    return chart._first_partials(np.asarray(x, dtype=float))


def jet2(chart: Chart, x) -> Jet2:
    """Position plus first/second partials at a strictly interior point.

    Raises IllConditionedPointError when the Gram matrix condition number
    exceeds COND_LIMIT.
    """
    x = np.asarray(x, dtype=float)
    verdict = domain_check(chart, x)
    if not verdict.admissible:
        raise DomainError(f"point {x.tolist()} inadmissible for chart "
                          f"{chart.name!r}: {verdict.reason}")
    jet = chart._jet(x)
    gram = jet.d1 @ jet.d1.T
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedPointError(
            f"Gram matrix condition {cond:.3e} exceeds {COND_LIMIT:.1e} "
            f"at {x.tolist()} on chart {chart.name!r}")
    return jet
