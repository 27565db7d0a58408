"""Catalog of parametrized immersions into Euclidean space with 2-jet evaluation.

Every chart maps an open parameter box in R^n into R^(n+p) and exposes both an
analytic 2-jet (closed-form first and second partials) and a numeric one
(central differences with one Richardson extrapolation level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

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
    "make_chart",
    "jet2",
    "domain_check",
    "DomainVerdict",
]

_EPS = np.finfo(float).eps
_SQRT_HALF = 1.0 / math.sqrt(2.0)

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
    name: str
    n: int
    p: int
    domain: tuple
    axis_names: tuple
    jet_mode: str
    params: dict
    _position: Callable = field(repr=False, compare=False)
    _analytic_jet: Optional[Callable] = field(default=None, repr=False, compare=False)
    _analytic_d1: Optional[Callable] = field(default=None, repr=False, compare=False)

    @property
    def ambient_dim(self) -> int:
        return self.n + self.p


def _get_param(params: dict, key: str, default: float, positive: bool = True) -> float:
    v = float(params.get(key, default))
    if positive and v <= 0.0:
        raise ValueError(f"parameter {key!r} must be positive, got {v}")
    return v


# --- hypersphere: round S^n(R) in E^(n+1), polar angles ------------------

def _sphere_factor(tag: str, order: int, s, c):
    """Derivative of the given order of one polar factor, from the sine s and
    cosine c of its angle (floats or arrays)."""
    if tag == "one":
        return 1.0 if order == 0 else 0.0
    if tag == "sin":
        return s if order == 0 else c if order == 1 else -s
    return c if order == 0 else -s if order == 1 else -c


def _make_hypersphere(params: dict, margin: float):
    R = _get_param(params, "R", 1.0)
    n = int(params.get("n", 2))
    if n < 2:
        raise ValueError("hypersphere needs intrinsic dimension n >= 2")
    N = n + 1
    # Coordinate m of the immersion is R * prod_j factor[m][j](phi_j).
    factors = []
    for m in range(N):
        row = []
        for j in range(n):
            if j < m:
                row.append("sin")
            elif j == m:
                row.append("cos")
            else:
                row.append("one")
        if m == N - 1:
            row = ["sin"] * n
        factors.append(row)

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
        pos = np.array([R * math.prod(row) for row in vals])
        return Jet2(pos, d1_from(vals, der1, ()), d2)

    domain = tuple((margin, math.pi - margin) for _ in range(n - 1)) + ((0.0, 2.0 * math.pi),)
    names = tuple(f"phi{j + 1}" for j in range(n))
    return n, 1, domain, names, {"R": R, "n": n}, position, analytic_jet, analytic_d1


# --- chen_ideal: rotational hypersurface of E^4 with sd-profile ----------

def _make_chen_ideal(params: dict, margin: float):
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

    def analytic_jet(x: np.ndarray) -> Jet2:
        t, u, v = x
        (r, rp, rpp, zp, zpp), z = profile_and_height(t)
        S, Su, Sv, Suu, Suv, Svv = sphere_dir(u, v)
        pos = np.append(r * S, z)
        d1 = np.zeros((3, 4))
        d1[0, :3] = rp * S
        d1[0, 3] = zp
        d1[1, :3] = r * Su
        d1[2, :3] = r * Sv
        d2 = np.zeros((3, 3, 4))
        d2[0, 0, :3] = rpp * S
        d2[0, 0, 3] = zpp
        d2[0, 1, :3] = d2[1, 0, :3] = rp * Su
        d2[0, 2, :3] = d2[2, 0, :3] = rp * Sv
        d2[1, 1, :3] = r * Suu
        d2[1, 2, :3] = d2[2, 1, :3] = r * Suv
        d2[2, 2, :3] = r * Svv
        return Jet2(pos, d1, d2)

    def analytic_d1(x: np.ndarray) -> np.ndarray:
        # First partials never need the height z, only z' = sd^2 / 2.
        t, u, v = x
        trip = jacobi_elliptic(a * t, k)
        r, rp, _, zp, _ = profile_terms(trip.sn, trip.cn, trip.dn)
        S, Su, Sv = sphere_dir(u, v)[:3]
        d1 = np.zeros((3, 4))
        d1[0, :3] = rp * S
        d1[0, 3] = zp
        d1[1, :3] = r * Su
        d1[2, :3] = r * Sv
        return d1

    domain = ((margin, t_hi - margin),
              (-0.5 * math.pi + margin, 0.5 * math.pi - margin),
              (0.0, 2.0 * math.pi))
    # Points of shape (G, n) loop over the scalar Landen sweep: np.arcsin
    # rounds differently from its math.asin on some arguments.
    return (3, 1, domain, ("t", "u", "v"), {"a": a}, _per_point(position),
            analytic_jet, _per_point(analytic_d1))


# --- flat_torus: S^1(r1) x S^1(r2) in E^4 --------------------------------

def _make_flat_torus(params: dict, margin: float):
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
    return (2, 2, domain, ("th1", "th2"), {"r1": r1, "r2": r2}, position,
            analytic_jet, analytic_d1)


# --- paraboloid: graph patch z = c (x^2 + y^2) ---------------------------

def _make_paraboloid(params: dict, margin: float):
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
    return 2, 1, domain, ("x", "y"), {"c": c}, position, analytic_jet, analytic_d1


_BUILDERS = {
    "hypersphere": _make_hypersphere,
    "chen_ideal": _make_chen_ideal,
    "flat_torus": _make_flat_torus,
    "paraboloid": _make_paraboloid,
}


def make_chart(name: str, params: dict | None = None, *,
               jet_mode: str = "analytic", margin: float = 1e-3) -> Chart:
    """Build a catalog chart. Raises ValueError for unknown names or bad params."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown chart {name!r}; catalog: {CATALOG_NAMES}")
    if jet_mode not in ("analytic", "numeric"):
        raise ValueError(f"jet_mode must be 'analytic' or 'numeric', got {jet_mode!r}")
    n, p, domain, names, resolved, position, ajet, ad1 = _BUILDERS[name](
        params or {}, margin)
    return Chart(name, n, p, domain, names, jet_mode, resolved, position, ajet, ad1)


def domain_check(chart: Chart, x) -> DomainVerdict:
    """Total admissibility check: strict-interior flag plus boundary distance."""
    x = np.asarray(x, dtype=float)
    if x.shape != (chart.n,):
        return DomainVerdict(False, -math.inf, "wrong point dimension")
    if not np.isfinite(x).all():
        return DomainVerdict(False, -math.inf, "non-finite coordinate")
    dist = math.inf
    worst = ""
    for j, (lo, hi) in enumerate(chart.domain):
        d = min(x[j] - lo, hi - x[j])
        if d < dist:
            dist = d
            worst = chart.axis_names[j]
    if dist <= 0.0:
        reason = f"outside open domain (axis {worst})"
        if chart.name == "chen_ideal" and worst == "t":
            t = x[0]
            lo, hi = chart.domain[0]
            reason = "rotational axis (t near 0)" if t <= lo else "domain endpoint (t near 2K/a)"
        elif chart.name == "chen_ideal" and worst == "u":
            reason = "coordinate singularity (cos u near 0)"
        elif chart.name == "hypersphere" and worst != chart.axis_names[-1]:
            reason = f"polar coordinate singularity (axis {worst})"
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


def _shifted(position: Callable, x: np.ndarray, deltas) -> np.ndarray:
    """position(x + sum of d e_j over the (j, d) pairs in deltas)."""
    y = x.copy()
    for j, d in deltas:
        y[j] += d
    return np.asarray(position(y), dtype=float)


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


def _numeric_jet(position: Callable, x: np.ndarray, n: int) -> Jet2:
    f0 = np.asarray(position(x), dtype=float)
    N = f0.shape[0]

    def fshift(deltas) -> np.ndarray:
        return _shifted(position, x, deltas)

    d1 = _numeric_d1(position, x)

    # Second partials use a larger step: the cube-root step leaves the
    # rounding term eps/h^2 at ~1e-5, far too coarse for the 1e-5 jet
    # agreement contract.
    h2 = _EPS ** 0.25 * np.maximum(1.0, np.abs(x))
    d2 = np.empty((n, n, N))
    for j in range(n):
        h = h2[j]

        def pure(step: float) -> np.ndarray:
            return (fshift([(j, step)]) - 2.0 * f0 + fshift([(j, -step)])) / step ** 2

        d2[j, j] = (4.0 * pure(0.5 * h) - pure(h)) / 3.0
        for i in range(j + 1, n):
            hi = h2[i]

            def cross(s: float) -> np.ndarray:
                return (fshift([(j, s * h), (i, s * hi)])
                        - fshift([(j, s * h), (i, -s * hi)])
                        - fshift([(j, -s * h), (i, s * hi)])
                        + fshift([(j, -s * h), (i, -s * hi)])) / (4.0 * s * s * h * hi)

            val = (4.0 * cross(0.5) - cross(1.0)) / 3.0
            d2[j, i] = val
            d2[i, j] = val
    return Jet2(f0, d1, d2)


def first_partials(chart: Chart, x, *, jet_mode: str | None = None) -> np.ndarray:
    """First partials only: the fast path for metric fields. A point x of
    shape (n,) gives shape (n, N); points of shape (G, n) give (G, n, N).

    Skips the admissibility and conditioning checks of `jet2`; callers that
    sweep finite-difference stencils are responsible for staying inside the
    domain.
    """
    x = np.asarray(x, dtype=float)
    mode = jet_mode or chart.jet_mode
    if mode == "analytic" and chart._analytic_d1 is not None:
        return chart._analytic_d1(x)
    return _numeric_d1(chart._position, x)


def jet2(chart: Chart, x, *, jet_mode: str | None = None,
         cond_threshold: float = 1e8) -> Jet2:
    """Position plus first/second partials at a strictly interior point."""
    x = np.asarray(x, dtype=float)
    verdict = domain_check(chart, x)
    if not verdict.admissible:
        raise DomainError(f"point {x.tolist()} inadmissible for chart "
                          f"{chart.name!r}: {verdict.reason}")
    mode = jet_mode or chart.jet_mode
    if mode == "analytic" and chart._analytic_jet is not None:
        jet = chart._analytic_jet(x)
    else:
        jet = _numeric_jet(chart._position, x, chart.n)
    gram = jet.d1 @ jet.d1.T
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > cond_threshold:
        raise IllConditionedPointError(
            f"Gram matrix condition {cond:.3e} exceeds {cond_threshold:.1e} "
            f"at {x.tolist()} on chart {chart.name!r}")
    return jet
