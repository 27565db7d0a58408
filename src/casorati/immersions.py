"""Catalog of parametrized immersions into Euclidean space with 2-jet evaluation.

Every chart maps an open parameter box in R^n into R^(n+p). Its jet mode is
fixed when it is built: an analytic chart takes its first partials and 2-jets
in closed form, a numeric one by central differences of the position with one
Richardson extrapolation level. `first_partials`, `jet2` and `domain_check`
read the chart and do not branch on its mode or its name. The curved charts
are built from one sphere part, `_sphere`, and two combinators, `_rotation`
and `_product`.

One stencil kernel serves numeric jets and the intrinsic curvature oracle of
`casorati.geometry`: `_stencil` builds the centres and their moved points,
`_richardson` differences the values at the moved points. A numeric jet, and
numeric first partials at any number of points, is one `position` call.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import CATALOG_NAMES
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
    "MAX_SPHERE_N",
    "make_chart",
    "jet2",
    "domain_check",
    "DomainVerdict",
]

_EPS = np.finfo(float).eps
# Largest Gram-matrix condition number `geometry.frame_at` accepts.
COND_LIMIT = 1e8
# Largest hypersphere dimension n: an analytic 2-jet takes O(n^3) time and
# memory, its d2 array alone (n, n, n + 1) doubles.
MAX_SPHERE_N = 64

class DomainError(ValueError):
    """Parameter point outside the chart's open domain."""


class BoundaryProximityError(DomainError):
    """Point admissible but too close to the boundary for finite differencing."""


class IllConditionedPointError(RuntimeError):
    """Induced metric too ill-conditioned for reliable downstream use."""


class Jet2(NamedTuple):
    """Position plus first and second partial derivatives of an immersion.

    d1 has shape (n, N) and d2 shape (n, n, N) with N the ambient dimension;
    d2 is symmetric in its two parameter indices.
    """

    position: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


class DomainVerdict(NamedTuple):
    admissible: bool
    distance_to_boundary: float
    reason: str


class Chart(NamedTuple):
    """A catalog immersion in one jet mode.

    `position` and `first_partials` take a point (n,) or points (G, n);
    `jet` takes one point. `boundary` holds, per axis, the reasons
    `domain_check` gives for a point past its low and its high end.
    """

    name: str
    n: int
    p: int
    domain: tuple
    axis_names: tuple
    jet_mode: str
    params: dict
    position: Callable
    first_partials: Callable
    jet: Callable
    boundary: tuple

    @property
    def ambient_dim(self) -> int:
        return self.n + self.p


def _get_param(params: dict, key: str, default: float) -> float:
    v = params.get(key, default)
    # A bool is an int; float() of an int past the float range overflows.
    if isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v <= sys.float_info.max:
        return float(v)
    raise ValueError(f"parameter {key!r} must be positive and finite, got {v!r}")


def _outside(names) -> tuple:
    """Boundary reasons of axes with no singularity at either end."""
    return tuple((f"outside open domain (axis {a})",) * 2 for a in names)


# --- parts: the sphere and the two combinators that build curved charts --

class _Part(NamedTuple):
    """An immersion of R^n into E^N: a `Chart` without a domain."""

    n: int
    N: int
    position: Callable
    first_partials: Callable
    jet: Callable


def _sphere(n: int, R: float) -> _Part:
    """The round S^n(R) in E^(n+1) in polar angles phi_1 .. phi_n."""
    N = n + 1
    eye = np.eye(n, dtype=bool)
    # Coordinate m depends on phi_0 .. phi_m only: its partials along later
    # axes vanish. depends[a, m] is m >= a.
    depends = np.arange(N) >= np.arange(n)[:, None]

    def coords(s, c) -> list:
        # The N coordinates from the sines s[j] and cosines c[j] of the
        # angles (floats or arrays): coordinate m is (R s_0 ... s_{m-1}) c_m,
        # the last R s_0 ... s_{n-1}.
        out, v = [], R
        for j in range(n):
            out.append(v * c[j])
            v = v * s[j]
        out.append(v)
        return out

    def derivative(s, c) -> tuple:
        # d/dphi_a for every axis a, on a new axis after the angle axis:
        # (s_a, c_a) becomes (c_a, -s_a). Applied twice it gives (-s_a, -c_a)
        # for a = b and replaces both pairs for a != b.
        at_a = eye.reshape(eye.shape + (1,) * (s.ndim - 1))
        s, c = s[:, None], c[:, None]
        return np.where(at_a, c, s), np.where(at_a, -s, c)

    def position(x: np.ndarray) -> np.ndarray:
        # One point takes floats: scalar arithmetic is faster there.
        s, c = np.sin(x.T), np.cos(x.T)
        if x.ndim == 1:
            s, c = s.tolist(), c.tolist()
        return np.array(coords(s, c)).T

    def first_partials(x: np.ndarray) -> np.ndarray:
        s, c = derivative(np.sin(x.T), np.cos(x.T))
        return np.where(depends, np.array(coords(s, c)).T, 0.0)

    def jet(x: np.ndarray) -> Jet2:
        s, c = derivative(*derivative(np.sin(x), np.cos(x)))
        d2 = np.where(depends[:, None] & depends, np.array(coords(s, c)).T, 0.0)
        return Jet2(position(x), first_partials(x), d2)

    return _Part(n, N, position, first_partials, jet)


def _rotation(profile: Callable, sphere: _Part) -> _Part:
    """The rotation (rho(t) S, z(t)) of a profile by a unit sphere part S on
    points (t, psi), psi the latitudes pi/2 - phi of S's polar angles phi.
    `profile(t, height)` gives (rho, rho', rho'', z, z', z'') at one t; z may
    be NaN when `height` is false."""
    n, N = sphere.n + 1, sphere.N + 1

    def terms(x: np.ndarray, height: bool) -> np.ndarray:
        # The profile takes one t at a time, so it loops over the points.
        t = x[..., 0]
        values = np.array([profile(s, height) for s in t.ravel()])
        return values.T.reshape((6,) + t.shape + (1,))

    def rows(f, fp, g, S, dS) -> np.ndarray:
        # Partials along t and psi of (f(t) S, G(t)) with G' = g, from S's
        # partials dS along psi: (fp S, g), then (f dS, 0) per angle.
        out = np.zeros(dS.shape[:-2] + (n, N))
        out[..., 0, :-1] = fp * S
        out[..., 0, -1:] = g
        out[..., 1:, :-1] = f[..., None] * dS
        return out

    def position(x: np.ndarray) -> np.ndarray:
        r, _, _, z, _, _ = terms(x, True)
        return np.concatenate([r * sphere.position(0.5 * math.pi - x[..., 1:]), z], axis=-1)

    def first_partials(x: np.ndarray) -> np.ndarray:
        r, rp, _, _, zp, _ = terms(x, False)
        phi = 0.5 * math.pi - x[..., 1:]
        return rows(r, rp, zp, sphere.position(phi), -sphere.first_partials(phi))

    def jet(x: np.ndarray) -> Jet2:
        r, rp, rpp, z, zp, zpp = terms(x, True)
        S = sphere.jet(0.5 * math.pi - x[1:])
        dS = -S.d1
        d2 = np.concatenate([rows(rp, rpp, zpp, S.position, dS)[None],
                             rows(r, rp, 0.0, dS, S.d2)])
        return Jet2(np.concatenate([r * S.position, z]),
                    rows(r, rp, zp, S.position, dS), d2)

    return _Part(n, N, position, first_partials, jet)


def _product(a: _Part, b: _Part) -> _Part:
    """The product (A(x_a), B(x_b)) of two parts: block-diagonal partials."""
    n, N = a.n + b.n, a.N + b.N

    def position(x: np.ndarray) -> np.ndarray:
        return np.concatenate([a.position(x[..., :a.n]), b.position(x[..., a.n:])],
                              axis=-1)

    def first_partials(x: np.ndarray) -> np.ndarray:
        d1 = np.zeros(x.shape[:-1] + (n, N))
        d1[..., :a.n, :a.N] = a.first_partials(x[..., :a.n])
        d1[..., a.n:, a.N:] = b.first_partials(x[..., a.n:])
        return d1

    def jet(x: np.ndarray) -> Jet2:
        ja, jb = a.jet(x[:a.n]), b.jet(x[a.n:])
        d1, d2 = np.zeros((n, N)), np.zeros((n, n, N))
        d1[:a.n, :a.N], d1[a.n:, a.N:] = ja.d1, jb.d1
        d2[:a.n, :a.n, :a.N], d2[a.n:, a.n:, a.N:] = ja.d2, jb.d2
        return Jet2(np.concatenate([ja.position, jb.position]), d1, d2)

    return _Part(n, N, position, first_partials, jet)


# --- hypersphere: round S^n(R) in E^(n+1), polar angles ------------------

def _make_hypersphere(params: dict, margin: float) -> Chart:
    R = _get_param(params, "R", 1.0)
    n = _get_param(params, "n", 2)
    if not (n.is_integer() and 2 <= n <= MAX_SPHERE_N):
        raise ValueError(f"hypersphere dimension n must be an integer from 2 to "
                         f"MAX_SPHERE_N = {MAX_SPHERE_N}, got {n}")
    n = int(n)
    domain = tuple((margin, math.pi - margin) for _ in range(n - 1)) + ((0.0, 2.0 * math.pi),)
    names = tuple(f"phi{j + 1}" for j in range(n))
    boundary = tuple((f"polar coordinate singularity (axis {a})",) * 2
                     for a in names[:-1]) + _outside(names[-1:])
    return Chart("hypersphere", n, 1, domain, names, "analytic", {"R": R, "n": n},
                 *_sphere(n, R)[2:], boundary)


# --- chen_ideal: rotational hypersurface of E^4 with sd-profile ----------

def _make_chen_ideal(params: dict, margin: float) -> Chart:
    a = _get_param(params, "a", 1.0)
    k = 1.0 / math.sqrt(2.0)

    def profile(t: float, height: bool) -> tuple:
        # A scalar profile: the Landen sweep's math.asin and np.arcsin round
        # differently on some arguments. First partials need no height z and
        # take sn, cn, dn from `jacobi_elliptic`; otherwise one Landen sweep
        # gives them and z(t) = 1/2 int_0^t sd(a s)^2 ds in closed form.
        if height:
            sn, cn, dn, sd2_integral = _jacobi_sd_squared_integral(a * t, k)
        else:
            e = jacobi_elliptic(a * t, k)
            sn, cn, dn, sd2_integral = e.sn, e.cn, e.dn, math.nan
        sd = sn / dn
        rp = cn / dn ** 2
        return (sd / a, rp, a * sn * (2.0 * k * k * cn * cn - dn * dn) / dn ** 3,
                sd2_integral / (2.0 * a), 0.5 * sd * sd, a * sd * rp)

    domain = ((margin, 2.0 * complete_K(k) / a - margin),
              (-0.5 * math.pi + margin, 0.5 * math.pi - margin),
              (0.0, 2.0 * math.pi))
    boundary = (("rotational axis (t near 0)", "domain endpoint (t near 2K/a)"),
                ("coordinate singularity (cos u near 0)",) * 2) + _outside(("v",))
    return Chart("chen_ideal", 3, 1, domain, ("t", "u", "v"), "analytic", {"a": a},
                 *_rotation(profile, _sphere(2, 1.0))[2:], boundary)


# --- flat_torus: S^1(r1) x S^1(r2) in E^4 --------------------------------

def _make_flat_torus(params: dict, margin: float) -> Chart:
    r1 = _get_param(params, "r1", 1.0)
    r2 = _get_param(params, "r2", 1.0)
    domain = ((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi))
    names = ("th1", "th2")
    return Chart("flat_torus", 2, 2, domain, names, "analytic", {"r1": r1, "r2": r2},
                 *_product(_sphere(1, r1), _sphere(1, r2))[2:], _outside(names))


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
    """Build a catalog chart in the given jet mode. `margin` (>= 0) is how far
    the domain stays from the coordinate singularities; raises ValueError for
    unknown names, modes or params, bad params or a margin that leaves an
    axis empty."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown chart {name!r}; catalog: {CATALOG_NAMES}")
    if jet_mode not in ("analytic", "numeric"):
        raise ValueError(f"jet_mode must be 'analytic' or 'numeric', got {jet_mode!r}")
    if not margin >= 0.0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    params = params or {}
    chart = _BUILDERS[name](params, margin)
    unknown = sorted(set(params) - set(chart.params))
    if unknown:
        raise ValueError(f"unknown parameters {unknown} for chart {name!r}; "
                         f"parameters: {sorted(chart.params)}")
    for axis, (lo, hi) in zip(chart.axis_names, chart.domain):
        if not lo < hi:
            raise ValueError(f"margin {margin} leaves axis {axis!r} of "
                             f"{name} empty: [{lo:.6g}, {hi:.6g}]")
    if jet_mode == "numeric":
        chart = chart._replace(jet_mode=jet_mode,
                               first_partials=partial(_numeric_d1, chart.position),
                               jet=partial(_numeric_jet, chart.position))
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
        at_lo, at_hi = chart.boundary[worst]
        reason = at_lo if x[worst] <= chart.domain[worst][0] else at_hi
        return DomainVerdict(False, dist, reason)
    return DomainVerdict(True, dist, "interior")


def _stencil(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Centres y of shape (..., n), then y +- h_a e_a and y +- h_a/2 e_a for
    each axis a: shape (..., 1 + 4n, n)."""
    eye = np.eye(y.shape[-1])
    full = h[..., :, None] * eye
    half = (0.5 * h)[..., :, None] * eye
    y = y[..., None, :]
    moved = np.stack([y + full, y - full, y + half, y - half], axis=-2)
    return np.concatenate([y, moved.reshape(moved.shape[:-3] + (-1, y.shape[-1]))],
                          axis=-2)


def _richardson(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """d_a f at the centres of `_stencil`s by Richardson-extrapolated central
    differences: f (..., 4n, *s) holds the values at the moved points of the
    stencils, h (..., n) their steps; the result has shape (..., n, *s)."""
    k = h.ndim - 1
    f = np.moveaxis(f.reshape(f.shape[:k] + (-1, 4) + f.shape[k + 1:]), k + 1, 0)
    h = h.reshape(h.shape + (1,) * (f.ndim - 1 - h.ndim))
    D1 = (f[0] - f[1]) / (2.0 * h)
    D2 = (f[2] - f[3]) / h
    return (4.0 * D2 - D1) / 3.0


def _numeric_d1(position: Callable, x: np.ndarray) -> np.ndarray:
    """First partials at a point x (n,) or points x (G, n), shape (n, N) or
    (G, n, N): O(h^4) via `_richardson`, from one `position` call over the
    moved points of the stencils."""
    h = np.cbrt(_EPS) * np.maximum(1.0, np.abs(x))
    moved = _stencil(x, h)[..., 1:, :]
    f = np.asarray(position(moved.reshape(-1, x.shape[-1])), dtype=float)
    return _richardson(f.reshape(moved.shape[:-1] + f.shape[-1:]), h)


def _numeric_jet(position: Callable, x: np.ndarray) -> Jet2:
    """2-jet at one point x from one `position` call over three point sets:
    the moved points of the `_numeric_d1` stencil, the stencil of the second
    partials (its centre gives the position) and, per axis pair j < i, the
    8 points x + s(+-h_j e_j +- h_i e_i) with s = 1/2, 1."""
    n = x.shape[0]
    h1 = np.cbrt(_EPS) * np.maximum(1.0, np.abs(x))
    # Second partials use a larger step: the cube-root step leaves the
    # rounding term eps/h^2 at ~1e-5, far too coarse for the 1e-5 jet
    # agreement contract.
    h = _EPS ** 0.25 * np.maximum(1.0, np.abs(x))
    # Cross points (8, pairs, n): s = 1/2, 1 outer, then (a, b) = (1, 1),
    # (1, -1), (-1, 1), (-1, -1).
    J, I = np.triu_indices(n, 1)
    sa, sb = np.array([(s * a, s * b) for s in (0.5, 1.0)
                       for a in (1.0, -1.0) for b in (1.0, -1.0)]).T
    cross = np.tile(x, (8, len(J), 1))
    cross[:, np.arange(len(J)), J] += sa[:, None] * h[J]
    cross[:, np.arange(len(J)), I] += sb[:, None] * h[I]
    f = np.asarray(position(np.concatenate(
        [_stencil(x, h), _stencil(x, h1)[1:], cross.reshape(-1, n)])), dtype=float)
    f0, pure = f[0], f[1:1 + 4 * n].reshape(n, 4, -1)
    fc = f[1 + 8 * n:].reshape(8, len(J), -1)

    # Each entry: Richardson on the half-step and the full-step difference.
    d2 = np.empty((n, n, f.shape[1]))
    for j in range(n):
        D = [(pure[j, r] - 2.0 * f0 + pure[j, r + 1]) / d ** 2
             for r, d in ((2, 0.5 * h[j]), (0, h[j]))]
        d2[j, j] = (4.0 * D[0] - D[1]) / 3.0
    for q, (j, i) in enumerate(zip(J, I)):
        D = [(fc[r, q] - fc[r + 1, q] - fc[r + 2, q] + fc[r + 3, q])
             / (4.0 * s * s * h[j] * h[i]) for r, s in ((0, 0.5), (4, 1.0))]
        d2[j, i] = d2[i, j] = (4.0 * D[0] - D[1]) / 3.0
    return Jet2(f0, _richardson(f[1 + 4 * n:1 + 8 * n], h1), d2)


def first_partials(chart: Chart, x) -> np.ndarray:
    """First partials only: the fast path for metric fields. A point x of
    shape (n,) gives shape (n, N); points of shape (G, n) give (G, n, N).

    Skips the admissibility check of `jet2`; callers that sweep
    finite-difference stencils are responsible for staying inside the
    domain.
    """
    return chart.first_partials(np.asarray(x, dtype=float))


def jet2(chart: Chart, x) -> Jet2:
    """Position plus first/second partials at a strictly interior point.

    Raises DomainError for any other point. The Gram matrix's conditioning
    is checked by `casorati.geometry.frame_at`, against COND_LIMIT.
    """
    x = np.asarray(x, dtype=float)
    verdict = domain_check(chart, x)
    if not verdict.admissible:
        raise DomainError(f"point {x.tolist()} inadmissible for chart "
                          f"{chart.name!r}: {verdict.reason}")
    return chart.jet(x)
