"""Adapted orthonormal frames, second fundamental form, and an intrinsic
curvature oracle for Gauss-equation cross-checks.

The tangent frame comes from a QR factorization of the coordinate tangent
vectors with the sign fixed by a positive triangular diagonal; the normal
frame completes it deterministically from the ambient standard basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .immersions import (
    BoundaryProximityError,
    Chart,
    IllConditionedPointError,
    Jet2,
    _richardson,
    _stencil,
    domain_check,
    first_partials,
    jet2,
)

__all__ = [
    "FramedPoint",
    "SecondForm",
    "RiemannTensor",
    "frame_at",
    "second_form",
    "intrinsic_riemann",
    "intrinsic_tau",
    "gauss_residual",
]

_EPS = np.finfo(float).eps
# Steps (outer, Christoffel) of the intrinsic curvature stencil per jet mode.
# They track the two noise regimes: an analytic metric is clean enough for
# small stencils, a numeric-jet metric carries ~1e-10 noise that the nested
# differences would otherwise amplify.
_RIEMANN_STEPS = {"analytic": (2e-3, float(np.cbrt(_EPS))), "numeric": (5e-2, 1e-2)}


@dataclass(frozen=True)
class SecondForm:
    """Components h^r_ij of the second fundamental form in an adapted
    orthonormal frame; h has shape (p, n, n), finite entries, and each slice
    is symmetric."""

    n: int
    p: int
    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.shape != (self.p, self.n, self.n):
            raise ValueError(f"h must have shape ({self.p}, {self.n}, {self.n}), "
                             f"got {h.shape}")
        _check_form_entries(h)
        object.__setattr__(self, "h", h)


def _check_form_entries(h: np.ndarray) -> None:
    """Reject forms h (..., p, n, n) with a non-finite entry or an h[r] that
    is not symmetric within 1e-8 (1 + max |h|) of its own form."""
    if not np.isfinite(h).all():
        raise ValueError("h must be finite (no NaN or inf entries)")
    axes = (-3, -2, -1)
    scale = 1.0 + np.abs(h).max(axis=axes, initial=0.0)
    asym = np.abs(h - np.swapaxes(h, -1, -2)).max(axis=axes, initial=0.0)
    if (asym > 1e-8 * scale).any():
        raise ValueError("each h[r] must be symmetric in (i, j)")


@dataclass(frozen=True)
class RiemannTensor:
    """R_ijkl in an orthonormal tangent frame, with R_ijij the sectional
    curvature of the (e_i, e_j) plane."""

    n: int
    components: np.ndarray


@dataclass(frozen=True)
class FramedPoint:
    x: np.ndarray
    tangent_frame: np.ndarray  # (n, N) rows e_1..e_n
    normal_frame: np.ndarray   # (p, N) rows e_{n+1}..e_{n+p}
    condition: float
    jet: Jet2 = field(repr=False)
    coord_to_frame: np.ndarray = field(repr=False)  # B with e_i = sum_a B[a,i] d_a


def frame_at(chart: Chart, x) -> FramedPoint:
    """Adapted orthonormal frame at an admissible point.

    Raises IllConditionedPointError when the induced-metric condition number
    exceeds `immersions.COND_LIMIT`.
    """
    x = np.asarray(x, dtype=float)
    jet = jet2(chart, x)
    n, N = chart.n, chart.ambient_dim
    A = jet.d1.T  # (N, n) columns are coordinate tangent vectors
    M = np.hstack([A, np.eye(N)])
    Q, R = np.linalg.qr(M)
    sgn = np.sign(np.diagonal(R)[:N])
    sgn[sgn == 0.0] = 1.0
    Q = Q * sgn
    tangent = Q[:, :n].T
    normal = Q[:, n:].T
    Rtri = (R[:n, :n].T * sgn[:n]).T
    B = np.linalg.solve(Rtri, np.eye(n))
    cond = float(np.linalg.cond(A.T @ A))
    return FramedPoint(x, tangent, normal, cond, jet, B)


def second_form(chart: Chart, x, frame: FramedPoint) -> SecondForm:
    """h^r_ij: normal components of the second derivatives, expressed in the
    orthonormal tangent frame of `frame`."""
    d2 = frame.jet.d2
    B = frame.coord_to_frame
    T = np.einsum("rm,abm->rab", frame.normal_frame, d2)
    h = np.einsum("ai,rab,bj->rij", B, T, B)
    h = 0.5 * (h + h.transpose(0, 2, 1))
    return SecondForm(chart.n, chart.p, h)


def intrinsic_riemann(chart: Chart, x) -> RiemannTensor:
    """Independent intrinsic route: Riemann tensor of the induced metric via
    finite-differenced Christoffel symbols, converted to the orthonormal
    tangent frame.

    The Christoffel symbols are differenced on a stencil of 1 + 4n centres,
    each with its own stencil of 1 + 4n metric points; all (1 + 4n)^2 first
    partials come from one `first_partials` call. The steps are those of
    the chart's jet mode in `_RIEMANN_STEPS`.
    """
    x = np.asarray(x, dtype=float)
    n = chart.n
    step, gamma_step = _RIEMANN_STEPS[chart.jet_mode]
    frame = frame_at(chart, x)

    hs = step * np.maximum(1.0, np.abs(x))
    # Every stencil point (including the nested metric stencils) must stay
    # strictly inside the domain; it is a box, so checking the moved points
    # of one stencil of steps `pad` checks them all.
    pad = hs + 2.0 * gamma_step * np.maximum(1.0, np.abs(x))
    if not all(domain_check(chart, y).admissible for y in _stencil(x, pad)[1:]):
        raise BoundaryProximityError(
            f"point {x.tolist()} too close to the boundary of chart "
            f"{chart.name!r} for the intrinsic curvature stencil")

    centres = _stencil(x, hs)
    gsteps = gamma_step * np.maximum(1.0, np.abs(centres))
    points = _stencil(centres, gsteps)
    d1 = first_partials(chart, points.reshape(-1, n))
    g = (d1 @ d1.transpose(0, 2, 1)).reshape(points.shape[:2] + (n, n))

    # Gamma^k_ij at every centre: dg[c, a, j, l] = d_a g_jl,
    # T[c, i, j, l] = d_i g_jl + d_j g_il - d_l g_ij, gamma[c, k, i, j].
    dg = _richardson(g[:, 1:], gsteps)
    T = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    gamma = 0.5 * np.einsum("ckl,cijl->ckij", np.linalg.inv(g[:, 0]), T)
    gamma0 = gamma[0]
    dgamma = _richardson(gamma[1:], hs)

    # R(d_a, d_b) d_c = Rup[d, a, b, c] d_d
    rup = (np.einsum("adbc->dabc", dgamma)
           - np.einsum("bdac->dabc", dgamma)
           + np.einsum("dae,ebc->dabc", gamma0, gamma0)
           - np.einsum("dbe,eac->dabc", gamma0, gamma0))
    g0 = g[0, 0]
    # Rm(a,b,c,d) = g(R(d_a, d_b) d_c, d_d); the artifact's index order puts
    # the sectional curvature at R[i,j,i,j], i.e. R[a,b,c,d] = Rm(a,b,d,c).
    rm = np.einsum("eabc,ed->abcd", rup, g0)
    rspec = rm.transpose(0, 1, 3, 2)
    B = frame.coord_to_frame
    comp = np.einsum("abcd,ai,bj,ck,dl->ijkl", rspec, B, B, B, B)
    return RiemannTensor(n, comp)


def intrinsic_tau(riemann: RiemannTensor) -> float:
    """Scalar curvature tau = sum_{i<j} R_ijij over the orthonormal frame."""
    c = riemann.components
    n = riemann.n
    return float(sum(c[i, j, i, j] for i in range(n) for j in range(i + 1, n)))


def _gauss_riemann(h: SecondForm, c_tilde: float) -> np.ndarray:
    """R_ijkl of the Gauss equation: c_tilde (d_ik d_jl - d_il d_jk)
    + sum_r (h^r_ik h^r_jl - h^r_il h^r_jk)."""
    eye = np.eye(h.n)
    hh = h.h
    return (c_tilde * (np.einsum("ik,jl->ijkl", eye, eye)
                       - np.einsum("il,jk->ijkl", eye, eye))
            + np.einsum("rik,rjl->ijkl", hh, hh)
            - np.einsum("ril,rjk->ijkl", hh, hh))


def gauss_residual(secondform: SecondForm, riemann: RiemannTensor,
                   c_tilde: float = 0.0) -> float:
    """Max componentwise defect of the Gauss equation between the intrinsic
    Riemann tensor and the extrinsic reconstruction from h and c_tilde."""
    n = secondform.n
    if riemann.n != n:
        raise ValueError(f"dimension mismatch: h has n={n}, R has n={riemann.n}")
    expected = _gauss_riemann(secondform, c_tilde)
    return float(np.abs(riemann.components - expected).max())
