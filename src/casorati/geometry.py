"""Adapted orthonormal frames, second fundamental form, and an intrinsic
curvature oracle for Gauss-equation cross-checks.

The tangent frame comes from a QR factorization of the coordinate tangent
vectors with the sign fixed by a positive triangular diagonal; the normal
frame completes it deterministically from the ambient standard basis.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .immersions import (
    COND_LIMIT,
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
# SecondForm is defined with the invariants, which need no chart; it is
# re-exported here.
from .invariants import SecondForm, _gauss_riemann

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


class RiemannTensor(NamedTuple):
    """R_ijkl in an orthonormal tangent frame, with R_ijij the sectional
    curvature of the (e_i, e_j) plane."""

    n: int
    components: np.ndarray


class FramedPoint(NamedTuple):
    x: np.ndarray
    tangent_frame: np.ndarray  # (n, N) rows e_1..e_n
    normal_frame: np.ndarray   # (p, N) rows e_{n+1}..e_{n+p}
    condition: float
    jet: Jet2
    coord_to_frame: np.ndarray  # B with e_i = sum_a B[a,i] d_a


def frame_at(chart: Chart, x) -> FramedPoint:
    """Adapted orthonormal frame at an admissible point.

    Raises IllConditionedPointError when the induced-metric condition number
    exceeds `immersions.COND_LIMIT`.
    """
    x = np.asarray(x, dtype=float)
    jet = jet2(chart, x)
    n, N = chart.n, chart.ambient_dim
    A = jet.d1.T  # (N, n) columns are coordinate tangent vectors
    cond = float(np.linalg.cond(A.T @ A))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedPointError(
            f"Gram matrix condition {cond:.3e} exceeds {COND_LIMIT:.1e} "
            f"at {x.tolist()} on chart {chart.name!r}")
    M = np.hstack([A, np.eye(N)])
    Q, R = np.linalg.qr(M)
    sgn = np.sign(np.diagonal(R)[:N])
    sgn[sgn == 0.0] = 1.0
    Q = Q * sgn
    tangent = Q[:, :n].T
    normal = Q[:, n:].T
    Rtri = (R[:n, :n].T * sgn[:n]).T
    B = np.linalg.solve(Rtri, np.eye(n))
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
    # rm[a,b,d,c] B[a,i] B[b,j] B[c,k] B[d,l], one index a step: O(n^5).
    comp = rm.transpose(0, 1, 3, 2)
    for _ in range(4):
        comp = np.tensordot(comp, frame.coord_to_frame, (0, 0))
    return RiemannTensor(n, comp)


def intrinsic_tau(riemann: RiemannTensor) -> float:
    """Scalar curvature tau = sum_{i<j} R_ijij over the orthonormal frame."""
    c = riemann.components
    n = riemann.n
    return float(sum(c[i, j, i, j] for i in range(n) for j in range(i + 1, n)))


def gauss_residual(secondform: SecondForm, riemann: RiemannTensor,
                   c_tilde: float = 0.0) -> float:
    """Max componentwise defect of the Gauss equation between the intrinsic
    Riemann tensor and the extrinsic reconstruction from h and c_tilde."""
    n = secondform.n
    if riemann.n != n:
        raise ValueError(f"dimension mismatch: h has n={n}, R has n={riemann.n}")
    expected = _gauss_riemann(secondform, c_tilde)
    return float(np.abs(riemann.components - expected).max())
