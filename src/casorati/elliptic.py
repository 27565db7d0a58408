"""Jacobi elliptic functions, the complete elliptic integral K, the closed-form
integral of sd^2, and adaptive quadrature.

One arithmetic-geometric mean sequence of (1, k') per evaluation gives both K
and the table of the descending Landen recursion (DLMF 22.20), which produces
the function values; it converges quadratically and is uniformly accurate for
every modulus k < 1. The same sweep yields Jacobi's zeta function and E(k)/K(k)
(A&S 17.6), hence Jacobi's epsilon function and the integral of sd^2 in closed
form (DLMF 22.16(ii)-(iii)). The adaptive Simpson rule is a general-purpose
integrator; no computation in the package calls it."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

__all__ = [
    "EllipticTriple",
    "QuadratureResult",
    "QuadratureError",
    "jacobi_elliptic",
    "jacobi_sd",
    "sd_squared_integral",
    "complete_K",
    "integrate",
]

_EPS = 2.220446049250313e-16
_MAX_AGM_ITER = 60


class QuadratureError(RuntimeError):
    """Raised when adaptive subdivision cannot reach the requested tolerance."""


class EllipticTriple(NamedTuple):
    """Values sn(u,k), cn(u,k), dn(u,k) at a single argument."""

    u: float
    k: float
    sn: float
    cn: float
    dn: float


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int


def _check_modulus(k: float) -> None:
    if not (0.0 <= k < 1.0):
        raise ValueError(f"modulus k must lie in [0, 1), got {k!r}")


def _agm_table(k: float):
    """``(k', a, c, K)`` from the AGM sequence of (1, k') (DLMF 22.20(ii)): the
    tables a_0 = 1, ..., a_N and c_0 = k, c_{n+1} = (a_n - b_n) / 2, stopped
    once c_N <= 4 eps, and K(k) = pi / (2 a_N)."""
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    a, b, c = [1.0], kp, [k]
    while c[-1] > 4.0 * _EPS and len(a) < _MAX_AGM_ITER:
        x = a[-1]
        a.append(0.5 * (x + b))
        c.append(0.5 * (x - b))
        b = math.sqrt(x * b)
    return kp, a, c, math.pi / (2.0 * a[-1])


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k) = pi / (2 agm(1, k'))."""
    _check_modulus(k)
    return _agm_table(k)[3]


def _descend(u: float, k: float):
    """Descending Landen sweep at modulus 0 < k < 1 (DLMF 22.20(ii), A&S 17.6).

    Returns ``(sn, cn, dn, zeta, c)``: the three Jacobi functions, Jacobi's
    zeta function Z(u) = sum c_n sin(phi_n) and the table c_0 = k, c_1, ...,
    c_N. Z is 2K-periodic, so the reduction of u modulo 4K leaves it unchanged.
    """
    kp, a, c, K = _agm_table(k)
    # sn, cn are 4K-periodic and dn is 2K-periodic; reduce to keep the
    # amplified phase 2^N a_N u at a size where sin() stays accurate.
    ured = u - 4.0 * K * math.floor(u / (4.0 * K) + 0.5)
    N = len(a) - 1

    phi = (2.0 ** N) * a[N] * ured
    zeta = 0.0
    for n in range(N, 0, -1):
        sin_phi = math.sin(phi)
        zeta += c[n] * sin_phi
        s = c[n] / a[n] * sin_phi
        s = max(-1.0, min(1.0, s))
        phi = 0.5 * (phi + math.asin(s))

    sn = math.sin(phi)
    cn = math.cos(phi)
    # dn from the parameter identity: the phase-quotient expression for dn
    # loses all precision near the quarter periods where cn -> 0; the
    # positive root is the correct branch for every k < 1.
    dn = math.sqrt(max(kp * kp, 1.0 - (k * sn) * (k * sn)))
    return sn, cn, dn, zeta, c


def jacobi_elliptic(u: float, k: float) -> EllipticTriple:
    """Evaluate sn, cn, dn at argument u and modulus k in [0, 1).

    Handles all real u through reduction modulo the full period 4K(k).
    """
    _check_modulus(k)
    if not math.isfinite(u):
        raise ValueError(f"argument u must be finite, got {u!r}")

    if k < 1e-14:
        # Degenerate circular limit; the recursion below would need phi_1.
        return EllipticTriple(u, k, math.sin(u), math.cos(u), 1.0)

    sn, cn, dn, _, _ = _descend(u, k)
    return EllipticTriple(u, k, sn, cn, dn)


def jacobi_sd(u: float, k: float) -> float:
    """sd(u, k) = sn(u, k) / dn(u, k); dn never vanishes for k < 1."""
    t = jacobi_elliptic(u, k)
    return t.sn / t.dn


def sd_squared_integral(u: float, k: float) -> float:
    """Closed form of the integral of sd(w, k)^2 over w from 0 to u.

    Uses (DLMF 22.16(ii)-(iii), A&S 17.6)

        int_0^u sd^2 = [eps(u) - k'^2 u - k^2 sn cn / dn] / (k^2 k'^2),

    where Jacobi's epsilon eps(u) = Z(u) + (E/K) u, E/K = 1 - 1/2 sum 2^n c_n^2,
    and Z and the c_n come from the descending Landen sweep shared with
    :func:`jacobi_elliptic`. The terms are O(u) while the integral is O(u^3)
    near the origin, so the accuracy is absolute: about eps |u| / (k k')^2.
    For k < 1e-14 it returns the circular limit, the integral of sin^2.
    """
    _check_modulus(k)
    if not math.isfinite(u):
        raise ValueError(f"argument u must be finite, got {u!r}")

    if k < 1e-14:
        return 0.5 * u - 0.25 * math.sin(2.0 * u)

    return _jacobi_sd_squared_integral(u, k)[3]


def _jacobi_sd_squared_integral(u: float, k: float):
    """``(sn, cn, dn, int_0^u sd^2)`` from one Landen sweep, unchecked.

    Needs 1e-14 <= k < 1 and finite u; each value is bit-identical to the one
    :func:`jacobi_elliptic` or :func:`sd_squared_integral` returns.
    """
    sn, cn, dn, zeta, c = _descend(u, k)
    e_over_k = 1.0 - 0.5 * sum(2.0 ** n * cj * cj for n, cj in enumerate(c))
    epsilon = zeta + e_over_k * u
    k2 = k * k
    kp2 = (1.0 - k) * (1.0 + k)
    return sn, cn, dn, (epsilon - kp2 * u - k2 * sn * cn / dn) / (k2 * kp2)


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 48,
) -> QuadratureResult:
    """Adaptive Simpson quadrature with an interval-local error estimate.

    Deterministic for fixed inputs; raises :class:`QuadratureError` if the
    subdivision depth limit is reached before the tolerance is met.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)

    evals = 0

    def ev(x: float) -> float:
        nonlocal evals
        evals += 1
        y = f(x)
        if not math.isfinite(y):
            raise QuadratureError(f"integrand not finite at x={x!r}")
        return y

    fa = ev(a)
    fb = ev(b)
    m = 0.5 * (a + b)
    fm = ev(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    total = 0.0
    err_total = 0.0
    # Stack of (a, b, fa, fm, fb, S, local_tol, depth).
    stack = [(a, b, fa, fm, fb, whole, tol, 0)]
    while stack:
        xa, xb, ya, ym, yb, S, ltol, depth = stack.pop()
        xm = 0.5 * (xa + xb)
        lm = 0.5 * (xa + xm)
        rm = 0.5 * (xm + xb)
        yl = ev(lm)
        yr = ev(rm)
        Sl = (xm - xa) / 6.0 * (ya + 4.0 * yl + ym)
        Sr = (xb - xm) / 6.0 * (ym + 4.0 * yr + yb)
        delta = Sl + Sr - S
        if abs(delta) <= 15.0 * ltol:
            total += Sl + Sr + delta / 15.0
            err_total += abs(delta) / 15.0
        else:
            if depth >= max_depth:
                raise QuadratureError(
                    f"subdivision limit reached on [{xa}, {xb}] before tolerance"
                )
            stack.append((xa, xm, ya, yl, ym, Sl, 0.5 * ltol, depth + 1))
            stack.append((xm, xb, ym, yr, yb, Sr, 0.5 * ltol, depth + 1))
    return QuadratureResult(total, err_total, evals)
