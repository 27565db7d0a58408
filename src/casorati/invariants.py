"""Scalar curvature invariants and inequality machinery.

Everything here is a pure function of the second fundamental form (and the
ambient curvature c_tilde): Casorati curvatures, hyperplane extremization,
delta-curvatures, the nonnegative proof polynomials behind the two
curvature inequalities, the trace-constrained quadratic minimization,
Ricci/Weyl checks, and the equality-case classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import SecondForm, _check_form_entries, _gauss_riemann

__all__ = [
    "HyperplaneExtremum",
    "IdealClassification",
    "InvariantReport",
    "QPSolution",
    "casorati_total",
    "casorati_hyperplane",
    "extremize_hyperplane",
    "hyperplane_extrema_batch",
    "sphere_grid",
    "tau_from_h",
    "proof_polynomial",
    "oprea_qp",
    "qp_objective",
    "qp_hessian",
    "ricci_values",
    "weyl_norm",
    "classify_ideal",
    "inequality_report",
    "inequality_reports",
]

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# Newton iteration cap of the p >= 2 hyperplane extremum, after the grid seed.
_NEWTON_ITERS = 60
# Bytes of the monomial matrix, and of the (forms, p + 1, block) products, of
# one block of the p >= 2 grid scan; a block is a power of two of lattice
# points in [_GRID_MIN, _GRID_MAX], the floor overriding the budget (n >= 11).
_GRID_BYTES = 128 * 1024
_GRID_MIN, _GRID_MAX = 256, 4096
# Step halvings tried after a Newton step that does not improve its row.
_HALVINGS = 29


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperplaneExtremum:
    """Extremum of C(L) over hyperplanes L = u-perp of the tangent space."""

    mode: str               # "inf" | "sup"
    value: float
    u: np.ndarray
    certificate: dict


@dataclass(frozen=True)
class IdealClassification:
    kind: str               # TotallyGeodesic | Umbilical | Ideal11 | Ideal41 | Generic
    lam: Optional[float]
    single_normal: bool
    quasi_umbilical: bool


@dataclass(frozen=True)
class QPSolution:
    variant: str
    n: int
    k: float
    point: np.ndarray
    t: float
    value: float
    min_restricted_hessian_eig: float


@dataclass(frozen=True)
class InvariantReport:
    n: int
    p: int
    c_tilde: float
    C: float
    infCL: HyperplaneExtremum
    supCL: HyperplaneExtremum
    meanH: float
    tau: float
    rho: float
    delta_hat: float
    delta_C: float
    delta_c_legacy: float
    slack11: float
    slack41: float
    classification: IdealClassification


# ---------------------------------------------------------------------------
# Casorati curvatures
# ---------------------------------------------------------------------------

def casorati_total(h: SecondForm) -> float:
    """C = (1/n) sum_r sum_ij (h^r_ij)^2."""
    return float(np.sum(h.h ** 2) / h.n)


def _check_unit(u: np.ndarray, n: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise ValueError(f"u must be a vector of length {n}")
    if abs(np.linalg.norm(u) - 1.0) > 1e-10:
        raise ValueError("u must be a unit vector (|u| = 1 to 1e-10)")
    return u


def casorati_hyperplane(h: SecondForm, u) -> float:
    """C(L) for the hyperplane L = u-perp, normalized by dim L = n - 1.

    Uses the projector form (1/(n-1)) sum_r |P h^r P|_F^2 with P = I - u u^T,
    which is independent of any basis chosen for L.
    """
    n = h.n
    u = _check_unit(u, n)
    if n < 2:
        raise ValueError("hyperplane Casorati curvature needs n >= 2")
    tr2 = float(np.sum(h.h ** 2))
    hu = h.h @ u                              # (p, n)
    quad = np.einsum("ri,i->r", hu, u)        # u^T h_r u
    val = tr2 - 2.0 * float(np.sum(hu ** 2)) + float(np.sum(quad ** 2))
    return val / (n - 1)


# ---------------------------------------------------------------------------
# hyperplane extremization over the unit sphere of u
# ---------------------------------------------------------------------------

def sphere_grid(n: int, size: int) -> np.ndarray:
    """Deterministic quasi-uniform grid on S^{n-1}.

    n = 3 uses a Fibonacci lattice of `size` points. Higher n takes the
    first 2^m points, 2^m the least power of two >= size, of the R_d
    Kronecker lattice (Roberts' generalized golden ratio) in [0, 1)^d with
    d = 2 ceil(n/2), maps each coordinate pair to two standard normals by
    Box-Muller and normalizes the first n; a point whose n normals have norm
    at most 1e-8 is dropped. No random stream is drawn, so the grid does not
    depend on the numpy version. Each node depends on its lattice point
    alone, so the grid is the concatenation of the blocks of `_grid_blocks`,
    which the p >= 2 extremum scans one at a time.
    """
    _check_grid_size(size)
    return np.concatenate(list(_grid_blocks(n, size, _GRID_MAX)))


def _check_grid_size(size: int) -> None:
    # A float would make a smaller n = 3 lattice and round up for n >= 4.
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
        raise ValueError(f"grid_size must be an integer, got {size!r}")
    if size < 1:
        raise ValueError("grid_size must be >= 1")


def _grid_blocks(n: int, size: int, block: int):
    """The unit nodes of `sphere_grid(n, size)` in order, one block of
    `block` lattice points at a time (fewer in the last block, and fewer
    nodes where points are dropped)."""
    if n == 3:
        for i0 in range(0, size, block):
            i = np.arange(i0, min(i0 + block, size))
            z = 1.0 - (2.0 * i + 1.0) / size
            r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
            phi = i * _GOLDEN_ANGLE
            yield np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
        return
    d = 2 * ((n + 1) // 2)
    # phi_d is the positive root of x^(d+1) = x + 1; the fixed-point map
    # contracts by less than 1/(d+1), so 64 steps reach double precision.
    phi_d = 2.0
    for _ in range(64):
        phi_d = (1.0 + phi_d) ** (1.0 / (d + 1))
    alpha = phi_d ** -np.arange(1.0, d + 1)
    count = 2 ** math.ceil(math.log2(max(2, size)))
    for i0 in range(0, count, block):
        pts = 0.5 + np.arange(i0, min(i0 + block, count))[:, None] * alpha
        pts -= np.floor(pts)            # pts % 1.0 exactly (pts > 0), but cheaper
        # 1 - u lies in (0, 1], so every radius is finite. The normals
        # overwrite the lattice points they come from.
        radius = np.sqrt(-2.0 * np.log1p(-pts[:, 0::2]))
        angle = 2.0 * math.pi * pts[:, 1::2]
        np.multiply(radius, np.cos(angle), out=pts[:, 0::2])
        np.multiply(radius, np.sin(angle, out=angle), out=pts[:, 1::2])
        z = pts[:, :n]
        norms = np.linalg.norm(z, axis=1)
        keep = norms > 1e-8
        yield z / norms[:, None] if keep.all() else z[keep] / norms[keep, None]


def _hypersurface_extrema(A: np.ndarray, modes: tuple):
    """Exact extrema of (n-1) C(u-perp) for p = 1 forms A of shape (B, n, n).

    With eigenvalues lam of A and w_i = u_i^2 on the simplex,
    (n-1) C(u-perp) = |A|^2 - 2 sum lam_i^2 w_i + (sum lam_i w_i)^2 is convex
    in w, which gives

        sup = |A|^2 - min_i lam_i^2,
        inf = |A|^2 - max(lam_max, 0)^2 - min(lam_min, 0)^2.

    The supremum is attained at the eigenvector e_i of the smallest lam_i^2;
    the infimum at e_max, at e_min, or, when lam_max > 0 > lam_min,
    at sqrt(s) e_max + sqrt(1 - s) e_min with s = lam_max / (lam_max - lam_min).
    One eigendecomposition serves every mode. Returns, per mode, the values
    (B,) and the unit extremizers u (B, n).
    """
    lam, E = np.linalg.eigh(A)                  # ascending eigenvalues
    B = A.shape[0]
    rows = np.arange(B)
    tr2 = np.einsum("bij,bij->b", A, A)
    vals, us = [], []
    for mode in modes:
        if mode == "sup":
            i = np.argmin(lam * lam, axis=1)
            vals.append(tr2 - lam[rows, i] ** 2)
            us.append(E[rows, :, i])
            continue
        top = np.maximum(lam[:, -1], 0.0)
        bottom = np.minimum(lam[:, 0], 0.0)
        # s = 1 (u = e_max) when no eigenvalue is negative, s = 0 (u = e_min)
        # when none is positive; the zero form takes s = 1.
        width = top - bottom
        s = np.divide(top, width, out=np.ones(B), where=width > 0.0)
        vals.append(tr2 - top ** 2 - bottom ** 2)
        us.append(np.sqrt(s)[:, None] * E[:, :, -1]
                  + np.sqrt(1.0 - s)[:, None] * E[:, :, 0])
    return vals, us


def _check_extremum_args(mode: str, n: int) -> None:
    if mode not in ("inf", "sup"):
        raise ValueError("mode must be 'inf' or 'sup'")
    if n < 3:
        raise ValueError("hyperplane extremization needs n >= 3")


def _values_at(h, S, tr2, u):
    """(n-1) C(u-perp) = |h|^2 - 2 u^T S u + sum_r (u^T h_r u)^2 for forms h
    (..., p, n, n), S = sum_r h_r^2 (..., n, n), tr2 (...) and points u
    (..., n), their leading axes broadcast."""
    hu = (h @ u[..., None, :, None])[..., 0]
    quad = (hu * u[..., None, :]).sum(-1)
    uSu = ((S @ u[..., :, None])[..., 0] * u).sum(-1)
    return tr2 - 2.0 * uSu + (quad * quad).sum(-1)


def _grid_newton(h: np.ndarray, grid_size: int, modes: tuple):
    """Grid seed plus safeguarded Riemannian Newton for forms h (B,p,n,n).

    The grid `sphere_grid(n, grid_size)` is made and scanned one block of
    lattice points at a time (`_grid_blocks`), with u^T A u summed over the
    n(n+1)/2 upper-triangle monomials u_i u_j, made with one broadcast
    product per row i. A block is the longest power of two of at most
    `_GRID_MAX` points whose monomial matrix fits `_GRID_BYTES`, but no
    shorter than `_GRID_MIN`, which bounds the blocks per grid and so their
    Python overhead; each block is scanned for as many forms at once as keep
    its (forms, p + 1, block) products within `_GRID_BYTES`. So the scan's
    memory grows neither with the batch nor with the grid size.
    Each (mode, form) row keeps its own best node itself (the first least f
    for "inf", the first least -f for "sup"), so every node is made once and
    these (M, B, n) nodes are the Newton seeds. One Newton iteration runs on
    the sphere over all len(modes) * B (mode, form) rows, each with its own
    sign: the restricted Hessian is clipped to be positive (for the row's
    direction), and a backtracking line search tries the full step, then
    its halvings, on the rows still pending until the value improves. A row
    stops once its tangent gradient is below 1e-14 (1 + |h|^2), its full
    step fails with a model decrease below that scale, a failed step rounds
    back onto its current point, or no halving improves it. Every operation
    acts on one row at a time or elementwise, so a result depends neither
    on the batch its form came in nor on the other modes asked for. Returns (n-1) C(u-perp) at the
    polished points (M, B), the unit points u (M, B, n), the best grid
    values (M, B), M = len(modes), and the number of grid nodes.
    """
    h = np.ascontiguousarray(h)
    B, p, n, _ = h.shape
    signs = np.array([1.0 if mode == "inf" else -1.0 for mode in modes])
    M = signs.size
    S = (h @ h).sum(axis=1)
    tr2 = (h * h).sum(axis=(1, 2, 3))

    iu, ju = np.triu_indices(n)
    coef = (np.concatenate([S[:, None], h], axis=1)[:, :, iu, ju]
            * np.where(iu == ju, 1.0, 2.0))          # (B, p+1, K)
    block = _GRID_MAX
    while block > _GRID_MIN and 8 * iu.size * block > _GRID_BYTES:
        block //= 2
    bc = max(1, _GRID_BYTES // (8 * (p + 1) * block))
    best = np.full((M, B), np.inf)                    # sign * f at the best node
    u = np.zeros((M, B, n))                           # the best node
    nodes = 0
    buf = np.empty((iu.size, block))
    for U in _grid_blocks(n, grid_size, block):
        nodes += U.shape[0]
        Ut = np.ascontiguousarray(U.T)
        mon = buf[:, :U.shape[0]]                     # u_i u_j, i <= j
        k = 0
        for i in range(n):                            # the rows (i, i..n-1)
            np.multiply(Ut[i], Ut[i:], out=mon[k:k + n - i])
            k += n - i
        for b0 in range(0, B, bc):
            q = coef[b0:b0 + bc] @ mon                # u^T S u, u^T h_r u
            f = tr2[b0:b0 + bc, None] - 2.0 * q[:, 0]
            for r in range(1, p + 1):
                f += q[:, r] * q[:, r]
            rows = np.arange(f.shape[0])
            for m, sign in enumerate(signs):
                # argmax f is the first least -f, so "sup" needs no negated copy
                a = np.argmin(f, axis=1) if sign > 0 else np.argmax(f, axis=1)
                v = sign * f[rows, a]
                top, at = best[m, b0:b0 + bc], u[m, b0:b0 + bc]
                better = v < top
                top[better] = v[better]
                at[better] = U[a[better]]
    grid_f = signs[:, None] * best

    # Newton rows are (mode, form) pairs, mode-major.
    form = np.tile(np.arange(B), M)
    sign = np.repeat(signs, B)
    h, S, tr2 = h[form], S[form], tr2[form]
    f = grid_f.flatten()                             # a copy: polished in place
    u = u.reshape(M * B, n)                           # the seeds, polished in place
    scale = 1.0 + tr2
    eye = np.eye(n)
    live = np.ones(M * B, dtype=bool)
    for _ in range(_NEWTON_ITERS):
        idx = np.flatnonzero(live)
        hl, Sl, ul, sl = h[idx], S[idx], u[idx], sign[idx]
        hu = (hl @ ul[:, None, :, None])[..., 0]    # (L, p, n)
        quad = (hu * ul[:, None, :]).sum(-1)          # (L, p)
        g = sl[:, None] * (-4.0 * (Sl @ ul[:, :, None])[..., 0]
                           + 4.0 * (quad[:, None, :] @ hu)[:, 0])
        gu = (g * ul).sum(-1)
        g_r = g - gu[:, None] * ul
        moving = np.sqrt((g_r * g_r).sum(-1)) > 1e-14 * scale[idx]
        live[idx[~moving]] = False
        if not moving.any():
            break
        idx, hl, Sl, ul, sl, hu, quad, g, gu = (
            x[moving] for x in (idx, hl, Sl, ul, sl, hu, quad, g, gu))
        L = idx.size
        Q, _ = np.linalg.qr(np.concatenate(
            [ul[:, :, None], np.broadcast_to(eye, (L, n, n))], axis=2))
        V = Q[:, :, 1:]                               # tangent basis at u
        Vt = V.transpose(0, 2, 1)
        H = (sl[:, None, None] * (-4.0 * Sl + 8.0 * (hu.transpose(0, 2, 1) @ hu)
                                  + 4.0 * (quad[:, :, None, None] * hl).sum(axis=1))
             - gu[:, None, None] * eye)
        w, E = np.linalg.eigh(Vt @ H @ V)
        floor = 1e-8 * (1.0 + np.abs(w).max(-1))
        w = np.maximum(w, floor[:, None])
        step = -(V @ (E @ ((E.transpose(0, 2, 1) @ (Vt @ g[:, :, None]))
                           / w[:, :, None])))[..., 0]
        # Backtracking over the rows still pending, t = 1, 1/2, ...,
        # 2^-_HALVINGS: a row moves to its first candidate that lowers
        # sign * f. It stops, converged to rounding, if a failed candidate
        # rounds back onto ul, if its full step fails with a model decrease
        # -g^T s of at most 1e-14 (1 + |h|^2), or if no try improves it.
        live[idx] = False
        flat = (g * step).sum(-1) >= -1e-14 * scale[idx]
        pend = np.arange(L)
        t = 1.0
        for _ in range(_HALVINGS + 1):
            cand = ul[pend] + t * step[pend]
            cand /= np.sqrt((cand * cand).sum(-1))[:, None]
            j = idx[pend]
            fc = _values_at(hl[pend], Sl[pend], tr2[j], cand)
            ok = sl[pend] * fc < sl[pend] * f[j]
            u[j[ok]], f[j[ok]] = cand[ok], fc[ok]
            live[j[ok]] = True
            pend = pend[~(ok | flat | (cand == ul[pend]).all(-1))]
            if pend.size == 0:
                break
            flat = False                 # only a failed full step converges
            t *= 0.5
    return f.reshape(M, B), u.reshape(M, B, n), grid_f, nodes


def _extrema(h: np.ndarray, modes: tuple, grid_size: int | None = None) -> list:
    """`HyperplaneExtremum`s of forms h (B, p, n, n), n >= 3, all of one
    (n, p): a list over `modes` of lists over the forms. p = 1 takes the
    closed form, p >= 2 one `_grid_newton` call that serves every mode."""
    B, p, n, _ = h.shape
    if grid_size is not None:
        _check_grid_size(grid_size)
    if p == 1:
        vals, us = _hypersurface_extrema(h[:, 0], modes)
        certs = [[{"method": "closed_form"} for _ in range(B)] for _ in modes]
    else:
        if grid_size is None:
            grid_size = min(32768, 4096 * 2 ** (n - 3))
        vals, us, grid_f, nodes = _grid_newton(h, grid_size, modes)
        certs = [[{"method": "grid_newton", "grid_nodes": nodes,
                   "refine_iters": _NEWTON_ITERS,
                   "grid_value": float(gv) / (n - 1)} for gv in row]
                 for row in grid_f]
    return [[HyperplaneExtremum(mode, float(vals[m][b]) / (n - 1), us[m][b],
                                certs[m][b]) for b in range(B)]
            for m, mode in enumerate(modes)]


def extremize_hyperplane(h: SecondForm, mode: str, *,
                         grid_size: int | None = None) -> HyperplaneExtremum:
    """Extremize C(u-perp) over unit u.

    Hypersurfaces (p = 1) take the exact spectral closed form of
    `_hypersurface_extrema`; the certificate is ``{"method": "closed_form"}``
    and `grid_size` is unused. For p >= 2 this is `_grid_newton` on the one
    form: a deterministic quasi-uniform sphere grid (`sphere_grid`, by
    default 4096 2^(n-3) nodes up to 32768) followed by a safeguarded Newton
    polish on the sphere; the certificate gives the method
    ``"grid_newton"``, the grid nodes, the Newton iteration cap and the best
    grid value. The polished point is always feasible, so there `inf`
    results upper-bound the true infimum and `sup` results lower-bound the
    true supremum.
    """
    _check_extremum_args(mode, h.n)
    return _extrema(h.h[None], (mode,), grid_size)[0][0]


def hyperplane_extrema_batch(h: np.ndarray, mode: str, *,
                             grid_size: int | None = None) -> np.ndarray:
    """Hyperplane extrema C(u-perp) for a batch of forms h of shape (B,p,n,n).

    p = 1 is exact (the closed form of `_hypersurface_extrema`). For p >= 2
    this is the grid+Newton path of `extremize_hyperplane`, with the same
    default grid, run on the whole batch; each value equals that function's,
    bit for bit, and the values are conservative bounds in the sense
    documented there. Each form must pass `SecondForm`'s checks: finite
    entries and symmetric slices.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 4 or h.shape[1] < 1 or h.shape[2] != h.shape[3]:
        raise ValueError(f"h must have shape (B, p, n, n) with p >= 1, "
                         f"got {h.shape}")
    _check_extremum_args(mode, h.shape[2])
    _check_form_entries(h)
    return np.array([e.value for e in _extrema(h, (mode,), grid_size)[0]])


# ---------------------------------------------------------------------------
# scalar curvature
# ---------------------------------------------------------------------------

def tau_from_h(h: SecondForm, c_tilde: float = 0.0) -> float:
    """Scalar curvature of the Gauss-equation metric,
    2 tau = n^2 |H|^2 - n C + n(n-1) c_tilde."""
    n = h.n
    traces = np.einsum("rii->r", h.h)
    H2 = float(np.sum(traces ** 2)) / n ** 2
    C = casorati_total(h)
    return 0.5 * (n * n * H2 - n * C + n * (n - 1) * c_tilde)


# ---------------------------------------------------------------------------
# proof polynomials
# ---------------------------------------------------------------------------

def proof_polynomial(h: SecondForm, u, variant: str) -> float:
    """The nonnegative quadratic polynomial underlying each inequality.

    variant "P": 2n(n-1) C + (n-1)(1-2n)/2 C(L) - 2 tau + n(n-1) c_tilde
    variant "Q": n(n-1)/2 C + (n-1)(n+1)/2 C(L) - 2 tau + n(n-1) c_tilde

    with L = u-perp.  Substituting 2 tau = n^2 |H|^2 - n C + n(n-1) c_tilde
    cancels the ambient term, so the value depends only on (h, u).
    """
    n = h.n
    if n < 3:
        raise ValueError("proof polynomial needs n >= 3")
    C = casorati_total(h)
    CL = casorati_hyperplane(h, u)
    traces = np.einsum("rii->r", h.h)
    n2H2 = float(np.sum(traces ** 2))
    if variant == "P":
        return 2.0 * n * (n - 1.0) * C + 0.5 * (n - 1.0) * (1.0 - 2.0 * n) * CL \
            + n * C - n2H2
    if variant == "Q":
        return 0.5 * n * (n - 1.0) * C + 0.5 * (n - 1.0) * (n + 1.0) * CL \
            + n * C - n2H2
    raise ValueError("variant must be 'P' or 'Q'")


# ---------------------------------------------------------------------------
# trace-constrained quadratic minimization
# ---------------------------------------------------------------------------

def qp_objective(variant: str, x) -> float:
    """Quadratic form in the diagonal entries, per inequality variant."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    # sum_{i<j} x_i x_j in O(n)
    off = 0.5 * (float(np.sum(x)) ** 2 - float(np.sum(x ** 2)))
    if variant == "P":
        return (0.5 * (2.0 * n - 3.0) * float(np.sum(x[:-1] ** 2))
                + 2.0 * (n - 1.0) * x[-1] ** 2 - 2.0 * off)
    if variant == "Q":
        return (n * float(np.sum(x[:-1] ** 2))
                + 0.5 * (n - 1.0) * x[-1] ** 2 - 2.0 * off)
    raise ValueError("variant must be 'P' or 'Q'")


def qp_hessian(variant: str, n: int) -> np.ndarray:
    H = -2.0 * np.ones((n, n))
    if variant == "P":
        np.fill_diagonal(H, 2.0 * n - 3.0)
        H[-1, -1] = 4.0 * (n - 1.0)
    elif variant == "Q":
        np.fill_diagonal(H, 2.0 * n)
        H[-1, -1] = n - 1.0
    else:
        raise ValueError("variant must be 'P' or 'Q'")
    return H


def _trace_constraint_basis(n: int) -> np.ndarray:
    """Deterministic orthonormal basis of {x : sum x_i = 0} (Helmert columns)."""
    V = np.zeros((n, n - 1))
    for i in range(1, n):
        V[:i, i - 1] = 1.0
        V[i, i - 1] = -float(i)
        V[:, i - 1] /= math.sqrt(i * (i + 1.0))
    return V


def oprea_qp(variant: str, n: int, k: float) -> QPSolution:
    """Closed-form minimizer of the variant quadratic form under trace k.

    variant P: (2t, ..., 2t, t) with t = k / (2n - 1); variant Q:
    (t, ..., t, 2t) with t = k / (n + 1).  The minimum value is 0, certified
    by the restricted Hessian (projected onto {sum x_i = 0}) being PSD.
    """
    if n < 3:
        raise ValueError("trace-constrained minimization needs n >= 3")
    if variant == "P":
        t = k / (2.0 * n - 1.0)
        point = np.full(n, 2.0 * t)
        point[-1] = t
    elif variant == "Q":
        t = k / (n + 1.0)
        point = np.full(n, t)
        point[-1] = 2.0 * t
    else:
        raise ValueError("variant must be 'P' or 'Q'")
    value = qp_objective(variant, point)
    V = _trace_constraint_basis(n)
    H = qp_hessian(variant, n)
    eigs = np.linalg.eigvalsh(V.T @ H @ V)
    return QPSolution(variant, n, float(k), point, float(t), float(value),
                      float(eigs[0]))


# ---------------------------------------------------------------------------
# Ricci, Weyl
# ---------------------------------------------------------------------------

def ricci_values(h: SecondForm, c_tilde: float = 0.0) -> np.ndarray:
    """Frame Ricci curvatures Ric(e_i) = sum_{j != i} K(e_i ^ e_j)."""
    R = _gauss_riemann(h, c_tilde)
    return np.einsum("ijij->i", R) - np.einsum("iiii->i", R)


def weyl_norm(h: SecondForm, c_tilde: float = 0.0) -> float:
    """Frobenius norm of the Weyl tensor of the Gauss-equation curvature.

    Identically 0 for n = 3; vanishing for n >= 4 certifies conformal
    flatness.
    """
    n = h.n
    if n < 4:
        return 0.0
    R = _gauss_riemann(h, c_tilde)
    ric = np.einsum("ijil->jl", R)
    S = float(np.einsum("jj->", ric))  # = 2 tau
    eye = np.eye(n)
    ric_term = (np.einsum("ik,jl->ijkl", ric, eye)
                - np.einsum("il,jk->ijkl", ric, eye)
                + np.einsum("jl,ik->ijkl", ric, eye)
                - np.einsum("jk,il->ijkl", ric, eye)) / (n - 2.0)
    scal_term = S / ((n - 1.0) * (n - 2.0)) * (
        np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))
    W = R - ric_term + scal_term
    return float(np.sqrt(np.sum(W ** 2)))


# ---------------------------------------------------------------------------
# classification and assembled report
# ---------------------------------------------------------------------------

def _match_pattern(eigs: np.ndarray, tol: float):
    """Detect {2l x (n-1), l} or {l x (n-1), 2l} spectra up to global sign."""
    n = eigs.shape[0]
    scale = max(1.0, float(np.abs(eigs).max()))
    for sign in (1.0, -1.0):
        v = np.sort(sign * eigs)
        for big, single in ((v[:-1], v[-1]), (v[1:], v[0])):
            if big.max() - big.min() > tol * scale:
                continue
            m = float(big.mean())
            if abs(m - 2.0 * single) <= tol * scale:
                return "Ideal11", single
            if abs(single - 2.0 * m) <= tol * scale:
                return "Ideal41", m
    return None, None


def classify_ideal(h: SecondForm, tol: float = 1e-8) -> IdealClassification:
    """Equality-case detection from the shape-operator spectrum.

    Checks in order: totally geodesic, umbilical, the two ideal spectra
    {2l,...,2l,l} and {l,...,l,2l} (up to a global sign), otherwise Generic.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = h.n
    hh = h.h
    norm = float(np.abs(hh).max(initial=0.0))
    if norm <= tol:
        return IdealClassification("TotallyGeodesic", 0.0, True, True)

    # Single normal direction: the p matrices proportional to one matrix A.
    if h.p == 1:
        single = True
        A = hh[0]
    else:
        M = hh.reshape(h.p, n * n)
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        single = s[1] <= tol * s[0]
        A = (s[0] * Vt[0]).reshape(n, n)
        A = 0.5 * (A + A.T)
    eigs = np.linalg.eigvalsh(A)
    scale = max(1.0, float(np.abs(eigs).max()))
    counts = _multiplicities(eigs, tol * scale)
    quasi = single and max(counts) >= n - 1

    if not single:
        return IdealClassification("Generic", None, False, False)
    if eigs.max() - eigs.min() <= tol * scale:
        lam = float(eigs.mean())
        return IdealClassification("Umbilical", lam, True, True)
    kind, lam = _match_pattern(eigs, tol)
    if kind is not None:
        # The pattern is matched up to a global sign, so report lambda >= 0.
        return IdealClassification(kind, abs(float(lam)), True, quasi)
    return IdealClassification("Generic", None, True, quasi)


def _multiplicities(eigs: np.ndarray, atol: float) -> list:
    counts = []
    i = 0
    v = np.sort(eigs)
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[j + 1] - v[i] <= atol:
            j += 1
        counts.append(j - i + 1)
        i = j + 1
    return counts


def inequality_reports(items, *, classify_tol: float = 1e-8) -> list:
    """`InvariantReport`s of `(SecondForm, c_tilde)` items, in input order.

    The forms are grouped by (n, p), and each group's extrema come from one
    `_extrema` call for both modes: one eigendecomposition batch for p = 1,
    one grid scan and one Newton loop for p >= 2. Every value equals that of
    the form reported alone, bit for bit.
    """
    groups = {}
    for i, (h, _) in enumerate(items):
        if h.n < 3:
            raise ValueError("inequality report needs n >= 3")
        groups.setdefault((h.n, h.p), []).append(i)
    reports = [None] * len(items)
    # Largest (n, p) first: its grid-scan buffers are the biggest, and
    # allocating them before the smaller groups' lowered the peak RSS of
    # a mixed n = 3..6 corpus from 43.0 to 40.0 MB (glibc malloc).
    for _, idx in sorted(groups.items(), reverse=True):
        infs, sups = _extrema(np.array([items[i][0].h for i in idx]),
                              ("inf", "sup"))
        for i, infCL, supCL in zip(idx, infs, sups):
            h, c_tilde = items[i]
            n = h.n
            C = casorati_total(h)
            traces = np.einsum("rii->r", h.h)
            meanH = float(np.linalg.norm(traces) / n)
            tau = tau_from_h(h, c_tilde)
            rho = 2.0 * tau / (n * (n - 1.0))
            delta_hat = 2.0 * C - (2.0 * n - 1.0) / (2.0 * n) * supCL.value
            delta_C = 0.5 * C + (n + 1.0) / (2.0 * n) * infCL.value
            delta_legacy = 0.5 * C + (n + 1.0) / (2.0 * n * (n - 1.0)) * infCL.value
            slack11 = delta_hat + c_tilde - rho
            slack41 = delta_C + c_tilde - rho
            cls = classify_ideal(h, tol=classify_tol)
            reports[i] = InvariantReport(
                n, h.p, float(c_tilde), C, infCL, supCL, meanH, tau, rho,
                delta_hat, delta_C, delta_legacy, slack11, slack41, cls)
    return reports


def inequality_report(h: SecondForm, c_tilde: float = 0.0, *,
                      classify_tol: float = 1e-8) -> InvariantReport:
    """All scalar invariants plus the slacks of both curvature inequalities."""
    return inequality_reports([(h, c_tilde)], classify_tol=classify_tol)[0]
