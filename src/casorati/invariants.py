"""Scalar curvature invariants and inequality machinery.

Everything here is a pure function of the second fundamental form (and the
ambient curvature c_tilde): Casorati curvatures, hyperplane extremization,
delta-curvatures, the nonnegative proof polynomials behind the two
curvature inequalities, the trace-constrained quadratic minimization,
Ricci/Weyl checks, and the equality-case classification.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "SecondForm",
    "HyperplaneExtremum",
    "IdealClassification",
    "InvariantReport",
    "QPSolution",
    "casorati_total",
    "casorati_hyperplane",
    "extremize_hyperplane",
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
# Bytes of the monomial matrix, and of the (p + 1, forms, block) products,
# of one block of the p >= 2 grid scan; a block is a power of two of lattice
# points in [_GRID_MIN, _GRID_MAX], the floor overriding the budget (n >= 11).
_GRID_BYTES = 128 * 1024
_GRID_MIN, _GRID_MAX = 256, 4096
# Step halvings tried after a Newton step that does not improve its row.
_HALVINGS = 29


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class _SecondFormFields(NamedTuple):
    n: int
    p: int
    h: np.ndarray


class SecondForm(_SecondFormFields):
    """Components h^r_ij of the second fundamental form in an adapted
    orthonormal frame; h has shape (p, n, n), finite entries, and each slice
    is symmetric. Every construction checks this, `_replace` too."""

    __slots__ = ()

    def __new__(cls, n: int, p: int, h):
        h = np.asarray(h, dtype=float)
        if h.shape != (p, n, n):
            raise ValueError(f"h must have shape ({p}, {n}, {n}), got {h.shape}")
        h = np.ascontiguousarray(h)     # so that its sums run as in a batch
        if not np.isfinite(h).all():
            raise ValueError("h must be finite (no NaN or inf entries)")
        # symmetric within 1e-8 (1 + max |h|) of the form's own scale
        asym = np.abs(h - h.transpose(0, 2, 1)).max(initial=0.0)
        if asym > 1e-8 * (1.0 + np.abs(h).max(initial=0.0)):
            raise ValueError("each h[r] must be symmetric in (i, j)")
        return super().__new__(cls, n, p, h)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class HyperplaneExtremum(NamedTuple):
    """Extremum of C(L) over hyperplanes L = u-perp of the tangent space."""

    mode: str               # "inf" | "sup"
    value: float
    u: np.ndarray
    certificate: dict


class IdealClassification(NamedTuple):
    kind: str               # TotallyGeodesic | Umbilical | Ideal11 | Ideal41 | Generic
    lam: Optional[float]
    single_normal: bool
    quasi_umbilical: bool


class QPSolution(NamedTuple):
    variant: str
    n: int
    k: float
    point: np.ndarray
    t: float
    value: float
    min_restricted_hessian_eig: float


class InvariantReport(NamedTuple):
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
    return _scalars(h.h[None], np.zeros(1))[0].item()


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
    alone, so the grid is the transpose of the blocks of `_grid_blocks`
    concatenated along their columns, which the p >= 2 extremum scans one
    at a time.
    """
    _check_grid_size(size)
    return np.concatenate(list(_grid_blocks(n, size, _GRID_MAX)), axis=1).T


def _check_grid_size(size: int) -> None:
    # A float would make a smaller n = 3 lattice and round up for n >= 4.
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
        raise ValueError(f"grid_size must be an integer, got {size!r}")
    if size < 1:
        raise ValueError("grid_size must be >= 1")


def _grid_blocks(n: int, size: int, block: int):
    """The unit nodes of `sphere_grid(n, size)` in order, as the columns of
    C-ordered (n, m) blocks of m <= `block` lattice points (fewer in the last
    block, and fewer nodes where points are dropped)."""
    if n == 3:
        for i0 in range(0, size, block):
            i = np.arange(i0, min(i0 + block, size))
            z = 1.0 - (2.0 * i + 1.0) / size
            r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
            phi = i * _GOLDEN_ANGLE
            yield np.stack([r * np.cos(phi), r * np.sin(phi), z])
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
        pts = 0.5 + alpha[:, None] * np.arange(i0, min(i0 + block, count))
        pts -= np.floor(pts)            # pts % 1.0 exactly (pts > 0), but cheaper
        # 1 - u lies in (0, 1], so every radius is finite. The normals
        # overwrite the lattice points they come from.
        radius = np.sqrt(-2.0 * np.log1p(-pts[0::2]))
        angle = 2.0 * math.pi * pts[1::2]
        np.multiply(radius, np.cos(angle), out=pts[0::2])
        np.multiply(radius, np.sin(angle, out=angle), out=pts[1::2])
        z = pts[:n]
        # Each |z| is np.linalg.norm of the node's row, bit for bit: numpy
        # sums up to 7 terms in sequence, as a sum down these columns does,
        # but 8 or more in 8 interleaved partial sums, which needs the rows.
        sq = z * z
        norms = np.sqrt(sq.sum(axis=0) if n < 8
                        else np.ascontiguousarray(sq.T).sum(axis=1))
        keep = norms > 1e-8
        yield z / norms if keep.all() else z[:, keep] / norms[keep]


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


def _h_max(n: int, p: int) -> float:
    """The largest max |h| of an (n, p) form whose invariants stay finite.
    Terms quadratic in h are at most P = p n^2 max|h|^2 in size, and the
    p >= 2 Newton stop rule squares a gradient of at most 8P:
    P <= sqrt(float_max) / 64 keeps it finite."""
    return sys.float_info.max ** 0.25 / (8.0 * n * math.sqrt(p))


def _values_at(h, S, tr2, u):
    """(n-1) C(u-perp) = |h|^2 - 2 u^T S u + sum_r (u^T h_r u)^2 for forms h
    (..., p, n, n), S = sum_r h_r^2 (..., n, n), tr2 (...) and points u
    (..., n), their leading axes broadcast."""
    hu = (h @ u[..., None, :, None])[..., 0]
    quad = (hu * u[..., None, :]).sum(-1)
    uSu = ((S @ u[..., :, None])[..., 0] * u).sum(-1)
    return tr2 - 2.0 * uSu + (quad * quad).sum(-1)


def _grid_newton(h, grid_size: int, modes: tuple):
    """Grid seed plus safeguarded Riemannian Newton for the forms of h, one
    (B, p, n, n) batch or a list of (B_k, p_k, n, n) batches of one n.

    The grid `sphere_grid(n, grid_size)` is made and scanned one block of
    lattice points at a time (`_grid_blocks`), with u^T A u summed over the
    n(n+1)/2 upper-triangle monomials u_i u_j, made with one broadcast
    product per row i. A block is the longest power of two of at most
    `_GRID_MAX` points whose monomial matrix fits `_GRID_BYTES`, but no
    shorter than `_GRID_MIN`, which bounds the blocks per grid and so their
    Python overhead. Each block is scanned for as many forms of one batch
    at once as keep their (p_k + 1, forms, block) products within
    `_GRID_BYTES`: one matrix product and one argmin or argmax per mode
    serve such a chunk of forms, and f is summed in place over its rows.
    So the scan's memory grows neither with the batches nor with the grid
    size, and every block and its monomials serve them all.
    Each (mode, form) row keeps its own best node itself (the first least f
    for "inf", the first least -f for "sup"), so every node is made once and
    these (M, B, n) nodes are the Newton seeds, B = sum_k B_k. One Newton
    iteration runs on the sphere over all B * len(modes) (form, mode) rows,
    each with its own sign: the restricted Hessian is clipped to be positive
    (for the row's direction), and a backtracking line search tries the full
    step, then its halvings, on the rows still pending until the value
    improves. A row stops once its tangent gradient is below
    1e-14 (1 + |h|^2), its full step fails with a model decrease below that
    scale, a failed step rounds back onto its current point, or no halving
    improves it. The rows hold their forms zero-padded to max_k p_k slices,
    but every sum over slices takes a form's own p_k, as its batch alone
    would: one zero slice more can regroup a sum (OpenBLAS's matrix-vector
    kernel adds 4 columns at a time, numpy's pairwise sum 8 terms from 8
    on). S = sum_r h_r^2 and |h|^2 come from each batch's own slices too.
    Every operation acts on one row at a time or elementwise, so a result
    depends neither on the batch its form came in nor on the other batches
    or modes asked for.
    Returns (n-1) C(u-perp) at the polished points (M, B), the unit points
    u (M, B, n), the best grid values (M, B), M = len(modes), the number
    of grid nodes, and the Newton iterations each row ran (M, B), 1 to
    `_NEWTON_ITERS`: every iteration that starts with the row live.
    """
    h = [np.ascontiguousarray(x) for x in ([h] if isinstance(h, np.ndarray) else h)]
    n = h[0].shape[2]
    ps = [x.shape[1] for x in h]
    first = np.cumsum([0] + [x.shape[0] for x in h])   # batch k: first[k]:first[k+1]
    B = first[-1]
    signs = np.array([1.0 if mode == "inf" else -1.0 for mode in modes])
    M = signs.size
    S = [(x @ x).sum(axis=1) for x in h]
    tr2 = [(x * x).sum(axis=(1, 2, 3)) for x in h]

    iu, ju = np.triu_indices(n)
    block = _GRID_MAX
    while block > _GRID_MIN and 8 * iu.size * block > _GRID_BYTES:
        block //= 2
    # The monomial coefficients of S and the slices of each batch as
    # ((p_k + 1) bc, K) chunks of bc forms in (row, form) order, so that
    # each row r of a chunk's products is one contiguous (bc, m) block.
    chunks = []                  # (first form, p_k + 1, coefficients)
    for x, Sk, b1 in zip(h, S, first):
        P = x.shape[1] + 1
        coef = (np.concatenate([Sk[:, None], x], axis=1)[:, :, iu, ju]
                * np.where(iu == ju, 1.0, 2.0)).transpose(1, 0, 2)
        bc = max(1, _GRID_BYTES // (8 * P * block))
        chunks += [(b1 + b0, P, coef[:, b0:b0 + bc].reshape(-1, iu.size))
                   for b0 in range(0, x.shape[0], bc)]
    t2 = np.concatenate(tr2)[:, None]
    best = np.full((M, B), np.inf)                    # sign * f at the best node
    u = np.zeros((M, B, n))                           # the best node
    nodes = 0
    buf = np.empty((iu.size, block))
    for U in _grid_blocks(n, grid_size, block):      # (n, m) nodes
        nodes += U.shape[1]
        mon = buf[:, :U.shape[1]]                     # u_i u_j, i <= j
        k = 0
        for i in range(n):                            # the rows (i, i..n-1)
            np.multiply(U[i], U[i:], out=mon[k:k + n - i])
            k += n - i
        for b0, P, c in chunks:
            q = (c @ mon).reshape(P, -1, mon.shape[1])  # u^T S u, u^T h_r u
            f = q[0]                  # f = |h|^2 - 2 q_0 + q_1^2 + ..., in order
            f *= -2.0
            f += t2[b0:b0 + f.shape[0]]
            np.square(q[1:], out=q[1:])
            for r in range(1, P):
                f += q[r]
            # argmax f is the first least -f, so "sup" needs no negated copy
            a = np.array([np.argmin(f, axis=1) if sign > 0 else np.argmax(f, axis=1)
                          for sign in signs])
            v = signs[:, None] * f[np.arange(f.shape[0]), a]
            top, at = best[:, b0:b0 + f.shape[0]], u[:, b0:b0 + f.shape[0]]
            better = v < top
            top[better] = v[better]
            at[better] = U.T[a[better]]
    grid_f = signs[:, None] * best

    # Newton rows are (form, mode) pairs, form-major: batch k's rows are
    # M first[k]:M first[k+1].
    form = np.repeat(np.arange(B), M)
    sign = np.tile(signs, B)
    hp = np.zeros((B, max(ps), n, n))
    for x, b1 in zip(h, first):
        hp[b1:b1 + x.shape[0], :x.shape[1]] = x
    h, S, tr2 = hp[form], np.concatenate(S)[form], np.concatenate(tr2)[form]
    f = grid_f.T.flatten()                           # a copy: polished in place
    u = u.transpose(1, 0, 2).reshape(B * M, n)        # the seeds, polished in place
    scale = 1.0 + tr2
    eye = np.eye(n)
    live = np.ones(B * M, dtype=bool)
    iters = np.zeros(B * M, dtype=int)

    def spans(rows):
        """(a, b, p_k) for each batch k whose rows, in ascending `rows`, are
        rows[a:b]."""
        edges = np.searchsorted(rows, M * first)
        return [(a, b, p) for a, b, p in zip(edges[:-1], edges[1:], ps) if a < b]

    for _ in range(_NEWTON_ITERS):
        idx = np.flatnonzero(live)
        iters[idx] += 1
        L = idx.size
        hl, Sl, ul, sl = h[idx], S[idx], u[idx], sign[idx]
        hu = (hl @ ul[:, None, :, None])[..., 0]    # (L, p, n)
        quad = (hu * ul[:, None, :]).sum(-1)          # (L, p)
        qhu, hh, qh = np.empty((L, n)), np.empty((L, n, n)), np.empty((L, n, n))
        for a, b, p in spans(idx):      # sum_r of quad_r hu_r, hu_r^T hu_r, quad_r h_r
            hq = hu[a:b, :p]
            qhu[a:b] = (quad[a:b, None, :p] @ hq)[:, 0]
            hh[a:b] = hq.transpose(0, 2, 1) @ hq
            qh[a:b] = (quad[a:b, :p, None, None] * hl[a:b, :p]).sum(axis=1)
        g = sl[:, None] * (-4.0 * (Sl @ ul[:, :, None])[..., 0] + 4.0 * qhu)
        gu = (g * ul).sum(-1)
        g_r = g - gu[:, None] * ul
        moving = np.sqrt((g_r * g_r).sum(-1)) > 1e-14 * scale[idx]
        live[idx[~moving]] = False
        if not moving.any():
            break
        idx, hl, Sl, ul, sl, hh, qh, g, gu = (
            x[moving] for x in (idx, hl, Sl, ul, sl, hh, qh, g, gu))
        L = idx.size
        Q, _ = np.linalg.qr(np.concatenate(
            [ul[:, :, None], np.broadcast_to(eye, (L, n, n))], axis=2))
        V = Q[:, :, 1:]                               # tangent basis at u
        Vt = V.transpose(0, 2, 1)
        H = (sl[:, None, None] * (-4.0 * Sl + 8.0 * hh + 4.0 * qh)
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
            fc = np.concatenate([
                _values_at(hl[pend[a:b], :p], Sl[pend[a:b]], tr2[j[a:b]], cand[a:b])
                for a, b, p in spans(j)])
            ok = sl[pend] * fc < sl[pend] * f[j]
            u[j[ok]], f[j[ok]] = cand[ok], fc[ok]
            live[j[ok]] = True
            pend = pend[~(ok | flat | (cand == ul[pend]).all(-1))]
            if pend.size == 0:
                break
            flat = False                 # only a failed full step converges
            t *= 0.5
    return (f.reshape(B, M).T, u.reshape(B, M, n).transpose(1, 0, 2), grid_f,
            nodes, iters.reshape(B, M).T)


def _extrema(h: list, modes: tuple) -> list:
    """`HyperplaneExtremum`s of the forms of h, a list of (B_k, p_k, n, n)
    batches of one n >= 3: a list over `modes` of lists over the forms,
    batch after batch. A p = 1 batch comes alone and takes the closed form;
    p >= 2 batches share one `_grid_newton` call on the grid of
    4096 2^(n-3) nodes, at most 32768, that serves every mode."""
    n = h[0].shape[2]
    B = sum(x.shape[0] for x in h)
    if h[0].shape[1] == 1:
        (A,) = h
        vals, us = _hypersurface_extrema(A[:, 0], modes)
        certs = [[{"method": "closed_form"} for _ in range(B)] for _ in modes]
    else:
        vals, us, grid_f, nodes, iters = _grid_newton(
            h, min(32768, 4096 * 2 ** (n - 3)), modes)
        certs = [[{"method": "grid_newton", "grid_nodes": nodes,
                   "refine_iters": int(it), "grid_value": float(gv) / (n - 1)}
                  for gv, it in zip(*rows)] for rows in zip(grid_f, iters)]
    return [[HyperplaneExtremum(mode, float(vals[m][b]) / (n - 1), us[m][b],
                                certs[m][b]) for b in range(B)]
            for m, mode in enumerate(modes)]


def extremize_hyperplane(h: SecondForm, mode: str) -> HyperplaneExtremum:
    """Extremize C(u-perp) over unit u.

    Hypersurfaces (p = 1) take the exact spectral closed form of
    `_hypersurface_extrema`; the certificate is ``{"method": "closed_form"}``.
    For p >= 2 this is `_grid_newton` on the one form: a deterministic
    quasi-uniform sphere grid (`sphere_grid`, 4096 2^(n-3) nodes up to
    32768) followed by a safeguarded Newton polish on the sphere; the
    certificate gives the method ``"grid_newton"``, the grid nodes, the
    Newton iterations run and the best grid value. The polished point is
    always feasible, so there `inf` results upper-bound the true infimum
    and `sup` results lower-bound the true supremum. Each result equals
    that of an `inequality_reports` batch holding the form, bit for bit.
    A form with max |h| beyond `_h_max`, as in a report, is rejected.
    """
    if mode not in ("inf", "sup"):
        raise ValueError("mode must be 'inf' or 'sup'")
    if h.n < 3:
        raise ValueError("hyperplane extremization needs n >= 3")
    h_max = _h_max(h.n, h.p)
    if not np.abs(h.h).max() <= h_max:
        raise ValueError(f"max |h| > {h_max:.6g}, beyond which the extrema "
                         f"overflow")
    return _extrema([h.h[None]], (mode,))[0][0]


# ---------------------------------------------------------------------------
# scalar curvature
# ---------------------------------------------------------------------------

def tau_from_h(h: SecondForm, c_tilde: float = 0.0) -> float:
    """Scalar curvature of the Gauss-equation metric,
    2 tau = n^2 |H|^2 - n C + n(n-1) c_tilde."""
    return _scalars(h.h[None], np.array([c_tilde], dtype=float))[2].item()


# ---------------------------------------------------------------------------
# proof polynomials
# ---------------------------------------------------------------------------

def _family(variant: str, n: int) -> tuple:
    """(c, b) of the normalized delta-Casorati curvature c C + b C(L)* that
    `variant` bounds (Decu, Haesen and Verstraelen 2008): c = r / (n(n-1)),
    b = (1 + c(n-1))(1 - c) / (c n), and C(L)* the sup of C(L) over the
    hyperplanes L for c > 1, the inf for c < 1. "P" is c = 2, delta-hat of
    (1.1); "Q" is c = 1/2, delta_C of (4.1)."""
    c = {"P": 2.0, "Q": 0.5}.get(variant)
    if c is None:
        raise ValueError("variant must be 'P' or 'Q'")
    return c, (1.0 + c * (n - 1.0)) * (1.0 - c) / (c * n)


def proof_polynomial(h: SecondForm, u, variant: str) -> float:
    """The nonnegative quadratic polynomial underlying each inequality,

        n(n-1) (c C + b C(L)) - 2 tau + n(n-1) c_tilde,

    with L = u-perp and (c, b) the family coefficients of `variant`
    (`_family`). Substituting 2 tau = n^2 |H|^2 - n C + n(n-1) c_tilde
    cancels the ambient term, so the value depends only on (h, u).
    """
    n = h.n
    if n < 3:
        raise ValueError("proof polynomial needs n >= 3")
    c, b = _family(variant, n)
    C = casorati_total(h)
    CL = casorati_hyperplane(h, u)
    traces = np.einsum("rii->r", h.h)
    n2H2 = float(np.sum(traces ** 2))
    return n * (n - 1.0) * (c * C + b * CL) + n * C - n2H2


# ---------------------------------------------------------------------------
# trace-constrained quadratic minimization
# ---------------------------------------------------------------------------

def qp_objective(variant: str, x) -> float:
    """x^T H x / 2 for the `qp_hessian` H of `variant`, in O(n)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    c, b = _family(variant, n)
    total = float(np.sum(x * x))
    # sum_{i<j} x_i x_j in O(n)
    off = 0.5 * (float(np.sum(x)) ** 2 - total)
    return (n - 1.0) * c * total + n * b * float(np.sum(x[:-1] ** 2)) - 2.0 * off


def qp_hessian(variant: str, n: int) -> np.ndarray:
    """Hessian of the quadratic form in the diagonal of h, with the
    `_family` coefficients (c, b) of `variant`."""
    c, b = _family(variant, n)
    H = np.full((n, n), -2.0)
    np.fill_diagonal(H, 2.0 * (n - 1.0) * c + 2.0 * n * b)
    H[-1, -1] = 2.0 * (n - 1.0) * c
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

    With c of `_family`, it is k / (n - 1 + 1/c) (1, ..., 1, 1/c) and
    t = k min(1, 1/c) / (n - 1 + 1/c): (2t, ..., 2t, t), t = k / (2n - 1),
    for P and (t, ..., t, 2t), t = k / (n + 1), for Q. The minimum value is
    0, certified by the restricted Hessian (projected onto {sum x_i = 0})
    being PSD.
    """
    if n < 3:
        raise ValueError("trace-constrained minimization needs n >= 3")
    c, _ = _family(variant, n)
    span = n - 1.0 + 1.0 / c
    point = np.full(n, k / span)
    point[-1] /= c
    t = k * min(1.0, 1.0 / c) / span
    value = qp_objective(variant, point)
    V = _trace_constraint_basis(n)
    H = qp_hessian(variant, n)
    eigs = np.linalg.eigvalsh(V.T @ H @ V)
    return QPSolution(variant, n, float(k), point, float(t), float(value),
                      float(eigs[0]))


# ---------------------------------------------------------------------------
# Ricci, Weyl
# ---------------------------------------------------------------------------

def _gauss_riemann(h: SecondForm, c_tilde: float) -> np.ndarray:
    """R_ijkl of the Gauss equation: c_tilde (d_ik d_jl - d_il d_jk)
    + sum_r (h^r_ik h^r_jl - h^r_il h^r_jk)."""
    eye = np.eye(h.n)
    hh = h.h
    return (c_tilde * (np.einsum("ik,jl->ijkl", eye, eye)
                       - np.einsum("il,jk->ijkl", eye, eye))
            + np.einsum("rik,rjl->ijkl", hh, hh)
            - np.einsum("ril,rjk->ijkl", hh, hh))


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


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:        # false for a NaN tol too
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def classify_ideal(h: SecondForm, tol: float = 1e-8) -> IdealClassification:
    """Equality-case detection from the shape-operator spectrum.

    Checks in order: totally geodesic, umbilical, the two ideal spectra
    {2l,...,2l,l} and {l,...,l,2l} (up to a global sign), otherwise Generic.
    """
    _check_tol(tol)
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
    if not single:
        return IdealClassification("Generic", None, False, False)
    if eigs.max() - eigs.min() <= tol * scale:
        lam = float(eigs.mean())
        return IdealClassification("Umbilical", lam, True, True)
    # Quasi-umbilical: n - 1 of the ascending eigenvalues within tol * scale.
    quasi = bool(min(eigs[-2] - eigs[0], eigs[-1] - eigs[1]) <= tol * scale)
    kind, lam = _match_pattern(eigs, tol)
    if kind is not None:
        # The pattern is matched up to a global sign, so report lambda >= 0.
        return IdealClassification(kind, abs(float(lam)), True, quasi)
    return IdealClassification("Generic", None, True, quasi)


def _check_items(items, batches: dict) -> None:
    """Reject the first item i, (h, c_tilde), whose report is undefined
    (n < 3) or could overflow: max |h| beyond `_h_max`, or n(n-1) |c_tilde|
    beyond float_max / 32. `batches` maps each (n, p) to its item indices,
    stacked forms and ambient curvatures."""
    bad = []                            # the first bad item of each batch
    for (n, p), (idx, H, c_tilde) in batches.items():
        ok = ((np.abs(H).max(axis=(1, 2, 3), initial=0.0) <= _h_max(n, p))
              & (np.abs(c_tilde) <= sys.float_info.max / (32.0 * n * n)))
        if n < 3 or not ok.all():
            bad.append(idx[0] if n < 3 else idx[np.argmin(ok)])
    if not bad:
        return
    i = min(bad)
    n, p = items[i][0].n, items[i][0].p
    if n < 3:
        raise ValueError("inequality report needs n >= 3")
    raise ValueError(f"report item {i}: max |h| > {_h_max(n, p):.6g} or |c_tilde| "
                     f"> {sys.float_info.max / (32.0 * n * n):.6g}, beyond which "
                     f"the invariants overflow")


def _as_float(c_tilde) -> float:
    """c_tilde as a float; NaN, which fails the range check, for one that is
    not a number or is beyond the float range (a huge int)."""
    try:
        abs(c_tilde)                    # TypeError if not a number
        return float(c_tilde)
    except (TypeError, OverflowError):
        return math.nan


def _scalars(H: np.ndarray, c_tilde: np.ndarray) -> tuple:
    """C, |H| and tau of the forms H (B, p, n, n) at the ambient curvatures
    c_tilde (B,), each sum running over one form as it does for that form
    alone: the squares of h in one pairwise sum, the traces' squares in a
    BLAS dot for |H| (as np.linalg.norm sums them) and in a pairwise sum
    for tau. `casorati_total` and `tau_from_h` are its one-form case."""
    B, n = H.shape[0], H.shape[-1]
    C = (H * H).reshape(B, -1).sum(axis=1) / n
    traces = np.einsum("brii->br", H)
    meanH = np.sqrt((traces[:, None, :] @ traces[:, :, None])[:, 0, 0]) / n
    H2 = (traces * traces).sum(axis=1) / n ** 2
    return C, meanH, 0.5 * (n * n * H2 - n * C + n * (n - 1) * c_tilde)


def inequality_reports(items, *, classify_tol: float = 1e-8) -> list:
    """`InvariantReport`s of `(SecondForm, c_tilde)` items, in input order.

    The items are stacked into one batch per (n, p), which is checked and
    gets its C, |H|, tau, delta-curvatures and slacks at once (`_scalars`);
    each form is classified alone. The forms are grouped by n, the p = 1
    forms apart, and each group's extrema come from one `_extrema` call for
    both modes: one eigendecomposition batch for p = 1, and one grid scan
    and one Newton loop for every p >= 2 form of the group, whatever its p.
    Every value equals that of the form reported alone, bit for bit.
    `classify_tol` is checked as `classify_ideal` checks its tol, before any
    extremum.
    """
    _check_tol(classify_tol)
    batches = {}                         # (n, p) -> item indices
    for i, (h, _) in enumerate(items):
        batches.setdefault((h.n, h.p), []).append(i)
    batches = {key: (idx, np.array([items[i][0].h for i in idx]),
                     np.array([_as_float(items[i][1]) for i in idx]))
               for key, idx in batches.items()}
    _check_items(items, batches)
    groups = {}                          # (n, p > 1) -> its batches
    for (n, p), batch in batches.items():
        groups.setdefault((n, p > 1), []).append((p, *batch))
    reports = [None] * len(items)
    # Largest n first: its grid-scan buffers are the biggest, and
    # allocating them before the smaller groups' lowered the peak RSS of
    # `verify --synthetic` on a mixed n = 3..6, p = 1..3 corpus from 33.4
    # to 32.7 MB (glibc malloc).
    for (n, _), group in sorted(groups.items(), reverse=True):
        extrema = zip(*_extrema([H for _, _, H, _ in group], ("inf", "sup")))
        for p, idx, H, c_tilde in group:
            infs, sups = zip(*(next(extrema) for _ in idx))
            C, meanH, tau = _scalars(H, c_tilde)
            rho = 2.0 * tau / (n * (n - 1.0))
            inf_v = np.array([e.value for e in infs])
            sup_v = np.array([e.value for e in sups])
            delta_hat, delta_C = (c * C + b * (sup_v if c > 1.0 else inf_v)
                                  for c, b in (_family("P", n), _family("Q", n)))
            legacy = 0.5 * C + (n + 1.0) / (2.0 * n * (n - 1.0)) * inf_v
            columns = (c_tilde, C, infs, sups, meanH, tau, rho, delta_hat,
                       delta_C, legacy, delta_hat + c_tilde - rho,
                       delta_C + c_tilde - rho)
            for i, *values in zip(idx, *(x.tolist() if isinstance(x, np.ndarray)
                                         else x for x in columns)):
                reports[i] = InvariantReport(
                    n, p, *values, classify_ideal(items[i][0], tol=classify_tol))
    return reports


def inequality_report(h: SecondForm, c_tilde: float = 0.0, *,
                      classify_tol: float = 1e-8) -> InvariantReport:
    """All scalar invariants plus the slacks of both curvature inequalities."""
    return inequality_reports([(h, c_tilde)], classify_tol=classify_tol)[0]
