"""Unit tests for Casorati invariants, extremization, proof polynomials, the
trace-constrained QP, curvature tensors, and classification."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from casorati.geometry import SecondForm
from casorati.invariants import (
    casorati_hyperplane,
    casorati_total,
    classify_ideal,
    extremize_hyperplane,
    inequality_report,
    inequality_reports,
    oprea_qp,
    proof_polynomial,
    qp_hessian,
    qp_objective,
    ricci_values,
    sphere_grid,
    tau_from_h,
    weyl_norm,
)
from casorati import invariants
from casorati.invariants import _grid_newton


def diag_form(*vals, p=1):
    n = len(vals)
    h = np.zeros((p, n, n))
    h[0] = np.diag(vals)
    return SecondForm(n, p, h)


def random_hypersurface_forms():
    """200 symmetric p = 1 forms with n in 3..6. Instance 80 (n = 6) is one
    where a grid+Newton search undershoots the supremum by 2.9e-2."""
    rng = np.random.default_rng(3)
    forms = []
    for _ in range(200):
        n = int(rng.integers(3, 7))
        h = rng.normal(size=(1, n, n))
        forms.append(SecondForm(n, 1, 0.5 * (h + h.transpose(0, 2, 1))))
    return forms


def sampled_hyperplane_values(h, U):
    """C(u-perp) at each row of U, from the projector identity
    sum_r |P h_r P|^2 = |h|^2 - 2 |h u|^2 + sum_r (u^T h_r u)^2, P = I - u u^T."""
    n = h.shape[-1]
    hu = np.einsum("rij,gj->rgi", h, U)
    quad = np.einsum("rgi,gi->rg", hu, U)
    return (np.sum(h * h) - 2.0 * np.einsum("rgi,rgi->g", hu, hu)
            + np.sum(quad ** 2, axis=0)) / (n - 1)


class TestCasoratiTotal:
    def test_totally_geodesic(self):
        assert casorati_total(diag_form(0.0, 0.0, 0.0)) == 0.0

    def test_diag_112(self):
        assert casorati_total(diag_form(1.0, 1.0, 2.0)) == pytest.approx(2.0)

    def test_two_normals(self):
        h = np.zeros((2, 3, 3))
        h[0] = np.diag([1.0, 0.0, 0.0])
        h[1, 0, 1] = h[1, 1, 0] = 1.0
        assert casorati_total(SecondForm(3, 2, h)) == pytest.approx(1.0)


class TestCasoratiHyperplane:
    def test_diag_112(self):
        sf = diag_form(1.0, 1.0, 2.0)
        assert casorati_hyperplane(sf, [0, 0, 1]) == pytest.approx(1.0)
        assert casorati_hyperplane(sf, [1, 0, 0]) == pytest.approx(2.5)

    def test_umbilical_constant(self):
        sf = diag_form(0.7, 0.7, 0.7)
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            assert casorati_hyperplane(sf, u) == pytest.approx(0.49)

    def test_rejects_nonunit(self):
        with pytest.raises(ValueError):
            casorati_hyperplane(diag_form(1.0, 1.0, 2.0), [1.0, 1.0, 0.0])
        # A NaN vector passed the norm check and gave a NaN value.
        with pytest.raises(ValueError, match="unit vector"):
            casorati_hyperplane(diag_form(1.0, 1.0, 2.0), [math.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="unit vector"):
            proof_polynomial(diag_form(1.0, 1.0, 2.0), [math.nan, 0.0, 0.0], "P")


class TestExtremize:
    def test_inf_diag_112(self):
        ext = extremize_hyperplane(diag_form(1.0, 1.0, 2.0), "inf")
        assert ext.value == pytest.approx(1.0, abs=1e-10)
        assert abs(ext.u[2]) == pytest.approx(1.0, abs=1e-5)

    def test_sup_diag_221(self):
        ext = extremize_hyperplane(diag_form(2.0, 2.0, 1.0), "sup")
        assert ext.value == pytest.approx(4.0, abs=1e-10)
        assert abs(ext.u[2]) == pytest.approx(1.0, abs=1e-5)

    def test_umbilical(self):
        for mode in ("inf", "sup"):
            ext = extremize_hyperplane(diag_form(0.5, 0.5, 0.5), mode)
            assert ext.value == pytest.approx(0.25, abs=1e-12)

    def test_certificate(self):
        ext = extremize_hyperplane(diag_form(1.0, 1.0, 2.0), "inf")
        assert ext.certificate == {"method": "closed_form"}
        h = np.zeros((2, 3, 3))
        h[0] = np.diag([1.0, 1.0, 2.0])
        h[1, 0, 1] = h[1, 1, 0] = 0.5
        ext = extremize_hyperplane(SecondForm(3, 2, h), "inf")
        assert ext.certificate["method"] == "grid_newton"
        assert ext.certificate["grid_nodes"] >= 4096

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            extremize_hyperplane(diag_form(1.0, 1.0, 2.0), "max")

    @pytest.mark.parametrize("p", [1, 2])
    def test_needs_three_dimensions(self, p):
        with pytest.raises(ValueError, match="n >= 3"):
            extremize_hyperplane(diag_form(1.0, 2.0, p=p), "inf")

    def test_grid_is_unit(self):
        for n in (3, 4, 5):
            U = sphere_grid(n, 700)
            assert U.shape[1] == n
            assert U.shape[0] >= 700
            assert np.abs(np.linalg.norm(U, axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n, bound", [(4, 0.163), (5, 0.220), (6, 0.266)])
    def test_grid_covers_sphere(self, n, bound):
        # Largest angle from 4000 random directions to the default-size
        # grid; the bounds are those of the unscrambled-Sobol grid the
        # Kronecker lattice replaced.
        size = min(32768, 4096 * 2 ** (n - 3))
        U = sphere_grid(n, size)
        assert U.shape == (size, n)
        rng = np.random.default_rng(0)
        D = rng.normal(size=(4000, n))
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        nearest = np.concatenate([(D[i:i + 250] @ U.T).max(axis=1)
                                  for i in range(0, len(D), 250)])
        assert float(np.arccos(np.clip(nearest, -1.0, 1.0)).max()) <= bound


class TestHypersurfaceClosedForm:
    """p = 1: sup (n-1) C(L) = |h|^2 - min lam^2 and
    inf (n-1) C(L) = |h|^2 - max(lam_max, 0)^2 - min(lam_min, 0)^2."""

    def test_bounds_dense_sampling_and_attained(self):
        srng = np.random.default_rng(1)
        forms = random_hypersurface_forms()
        for i, sf in enumerate(forms):
            n = sf.n
            U = srng.normal(size=(20000, n))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            vals = sampled_hyperplane_values(sf.h, U)
            tol = 1e-12 * (1.0 + np.sum(sf.h ** 2))
            inf = extremize_hyperplane(sf, "inf")
            sup = extremize_hyperplane(sf, "sup")
            assert vals.min() >= inf.value - tol, i
            assert vals.max() <= sup.value + tol, i
            for ext in (inf, sup):
                assert casorati_hyperplane(sf, ext.u) == pytest.approx(
                    ext.value, abs=tol), (i, ext.mode)

    def test_sup_undershoot_instance(self):
        # Instance 80: a grid+Newton search stops at a local maximum 2.9e-2
        # below the supremum; 2e5 random directions reach above it.
        sf = random_hypersurface_forms()[80]
        U = np.random.default_rng(0).normal(size=(200000, sf.n))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        best = sampled_hyperplane_values(sf.h, U).max()
        sup = extremize_hyperplane(sf, "sup").value
        assert sup - 0.025 < best <= sup + 1e-12 * (1.0 + np.sum(sf.h ** 2))

    def test_spectral_formulas(self):
        for sf in random_hypersurface_forms()[:40]:
            n = sf.n
            lam = np.linalg.eigvalsh(sf.h[0])
            tr2 = np.sum(lam ** 2)
            sup = (tr2 - np.min(lam ** 2)) / (n - 1)
            inf = (tr2 - max(lam[-1], 0.0) ** 2 - min(lam[0], 0.0) ** 2) / (n - 1)
            assert extremize_hyperplane(sf, "sup").value == pytest.approx(
                sup, rel=1e-12, abs=1e-12)
            assert extremize_hyperplane(sf, "inf").value == pytest.approx(
                inf, rel=1e-12, abs=1e-12)

    def test_signatures(self):
        # definite, indefinite, semidefinite and zero spectra
        cases = [((1.0, 2.0, 3.0), 13.0 / 2, 5.0 / 2),
                 ((-1.0, -2.0, -3.0), 13.0 / 2, 5.0 / 2),
                 ((-1.0, 0.5, 2.0), 5.0 / 2, 0.25 / 2),
                 ((0.0, 0.0, 1.5), 2.25 / 2, 0.0),
                 ((0.0, 0.0, 0.0), 0.0, 0.0)]
        for vals, sup, inf in cases:
            sf = diag_form(*vals)
            assert extremize_hyperplane(sf, "sup").value == pytest.approx(
                sup, abs=1e-14)
            assert extremize_hyperplane(sf, "inf").value == pytest.approx(
                inf, abs=1e-14)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(3, 6),
           entries=st.lists(st.floats(-5.0, 5.0), min_size=36, max_size=36),
           frame_seed=st.integers(0, 2 ** 32 - 1))
    def test_frame_and_sign_invariance(self, n, entries, frame_seed):
        A = np.array(entries[:n * n]).reshape(n, n)
        A = 0.5 * (A + A.T)
        Q, _ = np.linalg.qr(np.random.default_rng(frame_seed).normal(size=(n, n)))
        tol = 1e-12 * (1.0 + np.sum(A * A))
        base = {m: extremize_hyperplane(SecondForm(n, 1, A[None]), m).value
                for m in ("inf", "sup")}
        for B in (Q @ A @ Q.T, -A):
            for mode in ("inf", "sup"):
                got = extremize_hyperplane(SecondForm(n, 1, B[None]), mode).value
                assert got == pytest.approx(base[mode], abs=tol)


def random_forms(n, p, count, seed):
    rng = np.random.default_rng(seed)
    h = rng.uniform(-1.0, 1.0, (count, p, n, n))
    return 0.5 * (h + h.transpose(0, 1, 3, 2))


class TestGridNewton:
    """p >= 2: the grid+Newton path behind every extremum."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_point_is_feasible(self, n):
        for x in random_forms(n, 2, 3, seed=n):
            sf = SecondForm(n, 2, x)
            tol = 1e-12 * (1.0 + np.sum(x * x))
            for mode in ("inf", "sup"):
                ext = extremize_hyperplane(sf, mode)
                assert abs(np.linalg.norm(ext.u) - 1.0) <= 1e-12
                assert casorati_hyperplane(sf, ext.u) == pytest.approx(
                    ext.value, abs=tol), mode

    def test_certificate(self):
        sf = SecondForm(4, 3, random_forms(4, 3, 1, seed=2)[0])
        inf = extremize_hyperplane(sf, "inf")
        sup = extremize_hyperplane(sf, "sup")
        for ext in (inf, sup):
            assert set(ext.certificate) == {"method", "grid_nodes",
                                            "refine_iters", "grid_value"}
            assert ext.certificate["grid_nodes"] == 8192
            assert ext.certificate["refine_iters"] > 0
        assert inf.value <= inf.certificate["grid_value"]
        assert sup.value >= sup.certificate["grid_value"]

    @pytest.mark.parametrize("size", [0, -1, -4096, 1.5, 2.5, 4.0, True,
                                      np.float64(8.0)])
    def test_grid_size_below_one(self, size):
        # Size 0 gave an infinite extremum at n = 3 and a negative size a
        # numpy shape error there; n >= 4 scanned 2 nodes for either. A
        # float size gave a smaller n = 3 lattice (1.5: two nodes) or numpy's
        # TypeError, and n >= 4 rounded it up (2.5: four nodes).
        integer = isinstance(size, int) and not isinstance(size, bool)
        match = "grid_size must be " + (">= 1" if integer else "an integer")
        for n in (3, 4):
            with pytest.raises(ValueError, match=match):
                sphere_grid(n, size)

    def test_numpy_integer_grid_size(self):
        for n in (3, 4):
            assert np.array_equal(sphere_grid(n, np.int64(40)), sphere_grid(n, 40))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("grid", ["512", "default"])
    def test_both_modes_match_single_mode(self, n, p, grid):
        h = random_forms(n, p, 4, seed=100 * n + p)
        size = 512 if grid == "512" else min(32768, 4096 * 2 ** (n - 3))
        both = _grid_newton(h, size, ("inf", "sup"))
        for m, mode in enumerate(("inf", "sup")):
            alone = _grid_newton(h, size, (mode,))
            for got, want in zip(both[:3], alone[:3]):  # values, u, grid values
                assert np.array_equal(got[m], want[0]), mode
            assert both[3] == alone[3] == sphere_grid(n, size).shape[0]
            assert np.array_equal(both[4][m], alone[4][0]), mode   # iterations

    def test_refine_iters_are_the_iterations_run(self, monkeypatch):
        # Every certificate gave the cap, 60. Rows stop on their own, so a
        # lower cap cuts a row at the cap and leaves a shorter one alone.
        h = random_forms(4, 2, 4, seed=7)
        full = _grid_newton(h, 8192, ("inf", "sup"))[4]
        assert ((1 <= full) & (full < invariants._NEWTON_ITERS)).all()
        for m, mode in enumerate(("inf", "sup")):
            for b, x in enumerate(h):
                cert = extremize_hyperplane(SecondForm(4, 2, x), mode).certificate
                assert cert["refine_iters"] == full[m, b]
        for cap in (1, 2, 3):
            monkeypatch.setattr(invariants, "_NEWTON_ITERS", cap)
            got = _grid_newton(h, 8192, ("inf", "sup"))[4]
            assert np.array_equal(got, np.minimum(full, cap))


# Frozen copies of the sphere grid and the grid+Newton extremum as they were
# before the grid was streamed: the whole grid at once (with % 1.0), the scan
# in chunks of 2^14 nodes and the sequential 30-halving backtracking loop.
# The current code must reproduce them bit for bit. With stop=False the loop
# is the one from before a failed full step within rounding of its model
# decrease stopped its row; the current values lie within rounding of it.

def frozen_sphere_grid(n, size):
    if n == 3:
        i = np.arange(size)
        z = 1.0 - (2.0 * i + 1.0) / size
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    m = int(math.ceil(math.log2(max(2, size))))
    d = 2 * ((n + 1) // 2)
    phi_d = 2.0
    for _ in range(64):
        phi_d = (1.0 + phi_d) ** (1.0 / (d + 1))
    alpha = phi_d ** -np.arange(1.0, d + 1)
    pts = (0.5 + np.arange(2 ** m)[:, None] * alpha) % 1.0
    radius = np.sqrt(-2.0 * np.log1p(-pts[:, 0::2]))
    angle = 2.0 * math.pi * pts[:, 1::2]
    z = np.empty_like(pts)
    z[:, 0::2] = radius * np.cos(angle)
    z[:, 1::2] = radius * np.sin(angle)
    z = z[:, :n]
    norms = np.linalg.norm(z, axis=1)
    keep = norms > 1e-8
    return z[keep] / norms[keep, None]


def frozen_values_at(h, S, tr2, u):
    hu = (h @ u[:, None, :, None])[..., 0]
    quad = (hu * u[:, None, :]).sum(-1)
    uSu = ((S @ u[:, :, None])[..., 0] * u).sum(-1)
    return tr2 - 2.0 * uSu + (quad * quad).sum(-1)


def frozen_grid_newton(h, grid_size, modes, stop=True):
    chunk = 1 << 14
    B, p, n, _ = h.shape
    signs = np.array([1.0 if mode == "inf" else -1.0 for mode in modes])
    M = signs.size
    S = (h @ h).sum(axis=1)
    tr2 = (h * h).sum(axis=(1, 2, 3))
    U = frozen_sphere_grid(n, grid_size)
    G = U.shape[0]
    iu, ju = np.triu_indices(n)
    coef = (np.concatenate([S[:, None], h], axis=1)[:, :, iu, ju]
            * np.where(iu == ju, 1.0, 2.0))
    best = np.full((M, B), np.inf)
    arg = np.zeros((M, B), dtype=int)
    gc = min(G, chunk)
    bc = max(1, chunk // gc)
    mon = np.empty((iu.size, gc))
    for g0 in range(0, G, gc):
        Ut = U[g0:g0 + gc].T
        mon = mon[:, :Ut.shape[1]]
        for k, (i, j) in enumerate(zip(iu, ju)):
            np.multiply(Ut[i], Ut[j], out=mon[k])
        for b0 in range(0, B, bc):
            q = coef[b0:b0 + bc] @ mon
            f = tr2[b0:b0 + bc, None] - 2.0 * q[:, 0]
            for r in range(1, p + 1):
                f += q[:, r] * q[:, r]
            rows = np.arange(f.shape[0])
            for m, sign in enumerate(signs):
                a = np.argmin(f, axis=1) if sign > 0 else np.argmax(f, axis=1)
                v = sign * f[rows, a]
                top, at = best[m, b0:b0 + bc], arg[m, b0:b0 + bc]
                better = v < top
                top[better] = v[better]
                at[better] = a[better] + g0
    grid_f = signs[:, None] * best
    form = np.tile(np.arange(B), M)
    sign = np.repeat(signs, B)
    h, S, tr2 = h[form], S[form], tr2[form]
    f = grid_f.flatten()
    u = U[arg.ravel()]
    scale = 1.0 + tr2
    eye = np.eye(n)
    live = np.ones(M * B, dtype=bool)
    for _ in range(60):
        idx = np.flatnonzero(live)
        hl, Sl, ul, sl = h[idx], S[idx], u[idx], sign[idx]
        hu = (hl @ ul[:, None, :, None])[..., 0]
        quad = (hu * ul[:, None, :]).sum(-1)
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
        V = Q[:, :, 1:]
        Vt = V.transpose(0, 2, 1)
        H = (sl[:, None, None] * (-4.0 * Sl + 8.0 * (hu.transpose(0, 2, 1) @ hu)
                                  + 4.0 * (quad[:, :, None, None] * hl).sum(axis=1))
             - gu[:, None, None] * eye)
        w, E = np.linalg.eigh(Vt @ H @ V)
        floor = 1e-8 * (1.0 + np.abs(w).max(-1))
        w = np.maximum(w, floor[:, None])
        step = -(V @ (E @ ((E.transpose(0, 2, 1) @ (Vt @ g[:, :, None]))
                           / w[:, :, None])))[..., 0]
        t = np.ones(L)
        pend = np.arange(L)
        for k in range(30):
            cand = ul[pend] + t[pend, None] * step[pend]
            cand /= np.sqrt((cand * cand).sum(-1))[:, None]
            j = idx[pend]
            fc = frozen_values_at(h[j], S[j], tr2[j], cand)
            ok = sign[j] * fc < sign[j] * f[j]
            u[j[ok]] = cand[ok]
            f[j[ok]] = fc[ok]
            fail = ~ok
            if k == 0 and stop:
                flat = fail & ((g * step).sum(-1) >= -1e-14 * scale[j])
                live[j[flat]] = False
                fail &= ~flat
            if fail.any():
                stuck = (cand == ul[pend]).all(-1)
                if stuck.any():
                    stuck &= fail
                    live[j[stuck]] = False
                    fail &= ~stuck
            pend = pend[fail]
            if pend.size == 0:
                break
            t[pend] *= 0.5
        live[idx[pend]] = False
    return f.reshape(M, B), u.reshape(M, B, n), grid_f


def bits(x):
    """The IEEE bit patterns of x, so that equality also checks sign bits."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


CORPUS_A = (11, 60, ((3, 2), (4, 2), (5, 3), (6, 2), (6, 3)))
CORPUS_B = (2026, 40, ((5, 2), (6, 2), (4, 3)))


def roadmap_forms(seed, m, blocks):
    """m forms (A + A^T)/2, A uniform(-1, 1), from one default_rng(seed)
    stream for each (n, p) of `blocks` in turn: ROADMAP corpus A
    (`CORPUS_A`, the reproducer corpus of the p >= 2 sup) or B (`CORPUS_B`)."""
    rng = np.random.default_rng(seed)
    out = {}
    for n, p in blocks:
        forms = []
        for _ in range(m):
            A = rng.uniform(-1.0, 1.0, (p, n, n))
            forms.append(0.5 * (A + A.transpose(0, 2, 1)))
        out[n, p] = np.array(forms)
    return out


class TestExtremumRange:
    """`extremize_hyperplane` rejects forms whose values would overflow,
    with the bound of `inequality_reports`."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_overflowing_forms_rejected(self, p):
        # At p = 2 these gave inf for "inf" and -inf for "sup", with numpy
        # overflow warnings.
        h = np.zeros((p, 3, 3))
        h[0, 0, 0] = 1e200
        for mode in ("inf", "sup"):
            with pytest.raises(ValueError, match=r"max \|h\| > .*overflow"):
                extremize_hyperplane(SecondForm(3, p, h), mode)

    @pytest.mark.parametrize("n,p", [(3, 1), (3, 2), (6, 3)])
    def test_finite_at_range_bound(self, n, p):
        # The largest accepted max |h|; warnings are errors, so no step may
        # overflow.
        h_max = sys.float_info.max ** 0.25 / (8.0 * n * math.sqrt(p))
        rng = np.random.default_rng(11)
        A = rng.choice([-1.0, 1.0], (p, n, n))
        A = np.triu(A) + np.triu(A, 1).transpose(0, 2, 1)
        full = np.full((p, n, n), h_max)
        for h in (h_max * A, full):
            for mode in ("inf", "sup"):
                assert math.isfinite(extremize_hyperplane(SecondForm(n, p, h),
                                                          mode).value)
        with pytest.raises(ValueError, match="overflow"):
            extremize_hyperplane(SecondForm(n, p, np.nextafter(full, np.inf)), "inf")


class TestEntryPointsAgree:
    """The single-form entry point and the report batch (ROADMAP item 1's
    gate): every extremum agrees bit for bit, sign bits included."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_extremize_matches_reports(self, n, p):
        # A zero form, random forms and a non-contiguous view of one of
        # them (the same symmetric form, transposed).
        h = random_forms(n, p, 3, seed=10 * n + p)
        view = h[0].transpose(0, 2, 1)
        assert not view.flags.c_contiguous
        forms = [SecondForm(n, p, x) for x in (np.zeros((p, n, n)), *h, view)]
        reports = inequality_reports([(sf, 0.0) for sf in forms])
        for i, (sf, rep) in enumerate(zip(forms, reports)):
            for got in (rep.infCL, rep.supCL):
                want = extremize_hyperplane(sf, got.mode)
                assert bits(got.value) == bits(want.value), (i, got.mode)
                assert np.array_equal(bits(got.u), bits(want.u)), (i, got.mode)
                assert got.certificate == want.certificate
        assert reports[0].infCL.value == reports[0].supCL.value == 0.0


class TestStreamedGrid:
    """The streamed grid and the line search reproduce the frozen whole-grid
    scan and sequential halving loop bit for bit, with less memory."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("size", [512, 700, "default"])
    def test_grid_matches_frozen(self, n, size):
        if size == "default":
            size = min(32768, 4096 * 2 ** (n - 3))
        got, want = sphere_grid(n, size), frozen_sphere_grid(n, size)
        assert got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))

    def test_large_grid_matches_frozen(self):
        got, want = sphere_grid(6, 10 ** 5), frozen_sphere_grid(6, 10 ** 5)
        assert got.shape == want.shape == (2 ** 17, 6)
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("n, size", [(3, 1000), (5, 700), (8, 1)])
    @pytest.mark.parametrize("block", [1, 3, 256])
    def test_blocks_concatenate_to_grid(self, n, size, block):
        # Both sizes end on a partial block of 3 lattice points, and n = 3,
        # size 1000 on a partial block of 256.
        lattice = size if n == 3 else 2 ** math.ceil(math.log2(max(2, size)))
        blocks = list(invariants._grid_blocks(n, size, block))
        assert len(blocks) == -(-lattice // block)
        assert all(U.shape[0] == n and U.shape[1] <= block for U in blocks)
        assert all(U.flags.c_contiguous for U in blocks)
        got = np.concatenate(blocks, axis=1).T
        for want in (sphere_grid(n, size), frozen_sphere_grid(n, size)):
            assert got.shape == want.shape
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("n, p", [(3, 2), (4, 2), (5, 3), (6, 2), (6, 3)])
    def test_grid_newton_matches_frozen(self, n, p):
        h = roadmap_forms(*CORPUS_A)[n, p]
        size = min(32768, 4096 * 2 ** (n - 3))
        got = _grid_newton(h, size, ("inf", "sup"))
        want = frozen_grid_newton(h, size, ("inf", "sup"))
        for g, w in zip(got[:3], want):          # values, u, grid values
            assert g.shape == w.shape
            assert np.array_equal(bits(g), bits(w))
        assert got[3] == frozen_sphere_grid(n, size).shape[0]

    @pytest.mark.parametrize("corpus, n, p", [
        *(("A", n, p) for n, p in CORPUS_A[2]),
        *(("B", n, p) for n, p in CORPUS_B[2])])
    def test_converged_stop_moves_values_within_rounding(self, corpus, n, p):
        # Stopping a row whose failed full step promises no more than
        # rounding moves its value by at most 1e-14 (1 + |h|^2); the grid
        # values do not move at all.
        h = roadmap_forms(*(CORPUS_A if corpus == "A" else CORPUS_B))[n, p]
        size = min(32768, 4096 * 2 ** (n - 3))
        got = _grid_newton(h, size, ("inf", "sup"))
        want = frozen_grid_newton(h, size, ("inf", "sup"), stop=False)
        scale = 1.0 + (h * h).sum(axis=(1, 2, 3))
        assert np.all(np.abs(got[0] - want[0]) <= 1e-14 * scale)
        assert np.array_equal(bits(got[2]), bits(want[2]))

    @pytest.mark.parametrize("corpus, n, p", [
        *(("A", n, p) for n, p in CORPUS_A[2]),
        *(("B", n, p) for n, p in CORPUS_B[2])])
    def test_normal_frame_moves(self, corpus, n, p):
        # Every per-slice sum adds squares or products of two slice terms, so
        # negating a slice leaves each term's bits as they were; reversing
        # the slices only regroups the sums.
        h = roadmap_forms(*(CORPUS_A if corpus == "A" else CORPUS_B))[n, p]
        size = min(32768, 4096 * 2 ** (n - 3))
        want = _grid_newton(h, size, ("inf", "sup"))
        negated = h.copy()
        negated[:, 0] *= -1.0
        got = _grid_newton(negated, size, ("inf", "sup"))
        for g, w in zip(got[:3], want[:3]):          # values, u, grid values
            assert np.array_equal(bits(g), bits(w))
        assert np.array_equal(got[4], want[4])
        got = _grid_newton(h[:, ::-1], size, ("inf", "sup"))
        scale = 1.0 + (h * h).sum(axis=(1, 2, 3))
        assert np.all(np.abs(got[0] - want[0]) <= 1e-9 * scale)

    @pytest.mark.parametrize("n, p", CORPUS_A[2])
    def test_line_search_evaluations_per_row(self, monkeypatch, n, p):
        # The replay of all 30 step halvings took 29.0 to 36.5 candidate
        # values per (mode, form) row here; trying only the rows still
        # pending, and stopping those converged to rounding, takes 3.2 to 4.5.
        h = roadmap_forms(*CORPUS_A)[n, p]
        size = min(32768, 4096 * 2 ** (n - 3))
        values_at = invariants._values_at
        rows = []

        def counted(h, S, tr2, u):
            rows.append(u.size // u.shape[-1])
            return values_at(h, S, tr2, u)

        monkeypatch.setattr(invariants, "_values_at", counted)
        _grid_newton(h, size, ("inf", "sup"))
        assert sum(rows) <= 8 * 2 * h.shape[0]

    @staticmethod
    def traced_peak(h):
        """tracemalloc peak of both modes of `_grid_newton` on h at the
        default grid of n = 6 and up."""
        tracemalloc.start()
        try:
            _grid_newton(h, 32768, ("inf", "sup"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("count", [8, 64])
    def test_memory_peak(self, count):
        # The whole n = 6 grid at once peaked at 8.1 MB here; streamed, the
        # peak stays near one chunk's arrays and does not grow with a batch.
        h = random_forms(6, 3, count, seed=count)
        assert self.traced_peak(h) < 4 * 2 ** 20

    def test_memory_peak_n64(self):
        # A block of 4096 nodes held 2080 monomial rows of 4096 doubles at
        # n = 64 and peaked at 77.5 MB here; sized in bytes, a block holds 256.
        assert self.traced_peak(random_forms(64, 2, 1, seed=64)) < 8 * 2 ** 20

    @pytest.mark.parametrize("n, p", [(3, 2), (4, 2), (5, 3), (6, 2), (6, 3)])
    def test_floor_blocks_match_default(self, monkeypatch, n, p):
        # No budget: every block is the floor's and holds one form at a time.
        h = roadmap_forms(*CORPUS_A)[n, p]
        size = min(32768, 4096 * 2 ** (n - 3))
        want = _grid_newton(h, size, ("inf", "sup"))
        monkeypatch.setattr(invariants, "_GRID_BYTES", 0)
        got = _grid_newton(h, size, ("inf", "sup"))
        for g, w in zip(got[:3], want[:3]):          # values, u, grid values
            assert np.array_equal(bits(g), bits(w))
        assert got[3] == want[3]


# Known-wrong p >= 2 extrema (ROADMAP item 1): the reference (n - 1) C(L) is
# the best of 40 to 60 random multistarts, by draw number across the (n, p)
# blocks of corpus A ("A80") or corpus B ("B34"). Polishing only the best
# grid node undershoots these sups and overshoots these infs by 1.0e-4 to
# 2.1e-3 (1 + |h|^2).
WRONG_EXTREMA = [
    ("A80", "sup", 6.591261), ("A135", "sup", 9.711733),
    ("A144", "sup", 12.249469), ("A116", "inf", 0.856795),
    ("A130", "inf", 6.845256), ("A179", "inf", 7.329173),
    ("A223", "inf", 4.755189), ("B34", "inf", 1.785177),
    ("B44", "inf", 5.469862),
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="p >= 2 Newton polishes one grid seed per "
                   "(mode, form) row (ROADMAP item 1)")
@pytest.mark.parametrize("draw, mode, reference", WRONG_EXTREMA)
def test_known_wrong_extremum(draw, mode, reference):
    corpus = CORPUS_A if draw[0] == "A" else CORPUS_B
    _, m, blocks = corpus
    k = int(draw[1:])
    n, p = blocks[k // m]
    h = roadmap_forms(*corpus)[n, p][k % m]
    value = (n - 1) * extremize_hyperplane(SecondForm(n, p, h), mode).value
    assert abs(value - reference) <= 1e-5 * (1.0 + np.sum(h * h))


class TestTau:
    def test_matches_pairwise_sectional_sums(self):
        # Independent route: tau = sum_{i<j} K_ij with the Gauss-equation
        # sectional curvatures K_ij = c + sum_r (h_ii h_jj - h_ij^2).
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, 4))
            h = rng.uniform(-2, 2, (p, n, n))
            h = 0.5 * (h + h.transpose(0, 2, 1))
            ct = float(rng.uniform(-1, 1))
            pairwise = sum(ct + np.sum(h[:, i, i] * h[:, j, j] - h[:, i, j] ** 2)
                           for i in range(n) for j in range(i + 1, n))
            tau = tau_from_h(SecondForm(n, p, h), ct)
            assert tau == pytest.approx(pairwise, abs=1e-12 * (1.0 + abs(tau)))

    def test_diag_112(self):
        assert tau_from_h(diag_form(1.0, 1.0, 2.0), 0.0) == pytest.approx(5.0)

    def test_space_form_slice(self):
        assert tau_from_h(diag_form(0.0, 0.0, 0.0), 1.0) == pytest.approx(3.0)

    def test_umbilical(self):
        lam = 0.8
        assert tau_from_h(diag_form(lam, lam, lam), 0.0) == pytest.approx(
            3.0 * lam ** 2)


class TestDeltaCurvatures:
    def test_umbilical(self):
        lam = 1.3
        rep = inequality_report(diag_form(lam, lam, lam))
        assert rep.delta_hat == pytest.approx(7.0 / 6.0 * lam ** 2, abs=1e-10)
        assert rep.delta_C == pytest.approx(7.0 / 6.0 * lam ** 2, abs=1e-10)
        assert rep.delta_c_legacy == pytest.approx(5.0 / 6.0 * lam ** 2, abs=1e-10)

    def test_ideal_patterns(self):
        lam = 0.9
        rep = inequality_report(diag_form(lam, lam, 2.0 * lam))
        assert rep.delta_C == pytest.approx(5.0 / 3.0 * lam ** 2, abs=1e-10)
        rep = inequality_report(diag_form(2.0 * lam, 2.0 * lam, lam))
        assert rep.delta_hat == pytest.approx(8.0 / 3.0 * lam ** 2, abs=1e-10)

    def test_needs_three_dimensions(self):
        with pytest.raises(ValueError):
            inequality_report(SecondForm(2, 1, np.zeros((1, 2, 2))))


class TestProofPolynomial:
    def test_zero_form(self):
        sf = diag_form(0.0, 0.0, 0.0)
        for variant in ("P", "Q"):
            assert proof_polynomial(sf, [0, 0, 1], variant) == 0.0

    def test_equality_cases(self):
        assert proof_polynomial(diag_form(2.0, 2.0, 1.0), [0, 0, 1],
                                "P") == pytest.approx(0.0, abs=1e-12)
        assert proof_polynomial(diag_form(1.0, 1.0, 2.0), [0, 0, 1],
                                "Q") == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(3, 6))
            p = int(rng.integers(1, 4))
            h = rng.uniform(-1, 1, (p, n, n))
            h = 0.5 * (h + h.transpose(0, 2, 1))
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            sf = SecondForm(n, p, h)
            for variant in ("P", "Q"):
                assert proof_polynomial(sf, u, variant) >= -1e-10

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            proof_polynomial(diag_form(1.0, 1.0, 2.0), [0, 0, 1], "R")


class TestOpreaQP:
    def test_golden_point_P(self):
        sol = oprea_qp("P", 3, 5.0)
        assert np.allclose(sol.point, [2.0, 2.0, 1.0], atol=1e-12)
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert sol.min_restricted_hessian_eig == pytest.approx(5.0, abs=1e-10)

    def test_point_Q(self):
        sol = oprea_qp("Q", 3, 4.0)
        assert np.allclose(sol.point, [1.0, 1.0, 2.0], atol=1e-12)
        assert sol.value == pytest.approx(0.0, abs=1e-12)

    def test_zero_trace(self):
        for variant in ("P", "Q"):
            sol = oprea_qp(variant, 4, 0.0)
            assert np.allclose(sol.point, 0.0)
            assert sol.value == 0.0

    def test_matches_slsqp(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            variant = "P" if rng.random() < 0.5 else "Q"
            n = int(rng.integers(3, 8))
            k = float(rng.uniform(-5.0, 5.0))
            sol = oprea_qp(variant, n, k)
            res = minimize(lambda x: qp_objective(variant, x),
                           rng.normal(size=n), method="SLSQP",
                           constraints=[{"type": "eq",
                                         "fun": lambda x: np.sum(x) - k}],
                           options={"ftol": 1e-14, "maxiter": 500})
            assert res.success
            assert np.abs(res.x - sol.point).max() <= 1e-6

    def test_objective_matches_double_loop(self):
        rng = np.random.default_rng(37)
        for variant in ("P", "Q"):
            for n in (3, 4, 7, 12):
                x = rng.uniform(-3.0, 3.0, n)
                off = sum(x[i] * x[j] for i in range(n) for j in range(i + 1, n))
                head = float(np.sum(x[:-1] ** 2))
                if variant == "P":
                    ref = (0.5 * (2 * n - 3) * head + 2.0 * (n - 1) * x[-1] ** 2
                           - 2.0 * off)
                else:
                    ref = n * head + 0.5 * (n - 1) * x[-1] ** 2 - 2.0 * off
                assert qp_objective(variant, x) == pytest.approx(
                    ref, rel=1e-12, abs=1e-12)

    def test_hessian_consistent_with_objective(self):
        rng = np.random.default_rng(29)
        for variant in ("P", "Q"):
            for n in (3, 5):
                H = qp_hessian(variant, n)
                x = rng.normal(size=n)
                assert qp_objective(variant, x) == pytest.approx(
                    0.5 * x @ H @ x, abs=1e-10)


class TestCurvatureTensors:
    def test_ricci_ideal_pattern(self):
        vals = np.sort(ricci_values(diag_form(2.0, 2.0, 1.0), 0.0))
        assert np.allclose(vals, [4.0, 6.0, 6.0], atol=1e-12)

    def test_ricci_space_form(self):
        assert np.allclose(ricci_values(diag_form(0.0, 0.0, 0.0), 1.0),
                           [2.0, 2.0, 2.0], atol=1e-12)

    def test_ricci_umbilical(self):
        lam = 0.7
        assert np.allclose(ricci_values(diag_form(lam, lam, lam), 0.0),
                           2.0 * lam ** 2, atol=1e-12)

    def test_weyl_vanishes_in_dim_three(self):
        rng = np.random.default_rng(31)
        h = rng.uniform(-1, 1, (2, 3, 3))
        h = 0.5 * (h + h.transpose(0, 2, 1))
        assert weyl_norm(SecondForm(3, 2, h), 0.3) == 0.0

    def test_weyl_ideal_family(self):
        for a in (0.0, 0.5, 1.0):
            for ct in (-1.0, 0.0, 1.0):
                sf = diag_form(2 * a, 2 * a, 2 * a, a)
                assert weyl_norm(sf, ct) <= 1e-9

    def test_weyl_generic_positive(self):
        assert weyl_norm(diag_form(1.0, 2.0, 3.0, 4.0), 0.0) > 0.01


class TestClassification:
    def test_totally_geodesic(self):
        cls = classify_ideal(diag_form(0.0, 0.0, 0.0))
        assert cls.kind == "TotallyGeodesic"

    def test_umbilical(self):
        cls = classify_ideal(diag_form(0.4, 0.4, 0.4))
        assert cls.kind == "Umbilical"
        assert cls.quasi_umbilical

    def test_ideal_patterns(self):
        cls = classify_ideal(diag_form(0.5, 0.5, 1.0))
        assert cls.kind == "Ideal41"
        assert cls.lam == pytest.approx(0.5, abs=1e-12)
        cls = classify_ideal(diag_form(1.0, 1.0, 0.5))
        assert cls.kind == "Ideal11"
        assert cls.lam == pytest.approx(0.5, abs=1e-12)

    def test_sign_flip_invariance(self):
        cls = classify_ideal(diag_form(-0.5, -0.5, -1.0))
        assert cls.kind == "Ideal41"
        assert cls.lam == pytest.approx(0.5, abs=1e-12)

    def test_generic(self):
        cls = classify_ideal(diag_form(1.0, 2.0, 3.5))
        assert cls.kind == "Generic"
        assert cls.lam is None

    def test_quasi_umbilical_flag(self):
        # n - 1 equal eigenvalues, at either end of the spectrum, within tol.
        for vals, kind, quasi in [
                ((0.5, 0.5, 1.0), "Ideal41", True), ((1.0, 1.0, 0.5), "Ideal11", True),
                ((1.0, 1.0, 3.0), "Generic", True), ((-3.0, 1.0, 1.0), "Generic", True),
                ((1.0, 1.0 + 1e-9, 3.0), "Generic", True),
                ((1.0, 1.0 + 1e-6, 3.0), "Generic", False),
                ((1.0, 2.0, 3.5), "Generic", False)]:
            cls = classify_ideal(diag_form(*vals))
            assert (cls.kind, cls.quasi_umbilical) == (kind, quasi), vals
            assert type(cls.quasi_umbilical) is bool

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_tol_positive_and_finite(self, monkeypatch, tol):
        # A NaN tol called the zero form Generic and diag(1, 1, 2) Generic
        # in a report; an infinite one called every form TotallyGeodesic.
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            classify_ideal(diag_form(0.0, 0.0, 0.0), tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            inequality_report(diag_form(1.0, 1.0, 2.0), classify_tol=tol)
        # A batch rejects the tol before any extremum, and with no items:
        # the empty batch returned [], and a p >= 2 batch scanned its grid
        # and ran its Newton loop before the tol was read.
        monkeypatch.setattr(invariants, "_extrema", None)
        for items in ([], [(SecondForm(4, 2, random_forms(4, 2, 1, seed=0)[0]), 0.0)]):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                inequality_reports(items, classify_tol=tol)

    def test_single_normal_flag(self):
        h = np.zeros((2, 3, 3))
        h[0] = np.diag([1.0, 1.0, 2.0])
        h[1, 0, 1] = h[1, 1, 0] = 0.5
        cls = classify_ideal(SecondForm(3, 2, h))
        assert not cls.single_normal


class TestInequalityReport:
    def test_sphere_values(self):
        for R in (0.5, 1.0, 2.0):
            rep = inequality_report(diag_form(1 / R, 1 / R, 1 / R), 0.0)
            assert rep.rho == pytest.approx(1.0 / R ** 2, abs=1e-10)
            assert rep.C == pytest.approx(1.0 / R ** 2, abs=1e-10)
            assert rep.delta_C == pytest.approx(7.0 / (6.0 * R ** 2), abs=1e-9)
            assert rep.slack41 == pytest.approx(1.0 / (6.0 * R ** 2), abs=1e-9)
            assert rep.classification.kind == "Umbilical"

    def test_equality_cases(self):
        lam = 1.1
        rep = inequality_report(diag_form(lam, lam, 2 * lam), 0.0)
        assert rep.rho == pytest.approx(5.0 / 3.0 * lam ** 2, abs=1e-10)
        assert rep.slack41 == pytest.approx(0.0, abs=1e-10)
        rep = inequality_report(diag_form(2 * lam, 2 * lam, lam), 0.0)
        assert rep.rho == pytest.approx(8.0 / 3.0 * lam ** 2, abs=1e-10)
        assert rep.slack11 == pytest.approx(0.0, abs=1e-10)

    def test_slacks_nonnegative_random(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(3, 6))
            p = int(rng.integers(1, 4))
            h = rng.uniform(-1, 1, (p, n, n))
            h = 0.5 * (h + h.transpose(0, 2, 1))
            ct = float(rng.uniform(-1, 1))
            rep = inequality_report(SecondForm(n, p, h), ct)
            assert rep.slack11 >= -1e-9
            assert rep.slack41 >= -1e-9

    def test_reports_match_single_form(self):
        # A shuffled corpus mixing every (n, p) group and c_tilde value.
        rng = np.random.default_rng(17)
        items = []
        for n in range(3, 7):
            for p in (1, 2, 3):
                for c_tilde in (-1.0, 0.0, 1.0):
                    h = rng.uniform(-1.0, 1.0, (p, n, n))
                    items.append((SecondForm(n, p, 0.5 * (h + h.transpose(0, 2, 1))),
                                  c_tilde))
        # n = 7 and p = 3: p n^2 = 147 terms in |h|^2, past numpy's
        # 128-term pairwise block.
        for p in (2, 3):
            h = rng.uniform(-1.0, 1.0, (p, 7, 7))
            items.append((SecondForm(7, p, 0.5 * (h + h.transpose(0, 2, 1))), 0.0))
        # The equality cases of the benchmark's synthetic corpus: one normal
        # direction nu and a shape operator of the kind's spectrum in a
        # random frame, h_r = nu_r Q^T diag(eigs) Q.
        for n in range(3, 7):
            for p in (1, 2, 3):
                lam = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
                for eigs in ([0.0] * n, [lam] * n, [2.0 * lam] * (n - 1) + [lam],
                             [lam] * (n - 1) + [2.0 * lam]):
                    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
                    nu = rng.standard_normal(p)
                    A = Q.T @ np.diag(eigs) @ Q
                    h = (nu / np.linalg.norm(nu))[:, None, None] * (0.5 * (A + A.T))
                    items.append((SecondForm(n, p, h),
                                  float(rng.choice([-1.0, 0.0, 1.0]))))
        items = [items[i] for i in rng.permutation(len(items))]
        reports = inequality_reports(items, classify_tol=1e-8)
        assert len(reports) == len(items)
        for (sf, c_tilde), rep in zip(items, reports):
            # The batch sums each form as the per-form functions do.
            traces = np.einsum("rii->r", sf.h)
            assert (rep.C, rep.tau) == (casorati_total(sf), tau_from_h(sf, c_tilde))
            assert rep.meanH == float(np.linalg.norm(traces) / sf.n)
            alone = inequality_report(sf, c_tilde)
            for name in rep._fields:
                got, want = getattr(rep, name), getattr(alone, name)
                if name in ("infCL", "supCL"):
                    assert (got.mode, got.value, got.certificate) == (
                        want.mode, want.value, want.certificate)
                    assert np.array_equal(got.u, want.u)
                else:
                    assert got == want, name

    def test_reports_match_single_form_across_slice_counts(self):
        # Every p >= 2 form of one n shares a grid scan, whatever its p:
        # p = 2 and 3 beside p = 4, 5, 8 and 9 (a zero slice more would
        # regroup OpenBLAS's matrix-vector sums from 4 columns on, and
        # numpy's pairwise sum from 8 terms on).
        rng = np.random.default_rng(29)
        items = []
        for n in (3, 5):
            for p in (2, 3, 4, 5, 8, 9):
                for _ in range(2):
                    h = rng.uniform(-1.0, 1.0, (p, n, n))
                    items.append((SecondForm(n, p, 0.5 * (h + h.transpose(0, 2, 1))),
                                  0.0))
        for (sf, c_tilde), rep in zip(items, inequality_reports(items)):
            alone = inequality_report(sf, c_tilde)
            for got, want in ((rep.infCL, alone.infCL), (rep.supCL, alone.supCL)):
                assert bits(got.value) == bits(want.value)
                assert np.array_equal(bits(got.u), bits(want.u))
                assert got.certificate == want.certificate   # iterations too
            assert (rep.delta_hat, rep.delta_C) == (alone.delta_hat, alone.delta_C)

    def test_one_grid_pass_per_dimension(self, monkeypatch):
        # p = 2 and p = 3 forms of one n, and a p = 1 form, which takes the
        # closed form: one pass over the sphere grid of n serves them all.
        calls = []
        grid_blocks = invariants._grid_blocks

        def counted(n, size, block):
            calls.append(n)
            return grid_blocks(n, size, block)

        monkeypatch.setattr(invariants, "_grid_blocks", counted)
        rng = np.random.default_rng(31)
        items = []
        for p in (2, 3, 1, 2):
            h = rng.uniform(-1.0, 1.0, (p, 4, 4))
            items.append((SecondForm(4, p, 0.5 * (h + h.transpose(0, 2, 1))), 0.0))
        inequality_reports(items)
        assert calls == [4]

    def test_reports_certificates(self):
        h = np.zeros((2, 4, 4))
        h[0] = np.diag([1.0, 2.0, 3.0, 4.0])
        h[1, 0, 1] = h[1, 1, 0] = 0.5
        (hyper, multi) = inequality_reports([(diag_form(1.0, 2.0, 3.0), 0.0),
                                             (SecondForm(4, 2, h), 0.0)])
        assert hyper.infCL.certificate == hyper.supCL.certificate == {
            "method": "closed_form"}
        for ext, mode in ((multi.infCL, "inf"), (multi.supCL, "sup")):
            assert ext.certificate == extremize_hyperplane(
                SecondForm(4, 2, h), mode).certificate
            assert ext.certificate["grid_nodes"] == 8192

    def test_reports_edge_cases(self):
        assert inequality_reports([]) == []
        with pytest.raises(ValueError, match="n >= 3"):
            inequality_reports([(diag_form(1.0, 2.0, 3.0), 0.0),
                                (diag_form(1.0, 2.0), 0.0)])

    def test_family_coefficients_match_the_paper(self):
        # delta-hat of (1.1) and delta_C of (4.1), written out as in the
        # paper: the family coefficients (c, b) give them bit for bit.
        rng = np.random.default_rng(43)
        for n in range(3, 65):
            h = rng.uniform(-1.0, 1.0, (1, n, n))
            rep = inequality_report(SecondForm(n, 1, 0.5 * (h + h.transpose(0, 2, 1))))
            assert rep.delta_hat == (2.0 * rep.C - (2.0 * n - 1.0) / (2.0 * n)
                                     * rep.supCL.value)
            assert rep.delta_C == (0.5 * rep.C + (n + 1.0) / (2.0 * n)
                                   * rep.infCL.value)

    @pytest.mark.parametrize("scale,c_tilde", [
        (1e200, 0.0), (1.0, 1e308), (1.0, -1e308),
        pytest.param(1.0, 10 ** 400, id="1.0-int-beyond-float")])
    @pytest.mark.parametrize("p", [1, 2])
    def test_overflowing_items_rejected(self, scale, c_tilde, p):
        h = np.zeros((p, 3, 3))
        h[:, 0, 0] = scale
        items = [(diag_form(1.0, 2.0, 3.0), 0.0), (SecondForm(3, p, h), c_tilde)]
        with pytest.raises(ValueError, match=r"report item 1: max \|h\| > .* "
                                             r"or \|c_tilde\| > .*overflow"):
            inequality_reports(items)

    @pytest.mark.parametrize("n,p", [(3, 1), (3, 2), (6, 3)])
    def test_finite_at_range_bound(self, n, p):
        # The largest accepted max |h| and |c_tilde|, as derived in
        # `_check_items`; warnings are errors, so no step may overflow.
        h_max = sys.float_info.max ** 0.25 / (8.0 * n * math.sqrt(p))
        c_max = sys.float_info.max / (32.0 * n * n)
        rng = np.random.default_rng(7)
        items = []
        for sign in (1.0, -1.0):
            A = rng.choice([-1.0, 1.0], (p, n, n))
            A = np.triu(A) + np.triu(A, 1).transpose(0, 2, 1)
            items += [(SecondForm(n, p, h_max * A), sign * c_max),
                      (SecondForm(n, p, np.full((p, n, n), h_max)), sign * c_max)]
        for rep in inequality_reports(items):
            assert all(math.isfinite(getattr(rep, name)) for name in (
                "C", "meanH", "tau", "rho", "delta_hat", "delta_C",
                "delta_c_legacy", "slack11", "slack41"))
            assert math.isfinite(rep.infCL.value) and math.isfinite(rep.supCL.value)
