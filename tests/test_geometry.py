"""Unit tests for frames, the second fundamental form, and the intrinsic
curvature oracle."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casorati.elliptic import jacobi_sd
from casorati.geometry import (
    RiemannTensor,
    SecondForm,
    _gauss_riemann,
    frame_at,
    gauss_residual,
    intrinsic_riemann,
    intrinsic_tau,
    second_form,
)
from casorati.immersions import (
    BoundaryProximityError,
    IllConditionedPointError,
    domain_check,
    first_partials,
    jet2,
    make_chart,
)
from casorati.invariants import tau_from_h

HALF = 1.0 / math.sqrt(2.0)
EPS = np.finfo(float).eps


# The scalar nested-loop stencil that the batched oracle replaced: one
# `first_partials` call per metric point. Kept as the reference that
# `intrinsic_riemann` must reproduce bit for bit.

def reference_metric_fn(chart):
    def g(y):
        d1 = first_partials(chart, y)
        return d1 @ d1.T
    return g


def reference_christoffel(gfun, y, n, step):
    g0 = gfun(y)
    ginv = np.linalg.inv(g0)
    dg = np.empty((n, n, n))
    h = step * np.maximum(1.0, np.abs(y))
    for a in range(n):
        e = np.zeros(n)
        e[a] = 1.0
        ha = h[a]
        D1 = (gfun(y + ha * e) - gfun(y - ha * e)) / (2.0 * ha)
        D2 = (gfun(y + 0.5 * ha * e) - gfun(y - 0.5 * ha * e)) / ha
        dg[a] = (4.0 * D2 - D1) / 3.0
    T = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("kl,ijl->kij", ginv, T)


def reference_riemann(chart, x, jet_mode):
    x = np.asarray(x, dtype=float)
    n = chart.n
    analytic = jet_mode == "analytic"
    gamma_step = float(np.cbrt(EPS)) if analytic else 1e-2
    step = 2e-3 if analytic else 5e-2
    frame = frame_at(chart, x)
    gfun = reference_metric_fn(chart)
    hs = step * np.maximum(1.0, np.abs(x))
    gamma0 = reference_christoffel(gfun, x, n, gamma_step)
    dgamma = np.empty((n, n, n, n))
    for a in range(n):
        e = np.zeros(n)
        e[a] = 1.0
        ha = hs[a]
        D1 = (reference_christoffel(gfun, x + ha * e, n, gamma_step)
              - reference_christoffel(gfun, x - ha * e, n, gamma_step)) / (2.0 * ha)
        D2 = (reference_christoffel(gfun, x + 0.5 * ha * e, n, gamma_step)
              - reference_christoffel(gfun, x - 0.5 * ha * e, n, gamma_step)) / ha
        dgamma[a] = (4.0 * D2 - D1) / 3.0
    rup = (np.einsum("adbc->dabc", dgamma)
           - np.einsum("bdac->dabc", dgamma)
           + np.einsum("dae,ebc->dabc", gamma0, gamma0)
           - np.einsum("dbe,eac->dabc", gamma0, gamma0))
    rm = np.einsum("eabc,ed->abcd", rup, gfun(x))
    comp = rm.transpose(0, 1, 3, 2)
    for _ in range(4):
        comp = np.tensordot(comp, frame.coord_to_frame, (0, 0))
    return comp


# Interior points for both jet modes, and points within 0.05 of the
# hypersphere poles (analytic only: the numeric stencil does not fit there).
ORACLE_CASES = [
    (name, params, x, mode)
    for name, params, x in [
        ("hypersphere", {"R": 1.3, "n": 2}, [1.1, 0.8]),
        ("hypersphere", {"R": 2.0, "n": 3}, [0.9, 1.4, 2.0]),
        ("hypersphere", {"R": 1.0, "n": 4}, [0.9, 1.4, 2.0, 0.7]),
        ("chen_ideal", {"a": 1.0}, [0.8, 0.3, 1.1]),
        ("flat_torus", {"r1": 1.0, "r2": 0.7}, [0.5, 1.7]),
        ("paraboloid", {"c": 0.6}, [0.2, -0.3]),
    ]
    for mode in ("analytic", "numeric")
] + [
    ("hypersphere", {"R": 1.3, "n": 2}, [0.04, 2.0], "analytic"),
    ("hypersphere", {"R": 1.3, "n": 2}, [3.1, 5.0], "analytic"),
    ("hypersphere", {"R": 2.0, "n": 3}, [0.03, 1.4, 2.0], "analytic"),
    ("hypersphere", {"R": 2.0, "n": 3}, [1.2, 3.1, 0.5], "analytic"),
    ("hypersphere", {"R": 1.0, "n": 4}, [0.05, 1.2, 3.1, 0.5], "analytic"),
    ("chen_ideal", {"a": 2.0}, [0.4, -1.5, 0.2], "analytic"),
]


class TestSecondFormType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SecondForm(3, 1, np.zeros((2, 3, 3)))
        # A changed copy is checked as a new form is.
        with pytest.raises(ValueError, match="shape"):
            SecondForm(3, 1, np.zeros((1, 3, 3)))._replace(p=2)

    def test_symmetry_validation(self):
        h = np.zeros((1, 3, 3))
        h[0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            SecondForm(3, 1, h)
        # Within 1e-8 (1 + max |h|) of the form's own scale, in any slice.
        h = np.zeros((2, 3, 3))
        h[0, 2, 2] = 1e9
        h[1, 0, 1] = 1.0
        SecondForm(3, 2, h)
        h[1, 0, 1] = 11.0
        with pytest.raises(ValueError, match="symmetric"):
            SecondForm(3, 2, h)

    def test_nonfinite_validation(self):
        for bad in (math.nan, math.inf, -math.inf):
            h = np.zeros((1, 3, 3))
            h[0, 1, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                SecondForm(3, 1, h)

    def test_accepts_valid(self):
        sf = SecondForm(3, 2, np.zeros((2, 3, 3)))
        assert sf.h.shape == (2, 3, 3)


class TestFrames:
    @pytest.mark.parametrize("name,params,x", [
        ("hypersphere", {"R": 1.0, "n": 3}, [0.9, 1.4, 2.0]),
        ("chen_ideal", {"a": 1.0}, [0.8, 0.3, 1.1]),
        ("flat_torus", {"r1": 1.0, "r2": 1.0}, [0.5, 1.7]),
        ("paraboloid", {"c": 1.0}, [0.2, -0.3]),
    ])
    def test_orthonormal(self, name, params, x):
        c = make_chart(name, params)
        fr = frame_at(c, x)
        F = np.vstack([fr.tangent_frame, fr.normal_frame])
        assert F.shape == (c.ambient_dim, c.ambient_dim)
        assert np.abs(F @ F.T - np.eye(c.ambient_dim)).max() <= 1e-10
        assert np.isfinite(fr.condition)

    def test_sphere_normal_is_radial(self):
        c = make_chart("hypersphere", {"R": 1.5, "n": 2})
        x = np.array([0.8, 1.2])
        fr = frame_at(c, x)
        pos = c.position(x)
        cross = abs(float(fr.normal_frame[0] @ pos))
        assert cross == pytest.approx(1.5, abs=1e-10)

    def test_deterministic(self):
        c = make_chart("chen_ideal", {"a": 1.0})
        a = frame_at(c, [0.8, 0.3, 1.1])
        b = frame_at(c, [0.8, 0.3, 1.1])
        assert np.array_equal(a.tangent_frame, b.tangent_frame)
        assert np.array_equal(a.normal_frame, b.normal_frame)

    def test_ill_conditioned_near_pole(self):
        # The frame checks the Gram condition; the jet alone is returned.
        c = make_chart("hypersphere", {"R": 1.0, "n": 3}, margin=1e-9)
        x = [1e-8, 1.0, 1.0]
        assert np.isfinite(jet2(c, x).d1).all()
        with pytest.raises(IllConditionedPointError,
                           match=r"Gram matrix condition \S+ exceeds 1\.0e\+08 at "
                                 r"\[1e-08, 1\.0, 1\.0\] on chart 'hypersphere'"):
            frame_at(c, x)


class TestSecondForm:
    def test_sphere_umbilical(self):
        for R in (0.5, 1.0, 2.0):
            c = make_chart("hypersphere", {"R": R, "n": 3})
            x = [0.9, 1.4, 2.0]
            sf = second_form(c, x, frame_at(c, x))
            assert np.abs(np.abs(sf.h[0]) - np.eye(3) / R).max() <= 1e-9

    def test_flat_torus_rank_one(self):
        c = make_chart("flat_torus", {"r1": 1.0, "r2": 0.5})
        x = [0.7, 2.2]
        sf = second_form(c, x, frame_at(c, x))
        mags = sorted(np.abs(sf.h).max(axis=(1, 2)))
        assert mags[0] == pytest.approx(1.0, abs=1e-9)
        assert mags[1] == pytest.approx(2.0, abs=1e-9)
        for r in range(2):
            s = np.linalg.svd(sf.h[r], compute_uv=False)
            assert s[1] <= 1e-9

    def test_chen_eigenvalue_pattern(self):
        a = 1.0
        c = make_chart("chen_ideal", {"a": a})
        for t in (0.4, 0.8, 1.5, 2.2):
            x = [t, 0.3, 1.1]
            sf = second_form(c, x, frame_at(c, x))
            lam = 0.5 * a * jacobi_sd(a * t, HALF)
            eigs = np.sort(np.abs(np.linalg.eigvalsh(sf.h[0])))
            assert np.abs(eigs - [lam, lam, 2.0 * lam]).max() <= 1e-6

    def test_spectrum_invariant_under_axis_reorder(self):
        # Swapping the angular parameters of the torus permutes the frame
        # construction; the shape-operator spectra must not move.
        ca = make_chart("flat_torus", {"r1": 1.0, "r2": 0.5})
        cb = make_chart("flat_torus", {"r1": 0.5, "r2": 1.0})
        sa = second_form(ca, [0.7, 2.2], frame_at(ca, [0.7, 2.2]))
        sb = second_form(cb, [2.2, 0.7], frame_at(cb, [2.2, 0.7]))
        ea = np.sort(np.abs(np.concatenate(
            [np.linalg.eigvalsh(m) for m in sa.h])))
        eb = np.sort(np.abs(np.concatenate(
            [np.linalg.eigvalsh(m) for m in sb.h])))
        assert np.abs(ea - eb).max() <= 1e-10


class TestIntrinsicCurvature:
    def test_flat_torus_is_flat(self):
        c = make_chart("flat_torus", {"r1": 1.0, "r2": 1.0})
        R = intrinsic_riemann(c, [0.7, 1.9])
        assert np.abs(R.components).max() <= 1e-6

    def test_sphere_sectional(self):
        for r in (1.0, 2.0):
            c = make_chart("hypersphere", {"R": r, "n": 2})
            R = intrinsic_riemann(c, [1.1, 0.8])
            assert R.components[0, 1, 0, 1] == pytest.approx(
                1.0 / r ** 2, abs=1e-6)

    def test_tau_symmetries(self):
        c = make_chart("hypersphere", {"R": 1.0, "n": 3})
        R = intrinsic_riemann(c, [0.9, 1.3, 2.0])
        comp = R.components
        assert np.abs(comp + comp.transpose(1, 0, 2, 3)).max() <= 1e-6
        assert intrinsic_tau(R) == pytest.approx(3.0, abs=1e-5)

    def test_high_dimension_sphere(self):
        # The frame change contracts one index at a time, O(n^5): one n = 16
        # point takes about 0.1 s, where one eight-index contraction took 35 s.
        n = 16
        c = make_chart("hypersphere", {"R": 1.0, "n": n})
        x = np.full(n, 1.3)
        t0 = time.perf_counter()
        R = intrinsic_riemann(c, x)
        assert time.perf_counter() - t0 < 5.0
        assert gauss_residual(second_form(c, x, frame_at(c, x)), R) <= 1e-6

    def test_boundary_stencil_guard(self):
        # Admissible points whose stencil leaves the domain. The stencil
        # grows with max(1, |x|) per axis, so the high ends of t and phi2
        # need a wider strip than t near 0; numeric jets, with their larger
        # steps, a wider one still.
        t_hi = make_chart("chen_ideal", {"a": 1.0}).domain[0][1]
        cases = [
            ("chen_ideal", {"a": 1.0}, [0.0015, 0.3, 1.1], "analytic"),
            ("chen_ideal", {"a": 1.0}, [t_hi - 0.004, 0.3, 1.1], "analytic"),
            ("hypersphere", {"R": 1.0, "n": 3}, [0.9, math.pi - 0.005, 2.0],
             "analytic"),
            ("hypersphere", {"R": 1.0, "n": 3}, [0.9, math.pi - 0.1, 2.0],
             "numeric"),
        ]
        for name, params, x, mode in cases:
            c = make_chart(name, params, jet_mode=mode)
            assert domain_check(c, x).admissible
            with pytest.raises(BoundaryProximityError):
                intrinsic_riemann(c, x)
        # The analytic stencil still fits where the numeric one does not.
        c = make_chart("hypersphere", {"R": 1.0, "n": 3})
        assert np.isfinite(intrinsic_riemann(c, [0.9, math.pi - 0.1, 2.0])
                           .components).all()


class TestBatchedOracle:
    @pytest.mark.parametrize("name,params,x,mode", ORACLE_CASES)
    def test_equals_scalar_stencil(self, name, params, x, mode):
        c = make_chart(name, params, jet_mode=mode)
        got = intrinsic_riemann(c, x).components
        assert np.array_equal(got, reference_riemann(c, x, mode))

    @pytest.mark.parametrize("name,params", [
        ("hypersphere", {"R": 1.3, "n": 2}),
        ("hypersphere", {"R": 2.0, "n": 3}),
        ("hypersphere", {"R": 1.0, "n": 4}),
        ("chen_ideal", {"a": 1.0}),
        ("flat_torus", {"r1": 1.0, "r2": 0.7}),
        ("paraboloid", {"c": 0.6}),
    ])
    @pytest.mark.parametrize("mode", ["analytic", "numeric"])
    def test_first_partials_over_points(self, name, params, mode):
        c = make_chart(name, params, jet_mode=mode)
        lo = np.array([b[0] for b in c.domain])
        hi = np.array([b[1] for b in c.domain])
        X = lo + (hi - lo) * np.random.default_rng(4).uniform(0.02, 0.98, (7, c.n))
        X[0, -1] = -0.0
        got = first_partials(c, X)
        assert got.shape == (7, c.n, c.ambient_dim)
        stacked = np.stack([first_partials(c, x) for x in X])
        assert np.array_equal(got, stacked)
        assert np.array_equal(np.signbit(got), np.signbit(stacked))


class TestGaussIdentity:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 5), p=st.integers(1, 3),
           entries=st.lists(st.floats(-5.0, 5.0), min_size=75, max_size=75),
           c_tilde=st.floats(-3.0, 3.0))
    def test_curvature_symmetries_and_tau(self, n, p, entries, c_tilde):
        A = np.array(entries[:p * n * n]).reshape(p, n, n)
        sf = SecondForm(n, p, 0.5 * (A + A.transpose(0, 2, 1)))
        R = _gauss_riemann(sf, c_tilde)
        tol = 1e-12 * (1.0 + np.sum(sf.h ** 2))
        assert np.abs(R + np.einsum("jikl->ijkl", R)).max() <= tol
        assert np.abs(R + np.einsum("ijlk->ijkl", R)).max() <= tol
        assert np.abs(R - np.einsum("klij->ijkl", R)).max() <= tol
        bianchi = R + np.einsum("iklj->ijkl", R) + np.einsum("iljk->ijkl", R)
        assert np.abs(bianchi).max() <= tol
        tau = sum(R[i, j, i, j] for i in range(n) for j in range(i + 1, n))
        assert abs(tau - tau_from_h(sf, c_tilde)) <= tol


class TestGaussResidual:
    def test_totally_geodesic_zero(self):
        sf = SecondForm(3, 1, np.zeros((1, 3, 3)))
        R = RiemannTensor(3, np.zeros((3, 3, 3, 3)))
        assert gauss_residual(sf, R, 0.0) == 0.0

    def test_dimension_mismatch(self):
        sf = SecondForm(3, 1, np.zeros((1, 3, 3)))
        R = RiemannTensor(2, np.zeros((2, 2, 2, 2)))
        with pytest.raises(ValueError):
            gauss_residual(sf, R)

    @pytest.mark.parametrize("name,params,x", [
        ("hypersphere", {"R": 1.0, "n": 3}, [0.9, 1.4, 2.0]),
        ("chen_ideal", {"a": 1.0}, [0.8, 0.3, 1.1]),
        ("flat_torus", {"r1": 1.0, "r2": 0.7}, [0.5, 1.7]),
        ("paraboloid", {"c": 0.6}, [0.2, -0.3]),
    ])
    def test_catalog_analytic(self, name, params, x):
        c = make_chart(name, params)
        sf = second_form(c, x, frame_at(c, x))
        R = intrinsic_riemann(c, x)
        assert gauss_residual(sf, R, 0.0) <= 1e-7

    @pytest.mark.parametrize("name,params,x", [
        ("hypersphere", {"R": 1.0, "n": 3}, [0.9, 1.4, 2.0]),
        ("flat_torus", {"r1": 1.0, "r2": 0.7}, [0.5, 1.7]),
        ("paraboloid", {"c": 0.6}, [0.2, -0.3]),
    ])
    def test_catalog_numeric(self, name, params, x):
        c = make_chart(name, params, jet_mode="numeric")
        sf = second_form(c, x, frame_at(c, x))
        R = intrinsic_riemann(c, x)
        assert gauss_residual(sf, R, 0.0) <= 1e-5
