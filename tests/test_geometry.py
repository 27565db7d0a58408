"""Unit tests for frames, the second fundamental form, and the intrinsic
curvature oracle."""

import math

import numpy as np
import pytest

from casorati.elliptic import jacobi_sd
from casorati.geometry import (
    RiemannTensor,
    SecondForm,
    frame_at,
    gauss_residual,
    intrinsic_riemann,
    intrinsic_tau,
    second_form,
)
from casorati.immersions import BoundaryProximityError, make_chart

HALF = 1.0 / math.sqrt(2.0)


class TestSecondFormType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SecondForm(3, 1, np.zeros((2, 3, 3)))

    def test_symmetry_validation(self):
        h = np.zeros((1, 3, 3))
        h[0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            SecondForm(3, 1, h)

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
        pos = c._position(x)
        cross = abs(float(fr.normal_frame[0] @ pos))
        assert cross == pytest.approx(1.5, abs=1e-10)

    def test_deterministic(self):
        c = make_chart("chen_ideal", {"a": 1.0})
        a = frame_at(c, [0.8, 0.3, 1.1])
        b = frame_at(c, [0.8, 0.3, 1.1])
        assert np.array_equal(a.tangent_frame, b.tangent_frame)
        assert np.array_equal(a.normal_frame, b.normal_frame)


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

    def test_boundary_stencil_guard(self):
        c = make_chart("chen_ideal", {"a": 1.0})
        with pytest.raises(BoundaryProximityError):
            intrinsic_riemann(c, [0.0015, 0.3, 1.1])


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
