"""Unit tests for the chart catalog, domain checks, and 2-jets."""

import math

import numpy as np
import pytest

from casorati.elliptic import complete_K, integrate, jacobi_sd
from casorati.immersions import (
    CATALOG_NAMES,
    DomainError,
    IllConditionedPointError,
    domain_check,
    first_partials,
    jet2,
    make_chart,
)

HALF = 1.0 / math.sqrt(2.0)


class TestCatalog:
    def test_names(self):
        assert set(CATALOG_NAMES) == {
            "hypersphere", "chen_ideal", "flat_torus", "paraboloid"}

    def test_hypersphere_shape(self):
        c = make_chart("hypersphere", {"R": 1.0, "n": 3})
        assert (c.n, c.p) == (3, 1)
        assert c.ambient_dim == 4

    def test_chen_ideal_domain(self):
        c = make_chart("chen_ideal", {"a": 1.0})
        assert (c.n, c.p) == (3, 1)
        lo, hi = c.domain[0]
        assert hi == pytest.approx(2.0 * complete_K(HALF) - 1e-3, abs=1e-12)
        assert lo == pytest.approx(1e-3, abs=1e-12)

    def test_flat_torus_shape(self):
        c = make_chart("flat_torus", {"r1": 1.0, "r2": 1.0})
        assert (c.n, c.p) == (2, 2)

    def test_unknown_chart(self):
        with pytest.raises(ValueError):
            make_chart("mystery")

    def test_bad_params(self):
        with pytest.raises(ValueError):
            make_chart("hypersphere", {"R": -1.0})
        with pytest.raises(ValueError):
            make_chart("chen_ideal", {"a": 0.0})

    def test_bad_jet_mode(self):
        with pytest.raises(ValueError):
            make_chart("paraboloid", jet_mode="symbolic")


class TestPositions:
    def test_sphere_radius(self):
        c = make_chart("hypersphere", {"R": 2.0, "n": 2})
        for x in ([0.7, 1.2], [1.1, 2.9], [2.2, 5.1]):
            pos = c._position(np.asarray(x, dtype=float))
            assert np.linalg.norm(pos) == pytest.approx(2.0, abs=1e-12)

    def test_chen_collapses_at_axis(self):
        c = make_chart("chen_ideal", {"a": 1.0})
        pos = c._position(np.array([1e-9, 0.3, 1.1]))
        assert np.linalg.norm(pos) < 1e-8

    def test_chen_height_matches_quadrature(self):
        K = complete_K(HALF)
        for a in (0.5, 1.0, 2.0):
            c = make_chart("chen_ideal", {"a": a})
            # Near the axis, inside and past the quarter period K/a, and near
            # the far end 2K/a of the profile.
            for t in (1e-3, 0.05, 0.9 / a, K / a, 1.3 * K / a, 2.0 * K / a - 1e-3):
                pos = c._position(np.array([t, 0.2, 0.4]))
                oracle = 0.5 * integrate(lambda s: jacobi_sd(a * s, HALF) ** 2,
                                         0.0, t, tol=1e-12).value
                assert pos[-1] == pytest.approx(oracle, abs=1e-10), (a, t)


class TestDomainCheck:
    def test_sphere_interior(self):
        c = make_chart("hypersphere", {"R": 1.0, "n": 3})
        v = domain_check(c, [0.8, 1.0, 2.0])
        assert v.admissible
        assert v.distance_to_boundary > 0.0

    def test_chen_axis_singularity(self):
        c = make_chart("chen_ideal", {"a": 1.0})
        v = domain_check(c, [0.0, 0.3, 1.1])
        assert not v.admissible
        assert "axis" in v.reason

    def test_chen_far_endpoint(self):
        c = make_chart("chen_ideal", {"a": 1.0})
        v = domain_check(c, [2.0 * complete_K(HALF), 0.3, 1.1])
        assert not v.admissible
        assert "endpoint" in v.reason

    def test_wrong_dimension(self):
        c = make_chart("paraboloid")
        assert not domain_check(c, [0.1]).admissible

    def test_nonfinite_point(self):
        c = make_chart("chen_ideal", {"a": 1.0})
        for bad in (math.nan, math.inf, -math.inf):
            v = domain_check(c, [0.8, bad, 1.1])
            assert not v.admissible
            assert v.reason == "non-finite coordinate"

    def test_jet2_rejects_inadmissible(self):
        c = make_chart("chen_ideal", {"a": 1.0})
        with pytest.raises(DomainError):
            jet2(c, [0.0, 0.3, 1.1])

    def test_ill_conditioned_near_pole(self):
        c = make_chart("hypersphere", {"R": 1.0, "n": 3}, margin=1e-9)
        with pytest.raises(IllConditionedPointError):
            jet2(c, [1e-8, 1.0, 1.0])


class TestJets:
    @pytest.mark.parametrize("name,params,x", [
        ("hypersphere", {"R": 1.3, "n": 3}, [0.7, 1.1, 2.3]),
        ("chen_ideal", {"a": 1.0}, [0.8, 0.3, 1.1]),
        ("flat_torus", {"r1": 1.0, "r2": 0.6}, [0.9, 2.1]),
        ("paraboloid", {"c": 0.8}, [0.3, -0.4]),
    ])
    def test_numeric_matches_analytic(self, name, params, x):
        c = make_chart(name, params)
        x = np.asarray(x, dtype=float)
        ja = jet2(c, x, jet_mode="analytic")
        jn = jet2(c, x, jet_mode="numeric")
        scale = 1.0 + np.abs(ja.d2).max()
        assert np.abs(ja.d1 - jn.d1).max() <= 1e-8
        assert np.abs(ja.d2 - jn.d2).max() <= 1e-5 * scale

    def test_d2_symmetry(self):
        c = make_chart("chen_ideal", {"a": 0.5})
        for mode in ("analytic", "numeric"):
            j = jet2(c, [1.2, -0.2, 2.0], jet_mode=mode)
            assert np.abs(j.d2 - j.d2.transpose(1, 0, 2)).max() <= 1e-9

    def test_first_partials_fast_path(self):
        c = make_chart("chen_ideal", {"a": 1.0})
        x = np.array([0.8, 0.3, 1.1])
        d1 = first_partials(c, x)
        assert np.abs(d1 - jet2(c, x).d1).max() <= 1e-12

    @pytest.mark.parametrize("name,params,x", [
        ("hypersphere", {"R": 1.3, "n": 4}, [0.9, 1.4, 2.0, 0.7]),
        ("chen_ideal", {"a": 1.0}, [0.8, 0.3, 1.1]),
        ("flat_torus", {"r1": 1.0, "r2": 0.7}, [0.5, 1.7]),
        ("paraboloid", {"c": 0.6}, [0.2, -0.3]),
    ])
    def test_numeric_first_partials_are_jet_d1(self, name, params, x):
        c = make_chart(name, params, jet_mode="numeric")
        assert np.array_equal(first_partials(c, x), jet2(c, x).d1)

    def test_chen_generic_parameter(self):
        c = make_chart("chen_ideal", {"a": 2.0})
        x = np.array([0.4, 0.1, 0.9])
        ja = jet2(c, x, jet_mode="analytic")
        jn = jet2(c, x, jet_mode="numeric")
        assert np.abs(ja.d2 - jn.d2).max() <= 1e-5
