"""Unit tests for the chart catalog, domain checks, and 2-jets."""

import math

import mpmath
import numpy as np
import pytest

from casorati.elliptic import complete_K
from casorati.immersions import (
    CATALOG_NAMES,
    MAX_SPHERE_N,
    DomainError,
    _numeric_d1,
    _numeric_jet,
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

    def test_unknown_params_named(self):
        with pytest.raises(ValueError, match=r"\['R', 'a'\].*\['c'\]"):
            make_chart("paraboloid", {"c": 1.0, "a": 2.0, "R": 3.0})

    def test_bad_jet_mode(self):
        with pytest.raises(ValueError):
            make_chart("paraboloid", jet_mode="symbolic")


class TestPositions:
    def test_sphere_radius(self):
        c = make_chart("hypersphere", {"R": 2.0, "n": 2})
        for x in ([0.7, 1.2], [1.1, 2.9], [2.2, 5.1]):
            pos = c.position(np.asarray(x, dtype=float))
            assert np.linalg.norm(pos) == pytest.approx(2.0, abs=1e-12)

    def test_chen_collapses_at_axis(self):
        c = make_chart("chen_ideal", {"a": 1.0})
        pos = c.position(np.array([1e-9, 0.3, 1.1]))
        assert np.linalg.norm(pos) < 1e-8

    def test_chen_height_matches_quadrature(self):
        # The height is half the integral of sd(a s, 1/sqrt 2)^2 over [0, t]:
        # mpmath's quadrature of mpmath's Jacobi functions, in panels split at
        # the quarter period K/a.
        K = complete_K(HALF)
        for a in (0.5, 1.0, 2.0):
            c = make_chart("chen_ideal", {"a": a})
            sd2 = lambda s: (mpmath.ellipfun("sn", a * s, m=0.5)
                             / mpmath.ellipfun("dn", a * s, m=0.5)) ** 2
            # Near the axis, inside and past the quarter period K/a, and near
            # the far end 2K/a of the profile.
            for t in (1e-3, 0.05, 0.9 / a, K / a, 1.3 * K / a, 2.0 * K / a - 1e-3):
                pos = c.position(np.array([t, 0.2, 0.4]))
                nodes = [0.0] + [K / a] * (t > K / a) + [t]
                with mpmath.workdps(25):
                    oracle = float(0.5 * mpmath.quad(sd2, nodes))
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


class TestJets:
    @pytest.mark.parametrize("name,params,x", [
        ("hypersphere", {"R": 1.3, "n": 3}, [0.7, 1.1, 2.3]),
        ("chen_ideal", {"a": 1.0}, [0.8, 0.3, 1.1]),
        ("flat_torus", {"r1": 1.0, "r2": 0.6}, [0.9, 2.1]),
        ("paraboloid", {"c": 0.8}, [0.3, -0.4]),
    ])
    def test_numeric_matches_analytic(self, name, params, x):
        x = np.asarray(x, dtype=float)
        ja = jet2(make_chart(name, params), x)
        jn = jet2(make_chart(name, params, jet_mode="numeric"), x)
        scale = 1.0 + np.abs(ja.d2).max()
        assert np.abs(ja.d1 - jn.d1).max() <= 1e-8
        assert np.abs(ja.d2 - jn.d2).max() <= 1e-5 * scale

    def test_d2_symmetry(self):
        for mode in ("analytic", "numeric"):
            c = make_chart("chen_ideal", {"a": 0.5}, jet_mode=mode)
            j = jet2(c, [1.2, -0.2, 2.0])
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
        x = np.array([0.4, 0.1, 0.9])
        ja = jet2(make_chart("chen_ideal", {"a": 2.0}), x)
        jn = jet2(make_chart("chen_ideal", {"a": 2.0}, jet_mode="numeric"), x)
        assert np.abs(ja.d2 - jn.d2).max() <= 1e-5


def mp_sphere_jet(R, x):
    """Position, first and second partials of the polar hypersphere chart,
    each coordinate differentiated by mpmath at 30 digits."""
    n = len(x)

    def coordinate(m):
        def f(*phi):
            v = mpmath.mpf(R)
            for j in range(m):
                v *= mpmath.sin(phi[j])
            return v * mpmath.cos(phi[m]) if m < n else v
        return f

    def partial(m, *axes):
        orders = [axes.count(a) for a in range(n)]
        return float(mpmath.diff(coordinate(m), [mpmath.mpf(v) for v in x], orders))

    with mpmath.workdps(30):
        pos = np.array([partial(m) for m in range(n + 1)])
        d1 = np.array([[partial(m, a) for m in range(n + 1)] for a in range(n)])
        d2 = np.array([[[partial(m, a, b) for m in range(n + 1)] for b in range(n)]
                       for a in range(n)])
    return pos, d1, d2


class TestHypersphere:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_jet_matches_mpmath(self, n):
        R = 1.7
        c = make_chart("hypersphere", {"R": R, "n": n})
        for x in interior_points(c, 3, n):
            jet = jet2(c, x)
            for got, want in zip((jet.position, jet.d1, jet.d2), mp_sphere_jet(R, x)):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-14 * R

    def test_identities_at_largest_n(self):
        # X . d_a X = 0 on the sphere, and its derivative X . d_a d_b X = -g_ab.
        # Near the equator, where the metric stays well conditioned.
        R, n = 1.3, MAX_SPHERE_N
        c = make_chart("hypersphere", {"R": R, "n": n})
        rng = np.random.default_rng(64)
        for x in 0.5 * math.pi + rng.uniform(-0.3, 0.3, (2, n)):
            jet = jet2(c, x)
            g = jet.d1 @ jet.d1.T
            assert np.abs(jet.d1 @ jet.position).max() <= 1e-14 * R * R
            assert np.abs(jet.d2 @ jet.position + g).max() <= 1e-14 * R * R
            assert np.array_equal(jet.d2, jet.d2.transpose(1, 0, 2))

    @pytest.mark.parametrize("n", [2, 3, 4, 16, MAX_SPHERE_N])
    def test_first_partials_are_stacked_one_point_d1(self, n):
        c = make_chart("hypersphere", {"R": 0.8, "n": n})
        X = interior_points(c, 9, n)
        got = first_partials(c, X)
        want = np.array([first_partials(c, x) for x in X])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# The scalar numeric 2-jet that the batched one replaced: one `position` call
# per shifted point. Kept as the reference the numeric jet must reproduce bit
# for bit, sign bits included.

def reference_shifted(position, x, deltas):
    y = x.copy()
    for j, d in deltas:
        y[j] += d
    return np.asarray(position(y), dtype=float)


def reference_numeric_jet(position, x):
    n = x.shape[0]
    f0 = np.asarray(position(x), dtype=float)
    h2 = np.finfo(float).eps ** 0.25 * np.maximum(1.0, np.abs(x))
    d2 = np.empty((n, n, f0.shape[0]))
    for j in range(n):
        h = h2[j]

        def pure(step):
            return (reference_shifted(position, x, [(j, step)]) - 2.0 * f0
                    + reference_shifted(position, x, [(j, -step)])) / step ** 2

        d2[j, j] = (4.0 * pure(0.5 * h) - pure(h)) / 3.0
        for i in range(j + 1, n):
            hi = h2[i]

            def cross(s):
                def f(a, b):
                    return reference_shifted(position, x, [(j, a * s * h), (i, b * s * hi)])
                return (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / (4.0 * s * s * h * hi)

            d2[j, i] = d2[i, j] = (4.0 * cross(0.5) - cross(1.0)) / 3.0
    return f0, d2


ALL_CHARTS = [
    ("hypersphere", {"R": 1.3, "n": 2}),
    ("hypersphere", {"R": 0.7, "n": 3}),
    ("hypersphere", {"R": 1.6, "n": 4}),
    ("chen_ideal", {"a": 1.0}),
    ("chen_ideal", {"a": 2.0}),
    ("flat_torus", {"r1": 1.0, "r2": 0.6}),
    ("paraboloid", {"c": 0.8}),
]


def interior_points(chart, count, seed):
    lo = np.array([b[0] for b in chart.domain])
    hi = np.array([b[1] for b in chart.domain])
    return lo + (hi - lo) * np.random.default_rng(seed).uniform(0.1, 0.9, (count, chart.n))


class TestChartInterface:
    @pytest.mark.parametrize("name,params", ALL_CHARTS)
    def test_numeric_jet_equals_scalar_reference(self, name, params):
        c = make_chart(name, params, jet_mode="numeric")
        X = interior_points(c, 12, 5)
        X[0, -1] = -0.0 if name == "paraboloid" else X[0, -1]
        for x in X:
            jet = jet2(c, x)
            f0, d2 = reference_numeric_jet(c.position, x)
            for got, want in ((jet.position, f0), (jet.d2, d2)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("name,params", ALL_CHARTS)
    def test_numeric_routines_call_position_once(self, name, params):
        # The stencils of a numeric jet or of first partials over G points
        # are one batch: 1 + 4n and 4n `position` calls before.
        c = make_chart(name, params, jet_mode="numeric")
        calls = []

        def position(y):
            calls.append(y.shape)
            return c.position(y)

        n, X = c.n, interior_points(c, 5, 8)
        _numeric_jet(position, X[0])
        # The d2 stencil with its centre, the d1 stencil and 8 cross points
        # per axis pair.
        assert calls == [(1 + 8 * n + 4 * n * (n - 1), n)]
        _numeric_d1(position, X)
        assert calls[1:] == [(5 * 4 * n, n)]

    @pytest.mark.parametrize("name,params", ALL_CHARTS)
    @pytest.mark.parametrize("mode", ["analytic", "numeric"])
    def test_jet_position_is_chart_position(self, name, params, mode):
        c = make_chart(name, params, jet_mode=mode)
        for x in interior_points(c, 12, 6):
            assert np.array_equal(jet2(c, x).position, c.position(x))

    def test_sphere_jet_position_at_many_points(self):
        c = make_chart("hypersphere", {"R": 1.7, "n": 4})
        for x in interior_points(c, 2000, 7):
            assert np.array_equal(jet2(c, x).position, c.position(x))

    def test_mode_fixed_at_construction(self):
        a = make_chart("paraboloid", {"c": 0.8})
        n = make_chart("paraboloid", {"c": 0.8}, jet_mode="numeric")
        x = np.array([0.3, -0.4])
        assert (a.jet_mode, n.jet_mode) == ("analytic", "numeric")
        assert not np.array_equal(first_partials(a, x), first_partials(n, x))
        with pytest.raises(TypeError):
            jet2(a, x, jet_mode="numeric")
