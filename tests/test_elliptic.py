"""Unit tests for the elliptic-function and quadrature engine.

mpmath serves as the high-precision oracle for the Jacobi functions, the
complete integral and the closed-form integral of sd^2; the quadrature oracle
is a fine fixed-step Simpson rule.
"""

import math

import mpmath
import numpy as np
import pytest

from casorati.elliptic import (
    QuadratureError,
    _descend,
    _jacobi_sd_squared_integral,
    complete_K,
    integrate,
    jacobi_elliptic,
    jacobi_sd,
    sd_squared_integral,
)

mpmath.mp.dps = 40

HALF = 1.0 / math.sqrt(2.0)


def mp_triple(u, k):
    m = mpmath.mpf(k) ** 2
    return (float(mpmath.ellipfun("sn", u, m=m)),
            float(mpmath.ellipfun("cn", u, m=m)),
            float(mpmath.ellipfun("dn", u, m=m)))


def fixed_simpson(f, a, b, panels=20000):
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / (2 * panels)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


# The kernel as it was when K and the Landen table came from two AGM loops
# with different stop rules, frozen: the one shared sequence must give the
# same K, sn, cn, dn, zeta, table and integral of sd^2, bit for bit.
FROZEN_EPS = 2.220446049250313e-16


def frozen_agm(a, b):
    for _ in range(60):
        if abs(a - b) <= 4.0 * FROZEN_EPS * abs(a):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def frozen_complete_K(k):
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    return math.pi / (2.0 * frozen_agm(1.0, kp))


def frozen_descend(u, k):
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    K = math.pi / (2.0 * frozen_agm(1.0, kp))
    ured = u - 4.0 * K * math.floor(u / (4.0 * K) + 0.5)
    a = [1.0]
    b = [kp]
    c = [k]
    while c[-1] > 4.0 * FROZEN_EPS and len(a) < 60:
        an = 0.5 * (a[-1] + b[-1])
        bn = math.sqrt(a[-1] * b[-1])
        cn_ = 0.5 * (a[-1] - b[-1])
        a.append(an)
        b.append(bn)
        c.append(cn_)
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
    dn = math.sqrt(max(kp * kp, 1.0 - (k * sn) * (k * sn)))
    return sn, cn, dn, zeta, c


def frozen_sd_squared_integral(u, k):
    sn, cn, dn, zeta, c = frozen_descend(u, k)
    e_over_k = 1.0 - 0.5 * sum(2.0 ** n * cj * cj for n, cj in enumerate(c))
    epsilon = zeta + e_over_k * u
    k2 = k * k
    kp2 = (1.0 - k) * (1.0 + k)
    return (epsilon - kp2 * u - k2 * sn * cn / dn) / (k2 * kp2)


def bits(*values):
    """Exact spellings: float.hex tells -0.0 from 0.0."""
    return [float(v).hex() for v in values]


def frozen_corpus():
    """Seeded (u, k) pairs: the special moduli, uniform moduli, moduli near 0
    and near 1; at each, u = +-0, multiples of K and uniform arguments."""
    rng = np.random.default_rng(23)
    ks = ([0.0, 1e-14, HALF, 1.0 - 1e-12] + list(rng.uniform(0.0, 1.0, 150))
          + list(1.0 - 10.0 ** -rng.uniform(1.0, 15.0, 50))
          + list(10.0 ** -rng.uniform(1.0, 15.0, 30)))
    for k in ks:
        K = frozen_complete_K(float(k))
        for u in [0.0, -0.0, K, -2.0 * K, 3.5 * K, *rng.uniform(-60.0, 60.0, 8)]:
            yield float(u), float(k)


class TestFrozenKernel:
    def test_complete_K(self):
        rng = np.random.default_rng(5)
        for k in [0.0, 1e-14, HALF, 1.0 - 1e-12, *rng.uniform(0.0, 1.0, 2000),
                  *(1.0 - 10.0 ** -rng.uniform(1.0, 15.0, 500))]:
            assert bits(complete_K(float(k))) == bits(frozen_complete_K(float(k))), k

    def test_descend_and_public_values(self):
        for u, k in frozen_corpus():
            sn, cn, dn, zeta, c = frozen_descend(u, k)
            got = _descend(u, k)
            assert bits(*got[:4]) + bits(*got[4]) == (
                bits(sn, cn, dn, zeta) + bits(*c)), (u, k)
            if k >= 1e-14:  # below, the public functions take the circular limit
                t = jacobi_elliptic(u, k)
                assert bits(t.sn, t.cn, t.dn, sd_squared_integral(u, k)) == bits(
                    sn, cn, dn, frozen_sd_squared_integral(u, k)), (u, k)


class TestJacobiElliptic:
    def test_origin(self):
        for k in (0.0, 0.3, HALF, 0.95):
            t = jacobi_elliptic(0.0, k)
            assert t.sn == 0.0
            assert t.cn == 1.0
            assert t.dn == 1.0

    def test_degenerate_modulus_is_circular(self):
        for u in np.linspace(-15.0, 15.0, 61):
            t = jacobi_elliptic(u, 0.0)
            assert t.sn == pytest.approx(math.sin(u), abs=1e-12)
            assert t.cn == pytest.approx(math.cos(u), abs=1e-12)
            assert t.dn == pytest.approx(1.0, abs=1e-12)

    def test_quarter_period(self):
        for k in (0.2, HALF, 0.9):
            K = complete_K(k)
            t = jacobi_elliptic(K, k)
            assert t.sn == pytest.approx(1.0, abs=1e-12)
            assert t.dn == pytest.approx(math.sqrt(1.0 - k * k), abs=1e-12)

    def test_against_mpmath(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = float(rng.uniform(-40.0, 40.0))
            k = float(rng.uniform(0.0, 0.97))
            t = jacobi_elliptic(u, k)
            sn, cn, dn = mp_triple(u, k)
            assert t.sn == pytest.approx(sn, abs=2e-13)
            assert t.cn == pytest.approx(cn, abs=2e-13)
            assert t.dn == pytest.approx(dn, abs=2e-13)

    def test_pythagorean_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            u = float(rng.uniform(-30.0, 30.0))
            k = float(rng.uniform(0.0, 0.999))
            t = jacobi_elliptic(u, k)
            assert t.sn ** 2 + t.cn ** 2 == pytest.approx(1.0, abs=1e-12)
            assert (k * t.sn) ** 2 + t.dn ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            jacobi_elliptic(1.0, 1.0)
        with pytest.raises(ValueError):
            jacobi_elliptic(1.0, -0.1)


class TestJacobiSd:
    def test_zero(self):
        assert jacobi_sd(0.0, HALF) == 0.0

    def test_quarter_period_value(self):
        assert jacobi_sd(complete_K(HALF), HALF) == pytest.approx(
            math.sqrt(2.0), abs=1e-12)

    def test_degenerate_modulus(self):
        for u in (0.1, 1.0, -2.5):
            assert jacobi_sd(u, 0.0) == pytest.approx(math.sin(u), abs=1e-13)


class TestSdSquaredIntegral:
    @staticmethod
    def mp_integral(u, k):
        m = mpmath.mpf(k) ** 2
        K = mpmath.ellipk(m)
        sd2 = lambda w: (mpmath.ellipfun("sn", w, m=m)
                         / mpmath.ellipfun("dn", w, m=m)) ** 2
        # Split at the quarter periods so each panel is smooth and short.
        nodes = [mpmath.mpf(0)] + [j * K for j in range(1, int(abs(u) / K) + 1)]
        with mpmath.workdps(20):
            value = mpmath.quad(sd2, nodes + [abs(u)])
        return float(value if u >= 0 else -value)

    def test_against_mpmath(self):
        for k in (0.3, HALF, 0.9):
            K = complete_K(k)
            for u in (1e-6, 0.9, 1.5 * K, 2.0 * K, 5.3 * K, -2.6 * K):
                assert sd_squared_integral(u, k) == pytest.approx(
                    self.mp_integral(u, k), abs=1e-12), (k, u)

    def test_degenerate_modulus_is_circular(self):
        for u in (0.1, 1.0, -2.5):
            assert sd_squared_integral(u, 0.0) == pytest.approx(
                0.5 * u - 0.25 * math.sin(2.0 * u), abs=1e-15)

    def test_shared_sweep_is_bit_identical(self):
        # The chen_ideal chart takes sn, cn, dn and the integral from one
        # Landen sweep; each must equal the public function's value exactly.
        for k in (1e-14, 0.3, HALF, 0.999):
            for u in np.linspace(-25.0, 25.0, 301):
                u = float(u)
                tr = jacobi_elliptic(u, k)
                assert _jacobi_sd_squared_integral(u, k) == (
                    tr.sn, tr.cn, tr.dn, sd_squared_integral(u, k)), (u, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            sd_squared_integral(1.0, 1.0)
        with pytest.raises(ValueError):
            sd_squared_integral(float("nan"), HALF)


class TestCompleteK:
    def test_circular_limit(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_agm_oracle(self):
        for k in (0.5, HALF, 0.1, 0.9, 0.99):
            oracle = float(mpmath.ellipk(mpmath.mpf(k) ** 2))
            assert complete_K(k) == pytest.approx(oracle, abs=1e-12)


class TestIntegrate:
    def test_constant(self):
        res = integrate(lambda x: 1.0, 0.0, 1.0, tol=1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-13)

    def test_empty_interval(self):
        res = integrate(lambda x: math.exp(x), 0.7, 0.7)
        assert res.value == 0.0
        assert res.evaluations == 0

    def test_sd_squared_against_fixed_step(self):
        f = lambda s: jacobi_sd(s, HALF) ** 2
        res = integrate(f, 0.0, 1.0, tol=1e-11)
        oracle = fixed_simpson(f, 0.0, 1.0)
        assert res.value == pytest.approx(oracle, abs=1e-9)
        assert res.error_estimate <= 1e-10

    def test_deterministic(self):
        f = lambda s: math.cos(3.0 * s) ** 2
        a = integrate(f, 0.0, 2.0, tol=1e-10)
        b = integrate(f, 0.0, 2.0, tol=1e-10)
        assert a.value == b.value
        assert a.evaluations == b.evaluations

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: math.inf if x == 0.0 else 1.0 / x,
                      -1.0, 1.0, tol=1e-12)

    def test_depth_limit_raises(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: math.sqrt(abs(x)), -1.0, 1.0,
                      tol=1e-13, max_depth=3)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, 1.0, tol=0.0)
