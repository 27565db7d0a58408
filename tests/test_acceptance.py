"""Acceptance suite: one test per headline property of the package.

Each test prints a single PASS/FAIL line with the measured worst case, then
asserts. The random corpora are seeded, so every run checks the same
instances.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from casorati.elliptic import complete_K, jacobi_elliptic, jacobi_sd
from casorati.geometry import (
    SecondForm,
    frame_at,
    intrinsic_riemann,
    intrinsic_tau,
    second_form,
)
from casorati.immersions import make_chart
from casorati.invariants import (
    extremize_hyperplane,
    inequality_report,
    inequality_reports,
    oprea_qp,
    qp_objective,
    ricci_values,
    sphere_grid,
    tau_from_h,
    weyl_norm,
)

HALF = 1.0 / math.sqrt(2.0)
COMBOS = [(n, p) for n in range(3, 7) for p in range(1, 4)]


def report_line(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_corpus(seed=20240601, per_combo=8334):
    """Seeded corpus of symmetric second-form batches, grouped by (n, p)."""
    rng = np.random.default_rng(seed)
    corpus = {}
    for n, p in COMBOS:
        h = rng.uniform(-1.0, 1.0, (per_combo, p, n, n))
        h = 0.5 * (h + h.transpose(0, 1, 3, 2))
        u = rng.normal(size=(per_combo, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        corpus[(n, p)] = (h, u)
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return random_corpus()


def batch_scalars(h):
    """Per-instance C, n^2 |H|^2, and squared Frobenius norm for (B,p,n,n)."""
    n = h.shape[2]
    tr2 = np.einsum("brij,brij->b", h, h)
    tr = np.einsum("brii->br", h)
    return tr2 / n, np.einsum("br,br->b", tr, tr), tr2


def batch_hyperplane(h, u):
    """(n-1) C(u-perp) for matched batches of forms and unit vectors."""
    tr2 = np.einsum("brij,brij->b", h, h)
    hu = np.einsum("brij,bj->bri", h, u)
    quad = np.einsum("bri,bi->br", hu, u)
    return (tr2 - 2.0 * np.einsum("bri,bri->b", hu, hu)
            + np.einsum("br,br->b", quad, quad))


def test_01_proof_polynomial_nonnegative(corpus):
    t0 = time.time()
    worst = math.inf
    count = 0
    for (n, p), (h, u) in corpus.items():
        C, n2H2, tr2 = batch_scalars(h)
        CL = batch_hyperplane(h, u) / (n - 1.0)
        P = (2.0 * n * (n - 1.0) * C + 0.5 * (n - 1.0) * (1.0 - 2.0 * n) * CL
             + n * C - n2H2)
        Q = (0.5 * n * (n - 1.0) * C + 0.5 * (n - 1.0) * (n + 1.0) * CL
             + n * C - n2H2)
        bound = -1e-9 * (1.0 + tr2 ** 2)
        margin = np.minimum(P, Q) - bound
        worst = min(worst, float(margin.min()))
        count += h.shape[0]
    dt = time.time() - t0
    ok = worst >= 0.0 and dt < 30.0
    report_line("criterion 1 (proof-polynomial nonnegativity)", ok,
                f"{count} instances, worst margin {worst:.3e}, {dt:.1f}s")


def test_02_inequality_slacks_nonnegative(corpus):
    t0 = time.time()
    worst = math.inf
    count = 0
    for (n, p), (h, _) in corpus.items():
        C, n2H2, _ = batch_scalars(h)
        reports = inequality_reports([(SecondForm(n, p, x), 0.0) for x in h])
        inf_cl = np.array([rep.infCL.value for rep in reports])
        sup_cl = np.array([rep.supCL.value for rep in reports])
        tau = 0.5 * (n2H2 - n * C)
        rho = 2.0 * tau / (n * (n - 1.0))
        delta_hat = 2.0 * C - (2.0 * n - 1.0) / (2.0 * n) * sup_cl
        delta_c = 0.5 * C + (n + 1.0) / (2.0 * n) * inf_cl
        worst = min(worst, float((delta_hat - rho).min()),
                    float((delta_c - rho).min()))
        count += h.shape[0]
    dt = time.time() - t0
    ok = worst >= -1e-8 and dt < 120.0
    report_line("criterion 2 (inequality slacks)", ok,
                f"{count} instances, worst slack {worst:.3e}, {dt:.1f}s")


def test_03_equality_case_golden_values():
    t0 = time.time()
    worst = 0.0
    kinds_ok = True
    for n in range(3, 7):
        for lam in (0.1, 1.0, 10.0):
            ideal41 = np.diag([lam] * (n - 1) + [2.0 * lam])[None]
            rep = inequality_report(SecondForm(n, 1, ideal41), 0.0)
            worst = max(worst, abs(rep.slack41))
            kinds_ok &= rep.classification.kind == "Ideal41"
            ideal11 = np.diag([2.0 * lam] * (n - 1) + [lam])[None]
            rep = inequality_report(SecondForm(n, 1, ideal11), 0.0)
            worst = max(worst, abs(rep.slack11))
            kinds_ok &= rep.classification.kind == "Ideal11"
    dt = time.time() - t0
    ok = worst <= 1e-10 and kinds_ok and dt < 1.0
    report_line("criterion 3 (equality-case golden values)", ok,
                f"24 cases, worst |slack| {worst:.3e}, {dt:.2f}s")


def test_04_sphere_golden_values():
    t0 = time.time()
    worst_syn = worst_num = 0.0
    for R in (0.5, 1.0, 2.0):
        syn = SecondForm(3, 1, (np.eye(3) / R)[None])
        rep = inequality_report(syn, 0.0)
        worst_syn = max(worst_syn,
                        abs(rep.rho - 1.0 / R ** 2),
                        abs(rep.C - 1.0 / R ** 2),
                        abs(rep.delta_C - 7.0 / (6.0 * R ** 2)),
                        abs(rep.slack41 - 1.0 / (6.0 * R ** 2)))
        chart = make_chart("hypersphere", {"R": R, "n": 3},
                           jet_mode="numeric")
        x = np.array([0.9, 1.2, 2.0])
        sf = second_form(chart, x, frame_at(chart, x))
        rep = inequality_report(sf, 0.0, classify_tol=1e-4)
        worst_num = max(worst_num,
                        abs(rep.rho - 1.0 / R ** 2),
                        abs(rep.C - 1.0 / R ** 2),
                        abs(rep.delta_C - 7.0 / (6.0 * R ** 2)),
                        abs(rep.slack41 - 1.0 / (6.0 * R ** 2)))
    dt = time.time() - t0
    ok = worst_syn <= 1e-8 and worst_num <= 1e-5 and dt < 5.0
    report_line("criterion 4 (sphere golden values)", ok,
                f"synthetic worst {worst_syn:.3e}, numeric worst "
                f"{worst_num:.3e}, {dt:.1f}s")


def test_05_rotational_ideal_hypersurface():
    t0 = time.time()
    worst_eig_a = worst_eig_n = worst_slack = 0.0
    kinds_ok = True
    samples = 0
    rng = np.random.default_rng(7)
    for a in (0.5, 1.0, 2.0):
        chart = make_chart("chen_ideal", {"a": a})
        chart_num = make_chart("chen_ideal", {"a": a}, jet_mode="numeric")
        lo, hi = chart.domain[0]
        ts = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 17)
        for i, t in enumerate(ts):
            u = float(rng.uniform(-1.2, 1.2))
            v = float(rng.uniform(0.3, 5.9))
            x = np.array([t, u, v])
            lam = 0.5 * a * jacobi_sd(a * t, HALF)
            target = np.array([lam, lam, 2.0 * lam])

            sf = second_form(chart, x, frame_at(chart, x))
            eigs = np.sort(np.abs(np.linalg.eigvalsh(sf.h[0])))
            worst_eig_a = max(worst_eig_a, float(np.abs(eigs - target).max()))
            rep = inequality_report(sf, 0.0, classify_tol=1e-6)
            worst_slack = max(worst_slack, rep.slack41)
            kinds_ok &= rep.classification.kind == "Ideal41"
            samples += 1

            if i % 6 == 0:
                sfn = second_form(chart_num, x, frame_at(chart_num, x))
                eign = np.sort(np.abs(np.linalg.eigvalsh(sfn.h[0])))
                worst_eig_n = max(worst_eig_n,
                                  float(np.abs(eign - target).max()))
    dt = time.time() - t0
    ok = (samples >= 50 and worst_eig_a <= 1e-6 and worst_eig_n <= 1e-4
          and worst_slack <= 1e-6 and kinds_ok and dt < 10.0)
    report_line("criterion 5 (rotational ideal hypersurface)", ok,
                f"{samples} samples, eig err {worst_eig_a:.2e} analytic / "
                f"{worst_eig_n:.2e} numeric, worst slack {worst_slack:.2e}, "
                f"{dt:.1f}s")


def test_06_gauss_cross_oracle():
    t0 = time.time()
    grids = [
        ("hypersphere", {"R": 1.5, "n": 3},
         [[0.6, 1.1, 1.6], [0.7, 1.3, 1.9], [1.0, 2.5, 4.0]]),
        ("flat_torus", {"r1": 1.0, "r2": 0.7},
         [[0.3, 1.5, 3.0], [0.4, 2.0, 4.4]]),
        ("paraboloid", {"c": 0.5},
         [[-0.7, 0.1, 0.8], [-0.5, 0.3, 0.7]]),
        ("chen_ideal", {"a": 1.0},
         [[0.5, 1.0, 1.8], [-0.6, 0.0, 0.7], [0.8, 2.0, 4.0]]),
    ]
    worst = 0.0
    count = 0
    for name, params, axes in grids:
        chart = make_chart(name, params)
        for pt in itertools.product(*axes):
            x = np.array(pt)
            tau_int = intrinsic_tau(intrinsic_riemann(chart, x))
            sf = second_form(chart, x, frame_at(chart, x))
            tau_ext = tau_from_h(sf, 0.0)
            worst = max(worst,
                        abs(tau_int - tau_ext) / max(1.0, abs(tau_ext)))
            count += 1
    dt = time.time() - t0
    ok = worst <= 1e-5 and dt < 30.0
    report_line("criterion 6 (Gauss cross-oracle)", ok,
                f"{count} grid points over 4 charts, worst relative "
                f"gap {worst:.3e}, {dt:.1f}s")


def test_07_trace_constrained_qp():
    t0 = time.time()
    rng = np.random.default_rng(20240607)
    worst_match = worst_value = worst_eig = 0.0
    eig_ok = True
    for _ in range(100):
        variant = "P" if rng.random() < 0.5 else "Q"
        n = int(rng.integers(3, 8))
        k = float(rng.uniform(-5.0, 5.0))
        sol = oprea_qp(variant, n, k)

        # Independent oracle 1: bordered first-order system of the
        # constrained quadratic, assembled from finite differences of the
        # objective (no shared code with the closed form).
        # The objective is exactly quadratic, so a unit-step central second
        # difference recovers the Hessian to rounding error.
        e = np.eye(n)
        step = 1.0
        H = np.empty((n, n))
        for j in range(n):
            H[:, j] = np.array([
                (qp_objective(variant, step * (e[i] + e[j]))
                 - qp_objective(variant, step * (e[i] - e[j]))
                 - qp_objective(variant, step * (-e[i] + e[j]))
                 + qp_objective(variant, step * (-e[i] - e[j])))
                for i in range(n)]) / (4.0 * step ** 2)
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = H
        kkt[:n, n] = 1.0
        kkt[n, :n] = 1.0
        rhs = np.zeros(n + 1)
        rhs[n] = k
        x_star = np.linalg.solve(kkt, rhs)[:n]
        worst_match = max(worst_match, float(np.abs(sol.point - x_star).max()))

        # Independent oracle 2: generic SLSQP minimizer from a random start.
        # ftol is the smallest change in f that SLSQP must certify before it
        # stops. Below double resolution (eps ~ 2.2e-16) it cannot do so
        # reliably once it sits at f* = 0, and reports success=False at the
        # minimum; 1e-14 is attainable and far inside the 1e-8 oracle gap.
        res = minimize(lambda x: qp_objective(variant, x),
                       rng.normal(size=n), method="SLSQP",
                       constraints=[{"type": "eq",
                                     "fun": lambda x: np.sum(x) - k}],
                       options={"ftol": 1e-14, "maxiter": 1000})
        assert res.success, (f"SLSQP oracle failed on variant={variant}, "
                             f"n={n}, k={k!r}: {res.message}")
        worst_match = max(worst_match, abs(float(res.fun) - sol.value))

        worst_value = max(worst_value, abs(sol.value))
        eig_ok &= sol.min_restricted_hessian_eig >= 0.0
        if variant == "P":
            worst_eig = max(worst_eig,
                            abs(sol.min_restricted_hessian_eig - (2 * n - 1)))
    dt = time.time() - t0
    ok = (worst_match <= 1e-8 and worst_value <= 1e-12 and eig_ok
          and worst_eig <= 1e-10 and dt < 5.0)
    report_line("criterion 7 (trace-constrained QP)", ok,
                f"100 instances, oracle gap {worst_match:.2e}, value "
                f"{worst_value:.2e}, P-eig gap {worst_eig:.2e}, {dt:.1f}s")


def test_08_ricci_einstein():
    t0 = time.time()
    worst = 0.0
    einstein_ok = True
    for n in range(3, 7):
        for a in (0.0, 0.5, 1.0):
            for ct in (-1.0, 0.0, 1.0):
                h = np.diag([2.0 * a] * (n - 1) + [a])[None]
                sf = SecondForm(n, 1, h)
                ric = np.sort(ricci_values(sf, ct))
                small = (n - 1) * ct + 2.0 * (n - 1) * a ** 2
                big = (n - 1) * ct + 2.0 * (2 * n - 3) * a ** 2
                expected = np.sort(np.array([big] * (n - 1) + [small]))
                worst = max(worst, float(np.abs(ric - expected).max()))
                spread = float(ric.max() - ric.min())
                einstein_ok &= (spread <= 1e-12) == (a == 0.0)
    dt = time.time() - t0
    ok = worst <= 1e-12 and einstein_ok and dt < 1.0
    report_line("criterion 8 (Ricci/Einstein golden values)", ok,
                f"36 cases, worst Ricci gap {worst:.2e}, Einstein iff "
                f"umbilic-free parameter vanishes: {einstein_ok}, {dt:.2f}s")


def test_09_conformal_flatness():
    t0 = time.time()
    worst_ideal = 0.0
    for a in (0.0, 0.5, 1.0, 2.0):
        for ct in (-1.0, 0.0, 1.0):
            sf = SecondForm(4, 1, np.diag([2 * a, 2 * a, 2 * a, a])[None])
            worst_ideal = max(worst_ideal, weyl_norm(sf, ct))
    generic = weyl_norm(SecondForm(4, 1, np.diag([1.0, 2.0, 3.0, 4.0])[None]),
                        0.0)
    dt = time.time() - t0
    ok = worst_ideal <= 1e-9 and generic > 0.01 and dt < 1.0
    report_line("criterion 9 (conformal flatness)", ok,
                f"ideal family worst Weyl {worst_ideal:.2e}, generic "
                f"Weyl {generic:.3f}, {dt:.2f}s")


def test_10_elliptic_engine():
    t0 = time.time()
    rng = np.random.default_rng(10)
    worst_id = 0.0
    for _ in range(10000):
        u = float(rng.uniform(-40.0, 40.0))
        k = float(rng.uniform(0.0, 0.999))
        tr = jacobi_elliptic(u, k)
        worst_id = max(worst_id,
                       abs(tr.sn ** 2 + tr.cn ** 2 - 1.0),
                       abs((k * tr.sn) ** 2 + tr.dn ** 2 - 1.0))
    worst_circ = max(abs(jacobi_elliptic(u, 0.0).sn - math.sin(u))
                     for u in np.linspace(-20.0, 20.0, 101))
    sd_gap = abs(jacobi_sd(complete_K(HALF), HALF) - math.sqrt(2.0))
    # Unit-speed identity of the rotational profile (r(t), z(t)) with
    # r = (1/a) sd(a t) and z' = sd(a t)^2 / 2 at the self-dual modulus.
    worst_speed = 0.0
    for a in (0.5, 1.0, 2.0):
        for t in np.linspace(0.05, 2.0 * complete_K(HALF) / a - 0.05, 40):
            tr = jacobi_elliptic(a * t, HALF)
            rprime = tr.cn / tr.dn ** 2
            zprime = 0.5 * (tr.sn / tr.dn) ** 2
            worst_speed = max(worst_speed,
                              abs(rprime ** 2 + zprime ** 2 - 1.0))
    dt = time.time() - t0
    ok = (worst_id <= 1e-11 and worst_circ <= 1e-12 and sd_gap <= 1e-10
          and worst_speed <= 1e-9 and dt < 5.0)
    report_line("criterion 10 (elliptic engine)", ok,
                f"identities {worst_id:.2e}, circular {worst_circ:.2e}, "
                f"sd(K) {sd_gap:.2e}, unit speed {worst_speed:.2e}, {dt:.1f}s")


def test_11_extremizer_vs_dense_oracle():
    t0 = time.time()
    rng = np.random.default_rng(11)
    U = sphere_grid(3, 10 ** 6)

    def dense_values(h, pts):
        tr2 = float((h * h).sum())
        S = np.einsum("rij,rjk->ik", h, h)
        quad = np.einsum("rij,gi,gj->rg", h, pts, pts)
        return (tr2 - 2.0 * np.einsum("gi,ik,gk->g", pts, S, pts)
                + (quad ** 2).sum(axis=0))

    def dense_oracle(h, mode):
        # Dense-sphere pass, then a dense tangent-plane zoom around the best
        # node; purely grid-based, no use of the refinement code under test.
        sign = 1.0 if mode == "inf" else -1.0
        vals = dense_values(h, U)
        i = int(np.argmin(sign * vals))
        u0 = U[i]
        Q, _ = np.linalg.qr(np.column_stack([u0, np.eye(3)]))
        s = np.linspace(-5e-3, 5e-3, 401)
        da, db = np.meshgrid(s, s, indexing="ij")
        pts = (u0[None, :] + da.ravel()[:, None] * Q[:, 1]
               + db.ravel()[:, None] * Q[:, 2])
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        vloc = dense_values(h, pts)
        best = min(vals[i], vloc.min()) if mode == "inf" else \
            max(vals[i], vloc.max())
        return best / 2.0

    worst = 0.0
    for _ in range(100):
        h = rng.uniform(-1.0, 1.0, (1, 3, 3))
        h = 0.5 * (h + h.transpose(0, 2, 1))
        sf = SecondForm(3, 1, h)
        for mode in ("inf", "sup"):
            ours = extremize_hyperplane(sf, mode).value
            worst = max(worst, abs(ours - dense_oracle(h, mode)))
    dt = time.time() - t0
    ok = worst <= 1e-6 and dt < 120.0
    report_line("criterion 11 (extremizer vs dense oracle)", ok,
                f"100 instances x 2 modes, worst gap {worst:.3e}, {dt:.1f}s")
