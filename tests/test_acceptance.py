"""Release acceptance gate: every criterion runs at its pinned tolerance and
prints one PASS/FAIL line.

Two sub-criteria (marked strict-xfail below) are mathematically unattainable
as stated: the even-branch deviation at alpha = -0.1, delta = 1e-4 is
3.2e-3..5.3e-3 (its own leading correction formula), not below 1e-3.  The
failures are real and expected; see the decisions ledger for the analysis.
"""

import math
import time

import numpy as np
import pytest

from conftest import one_sided_derivative
from pseudoharm import asymptotics, matmech, regspec
from pseudoharm.eigensolver import eigh_lowest
from pseudoharm.quadrature import integrate, integrate_to_infinity
from pseudoharm.specfun import laguerre, sine_integral, tricomi_u
from pseudoharm.specfun.hyper import _u_connection, _u_large_a
from pseudoharm.unreg import PotentialSpec, make_label, nu_of_alpha, unreg_energy


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {tag} {detail}")
    return ok


TABLE1_TRICOMI = {
    -0.25: -11295.301683, -0.20: -8056.826663, -0.15: -5149.852852,
    -0.10: -2679.724708, -0.05: -828.4898894,
}
TABLE1_C0_SC = {
    -0.25: -11295.30170, -0.20: -8056.826665, -0.15: -5149.852880,
    -0.10: -2679.724730, -0.05: -828.4900235,
}
TABLE1_C0_CF = {
    -0.25: -11862.24636, -0.20: -8353.544755, -0.15: -5274.934465,
    -0.10: -2714.801773, -0.05: -831.9802335,
}


def test_criterion_1_ground_state_table_transcendental():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha, ref in TABLE1_TRICOMI.items():
        sol = regspec.solve_ground_even(PotentialSpec(alpha, 0.002))
        worst = max(worst, abs(sol.energy - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    assert report(1, ok, f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_ground_state_table_c0_estimates():
    t0 = time.perf_counter()
    worst_sc = max(
        abs(asymptotics.ground_state_energy_estimate(a, 0.002) - r) / abs(r)
        for a, r in TABLE1_C0_SC.items())
    worst_cf = max(
        abs(asymptotics.ground_state_energy_estimate(a, 0.002, "closed_form")
            - r) / abs(r)
        for a, r in TABLE1_C0_CF.items())
    elapsed = time.perf_counter() - t0
    ok = worst_sc < 1e-6 and worst_cf < 1e-6 and elapsed < 1.0
    assert report(2, ok, f"sc {worst_sc:.2e}, cf {worst_cf:.2e}, {elapsed:.2f}s")


def test_criterion_3_matrix_mechanics_cross_check():
    ref = TABLE1_TRICOMI[-0.05]
    rho = 5.0
    eps = matmech.epsilon_from_delta(0.002, rho)
    vals = {}
    desk_time = None
    for n_max in (1000, 2000, 4000):
        t0 = time.perf_counter()
        model = matmech.assemble(-0.05, rho, eps, n_max)
        v, _ = matmech.ground_state(model, want_vectors=False)
        vals[n_max] = v[0] / rho
        if n_max == 2000:
            desk_time = time.perf_counter() - t0
    monotone = vals[1000] > vals[2000] > vals[4000]
    landed = abs(vals[4000] - ref) / abs(ref) < 1e-2
    ok = monotone and landed and desk_time < 120.0
    assert report(3, ok, f"E(4000)={vals[4000]:.4f} vs {ref}, "
                         f"desk {desk_time:.0f}s")


def test_criterion_3_long_reference_value():
    rho = 5.0
    eps = matmech.epsilon_from_delta(0.002, rho)
    model = matmech.assemble(-0.05, rho, eps, 10000)
    v, _ = matmech.ground_state(model, want_vectors=False)
    got = v[0] / rho
    ok = abs(got - (-828.489881)) / 828.489881 < 1e-5
    assert report("3-long", ok, f"E={got:.6f}")


def test_criterion_4_c0_endpoint_values():
    sc = 4.0 * asymptotics.c0_self_consistent(-0.25)
    cf = 4.0 * asymptotics.c0_closed_form(-0.25)
    ok = abs(sc - 0.0904) < 5e-4 and abs(cf - 0.0949) < 5e-4
    assert report(4, ok, f"4c0 sc={sc:.5f}, cf={cf:.5f}")


def _criterion_5_data():
    out = []
    for alpha in (0.1, -0.1):
        nu = nu_of_alpha(alpha)
        for parity in ("even", "odd"):
            for n in (0, 1, 2):
                row = {"alpha": alpha, "parity": parity, "n": n}
                for delta in (1e-3, 1e-4):
                    spec = PotentialSpec(alpha, delta)
                    sol = regspec.solve_excited(spec, parity, n)
                    lbl = make_label(alpha, parity, n)
                    eps = asymptotics.epsilon_n(spec, parity,
                                                lbl.n_display)
                    row[delta] = (sol.kappa - (2.0 * n + nu), 2.0 * eps)
                out.append(row)
    return out


def test_criterion_5_unregularized_limit_ratio():
    rows = _criterion_5_data()
    worst = 0.0
    for row in rows:
        for delta in (1e-3, 1e-4):
            dev, corr = row[delta]
            ratio = dev / corr
            worst = max(worst, abs(ratio - 1.0))
            assert 0.9 <= ratio <= 1.1, (row, delta, ratio)
    assert report("5 (ratio)", True, f"max |ratio-1| = {worst:.3f}")


def test_criterion_5_unregularized_limit_deviation_bound():
    rows = _criterion_5_data()
    devs = {(r["alpha"], r["parity"], r["n"]): abs(r[1e-4][0]) for r in rows}
    attainable = {k: v for k, v in devs.items()
                  if not (k[0] < 0 and k[1] == "even")}
    ok = all(v < 1e-3 for v in attainable.values())
    assert report("5 (odd & repulsive dev)", ok,
                  f"max {max(attainable.values()):.2e}")
    assert ok


@pytest.mark.xfail(strict=True,
                   reason="even-branch deviation at alpha=-0.1, delta=1e-4 "
                          "is 3.2e-3..5.3e-3 by its own leading correction; "
                          "the 1e-3 bound is unattainable (see ledger)")
def test_criterion_5_even_attractive_deviation_bound():
    rows = _criterion_5_data()
    devs = [abs(r[1e-4][0]) for r in rows
            if r["alpha"] < 0 and r["parity"] == "even"]
    ok = all(d < 1e-3 for d in devs)
    report("5 (even attractive dev)", ok, f"max {max(devs):.2e}")
    assert ok


def test_criterion_6_no_constant_energy_term():
    alpha = -0.1
    c0 = asymptotics.c0_self_consistent(alpha)
    deltas = np.array([5e-4, 1e-3, 2e-3, 3e-3, 5e-3])
    # the kappa expansion carries the exact constant -1/2, cancelled in the
    # energy: fit E + 2 c0/delta^2 = kappa + 1/2 + 2 c0/delta^2
    ys = [regspec.solve_ground_even(PotentialSpec(alpha, float(d))).kappa
          + 0.5 + 2.0 * c0 / d ** 2 for d in deltas]
    coef = np.polynomial.polynomial.polyfit(deltas ** 2, ys, [0, 1])
    ok = abs(coef[0]) < 1e-2
    assert report(6, ok, f"constant {coef[0]:.2e}, quadratic {coef[1]:.2e}")


def test_criterion_7_special_function_suite():
    rng = np.random.default_rng(12)
    worst_rec = 0.0
    n_checked = 0
    while n_checked < 120:
        a = float(rng.uniform(-5, 5))
        b = float(rng.uniform(0.6, 3.4))
        if min(abs(b - round(b)), abs(b - 1 - round(b - 1)),
               abs(b + 1 - round(b + 1))) < 1e-3:
            continue
        z = float(10 ** rng.uniform(-6, 1.0))
        u0 = tricomi_u(a, b, z)
        r1 = u0 - a * tricomi_u(a + 1, b, z) - tricomi_u(a, b - 1, z)
        s1 = abs(u0) + abs(a * tricomi_u(a + 1, b, z)) + abs(tricomi_u(a, b - 1, z))
        r2 = (b - a) * u0 + tricomi_u(a - 1, b, z) - z * tricomi_u(a, b + 1, z)
        s2 = abs((b - a) * u0) + abs(tricomi_u(a - 1, b, z)) \
            + abs(z * tricomi_u(a, b + 1, z))
        worst_rec = max(worst_rec, abs(r1) / max(s1, 1e-280),
                        abs(r2) / max(s2, 1e-280))
        n_checked += 1

    worst_id = 0.0
    for n in range(11):
        for lam in np.linspace(-0.45, 1.45, 9):
            if abs(lam + 1 - round(lam + 1)) < 2e-6:
                continue
            for x in (0.2, 1.0, 4.0, 10.0):
                lhs = tricomi_u(-float(n), float(lam) + 1.0, float(x))
                rhs = (-1.0) ** n * math.factorial(n) * laguerre(n, float(lam), float(x))
                worst_id = max(worst_id, abs(lhs - rhs) / abs(rhs))

    worst_branch = 0.0
    for _ in range(40):
        a = float(rng.uniform(30, 100))
        b = float(rng.uniform(0.6, 2.4))
        if abs(b - round(b)) < 2e-6:
            continue
        z = float(10 ** rng.uniform(-8, -4))
        s = _u_connection(a, b, z)
        bb = _u_large_a(a, b, z)
        worst_branch = max(worst_branch, abs(s - bb) / abs(s))

    si_err = abs(sine_integral(math.pi) - 1.851937052)
    ok = worst_rec < 1e-10 and worst_id < 1e-11 and worst_branch < 1e-7 \
        and si_err < 1e-9
    assert report(7, ok, f"recurrence {worst_rec:.1e}, identity {worst_id:.1e}, "
                         f"branches {worst_branch:.1e}, Si {si_err:.1e}")


def test_criterion_8_wavefunction_suite():
    checks = []
    for alpha, delta, parity, n, ground in [
            (-0.1, 0.01, "odd", 0, False),
            (0.1, 0.01, "even", 1, False),
            (-0.1, 1e-3, "even", 0, True)]:
        spec = PotentialSpec(alpha, delta)
        sol = regspec.solve_ground_even(spec) if ground \
            else regspec.solve_excited(spec, parity, n)
        wf = regspec.build_wavefunction(spec, sol)
        d = spec.delta
        norm = 2.0 * (integrate(lambda x: wf(x) ** 2, 0.0, d, rel_tol=1e-12)
                      + integrate_to_infinity(
                          lambda x: wf(x) ** 2, d, rel_tol=1e-11,
                          first_width=min(1.0, 4.0 / math.sqrt(
                              2.0 * abs(sol.kappa) + 2.0))))
        cont = abs(wf(d * (1 - 1e-12)) - wf(d * (1 + 1e-12))) / abs(wf(d))
        h = (1e-4 if ground else 1e-5) * d
        ld_l = one_sided_derivative(wf, d, h, -1) / wf(d)
        ld_r = one_sided_derivative(wf, d, h, +1) / wf(d)
        ld = abs(ld_l - ld_r) / abs(ld_l)
        checks.append(abs(norm - 1.0) < 1e-8 and cont < 1e-10 and ld < 1e-7)
    spec = PotentialSpec(-0.1, 1e-3)
    sol = regspec.solve_ground_even(spec)
    wf = regspec.build_wavefunction(spec, sol)
    radius = 3.0 / math.sqrt(2.0 * abs(sol.kappa))
    inside = 2.0 * (integrate(lambda x: wf(x) ** 2, 0.0, spec.delta,
                              rel_tol=1e-11)
                    + integrate(lambda x: wf(x) ** 2, spec.delta, radius,
                                rel_tol=1e-11))
    checks.append(inside > 0.99)
    ok = all(checks)
    assert report(8, ok, f"mass {inside:.4f}")


def _criterion_9_gaps(alpha):
    gaps = []
    for delta in (1e-2, 1e-3, 1e-4):
        spec = PotentialSpec(alpha, delta)
        gap = abs(regspec.solve_excited(spec, "even", 0).energy
                  - regspec.solve_excited(spec, "odd", 0).energy)
        gaps.append(gap)
    return gaps


def test_criterion_9_degeneracy_monotone():
    ok = True
    finals = {}
    for alpha in (0.1, -0.1):
        gaps = _criterion_9_gaps(alpha)
        ok = ok and gaps[0] > gaps[1] > gaps[2]
        finals[alpha] = gaps[2]
    ok = ok and finals[0.1] < 1e-3
    assert report("9 (monotone, repulsive bound)", ok,
                  f"gaps at 1e-4: {finals[0.1]:.1e} / {finals[-0.1]:.1e}")


@pytest.mark.xfail(strict=True,
                   reason="even/odd gap at alpha=-0.1, delta=1e-4 is 3.1e-3 "
                          "= 2(eps_even - eps_odd); the 1e-3 bound is "
                          "unattainable (see ledger)")
def test_criterion_9_attractive_gap_bound():
    gap = _criterion_9_gaps(-0.1)[2]
    ok = gap < 1e-3
    report("9 (attractive gap)", ok, f"{gap:.2e}")
    assert ok


def test_criterion_10_oscillator_sanity():
    model = matmech.assemble(0.0, 50.0, 1e-3, 800)
    v, _ = eigh_lowest(model.blocks["even"], 1, want_vectors=False)
    matrix_ok = abs(v[0] / 50.0 - 0.5) / 0.5 < 1e-3
    closed_ok = all(
        unreg_energy(PotentialSpec(0.0), make_label(0.0, p, n)).energy
        == 2.0 * n + 1.5
        for p in ("even", "odd") for n in range(6))
    ok = matrix_ok and closed_ok
    assert report(10, ok, f"matrix ground {v[0] / 50.0:.6f} hw")
