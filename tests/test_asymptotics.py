import math

import numpy as np
import pytest

from pseudoharm import asymptotics, regspec
from pseudoharm.errors import DomainError
from pseudoharm.quadrature import integrate
from pseudoharm.unreg import PotentialSpec, nu_of_alpha


class TestInterior:
    @pytest.mark.parametrize("alpha", [-0.25, -0.1, -1e-3, 1e-3, 0.1, 0.75,
                                       2.0, -1e-6, 1e-6])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_slope_factor_matches_trig_forms(self, alpha, parity):
        import mpmath as mp

        # the interior log-derivative at s2 = -alpha written out per case:
        # -r tan r, r cot r (alpha < 0) and r tanh r, r coth r (alpha > 0)
        nu = nu_of_alpha(alpha)
        r = math.sqrt(abs(alpha))
        if alpha < 0.0:
            w = -r * math.tan(r) if parity == "even" else r / math.tan(r)
        else:
            w = r * math.tanh(r) if parity == "even" else r / math.tanh(r)
        num, den = asymptotics._interior_log_derivative(-alpha, parity)
        assert num / den == pytest.approx(w, rel=1e-14)
        # f = (nu - w)/(nu - 1 + w) against 40 digits: a double-precision
        # reference cancels in nu - 1 (and in nu - w for odd states) near
        # alpha = 0, as the program did before nu - 1 = alpha/nu
        with mp.workdps(40):
            a = mp.mpf(alpha)
            r = mp.sqrt(abs(a))
            nu = mp.mpf(1) / 2 + mp.sqrt(mp.mpf(1) / 4 + a)
            if alpha < 0.0:
                w = -r * mp.tan(r) if parity == "even" else r / mp.tan(r)
            else:
                w = r * mp.tanh(r) if parity == "even" else r / mp.tanh(r)
            want = (nu - w) / (nu - 1 + w)
            got = asymptotics._interior_slope_factor(alpha, parity)
            assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("s2", [1e-6, -1e-6, 1e-4 + 1e-12, 1e-4 - 1e-12,
                                    -1e-4 + 1e-12, -1e-4 - 1e-12,
                                    0.5, 2.0, -9.0])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_interior_norm_against_quadrature(self, s2, parity):
        import mpmath as mp

        with mp.workdps(30):
            u = mp.sqrt(mp.mpf(s2))  # imaginary for negative s2

            def wave_sq(t):
                if parity == "even":
                    return mp.re(mp.cos(u * t)) ** 2
                return mp.re(mp.sin(u * t) / u) ** 2 if t else mp.mpf(0)

            want = float(mp.quad(wave_sq, [0, 1]))
        got = asymptotics._interior_norm(s2, parity)
        # above the series seam the odd closed form loses the digits that
        # 1 - cos(u) sinc(u) ~ 2 s2/3 cancels: about eps/|s2| relative
        tol = 2e-15
        if parity == "odd" and abs(s2) >= 1e-4:
            tol += 2.3e-16 / abs(s2)
        assert got == pytest.approx(want, rel=tol, abs=0.0)


    @pytest.mark.parametrize("alpha", [1e-6, -1e-6, 1e-4, -1e-4, 1e-3,
                                       -1e-3])
    def test_odd_slope_factor_near_zero_coupling(self, alpha):
        # nu - w cancels for odd states as alpha -> 0; the factor keeps
        # 1e-14 relative against 40 digits (the closed forms lost up to
        # 3.1e-10 at alpha = 1e-6)
        import mpmath as mp

        with mp.workdps(40):
            a = mp.mpf(alpha)
            nu = mp.mpf(1) / 2 + mp.sqrt(mp.mpf(1) / 4 + a)
            u = mp.sqrt(-a)  # s2 = -alpha; imaginary for alpha > 0
            w = mp.re(u / mp.tan(u))
            want = (nu - w) / (nu - 1 + w)
            got = asymptotics._interior_slope_factor(alpha, "odd")
            assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("s2", [1e-4, -1e-4, 3e-4, -3e-3,
                                    1e-2 - 1e-12, -1e-2 + 1e-12,
                                    1e-2 + 1e-12, -1e-2 - 1e-12, 5e-2])
    def test_odd_interior_norm_across_its_series_seam(self, s2):
        # below the seam the series keeps 1e-15 relative; above it the
        # closed form 1 - cos(u) sinc(u) ~ 2 s2/3 cancels eps/|s2|
        import mpmath as mp

        with mp.workdps(30):
            u = mp.sqrt(mp.mpf(s2))
            want = float(mp.quad(
                lambda t: mp.re(mp.sin(u * t) / u) ** 2 if t else mp.mpf(0),
                [0, 1]))
        got = asymptotics._interior_norm(s2, "odd")
        tol = 1e-15
        if abs(s2) >= asymptotics._DIFF_SERIES_S2:
            tol = 2e-15 + 2.3e-16 / abs(s2)
        assert got == pytest.approx(want, rel=tol, abs=0.0)


class TestEpsilonN:
    def test_vanishes_as_alpha_to_zero_minus(self):
        # odd prefactor (nu - r cot r)/(...) -> 0 with alpha
        spec = PotentialSpec(-1e-8, 1e-3)
        assert abs(asymptotics.epsilon_n(spec, "odd", 0)) < 1e-9

    def test_pure_power_law_scaling(self):
        nu = nu_of_alpha(-0.1)
        e3 = asymptotics.epsilon_n(PotentialSpec(-0.1, 1e-3), "odd", 0)
        e4 = asymptotics.epsilon_n(PotentialSpec(-0.1, 1e-4), "odd", 0)
        assert e3 / e4 == pytest.approx(10.0 ** (2.0 * nu - 1.0), rel=1e-12)

    def test_matches_exact_solver(self):
        # asymptotic kappa agrees with the transcendental root to a small
        # fraction of the correction itself
        spec = PotentialSpec(-0.05, 1e-3)
        sol = regspec.solve_excited(spec, "odd", 0)
        ka = asymptotics.kappa_estimate(spec, "odd", 0)
        eps = asymptotics.epsilon_n(spec, "odd", 0)
        assert abs(sol.kappa - ka) < 1e-2 * abs(eps)

    def test_display_relabelling_for_even_attractive(self):
        spec = PotentialSpec(-0.1, 1e-3)
        eps = asymptotics.epsilon_n(spec, "even", 1)  # display 1 = radial 0
        k_est = asymptotics.kappa_estimate(spec, "even", 1)
        assert k_est == pytest.approx(nu_of_alpha(-0.1) + 2.0 * eps)
        with pytest.raises(DomainError):
            asymptotics.epsilon_n(spec, "even", 0)  # no display-0 even state

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            asymptotics.epsilon_n(PotentialSpec(0.0, 1e-3), "odd", 0)
        with pytest.raises(DomainError):
            asymptotics.epsilon_n(PotentialSpec(0.1), "odd", 0)

    def test_all_four_prefactor_branches_finite(self):
        for alpha in (-0.2, -0.05, 0.05, 0.6):
            for parity in ("even", "odd"):
                spec = PotentialSpec(alpha, 1e-3)
                n = 1 if (parity == "even" and alpha < 0) else 0
                eps = asymptotics.epsilon_n(spec, parity, n)
                assert math.isfinite(eps)

    def test_half_integer_nu_is_pole_free(self):
        # nu = 3/2 at alpha = 3/4: the reflected gamma pair stays finite
        eps = asymptotics.epsilon_n(PotentialSpec(0.75, 1e-3), "odd", 0)
        assert math.isfinite(eps) and eps != 0.0


class TestC0:
    def test_self_consistent_reference_values(self):
        # leading-coefficient values recovered from the published
        # ground-state table at delta = 0.002
        assert asymptotics.c0_self_consistent(-0.05) == pytest.approx(
            1.656980047e-3, rel=1e-6)
        est = asymptotics.ground_state_energy_estimate(-0.10, 0.002)
        assert est == pytest.approx(-2679.724730, rel=1e-6)

    def test_endpoint_values(self):
        assert 4.0 * asymptotics.c0_self_consistent(-0.25) == pytest.approx(
            0.0904, abs=5e-4)
        assert 4.0 * asymptotics.c0_closed_form(-0.25) == pytest.approx(
            0.0949, abs=5e-4)

    def test_closed_form_reference_value(self):
        est = asymptotics.ground_state_energy_estimate(-0.05, 0.002,
                                                       "closed_form")
        assert est == pytest.approx(-831.9802335, rel=1e-6)

    def test_small_alpha_reduction(self):
        cf = asymptotics.c0_closed_form(-1e-3)
        small = asymptotics.c0_small_alpha(-1e-3)
        assert cf == pytest.approx(small, rel=2e-2)

    def test_methods_agree_at_moderate_coupling(self):
        # agreement tightens towards small coupling; at the -0.10 endpoint
        # the measured gap is 1.31%
        for alpha in np.linspace(-0.10, -0.01, 7):
            sc = asymptotics.c0_self_consistent(float(alpha))
            cf = asymptotics.c0_closed_form(float(alpha))
            assert cf == pytest.approx(sc, rel=1.4e-2), alpha
            if alpha > -0.085:
                assert cf == pytest.approx(sc, rel=1e-2), alpha

    def test_methods_diverge_at_critical_coupling(self):
        sc = 4.0 * asymptotics.c0_self_consistent(-0.25)
        cf = 4.0 * asymptotics.c0_closed_form(-0.25)
        assert cf - sc > 3e-3  # 0.0949 vs 0.0904

    def test_estimate_scaling_in_delta(self):
        e1 = asymptotics.ground_state_energy_estimate(-0.1, 1e-3)
        e2 = asymptotics.ground_state_energy_estimate(-0.1, 2e-3)
        assert e1 * 1e-6 == pytest.approx(e2 * 4e-6, rel=1e-13)

    def test_domains(self):
        for fn in (asymptotics.c0_self_consistent, asymptotics.c0_closed_form):
            with pytest.raises(DomainError):
                fn(0.1)
            with pytest.raises(DomainError):
                fn(-0.26)
        with pytest.raises(ValueError):
            asymptotics.ground_state_energy_estimate(-0.1, 1e-3, "guesswork")


class TestGroundStateStructure:
    def test_convergence_order_of_corrections(self):
        # |kappa_exact - (2n+nu)| / (2 eps_n) -> 1 as delta -> 0
        alpha = -0.1
        nu = nu_of_alpha(alpha)
        ratios = []
        for delta in (1e-2, 1e-3, 1e-4):
            spec = PotentialSpec(alpha, delta)
            sol = regspec.solve_excited(spec, "odd", 0)
            eps = asymptotics.epsilon_n(spec, "odd", 0)
            ratios.append((sol.kappa - nu) / (2.0 * eps))
        devs = [abs(r - 1.0) for r in ratios]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.01

    def test_no_constant_term_in_energy(self):
        # E_exact(delta) + 2 c0/delta^2 fits a0 + a2 delta^2 with |a0| tiny;
        # equivalently kappa carries the exact constant -1/2
        alpha = -0.1
        c0 = asymptotics.c0_self_consistent(alpha)
        deltas = np.array([5e-4, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3])
        ys = []
        for d in deltas:
            sol = regspec.solve_ground_even(PotentialSpec(alpha, float(d)))
            ys.append(sol.energy + 2.0 * c0 / d ** 2)
        coef = np.polynomial.polynomial.polyfit(deltas ** 2, ys, [0, 1])
        a0, a2 = coef[0], coef[1]
        assert abs(a0) < 1e-2
        assert abs(a0) < 1e-2 * abs(a2) * (5e-3) ** 2

    def test_delta_density_concentration(self):
        # mass within |x| < 3/sqrt(2|kappa|) exceeds 0.99 for delta <= 1e-3
        spec = PotentialSpec(-0.1, 1e-3)
        sol = regspec.solve_ground_even(spec)
        wf = regspec.build_wavefunction(spec, sol)
        radius = 3.0 / math.sqrt(2.0 * abs(sol.kappa))
        inside = 2.0 * (integrate(lambda x: wf(x) ** 2, 0.0, spec.delta,
                                  rel_tol=1e-11)
                        + integrate(lambda x: wf(x) ** 2, spec.delta, radius,
                                    rel_tol=1e-11))
        assert inside > 0.99

