import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import bessel_k, hyperu_ref, scalar_window_check
from pseudoharm.errors import (DomainError, EvaluationOverflowError,
                               NonConvergenceError, PseudoharmError)
from pseudoharm.specfun import (laguerre, lgamma, rgamma, sinpi, tricomi_u,
                                u_pair_shift_a, u_ratio_slope_a,
                                u_ratio_z_evaluator)
from pseudoharm.specfun.hyper import (A_CONNECTION_MIN, A_SWITCH,
                                      B_INTEGER_TOL, Z_CONNECTION,
                                      _AMP_SWITCH,
                                      _bessel_combo, _is_laguerre,
                                      _laplace_inv_t,
                                      _u_by_formula, _u_connection,
                                      _u_large_a, kummer_m)

mp.mp.dps = 50


class TestKummer:
    def test_series_leading_term(self):
        assert kummer_m(0.7, 1.3, 0.0) == 1.0

    def test_exponential_identity(self):
        for z in (0.3, 2.0, 11.0):
            assert kummer_m(1.8, 1.8, z) == pytest.approx(math.exp(z), rel=1e-14)

    def test_polynomial_truncation(self):
        # M(-1, 1.5, 2) = 1 - 2/1.5
        assert kummer_m(-1.0, 1.5, 2.0) == pytest.approx(-1.0 / 3.0, rel=1e-15)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            kummer_m(0.5, 1.5, -1.0)

    def test_nonpositive_integer_b_rejected(self):
        with pytest.raises(DomainError):
            kummer_m(0.5, -2.0, 1.0)

    def test_nonconvergence_reports(self):
        with pytest.raises(NonConvergenceError):
            kummer_m(1.0, 1.5, 5e7)


class TestTricomiValues:
    def test_laguerre_truncation_degree_one(self):
        # U(-1, 1.5, w) = w - 3/2
        for w in (0.1, 0.7, 3.0, 9.5):
            assert tricomi_u(-1.0, 1.5, w) == pytest.approx(w - 1.5, rel=1e-13)

    def test_laguerre_truncation_degree_two(self):
        assert tricomi_u(-2.0, 1.5, 1.0) == pytest.approx(-0.25, rel=1e-12)

    def test_branch_agreement_spot(self):
        # series and Bessel branches on an overlap point, plus an
        # independent arbitrary-precision reference
        a, b, z = 50.0, 1.5, 1e-4
        u_series = _u_connection(a, b, z)
        u_bessel = _u_large_a(a, b, z)
        assert u_bessel == pytest.approx(u_series, rel=1e-8)
        ref = float(mp.hyperu(a, b, z))
        assert u_bessel == pytest.approx(ref, rel=1e-8)

    def test_auto_matches_reference_across_regimes(self):
        rng = np.random.default_rng(5)
        for _ in range(120):
            a = float(rng.uniform(-6, 6))
            b = float(rng.uniform(0.55, 3.45))
            if abs(b - round(b)) < 2e-6:
                continue
            z = float(10 ** rng.uniform(-6, 1.3))
            val = tricomi_u(a, b, z)
            ref = float(mp.hyperu(a, b, z))
            assert val == pytest.approx(ref, rel=5e-11), (a, b, z)

    def test_large_z_route(self):
        for (a, b, z) in [(0.3, 1.7, 25.0), (-3.5, 1.5, 60.0), (1.2, 0.8, 144.0)]:
            assert tricomi_u(a, b, z) == pytest.approx(
                float(mp.hyperu(a, b, z)), rel=1e-12)

    def test_integer_b_takes_the_evaluator(self):
        # the connection formula is singular at integer b and refuses it;
        # tricomi_u takes the array evaluator there, within its stated bound
        for (a, b, z) in [(-1.3, 2.0, 0.5), (-0.4, 1.0, 2.0e-3)]:
            with pytest.raises(DomainError):
                _u_connection(a, b, z)
            assert _route(a, b, z) == "evaluator"
            _check_u(a, b, z, tricomi_u(a, b, z))

    def test_unrepresentable_value_reports_threshold(self):
        with pytest.raises(EvaluationOverflowError) as exc:
            tricomi_u(414.0, 1.4472, 4e-6)
        assert exc.value.threshold is not None

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(DomainError):
            tricomi_u(0.5, 1.5, 0.0)


class TestTricomiProperties:
    def test_recurrence_closure_random_grid(self):
        # both contiguous recurrences close to 1e-10 relative
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 160:
            a = float(rng.uniform(-5, 5))
            b = float(rng.uniform(0.6, 3.4))
            if min(abs(b - round(b)), abs(b - 1.0 - round(b - 1.0)),
                   abs(b + 1.0 - round(b + 1.0))) < 1e-3:
                continue
            z = float(10 ** rng.uniform(-6, 1.0))
            u0 = tricomi_u(a, b, z)
            scale = abs(u0) + abs(tricomi_u(a, b - 1.0, z))
            r1 = tricomi_u(a, b, z) - a * tricomi_u(a + 1.0, b, z) \
                - tricomi_u(a, b - 1.0, z)
            r2 = (b - a) * tricomi_u(a, b, z) + tricomi_u(a - 1.0, b, z) \
                - z * tricomi_u(a, b + 1.0, z)
            scale2 = abs((b - a) * u0) + abs(tricomi_u(a - 1.0, b, z)) \
                + abs(z * tricomi_u(a, b + 1.0, z))
            assert abs(r1) <= 1e-10 * max(scale, 1e-280), (a, b, z)
            assert abs(r2) <= 1e-10 * max(scale2, 1e-280), (a, b, z)
            checked += 1

    def test_derivative_vs_finite_difference(self):
        # dU/dz = -a U(a+1, b+1, z)
        a, b, z = 0.3, 1.7, 0.5
        h = 1e-5
        fd = (tricomi_u(a, b, z + h) - tricomi_u(a, b, z - h)) / (2.0 * h)
        deriv = -a * tricomi_u(a + 1.0, b + 1.0, z)
        assert deriv == pytest.approx(fd, rel=1e-6)

    def test_derivative_vs_finite_difference_random(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = float(rng.uniform(-4, 4))
            b = float(rng.uniform(0.6, 3.4))
            if abs(b - round(b)) < 1e-3 or abs(b + 1 - round(b + 1)) < 1e-3:
                continue
            z = float(rng.uniform(0.2, 5.0))
            h = 1e-5 * max(1.0, z)
            fd = (tricomi_u(a, b, z + h) - tricomi_u(a, b, z - h)) / (2.0 * h)
            deriv = -a * tricomi_u(a + 1.0, b + 1.0, z)
            assert deriv == pytest.approx(fd, rel=2e-6, abs=1e-12)

    def test_branch_overlap_window(self):
        # series and Bessel-asymptotic branches agree over the overlap window
        rng = np.random.default_rng(3)
        for _ in range(60):
            a = float(rng.uniform(30, 100))
            b = float(rng.uniform(0.6, 2.4))
            if abs(b - round(b)) < 2e-6:
                continue
            z = float(10 ** rng.uniform(-8, -4))
            s = _u_connection(a, b, z)
            bb = _u_large_a(a, b, z)
            assert bb == pytest.approx(s, rel=1e-7), (a, b, z)

    def test_laguerre_identity(self):
        # U(-n, lam+1, x) = (-1)^n n! L_n^(lam)(x)
        rng = np.random.default_rng(4)
        for _ in range(80):
            n = int(rng.integers(0, 11))
            lam = float(rng.uniform(-0.499, 1.5))
            if abs(lam + 1.0 - round(lam + 1.0)) < 2e-6:
                continue
            x = float(rng.uniform(0.0001, 10.0))
            lhs = tricomi_u(-float(n), lam + 1.0, x)
            rhs = (-1.0) ** n * math.factorial(n) * laguerre(n, lam, x)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-280), (n, lam, x)

    def test_laguerre_identity_connection_route(self):
        # same identity through the connection formula alone: a true
        # dual-route check (M series + reflection factors vs recurrence);
        # alternating-sum cancellation floors it near 2e-11 at the far corner
        rng = np.random.default_rng(4)
        for _ in range(80):
            n = int(rng.integers(0, 11))
            lam = float(rng.uniform(-0.499, 1.5))
            if abs(lam + 1.0 - round(lam + 1.0)) < 2e-6:
                continue
            x = float(rng.uniform(0.0001, 10.0))
            lhs = _u_connection(-float(n), lam + 1.0, x)
            rhs = (-1.0) ** n * math.factorial(n) * laguerre(n, lam, x)
            assert lhs == pytest.approx(rhs, rel=3e-11, abs=1e-280), (n, lam, x)


# --- tricomi_u against 30 digits over its stated region --------------------
# The bounds of tricomi_u's docstring, per route, relative to the recurrence
# scale S: the terms of DLMF 13.3.7 that give U(a).  Measured worst over
# about 4 500 random draws: 6e-14 (Laguerre), 1.9e-12 (connection), 2.8e-13
# (evaluator).
_ROUTE_TOL = {"laguerre": 1e-12, "connection": 5e-12, "evaluator": 1e-12}


def _route(a, b, z):
    if _is_laguerre(a) and b >= 0.5:
        return "laguerre"
    return "evaluator" if _u_by_formula(a, b, z) is None else "connection"


def _u_mp(a, b, z):
    return mp.hyperu(mp.mpf(a), mp.mpf(b), mp.mpf(z), maxprec=3000)


def _check_u(a, b, z, got, tol=None):
    """got against U(a, b, z) at 30 digits, to tol (the route's bound) of
    the recurrence scale S; below b = 1/2 the bound adds 2e-13 |U|/(|b| +
    z), what the recurrence keeps where U(a <= 0) is O(|b| + z)."""
    tol = _ROUTE_TOL[_route(float(a), b, z)] if tol is None else tol
    with mp.workdps(30):
        a_mp = mp.mpf(a)
        u = _u_mp(a_mp, b, z)
        scale = abs(u) + abs((2 * a_mp + 2 - b + z) * _u_mp(a_mp + 1, b, z)) \
            + abs((a_mp + 1) * (a_mp + 2 - b) * _u_mp(a_mp + 2, b, z))
        bound = tol * scale
        if b < 0.5:
            bound += 2e-13 * abs(u) / (abs(b) + z)
        err = abs(mp.mpf(got) - u)
        assert err <= bound, (a, b, z, got, float(err / scale))


def _next(x, toward):
    return float(np.nextafter(x, toward))


_SEAM_A = [A_SWITCH, _next(A_SWITCH, math.inf),
           A_CONNECTION_MIN, _next(A_CONNECTION_MIN, -math.inf),
           0.0, -1.0, -7.0, -1e-13, -7.0 + 1e-12, 0.1,
           4.0, _next(4.0, math.inf), 5.0, _next(5.0, -math.inf)]
_SEAM_Z = [Z_CONNECTION, _next(Z_CONNECTION, math.inf), 1e-8, 160.0]
# offsets from an integer b across B_INTEGER_TOL and into the integer
_B_OFFSETS = [0.0, 1e-7, -1e-7, B_INTEGER_TOL * (1.0 + 1e-9),
              -B_INTEGER_TOL * (1.0 + 1e-9), B_INTEGER_TOL * (1.0 - 1e-9)]


class TestTricomiRoutes:
    """tricomi_u's three routes against 30 digits at their stated bounds."""

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(a=st.one_of(st.floats(-60.0, 100.0), st.sampled_from(_SEAM_A),
                       st.integers(-60, 0).map(float),
                       st.tuples(st.integers(-60, 0),
                                 st.sampled_from([1e-13, -1e-12, 1e-9]))
                       .map(sum)),
           b=st.one_of(st.floats(0.5, 4.5),
                       st.tuples(st.integers(1, 4),
                                 st.sampled_from(_B_OFFSETS)).map(sum)),
           z=st.one_of(st.floats(-8.0, math.log10(160.0))
                       .map(lambda t: 10.0 ** t), st.sampled_from(_SEAM_Z)))
    def test_against_reference(self, a, b, z):
        _check_u(a, b, z, tricomi_u(a, b, z))

    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(a=st.one_of(st.floats(-60.0, 100.0),
                       st.integers(-60, 0).map(float)),
           b=st.one_of(st.floats(-0.5, 0.5),
                       st.sampled_from([1e-7, -1e-7, 2e-6, -2e-6])),
           z=st.floats(-8.0, math.log10(160.0)).map(lambda t: 10.0 ** t))
    def test_below_half_against_reference(self, a, b, z):
        # every b < 1/2 takes the evaluator, which the recurrence checks of
        # criterion 7 reach through U(a, b - 1, z)
        assert _route(a, b, z) == "evaluator"
        _check_u(a, b, z, tricomi_u(a, b, z))

    @pytest.mark.parametrize("a,b", [(-0.3, 1.6), (-2.6, 2.3), (-5.5, 1.45)])
    def test_cancellation_seam(self, a, b):
        # the two neighbouring doubles where the connection formula's
        # cancellation check switches, past a zero of U in (0, 1)
        with mp.workdps(30):
            z0 = float(mp.findroot(lambda z: _u_mp(a, b, z), 0.4))
        lo, hi = z0, min(2.0 * z0, Z_CONNECTION)
        assert _route(a, b, lo) == "evaluator"
        assert _route(a, b, hi) == "connection"
        while _next(lo, math.inf) < hi:
            mid = 0.5 * (lo + hi)
            if _route(a, b, mid) == "evaluator":
                lo = mid
            else:
                hi = mid
        for z in (lo, hi):
            _check_u(a, b, z, tricomi_u(a, b, z))

    @pytest.mark.parametrize("a,b,z", [(44.0, 1.387, 36.0),
                                       (127.0, 1.5, 42.0),
                                       (-29.7, 2.16, 12.0),
                                       (-12.7, 1.447, 25.0),
                                       (31.5, 1.3, 1e-6)])
    def test_former_silent_errors(self, a, b, z):
        # where the Bessel branch (1.4e-2, 6.0e-4, 2.1e-9), the unchecked
        # connection formula (3.2e-5) and the 1/z expansion (5.6e-10) erred
        assert _route(a, b, z) == "evaluator"
        _check_u(a, b, z, tricomi_u(a, b, z))
        with mp.workdps(30):
            ref = _u_mp(a, b, z)
            assert abs(tricomi_u(a, b, z) - ref) <= 1e-13 * abs(ref)

    def test_laguerre_band_is_the_integers(self):
        # 1e-13 from -1 the polynomial U(-1) would miss the z^(1-b) part,
        # of relative size about 1e-13 z^(1-b): 3.5e-2 here
        a, b, z = -1.0 + 1e-13, 2.5, 1e-8
        assert _route(a, b, z) == "connection"
        _check_u(a, b, z, tricomi_u(a, b, z))
        assert abs(tricomi_u(a, b, z) / tricomi_u(-1.0, b, z) - 1.0) > 0.03

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(a=st.one_of(st.floats(-300.0, 300.0), st.floats(-3.0, 7.0)
                       .map(lambda t: 10.0 ** t),
                       st.integers(-250, 5).map(float)),
           b=st.one_of(st.floats(-6.0, 12.0),
                       st.tuples(st.integers(-5, 10),
                                 st.sampled_from([0.0, 1e-7, 1e-5]))
                       .map(sum)),
           z=st.one_of(st.floats(-300.0, 6.0).map(lambda t: 10.0 ** t),
                       st.floats(-9.0, 3.0).map(lambda t: 10.0 ** t)))
    # the shared-factor path overflowing to +-inf
    @example(a=-44.641200958463564, b=7.4619978294131, z=2.385348197738613e-46)
    @example(a=-32.91051797727496, b=9.00001, z=1.8219960487301865e-35)
    def test_raises_only_package_errors(self, a, b, z):
        # far outside the stated region too: a value or a PseudoharmError,
        # never another exception, a warning or a non-finite value
        for evaluate in (lambda: (tricomi_u(a, b, z),),
                         lambda: u_pair_shift_a(b, z)(a)):
            try:
                values = evaluate()
            except PseudoharmError:
                continue
            assert all(math.isfinite(v) for v in values), (a, b, z, values)


def _shift_ratio(a, b, z):
    u0, u1 = u_pair_shift_a(b, z)(a)
    return u1 / u0


def _laplace_ratio(a, b, z):
    """U(a-1)/U(a) = (a-1)(1 + E[1/t]) for a > 4, the runaway ground
    state's residual form, from one Laplace window and no U value."""
    return (a - 1.0) * (1.0 + _laplace_inv_t(a, b, z))


class TestRatioHelpers:
    def test_shift_ratio_matches_reference(self):
        # the Laplace form erred by 1.7e-16 at most on these points; the
        # pair, where U is representable, by 1.8e-13 (a = 12, z = 0.3)
        for a, b, z in [(414.2, 1.4472, 4e-6), (5650.0, 1.0, 4e-6),
                        (31.5, 1.3, 1e-6), (12.0, 1.7, 0.3),
                        (_next(4.0, math.inf), 1.3, 1e-3)]:
            ref = mp.hyperu(a - 1, b, z) / mp.hyperu(a, b, z)
            assert abs(_laplace_ratio(a, b, z) / ref - 1) <= 1e-15, a
            if a < 100.0:
                assert _shift_ratio(a, b, z) == pytest.approx(float(ref),
                                                              rel=1e-12)

    def test_huge_a_ratio_no_overflow(self):
        # U itself is unrepresentable here, so the pair raises; the
        # Laplace form needs no U value
        a, b, z = 5.36e5, 1.0601, 1e-8
        with pytest.raises(EvaluationOverflowError):
            _shift_ratio(a, b, z)
        ref = hyperu_ref(a - 1.0, b, z) / hyperu_ref(a, b, z)
        assert abs(_laplace_ratio(a, b, z) / ref - 1) <= 1e-15

    @pytest.mark.parametrize("a,b,z", [
        (31.0 + 1e-12, 1.3, 1e-6), (31.5, 1.3, 1e-6), (414.2, 1.4472, 4e-6),
        (5650.0, 1.0, 4e-6), (5360.143152184891, 1.3872983346207417, 1e-6),
        (5.36e5, 1.0601, 1e-8), (40.0, 1.2, 25.0)])
    def test_large_a_ratio_is_the_slope_ratio(self, a, b, z):
        # above a = 4 the ground residual's E[1/t] and u_ratio_slope_a share
        # one window, so their U(a-1)/U(a) agree to the bit
        assert _laplace_ratio(a, b, z) == u_ratio_slope_a(a, b, z)[0]

    def test_z_ratio_matches_reference(self):
        for (a, b, z1, z2) in [(414.2, 1.4472, 9e-6, 4e-6),
                               (-2.3, 1.7, 4.0, 0.5),
                               (40.0, 1.2, 1e-3, 1e-5)]:
            ref = float(mp.hyperu(a, b, z1) / mp.hyperu(a, b, z2))
            assert u_ratio_z_evaluator(a, b, z2)(z1) \
                == pytest.approx(ref, rel=1e-9)

    def test_z_ratio_far_tail_underflows_to_zero(self):
        # runaway ground state at alpha = -0.1, delta = 1e-3: K_b(2 sqrt(a z))
        # underflows from z ~ 26 on, where the ratio must go to 0.0
        a, b, z0 = 5360.143152184891, 1.3872983346207417, 1e-6
        for z1 in (0.25, 1.0, 4.0):
            ref = float(mp.hyperu(a, b, z1) / mp.hyperu(a, b, z0))
            assert u_ratio_z_evaluator(a, b, z0)(z1) \
                == pytest.approx(ref, rel=1e-12)
        for z1 in (28.0, 36.0):
            assert u_ratio_z_evaluator(a, b, z0)(z1) == 0.0


# --- per-point references for the exterior evaluator ----------------------
# Each writes one formula route of U out term by term, in the order of the
# per-point scalar code (M*r1*r2, pi/sin(pi b) * (t1 - t2), ...), so a
# change of a rounding shows as a bit; None where tricomi_u takes the array
# evaluator, which is checked against 30 digits at its stated bound instead.

def _ref_laguerre(a, b, z):
    n = int(round(-a))
    return (-1.0 if n % 2 else 1.0) * math.factorial(n) \
        * laguerre(n, b - 1.0, z)


def _ref_terms(a, b, z):
    t1 = kummer_m(a, b, z) * rgamma(1.0 + a - b) * rgamma(b)
    t2 = z ** (1.0 - b) * kummer_m(1.0 + a - b, 2.0 - b, z) \
        * rgamma(a) * rgamma(2.0 - b)
    return t1, t2


def _ref_connection(a, b, z):
    t1, t2 = _ref_terms(a, b, z)
    return math.pi / sinpi(b) * (t1 - t2)


def _ref_evaluator(a, b, z):
    return None


def _ref_checked_connection(a, b, z):
    if _route(a, b, z) == "evaluator":
        return None
    return _ref_connection(a, b, z)


def _ref_small_a(a, b, z):
    if z > Z_CONNECTION:
        return None
    return _ref_connection(a, b, z)


def _check_psi_scale(ratio, a, b, z0, zs, tol=1e-12):
    """ratio(z) against U(z)/U(z0) at 20 digits, to tol of the psi scale:
    the largest |U(z)/U(z0)| z^(b/2-1/4) e^(-z/2) over z0 and zs (the
    exterior wave function's shape up to a constant).  Where the reference
    ratio lies below every double, the value must be exactly 0.0."""
    zs = np.asarray(zs, dtype=float)
    got = ratio(zs)
    u0 = hyperu_ref(a, b, z0)
    with mp.workdps(20):
        refs = [hyperu_ref(a, b, z) / u0 for z in zs.tolist()]
        weights = [mp.mpf(z) ** (mp.mpf(b) / 2 - mp.mpf(1) / 4)
                   * mp.exp(-mp.mpf(z) / 2) for z in [z0] + zs.tolist()]
        scale = max([weights[0]] + [abs(r) * w
                                    for r, w in zip(refs, weights[1:])])
        for z, g, r, w in zip(zs.tolist(), got.tolist(), refs, weights[1:]):
            if abs(r) < mp.mpf(2) ** -1080:
                assert g == 0.0, (a, b, z0, z, g)
                continue
            err = abs(mp.mpf(g) - r) * w / scale
            assert err <= tol, (a, b, z0, z, float(err))


class TestRatioEvaluator:
    # (route, a, b, z0, sample arguments, per-point reference for U); the
    # ids name the routes these points took before tricomi_u had three
    ROUTES = [
        ("laguerre", -3.0, 1.4472, 1e-6, (1e-6, 0.3, 4.0, 25.0),
         _ref_laguerre),
        ("connection", -1.3, 1.4472, 1e-6, (3e-6, 0.3, 4.0, 19.9),
         _ref_small_a),
        ("connection, a > 0.1", 1.7, 1.4472, 1e-4, (2e-4, 0.3, 5.0),
         _ref_checked_connection),
        ("near-integer b", -0.7, 2.0000005, 1e-4, (3e-4, 0.5, 6.0),
         _ref_evaluator),
        ("integer b", -0.4, 1.0, 2e-3, (4e-3, 1.5), _ref_evaluator),
        ("1/z", -1.3, 1.4472, 1e-6, (20.5, 27.0, 38.0), _ref_small_a),
        ("1/z, near-integer b", -0.7, 1.9999995, 0.5, (24.0, 36.0),
         _ref_evaluator),
        ("laplace fallback", 0.5, 1.3, 0.5, (10.0, 15.0),
         _ref_checked_connection),
        ("laplace, integer b", 1.7, 2.0, 1e-3, (0.3, 4.0), _ref_evaluator),
    ]

    @pytest.mark.parametrize("route,a,b,z0,zs,ref", ROUTES,
                             ids=[r[0] for r in ROUTES])
    def test_equals_per_point_ratio(self, route, a, b, z0, zs, ref):
        # tricomi_u keeps each formula route's per-point bits and meets the
        # evaluator's stated bound elsewhere; the exterior evaluator, one
        # algorithm for all of them, matches 20 digits at 1e-12 of the psi
        # scale on the same points
        for z in (z0,) + zs:
            want = ref(a, b, z)
            if want is None:
                assert _route(a, b, z) == "evaluator", (route, z)
                _check_u(a, b, z, tricomi_u(a, b, z))
            else:
                assert tricomi_u(a, b, z) == want, (route, z)
        _check_psi_scale(u_ratio_z_evaluator(a, b, z0), a, b, z0, zs)

    def test_laplace_fallback_is_taken(self):
        # the "laplace fallback" points above really leave the formula
        for z in (10.0, 15.0):
            t1, t2 = _ref_terms(0.5, 1.3, z)
            assert (abs(t1) + abs(t2)) / abs(t1 - t2) > 3e3

    @pytest.mark.parametrize("a,b,z0", [
        (5360.143152184891, 1.3872983346207417, 1e-6),   # alpha -0.1
        (4029.03, 1.2236067977499790, 4e-6),               # alpha -0.2
        (5648.15, 1.0, 4e-6),                              # alpha -1/4
        (2.2591e6, 1.000005, 1e-8),                        # b - 1 = 5e-6
        (45.0, 1.7, 1e-3),
    ])
    def test_bessel_branch_equals_log_form(self, a, b, z0):
        # the runaway ground states' exteriors, which the Bessel branch's
        # log form served, now against 20 digits at 1e-12 of the psi scale
        ratio = u_ratio_z_evaluator(a, b, z0)
        _check_psi_scale(ratio, a, b, z0,
                         (z0, 3.0 * z0, 1e-3, 0.05, 0.25, 1.0, 4.0, 28.0,
                          36.0))

    def test_bessel_branch_far_tail_is_zero(self):
        a, b, z0 = 5360.143152184891, 1.3872983346207417, 1e-6
        ratio = u_ratio_z_evaluator(a, b, z0)
        assert ratio(28.0) == 0.0 and ratio(36.0) == 0.0
        assert ratio(4.0) > 0.0

    def test_large_a_tricomi_equals_per_point_form(self):
        # the Bessel expansion keeps its per-point form for criterion 7;
        # tricomi_u takes the array evaluator above A_SWITCH
        a, b = 45.0, 1.7
        for z in (1e-4, 1e-3, 0.2):
            combo = _bessel_combo(a, b, z, lambda w: (bessel_k(b - 1.0, w),
                                                      bessel_k(b, w)))
            logu = math.log(2.0) \
                + 0.5 * (1.0 - b) * (math.log(z) - math.log(a)) \
                + 0.5 * z - lgamma(a) + math.log(combo)
            _check_u(a, b, z, tricomi_u(a, b, z))
            assert _u_large_a(a, b, z) == math.exp(logu)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(DomainError):
            u_ratio_z_evaluator(-1.3, 1.4472, 0.0)
        ratio = u_ratio_z_evaluator(-1.3, 1.4472, 1e-6)
        with pytest.raises(DomainError):
            ratio(0.0)
        with pytest.raises(DomainError):
            ratio(-1.0)


class TestExteriorEvaluator:
    """u_ratio_z_evaluator against 20 digits over the exterior's whole range:
    the Laplace rule above a = 4 and the recurrence below it."""

    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(a=st.floats(-30.0, 1e4),
           b=st.floats(1.0, 3.0),
           z_den=st.floats(-8.0, -2.0).map(lambda t: 10.0 ** t),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    def test_against_reference(self, a, b, z_den, fractions):
        assume(a > 0.0 or abs(a - round(a)) > 1e-12)
        # z from z_den to 160, spread in log z; no error of any kind may
        # leave the evaluator on this domain, a PseudoharmError included
        zs = [z_den * (160.0 / z_den) ** f for f in fractions]
        _check_psi_scale(u_ratio_z_evaluator(a, b, z_den), a, b, z_den, zs)

    @pytest.mark.parametrize("a,b,z0,zs", [
        # where the previous routes erred or raised: the connection
        # formula at a ~ -20..-30, z ~ 5..17; the 1/z expansion for
        # a < -12; the Bessel branch at a = 127, z = 42 and beyond z/a
        (-29.7, 2.16, 1e-4, (5.0, 12.0, 17.0, 36.0)),
        (-21.7, 1.5, 1e-4, (16.6, 25.0)),
        (-12.3, 1.3872983346207417, 1e-4, (25.0, 40.0, 144.0)),
        (127.0, 1.5, 1e-4, (1.0, 42.0)),
        (215.0, 1.3872983346207417, 2.5e-5, (36.0, 64.0, 144.0)),
        # near poles of Gamma(a) at small z with b > 2, where the plain
        # recurrence loses the z^(1-b) part (1e-7 of U at b = 3, z = 1e-8)
        (-30.0 + 1.1e-12, 3.0, 1e-8, (1e-6, 1.0, 80.0)),
        (1e-11, 2.5, 1e-8, (1e-4, 1.0, 20.0)),
        (-3.0 - 1e-11, 2.5, 1e-8, (1e-6, 0.3, 5.0)),
        (-3.0 - 1e-7, 1.922, 1e-8, (1e-5, 1.0, 36.0)),
    ])
    def test_former_failures(self, a, b, z0, zs):
        _check_psi_scale(u_ratio_z_evaluator(a, b, z0), a, b, z0, zs)

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(a=st.floats(-30.0, 1e4), b=st.floats(1.0, 3.0),
           z=st.floats(-8.0, math.log10(160.0)).map(lambda t: 10.0 ** t))
    def test_scalar_window_matches_the_array_window(self, a, b, z):
        # the math-module window of one point (root solves) against the
        # array code on the domain above: the same node counts, the ends
        # at most 6 ulps apart in 20 000 random draws
        assume(a > 0.0 or abs(a - round(a)) > 1e-12)
        counts, ulps = scalar_window_check(a, b, z)
        assert counts[0] == counts[1] and ulps <= 8.0, (counts, ulps)

    def test_unrepresentable_ratio_raises(self):
        # U(-50.5, b, z) ~ z^50.5: past double range at z = 1e10
        ratio = u_ratio_z_evaluator(-50.5, 1.5, 1e-8)
        assert math.isfinite(ratio(1e4))
        with pytest.raises(EvaluationOverflowError):
            ratio(np.array([1.0, 1e10]))

    def test_point_values_do_not_depend_on_the_call(self):
        # each point takes its own window and node count
        ratio = u_ratio_z_evaluator(-2.3, 1.7, 1e-6)
        zs = np.concatenate([10.0 ** np.linspace(-6.0, 2.2, 97), [3.7]])
        together = ratio(zs)
        assert [ratio(z) for z in zs.tolist()] == together.tolist()
        assert ratio(zs.reshape(2, 49)).tolist() \
            == together.reshape(2, 49).tolist()
        assert isinstance(ratio(0.5), float)


# --- the pair evaluator of a root solve in a --------------------------------

def _shares_factors(a, b, z):
    """Where u_pair_shift_a takes its shared-factor formula: the plain
    connection formula at a and a - 1 (z <= Z_CONNECTION throughout here),
    with the terms t1, t2 at a and a - 1 as the pair forms them, where the
    pole-distance term of the cancellation check passes at both."""
    def plain(x):
        return A_CONNECTION_MIN <= x <= 0.1 \
            and (x > 0.0 or abs(x - round(x)) >= 1e-12)
    if not (b >= 0.5 and abs(b - round(b)) >= B_INTEGER_TOL
            and plain(a) and plain(a - 1.0)):
        return False
    a1, x = a - 1.0, 1.0 + a - b
    x1 = 1.0 + a1 - b
    r_x, r_a, z_1mb = rgamma(x), rgamma(a), z ** (1.0 - b)
    terms = ((kummer_m(a, b, z) * r_x * rgamma(b),
              z_1mb * kummer_m(x, 2.0 - b, z) * r_a * rgamma(2.0 - b)),
             (kummer_m(a1, b, z) * (x1 * r_x) * rgamma(b),
              z_1mb * kummer_m(x1, 2.0 - b, z) * (a1 * r_a) * rgamma(2.0 - b)))
    ulps = 1.0 + abs(a) + abs(b)
    limit = _AMP_SWITCH * abs(x - round(x))
    return all(abs(t1) * ulps < limit * abs(t1 - t2) for t1, t2 in terms)


def _check_pair(a, b, z):
    u, u1 = u_pair_shift_a(b, z)(a)
    if not _shares_factors(a, b, z):
        # each value as tricomi_u takes it: the formula routes' bits at a
        # and a - 1.0, and where both fall to the array evaluator one pass,
        # at its bound, which steps from a to the exact a - 1
        both = _route(a, b, z) == _route(a - 1.0, b, z) == "evaluator"
        for x, x_exact, got in ((a, a, u), (a - 1.0, mp.mpf(a) - 1, u1)):
            if _route(x, b, z) == "evaluator":
                _check_u(x_exact if both else x, b, z, got)
            else:
                assert got == tricomi_u(x, b, z), (x, b, z)
        return
    # U(a) takes the plain formula's operations in its order: tricomi_u's
    # wherever its cancellation check passes (the hot path takes only its
    # pole-distance term)
    assert u == _ref_connection(a, b, z), (a, b, z)
    if _route(a, b, z) == "connection":
        assert u == tricomi_u(a, b, z), (a, b, z)
    # U(a - 1) against the formula at a - 1.0, or where that float rounds
    # (U at another argument) against 30 digits at the exact a - 1
    if a - 1.0 + 1.0 == a:
        want = _ref_connection(a - 1.0, b, z)
    else:
        with mp.workdps(30):
            want = float(_u_mp(mp.mpf(a) - 1, b, z))
    t1, t2 = _ref_terms(a - 1.0, b, z)
    scale = abs(math.pi / sinpi(b)) * (abs(t1) + abs(t2))
    assert abs(u1 - want) <= 1e-13 * scale, (a, b, z, u1, want)


class TestPairShiftA:
    @settings(derandomize=True, database=None, max_examples=400,
              deadline=None)
    @given(b=st.floats(1.0, 2.6),
           z=st.floats(-8.0, -2.0).map(lambda t: 10.0 ** t),
           a=st.floats(-51.0, 1.2).map(lambda a: a - 1.0 + 1.0))
    def test_against_tricomi_u(self, b, z, a):
        # the recurrences 1/Gamma(x-1) = (x-1)/Gamma(x) against the plain
        # connection formula at a - 1, to 1e-13 of its |t1| + |t2|.  a is
        # drawn with a - 1 exact: where it rounds, the formula at a - 1.0 is
        # U at another argument (test_exact_shift_near_a_pole)
        assume(a - 1.0 + 1.0 == a)
        _check_pair(a, b, z)

    @pytest.mark.parametrize("a,b,z", [(1e-5, 2.5, 1e-3),
                                       (-1e-7, 1.45, 1e-6)])
    def test_exact_shift_near_a_pole(self, a, b, z):
        # a - 1.0 rounds by 1e-16 at 1e-5 from the pole of Gamma at -1, and
        # tricomi_u at that float errs by 4.6e-13 (4.0e-14) against U at
        # the exact a - 1; the recurrence carries the exact shift
        with mp.workdps(30):
            ref = float(mp.hyperu(mp.mpf(a) - 1, b, z))
        assert u_pair_shift_a(b, z)(a)[1] == pytest.approx(ref, rel=1e-15)

    @pytest.mark.parametrize("a", [
        0.1 - 1e-9, 0.1, 0.1 + 1e-9,                  # the a <= 0.1 switch
        0.0, -1.0, -3.0, -50.0,                       # Laguerre route
        1e-13, -1e-13, -1.0 + 1e-13, -3.0 - 1e-13,    # 1e-13 from them
        2.0 ** -39, -3.0 + 2e-12, -0.5, 1.2])
    @pytest.mark.parametrize("b", [1.4472, 1.0, 1.0 + 5e-7, 2.0 - 5e-7,
                                   2.0, 2.0 + 2e-6])
    def test_route_edges(self, a, b):
        for z in (1e-8, 1e-4, 1e-2):
            _check_pair(a, b, z)

    @pytest.mark.parametrize("a,b,z", [(1e-9, 3.000002, 1e-4),
                                       (1e-9, 2.000002, 1e-4),
                                       (-2.5, 1.0000015, 0.01)])
    def test_near_integer_b_against_reference(self, a, b, z):
        # where the shared formula, unchecked, erred by 4.0e-11, 4.1e-11
        # and 2.5e-10 of |U|: 1/Gamma(1 + a - b) 2e-6 from its pole at -2
        # and -1 sees the rounding of 1 + a - b, and near b = 1 t1 - t2
        # cancels.  The pole-distance test sends them to the checked routes
        assert not _shares_factors(a, b, z)
        _check_pair(a, b, z)
        with mp.workdps(30):
            want = (_u_mp(a, b, z), _u_mp(mp.mpf(a) - 1, b, z))
        for x, got, ref in zip((a, a - 1.0), u_pair_shift_a(b, z)(a), want):
            t1, t2 = _ref_terms(x, b, z)
            scale = abs(math.pi / sinpi(b)) * (abs(t1) + abs(t2))
            assert abs(got - ref) <= 1e-13 * scale, (x, b, z, got)

    def test_shared_formula_is_taken(self):
        # the explicit cases above reach both sides of every fall-back test
        assert _shares_factors(0.1, 1.4472, 1e-4)
        assert not _shares_factors(0.1 + 1e-9, 1.4472, 1e-4)
        assert _shares_factors(2.0 ** -39, 1.4472, 1e-4)
        assert not _shares_factors(1e-13, 2.0 + 2e-6, 1e-4)  # a - 1 near -1
        assert not _shares_factors(-1e-13, 1.4472, 1e-4)
        assert not _shares_factors(-0.5, 2.0 - 5e-7, 1e-4)
        # the pole-distance test: 1 + a - b 2e-6 from the pole at -1, and
        # t1 - t2 cancelling near b = 2 as z grows
        assert not _shares_factors(2.0 ** -39, 2.0 + 2e-6, 1e-4)
        assert _shares_factors(0.1 - 1e-9, 2.0 + 2e-6, 1e-4)
        assert not _shares_factors(0.1 - 1e-9, 2.0 + 2e-6, 1e-2)

    def test_large_argument_is_tricomi_u(self):
        # above Z_CONNECTION one evaluator pass serves a and a - 1: U(a)
        # with tricomi_u's bits (the same recurrence from the same a_top),
        # U(a - 1) one step further, at the evaluator's bound
        pair = u_pair_shift_a(1.4472, 25.0)
        for a in (-1.3, 0.05):
            u, u1 = pair(a)
            assert u == tricomi_u(a, 1.4472, 25.0)
            _check_u(a - 1.0, 1.4472, 25.0, u1)

    def test_rejects_nonpositive_argument(self):
        for z in (0.0, -1.0):
            with pytest.raises(DomainError):
                u_pair_shift_a(1.4472, z)
