import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudoharm.errors import (DomainError, EvaluationOverflowError,
                               NonConvergenceError)
from pseudoharm.specfun import (bessel_k, bessel_k_pair, laguerre, lgamma,
                                rgamma, sinpi, tricomi_u, u_pair_shift_a,
                                u_ratio_z_evaluator)
from pseudoharm.specfun.bessel import _bessel_k_scaled
from pseudoharm.specfun.hyper import (B_INTEGER_TOL, _bessel_combo, _log_gu,
                                      _u_connection, _u_large_a, _u_large_z,
                                      kummer_m)

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

    def test_integer_b_nudge_floor(self):
        # connection formula is singular at integer b; the two-point nudge
        # carries a documented 1e-7 accuracy floor
        for (a, b, z) in [(-1.3, 2.0, 0.5), (-0.4, 1.0, 2.0e-3)]:
            val = _u_connection(a, b, z)
            ref = float(mp.hyperu(a, b, z))
            assert val == pytest.approx(ref, rel=1e-7)

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


def _shift_ratio(a, b, z):
    u0, u1 = u_pair_shift_a(b, z)(a)
    return u1 / u0


def _ref_large_a_ratio(a, b, z):
    """U(a-1)/U(a) on the Bessel branch, the Gamma prefactors cancelled,
    written out in the order of the per-point scalar form."""
    scale = (a - 1.0) * math.exp(0.5 * (b - 1.0) * math.log1p(-1.0 / a))
    k_pair = bessel_k_pair(b - 1.0)
    return scale * _bessel_combo(a - 1.0, b, z, k_pair) \
        / _bessel_combo(a, b, z, k_pair)


class TestRatioHelpers:
    def test_shift_ratio_matches_reference(self):
        # just above the branch switch the expansion floor is ~1e-9; it
        # falls off as the fourth power of the parameter beyond that
        for (a, b, z, tol) in [(414.2, 1.4472, 4e-6, 1e-12),
                               (5650.0, 1.0, 4e-6, 5e-12),
                               (31.5, 1.3, 1e-6, 1e-9),
                               (12.0, 1.7, 0.3, 5e-12)]:
            ref = float(mp.hyperu(a - 1, b, z) / mp.hyperu(a, b, z))
            assert _shift_ratio(a, b, z) == pytest.approx(ref, rel=tol)

    def test_huge_a_ratio_no_overflow(self):
        # U itself is unrepresentable here; the ratio must still evaluate
        val = _shift_ratio(5.36e5, 1.0601, 1e-8)
        assert math.isfinite(val) and val > 0.0

    @pytest.mark.parametrize("a,b,z", [
        (31.0 + 1e-12, 1.3, 1e-6), (31.5, 1.3, 1e-6), (414.2, 1.4472, 4e-6),
        (5650.0, 1.0, 4e-6), (5360.143152184891, 1.3872983346207417, 1e-6),
        (5.36e5, 1.0601, 1e-8), (40.0, 1.2, 25.0)])
    def test_large_a_pair_is_the_scalar_ratio(self, a, b, z):
        # above A_SWITCH + 1 the pair is (1, U(a-1)/U(a)) with the bits of
        # the per-point form, its Bessel pair built once per evaluator
        assert u_pair_shift_a(b, z)(a) == (1.0, _ref_large_a_ratio(a, b, z))

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
# Each writes one route of U out term by term, in the order of the
# per-point scalar code (M*r1*r2, pi/sin(pi b) * (t1 - t2), ...), so an
# evaluator that hoists a factor but changes a rounding shows as a bit.

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


def _ref_straddle(a, b, z):
    bn, h = round(b), 2e-6
    lo = _ref_connection(a, bn - h, z)
    hi = _ref_connection(a, bn + h, z)
    if abs(b - bn) < 1e-12:
        return 0.5 * (lo + hi)
    return lo + (b - (bn - h)) * (hi - lo) / (2.0 * h)


def _ref_laplace(a, b, z):
    return math.exp(_log_gu(a, b, z) - lgamma(a))


def _ref_checked_connection(a, b, z):
    t1, t2 = _ref_terms(a, b, z)
    if (abs(t1) + abs(t2)) / abs(t1 - t2) > 3e3:
        return _ref_laplace(a, b, z)
    return math.pi / sinpi(b) * (t1 - t2)


def _ref_small_a(a, b, z):
    if z > 20.0:
        return _u_large_z(a, b, z)
    return _ref_connection(a, b, z)


def _ref_bessel_ratio(a, b, z, z0):
    # the log form of U(a,b,z)/U(a,b,z0) from per-call e^w-scaled K
    def combo(zz):
        return _bessel_combo(a, b, zz,
                             lambda w: (_bessel_k_scaled(b - 1.0, w),
                                        _bessel_k_scaled(b, w)))

    w_shift = 2.0 * (math.sqrt(a * z) - math.sqrt(a * z0))
    logr = 0.5 * (1.0 - b) * (math.log(z) - math.log(z0)) \
        + 0.5 * (z - z0) - w_shift + math.log(combo(z) / combo(z0))
    return math.exp(logr)


class TestRatioEvaluator:
    # (route, a, b, z0, sample arguments, per-point reference for U)
    ROUTES = [
        ("laguerre", -3.0, 1.4472, 1e-6, (1e-6, 0.3, 4.0, 25.0),
         _ref_laguerre),
        ("connection", -1.3, 1.4472, 1e-6, (3e-6, 0.3, 4.0, 19.9),
         _ref_small_a),
        ("connection, a > 0.1", 1.7, 1.4472, 1e-4, (2e-4, 0.3, 5.0),
         _ref_checked_connection),
        ("near-integer b", -0.7, 2.0000005, 1e-4, (3e-4, 0.5, 6.0),
         lambda a, b, z: _ref_straddle(a, b, z)),
        ("integer b", -0.4, 1.0, 2e-3, (4e-3, 1.5),
         lambda a, b, z: _ref_straddle(a, b, z)),
        ("1/z", -1.3, 1.4472, 1e-6, (20.5, 27.0, 38.0), _ref_small_a),
        ("1/z, near-integer b", -0.7, 1.9999995, 0.5, (24.0, 36.0),
         lambda a, b, z: _u_large_z(a, b, z) if z > 20.0
         else _ref_straddle(a, b, z)),
        ("laplace fallback", 0.5, 1.3, 0.5, (10.0, 15.0),
         _ref_checked_connection),
        ("laplace, integer b", 1.7, 2.0, 1e-3, (0.3, 4.0), _ref_laplace),
    ]

    @pytest.mark.parametrize("route,a,b,z0,zs,ref", ROUTES,
                             ids=[r[0] for r in ROUTES])
    def test_equals_per_point_ratio(self, route, a, b, z0, zs, ref):
        ratio = u_ratio_z_evaluator(a, b, z0)
        u0 = ref(a, b, z0)
        assert tricomi_u(a, b, z0) == u0
        for z in zs:
            u = ref(a, b, z)
            assert tricomi_u(a, b, z) == u, (route, z)
            assert ratio(z) == u / u0, (route, z)

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
        ratio = u_ratio_z_evaluator(a, b, z0)
        for z in (z0, 3.0 * z0, 1e-3, 0.05, 0.25, 1.0, 4.0, 28.0, 36.0):
            want = _ref_bessel_ratio(a, b, z, z0)
            assert ratio(z) == want, z

    def test_bessel_branch_far_tail_is_zero(self):
        a, b, z0 = 5360.143152184891, 1.3872983346207417, 1e-6
        ratio = u_ratio_z_evaluator(a, b, z0)
        assert ratio(28.0) == 0.0 and ratio(36.0) == 0.0
        assert ratio(4.0) > 0.0

    def test_large_a_tricomi_equals_per_point_form(self):
        a, b = 45.0, 1.7
        for z in (1e-4, 1e-3, 0.2):
            combo = _bessel_combo(a, b, z, lambda w: (bessel_k(b - 1.0, w),
                                                      bessel_k(b, w)))
            logu = math.log(2.0) \
                + 0.5 * (1.0 - b) * (math.log(z) - math.log(a)) \
                + 0.5 * z - lgamma(a) + math.log(combo)
            assert tricomi_u(a, b, z) == math.exp(logu)
            assert _u_large_a(a, b, z) == math.exp(logu)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(DomainError):
            u_ratio_z_evaluator(-1.3, 1.4472, 0.0)
        ratio = u_ratio_z_evaluator(-1.3, 1.4472, 1e-6)
        with pytest.raises(DomainError):
            ratio(0.0)
        with pytest.raises(DomainError):
            ratio(-1.0)


# --- the pair evaluator of a root solve in a --------------------------------

def _shares_factors(a, b):
    """Where u_pair_shift_a takes its shared-factor formula: the plain
    connection formula at a and a - 1 (z <= Z_LARGE throughout here)."""
    def plain(x):
        return x <= 0.1 and (x > 0.0 or abs(x - round(x)) >= 1e-12)
    return abs(b - round(b)) >= B_INTEGER_TOL and plain(a) and plain(a - 1.0)


def _check_pair(a, b, z):
    u, u1 = u_pair_shift_a(b, z)(a)
    # U(a) takes tricomi_u's operations in tricomi_u's order
    assert u == tricomi_u(a, b, z), (a, b, z)
    want = tricomi_u(a - 1.0, b, z)
    if not _shares_factors(a, b):
        # so does U(a - 1) wherever the shared factors do not serve
        assert u1 == want, (a, b, z)
        return
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
        # the recurrences 1/Gamma(x-1) = (x-1)/Gamma(x) against two
        # tricomi_u calls, to 1e-13 of the connection formula's |t1| + |t2|.
        # a is drawn with a - 1 exact: where it rounds, tricomi_u(a - 1.0)
        # is U at another argument (test_exact_shift_near_a_pole)
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

    def test_shared_formula_is_taken(self):
        # the explicit cases above reach both sides of every fall-back test
        assert _shares_factors(0.1, 1.4472)
        assert not _shares_factors(0.1 + 1e-9, 1.4472)
        assert _shares_factors(2.0 ** -39, 2.0 + 2e-6)
        assert not _shares_factors(1e-13, 2.0 + 2e-6)  # a - 1 is Laguerre
        assert not _shares_factors(-1e-13, 1.4472)
        assert not _shares_factors(-0.5, 2.0 - 5e-7)

    def test_large_argument_is_tricomi_u(self):
        # above Z_LARGE the 1/z expansion serves a and a - 1
        pair = u_pair_shift_a(1.4472, 25.0)
        for a in (-1.3, 0.05):
            assert pair(a) == (tricomi_u(a, 1.4472, 25.0),
                               tricomi_u(a - 1.0, 1.4472, 25.0))

    def test_rejects_nonpositive_argument(self):
        for z in (0.0, -1.0):
            with pytest.raises(DomainError):
                u_pair_shift_a(1.4472, z)
