import math

import mpmath as mp
import numpy as np
import pytest

from pseudoharm.errors import (DomainError, EvaluationOverflowError,
                               NonConvergenceError)
from pseudoharm.specfun import (kummer_m, laguerre, tricomi_u,
                                u_ratio_shift_a, u_ratio_shift_z)
from pseudoharm.specfun.hyper import _u_connection, _u_large_a

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


class TestRatioHelpers:
    def test_shift_ratio_matches_reference(self):
        # just above the branch switch the expansion floor is ~1e-9; it
        # falls off as the fourth power of the parameter beyond that
        for (a, b, z, tol) in [(414.2, 1.4472, 4e-6, 1e-12),
                               (5650.0, 1.0, 4e-6, 5e-12),
                               (31.5, 1.3, 1e-6, 1e-9),
                               (12.0, 1.7, 0.3, 5e-12)]:
            ref = float(mp.hyperu(a - 1, b, z) / mp.hyperu(a, b, z))
            assert u_ratio_shift_a(a, b, z) == pytest.approx(ref, rel=tol)

    def test_huge_a_ratio_no_overflow(self):
        # U itself is unrepresentable here; the ratio must still evaluate
        val = u_ratio_shift_a(5.36e5, 1.0601, 1e-8)
        assert math.isfinite(val) and val > 0.0

    def test_z_ratio_matches_reference(self):
        for (a, b, z1, z2) in [(414.2, 1.4472, 9e-6, 4e-6),
                               (-2.3, 1.7, 4.0, 0.5),
                               (40.0, 1.2, 1e-3, 1e-5)]:
            ref = float(mp.hyperu(a, b, z1) / mp.hyperu(a, b, z2))
            assert u_ratio_shift_z(a, b, z1, z2) == pytest.approx(ref, rel=1e-9)

    def test_z_ratio_far_tail_underflows_to_zero(self):
        # runaway ground state at alpha = -0.1, delta = 1e-3: K_b(2 sqrt(a z))
        # underflows from z ~ 26 on, where the ratio must go to 0.0
        a, b, z0 = 5360.143152184891, 1.3872983346207417, 1e-6
        for z1 in (0.25, 1.0, 4.0):
            ref = float(mp.hyperu(a, b, z1) / mp.hyperu(a, b, z0))
            assert u_ratio_shift_z(a, b, z1, z0) == pytest.approx(ref, rel=1e-12)
        for z1 in (28.0, 36.0):
            assert u_ratio_shift_z(a, b, z1, z0) == 0.0
