import math

import mpmath as mp
import numpy as np
import pytest

from conftest import simpson
from pseudoharm.errors import DomainError
from pseudoharm.specfun import bessel_i, bessel_k
from pseudoharm.specfun.bessel import _bessel_k_scaled

mp.mp.dps = 40


def k_quadrature_oracle(lam, z):
    """Independent oracle: K_lam(z) = int_0^inf exp(-z cosh t) cosh(lam t) dt."""
    t_max = math.acosh(45.0 / z) + 1.0 if z < 45.0 else 2.0
    return simpson(lambda t: math.exp(-z * math.cosh(t)) * math.cosh(lam * t),
                   0.0, t_max, n=20001)


def test_half_order_closed_form():
    # K_{1/2}(2) = sqrt(pi/4) e^-2
    assert bessel_k(0.5, 2.0) == pytest.approx(
        math.sqrt(math.pi / 4.0) * math.exp(-2.0), rel=1e-15)


def test_half_order_recurrence():
    # K_{3/2}(2) = K_{1/2}(2) * (1 + 1/2)
    assert bessel_k(1.5, 2.0) == pytest.approx(
        1.5 * bessel_k(0.5, 2.0), rel=1e-14)


def test_against_quadrature_oracle():
    assert bessel_k(0.9, 0.5) == pytest.approx(
        k_quadrature_oracle(0.9, 0.5), rel=1e-10)


@pytest.mark.parametrize("lam,z,tol", [
    (0.0, 0.3, 1e-13), (1.0, 0.08, 1e-13), (2.0, 0.5, 1e-13),
    (0.4472, 0.0814, 1e-13), (1.4472, 0.0814, 1e-13),
    (2.7, 5.0, 1e-11), (0.3, 8.4, 2e-8), (1.2, 9.0, 1e-8),
    (2.9, 15.0, 1e-13), (3.0, 19.5, 1e-13), (2.0, 12.0, 1e-11),
    (0.5528, 0.29, 1e-13),
])
def test_against_reference(lam, z, tol):
    # the seam between the series and asymptotic routes (z ~ 8.5) carries a
    # documented ~1e-8 floor for the unluckiest orders
    assert bessel_k(lam, z) == pytest.approx(float(mp.besselk(lam, z)), rel=tol)


def test_order_symmetry():
    assert bessel_k(-0.7, 1.3) == bessel_k(0.7, 1.3)


def test_near_integer_order_floor():
    # within 1e-6 of an integer order the integer-limit route applies, with
    # an accuracy floor of about |order - integer| * |dK/d(order)|
    val = bessel_k(1.0000004, 1.2)
    ref = float(mp.besselk(1.0000004, 1.2))
    assert val == pytest.approx(ref, rel=2e-6)


def test_positivity_and_monotone_decay():
    zs = np.linspace(0.05, 20.0, 140)
    for lam in (0.0, 0.33, 1.0, 1.7, 2.5, 3.0):
        vals = np.array([bessel_k(lam, float(z)) for z in zs])
        assert np.all(vals > 0.0), lam
        assert np.all(np.diff(vals) < 0.0), lam


def test_scaled_k_on_every_route():
    # e^z K through the half-integer, integer-series, non-integer-series and
    # asymptotic routes; past z ~ 745, where K underflows, it stays finite
    for lam in (0.5, 2.5, 0.0, 2.0, 0.3873, 1.3873):
        for z in (0.3, 8.4, 9.0, 40.0):
            expect = bessel_k(lam, z) * math.exp(z)
            assert _bessel_k_scaled(lam, z) == pytest.approx(expect, rel=1e-14)
        assert bessel_k(lam, 1000.0) == 0.0
        ref = float(mp.besselk(lam, 1000) * mp.exp(1000))
        assert _bessel_k_scaled(lam, 1000.0) == pytest.approx(ref, rel=1e-14)


def test_rejects_nonpositive_argument():
    with pytest.raises(DomainError):
        bessel_k(0.5, 0.0)
    with pytest.raises(DomainError):
        bessel_k(0.5, -1.0)


def test_bessel_i_reference():
    for lam, z in [(0.5, 1.0), (-0.9, 0.3), (2.0, 4.0), (-2.0, 4.0), (0.0, 1e-3)]:
        assert bessel_i(lam, z) == pytest.approx(
            float(mp.besseli(lam, z)), rel=1e-13)
