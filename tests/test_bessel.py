import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bessel_k, simpson
from pseudoharm.errors import DomainError
from pseudoharm.specfun import bessel_k_pair

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
    assert bessel_k(lam, z) == pytest.approx(float(mp.besselk(lam, z)), rel=tol)


def test_order_symmetry():
    assert bessel_k(-0.7, 1.3) == bessel_k(0.7, 1.3)


def test_near_integer_order_floor():
    val = bessel_k(1.0000004, 1.2)
    ref = float(mp.besselk(1.0000004, 1.2))
    assert val == pytest.approx(ref, rel=2e-6)


@pytest.mark.parametrize("lam", [4e-7, 5e-6, -5e-6, 1e-4, 0.01, 0.049,
                                 1.0000004, 1.0 + 5e-6, 1.0 - 5e-6, 0.99,
                                 1.01, 2.03, 3.0 - 1e-3])
def test_near_integer_orders_below_two(lam):
    # Temme's series: no 1/sin(pi mu) cancellation as the order approaches
    # an integer
    for z in (1e-6, 0.01, 0.3, 0.5, 1.0, 1.9, 1.999):
        assert bessel_k(lam, z) == pytest.approx(
            float(mp.besselk(lam, z)), rel=2e-14), z


def test_temme_gamma_coefficients():
    # the frozen Taylor coefficients of 1/Gamma(1 + x) at odd powers, from
    # log(1/Gamma(1 + x)) = gamma x - sum_(k>=2) (-1)^k zeta(k) x^k / k
    # exponentiated term by term (t' = g' t); mp.taylor agrees bit for bit
    # but takes seconds at this order
    from pseudoharm.specfun.bessel import _RGAMMA_ODD_TAYLOR
    g = [mp.mpf(0), +mp.euler] + [-(-1) ** k * mp.zeta(k) / k
                                  for k in range(2, 22)]
    taylor = [mp.mpf(1)]
    for k in range(1, 22):
        taylor.append(mp.fsum(j * g[j] * taylor[k - j]
                              for j in range(1, k + 1)) / k)
    assert _RGAMMA_ODD_TAYLOR == tuple(float(taylor[k])
                                       for k in range(1, 22, 2))


def test_positivity_and_monotone_decay():
    zs = np.linspace(0.05, 20.0, 140)
    for lam in (0.0, 0.33, 1.0, 1.7, 2.5, 3.0):
        vals = np.array([bessel_k(lam, float(z)) for z in zs])
        assert np.all(vals > 0.0), lam
        assert np.all(np.diff(vals) < 0.0), lam


def test_rejects_nonpositive_argument():
    with pytest.raises(DomainError):
        bessel_k(0.5, 0.0)
    with pytest.raises(DomainError):
        bessel_k(0.5, -1.0)


_NEAR_INTEGER_ORDERS = st.builds(
    lambda n, log_d, sign: n + sign * 10.0 ** log_d,
    st.integers(0, 3), st.floats(-7.0, -3.0), st.sampled_from([-1.0, 1.0]))
_ORDERS = st.one_of(
    st.floats(-0.5, 3.5),
    st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]),
    _NEAR_INTEGER_ORDERS)
_ARGUMENTS = st.one_of(
    st.floats(-4.0, 3.0).map(lambda t: 10.0 ** t),
    st.sampled_from([2.0 - 1e-6, 2.0, 2.0 + 1e-6]),
    st.floats(8.4, 8.6))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(lam=_ORDERS, z=_ARGUMENTS)
def test_k_pair_against_mpmath(lam, z):
    # K_lam and K_(lam+1) against 30 digits across
    # the Temme/CF2 switch at z = 2 and at orders near integers and
    # half-integers; measured worst 9.9e-15 on a 5 559-point sweep
    plain = bessel_k_pair(lam)(z)
    with mp.workdps(30):
        for k in (0, 1):
            ref = mp.besselk(mp.mpf(lam) + k, z)
            if ref > 1e-300:
                assert abs(plain[k] - ref) <= 5e-14 * ref, k
            else:  # K underflows the normal doubles
                assert 0.0 <= plain[k] < 1e-299, k
