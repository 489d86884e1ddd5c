import math

import mpmath as mp
import numpy as np
import pytest

from pseudoharm.errors import DomainError
from pseudoharm.quadrature import integrate_to_infinity
from pseudoharm.specfun import gamma, laguerre

mp.mp.dps = 30


def test_degree_zero_is_one():
    for lam, x in [(0.5, 0.0), (-0.3, 2.0), (1.7, 9.0)]:
        assert laguerre(0, lam, x) == 1.0


def test_degree_one():
    for x in (0.0, 0.5, 4.0):
        assert laguerre(1, 0.5, x) == pytest.approx(1.5 - x, rel=1e-15)


def test_against_reference():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(0, 40))
        lam = float(rng.uniform(-0.9, 3.0))
        x = float(rng.uniform(0.0, 20.0))
        ref = float(mp.laguerre(n, lam, x))
        assert laguerre(n, lam, x) == pytest.approx(ref, rel=1e-11, abs=1e-250)


def test_orthogonality_norm():
    # int_0^inf x^0.5 e^-x [L_0^(0.5)]^2 dx = Gamma(1.5)
    val = integrate_to_infinity(
        lambda x: np.sqrt(x) * np.exp(-x), 1e-12, rel_tol=1e-12)
    assert val == pytest.approx(gamma(1.5), rel=1e-10)
    assert gamma(1.5) == pytest.approx(0.8862269254527580, rel=1e-12)


def test_orthogonality_cross_terms():
    lam = 0.5
    for n, m in [(0, 1), (1, 2), (0, 3), (2, 2)]:
        val = integrate_to_infinity(
            lambda x: x ** lam * np.exp(-x)
            * laguerre(n, lam, x) * laguerre(m, lam, x),
            1e-12, rel_tol=1e-12)
        if n == m:
            expect = gamma(n + lam + 1.0) / math.factorial(n)
            assert val == pytest.approx(expect, rel=1e-9)
        else:
            assert abs(val) < 1e-10


def test_domain_errors():
    with pytest.raises(DomainError):
        laguerre(-1, 0.5, 1.0)
    with pytest.raises(DomainError):
        laguerre(201, 0.5, 1.0)
    with pytest.raises(DomainError):
        laguerre(3, -1.0, 1.0)
    with pytest.raises(DomainError):
        laguerre(3, 0.5, -0.1)


def test_array_equals_scalar_bit_for_bit():
    # the closed-form wave functions take the array recurrence; each
    # element must carry the scalar call's bits
    x = np.linspace(0.0, 60.0, 1201)
    for n in (0, 1, 2, 7, 30, 200):
        for lam in (-0.5, -0.3, 0.4219544457292887, 1.7):
            arr = laguerre(n, lam, x)
            assert arr.shape == x.shape
            for xi, v in zip(x.tolist(), arr.tolist()):
                assert v == laguerre(n, lam, xi), (n, lam, xi)
    with pytest.raises(DomainError):
        laguerre(3, 0.5, np.array([0.1, -0.1]))
