import math

import mpmath as mp
import numpy as np
import pytest

from pseudoharm.errors import DomainError, EvaluationOverflowError, PoleError
from pseudoharm.specfun import gamma, lgamma, rgamma, sinpi

mp.mp.dps = 40

SQRT_PI = 1.7724538509055160273

# Gamma(7.5) = 6.5*5.5*...*0.5*sqrt(pi): exact half-integer product oracle
GAMMA_7_5 = 1055.7421875 * SQRT_PI


def test_known_values():
    assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(7.5) == pytest.approx(GAMMA_7_5, rel=1e-13)


def test_accuracy_over_range():
    rng = np.random.default_rng(11)
    worst = 0.0
    for x in rng.uniform(-50, 50, size=1500):
        if x <= 0.0 and abs(x - round(x)) < 1e-3:
            continue
        rel = abs(gamma(float(x)) - float(mp.gamma(float(x)))) \
            / abs(float(mp.gamma(float(x))))
        worst = max(worst, rel)
    assert worst < 1e-13


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -37.0])
def test_poles_raise(x):
    with pytest.raises(PoleError):
        gamma(x)


def test_overflow_reports_threshold():
    with pytest.raises(EvaluationOverflowError) as exc:
        gamma(200.0)
    assert exc.value.threshold == pytest.approx(171.61447887182298)


def test_lgamma_matches_log_of_gamma():
    for x in (0.25, 1.0, 3.7, 20.0, 171.0, 5000.0):
        assert lgamma(x) == pytest.approx(float(mp.loggamma(x)), abs=1e-11)
    with pytest.raises(DomainError):
        lgamma(-1.5)


def test_rgamma_entire():
    assert rgamma(-3.0) == 0.0
    assert rgamma(0.0) == 0.0
    for x in (-50.2, -3.7, -1e-9, 0.3, 5.0, 150.0):
        assert rgamma(x) == pytest.approx(float(1 / mp.gamma(x)), rel=1e-13)


def test_sinpi_cospi_exact_reduction():
    assert sinpi(3.0) == 0.0
    assert sinpi(-41.0) == 0.0
    assert sinpi(0.5) == 1.0
    assert sinpi(-1e-9) == pytest.approx(-math.pi * 1e-9, rel=1e-12)
    for x in (-7.25, 0.3, 12.9, -0.75):
        assert sinpi(x) == pytest.approx(float(mp.sinpi(x)), rel=1e-14, abs=1e-300)
