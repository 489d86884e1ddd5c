import math

import numpy as np
import pytest

from pseudoharm.errors import NonConvergenceError
from pseudoharm.quadrature import gauss_kronrod_15, integrate, integrate_to_infinity


def test_kronrod_exact_on_polynomials():
    # the 15-point Kronrod rule integrates degree <= 22 exactly
    for deg in (0, 3, 7, 13, 21):
        val, err = gauss_kronrod_15(lambda x: (deg + 1) * x ** deg, 0.0, 1.0)
        assert val == pytest.approx(1.0, rel=1e-14), deg


def test_adaptive_known_integrals():
    assert integrate(np.sin, 0.0, math.pi, rel_tol=1e-13) == pytest.approx(2.0, rel=1e-13)
    assert integrate(lambda x: np.exp(-x * x), -6.0, 6.0, rel_tol=1e-13) \
        == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    # mildly nasty: peaked integrand
    assert integrate(lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0, rel_tol=1e-12) \
        == pytest.approx(2.0 / 1e-2 * math.atan(1.0 / 1e-2), rel=1e-11)


def test_budget_exhaustion_reports_achieved():
    with pytest.raises(NonConvergenceError) as exc:
        integrate(lambda x: abs(x - 1.0 / 3.0) ** -0.9, 0.0, 1.0,
                  rel_tol=1e-14, max_intervals=12)
    assert "achieved" in exc.value.context


def test_semi_infinite_gaussian():
    val = integrate_to_infinity(lambda x: np.exp(-0.5 * x * x), 0.0,
                                rel_tol=1e-12)
    assert val == pytest.approx(math.sqrt(0.5 * math.pi), rel=1e-12)


def test_semi_infinite_nondecaying_raises():
    with pytest.raises(NonConvergenceError):
        integrate_to_infinity(lambda x: 1.0 / (1.0 + x), 0.0, max_doublings=20)
