import math

import numpy as np
import pytest

from pseudoharm.errors import NonConvergenceError
from pseudoharm.quadrature import (_WG, _WGK, _XGK, _kronrod_panels,
                                   integrate, integrate_to_infinity)


def test_kronrod_exact_on_polynomials():
    # the 15-point Kronrod rule integrates degree <= 22 exactly
    for deg in (0, 3, 7, 13, 21):
        val, err = _kronrod_panels(lambda x: (deg + 1) * x ** deg,
                                   np.array([0.0]), np.array([1.0]))
        assert float(val[0]) == pytest.approx(1.0, rel=1e-14), deg


def _scalar_kronrod(f, a, b):
    """The G7/K15 rule with its nodes placed and its sums taken one scalar
    at a time: the reference for the batched panel sums."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    nodes = [c] + [c - h * x for x in _XGK[:7]] + [c + h * x for x in _XGK[:7]]
    values = f(np.array(nodes)).tolist()
    result_k, result_g = _WGK[7] * values[0], _WG[3] * values[0]
    for j in range(7):
        pair = values[1 + j] + values[8 + j]
        result_k += _WGK[j] * pair
        if j % 2 == 1:
            result_g += _WG[j // 2] * pair
    return result_k * h, abs((result_k - result_g) * h)


def test_batched_panels_match_scalar_rule_bits():
    rng = np.random.default_rng(3)
    lo = rng.normal(scale=3.0, size=40)
    hi = lo + rng.choice([1e-12, 1e-3, 1.0, 10.0], size=40) * rng.random(40)
    for f in (np.sin, lambda x: np.exp(-x * x),
              lambda x: np.sqrt(np.abs(x)) * np.cos(7.0 * x)):
        val, err = _kronrod_panels(f, lo, hi)
        for i in range(lo.size):
            want = _scalar_kronrod(f, float(lo[i]), float(hi[i]))
            assert (float(val[i]), float(err[i])) == want
            one_val, one_err = _kronrod_panels(f, lo[i:i + 1], hi[i:i + 1])
            assert (float(one_val[0]), float(one_err[0])) == want


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


def _counted(f):
    """f with a record of the sizes of the arrays it is called on."""
    sizes = []

    def g(x):
        sizes.append(np.size(x))
        return f(x)

    return g, sizes


@pytest.mark.parametrize("run, f, exact, rel, max_calls, max_points", [
    # bounds: about 1.5x the measured calls (2, 5, 10, 10, 3) and points
    # (45, 405, 825, 6435, 227); a greedy bisection of one panel per call
    # takes 2, 14, 28, 215 and 7 calls.  The semi-infinite points are the
    # 122 tail probes of all 60 doublings, in one call, and 105 nodes of
    # the refinement
    (lambda g: integrate(g, 0.0, math.pi, rel_tol=1e-13), np.sin,
     2.0, 1e-13, 3, 70),
    (lambda g: integrate(g, -6.0, 6.0, rel_tol=1e-13),
     lambda x: np.exp(-x * x), math.sqrt(math.pi), 1e-13, 8, 610),
    (lambda g: integrate(g, -1.0, 1.0, rel_tol=1e-12),
     lambda x: 1.0 / (1e-4 + x * x), 2.0 / 1e-2 * math.atan(1.0 / 1e-2),
     1e-11, 15, 1240),
    # the part of 0.5 sqrt(pi) outside [-6, 6] is below 1e-16 of it
    (lambda g: integrate(g, -6.0, 6.0, rel_tol=1e-12),
     lambda x: np.sin(40.0 * x) ** 2 * np.exp(-x * x),
     0.5 * math.sqrt(math.pi), 1e-12, 15, 9660),
    (lambda g: integrate_to_infinity(g, 0.0, rel_tol=1e-12),
     lambda x: np.exp(-0.5 * x * x), math.sqrt(0.5 * math.pi), 1e-12, 5,
     340),
], ids=["sin", "gaussian", "peaked", "sin2-gaussian", "semi-infinite"])
def test_rounds_call_integrand_few_times(run, f, exact, rel, max_calls,
                                         max_points):
    g, sizes = _counted(f)
    assert run(g) == pytest.approx(exact, rel=rel)
    assert len(sizes) <= max_calls
    assert sum(sizes) <= max_points


def test_jump_ends_at_float_resolution():
    # rel_tol 0 drives the panels at the jump to float resolution; the
    # refinement must end there, by a value or by NonConvergenceError
    g, sizes = _counted(lambda x: np.where(x < 1.0 / 3.0, 1.0, 2.0))
    try:
        val = integrate(g, 0.0, 1.0, rel_tol=0.0)
    except NonConvergenceError as exc:
        assert exc.context["intervals"] <= 2000
    else:
        assert val == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert len(sizes) <= 2000


@pytest.mark.parametrize("max_intervals", [2, 12, 13, 50, 100])
def test_rounds_stay_within_panel_budget(max_intervals):
    g, sizes = _counted(lambda x: abs(x - 1.0 / 3.0) ** -0.9)
    with pytest.raises(NonConvergenceError) as exc:
        integrate(g, 0.0, 1.0, rel_tol=1e-14, max_intervals=max_intervals)
    # one panel to start, then two new ones per bisection
    panels_evaluated = sum(sizes) // 15
    assert (panels_evaluated - 1) // 2 + 1 <= max_intervals
    assert exc.value.context["intervals"] <= max_intervals
    assert exc.value.context["rounds"] == len(sizes)
    lo, hi = exc.value.context["worst_interval"]
    assert lo <= 1.0 / 3.0 <= hi
