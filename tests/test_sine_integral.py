import math

import mpmath as mp
import numpy as np
import pytest

from conftest import simpson
from pseudoharm import matmech, refdata
from pseudoharm.errors import DomainError
from pseudoharm.specfun import sine_integral, sine_integral_array
from pseudoharm.specfun.sine_integral import _PIECES
from si_coefficients import all_pieces

mp.mp.dps = 30


def test_zero():
    assert sine_integral(0.0) == 0.0


def test_value_at_pi_vs_quadrature():
    # quadrature oracle over [0, pi]
    oracle = simpson(lambda t: math.sin(t) / t if t else 1.0, 0.0, math.pi,
                     n=8001)
    v = sine_integral(math.pi)
    assert v == pytest.approx(oracle, abs=1e-12)
    assert v == pytest.approx(1.851937052, abs=1e-9)


def test_limit_at_infinity():
    # Si(z) - pi/2 decays like -cos(z)/z: about 1e-6 at z=1e6, not faster
    v = sine_integral(1e6)
    assert abs(v - 0.5 * math.pi) < 2e-6
    assert abs(v - 0.5 * math.pi) > 1e-8  # the 1/z tail is really there


@pytest.mark.parametrize("z", [1e-8, 0.3, 1.0, 3.9, 4.1, 7.0, 12.0, 25.0,
                               39.0, 41.0, 100.0, 1e4, 1e6])
def test_against_reference(z):
    assert sine_integral(z) == pytest.approx(float(mp.si(z)), abs=2e-13)


def test_monotone_on_first_arch():
    zs = np.linspace(0.0, math.pi, 50)
    vals = [sine_integral(float(z)) for z in zs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_rejects_negative():
    with pytest.raises(DomainError):
        sine_integral(-0.5)


@pytest.mark.parametrize("z", [math.nan, math.inf])
def test_rejects_non_finite(z):
    with pytest.raises(DomainError, match="finite"):
        sine_integral_array([1.0, z])


def test_array_kernel_sweep_across_seams():
    # the series/Chebyshev seam at 4, the Chebyshev pieces' seams at 8, 16
    # and 32 (u = 1/2, 1/4, 1/8), the old quadrature/asymptotic seam at 40,
    # and the Chebyshev form out to 1e6
    seams = np.array([4.0, 8.0, 16.0, 32.0])
    zs = np.concatenate([
        np.linspace(0.0, 8.0, 801),
        np.linspace(3.99, 4.01, 41),
        seams, np.nextafter(seams, 0.0), np.nextafter(seams, 64.0),
        np.linspace(38.0, 42.0, 201),
        np.geomspace(8.0, 1e6, 400),
    ])
    got = sine_integral_array(zs)
    want = np.array([float(mp.si(z)) for z in zs])
    assert np.max(np.abs(got - want)) < 2e-13
    assert [sine_integral(float(z)) for z in zs] == list(got)


def test_array_kernel_keeps_shape_and_rejects_negative():
    zs = np.array([[0.5, 5.0], [50.0, 0.0]])
    assert sine_integral_array(zs).shape == (2, 2)
    with pytest.raises(DomainError):
        sine_integral_array([1.0, -1e-9])


def _table_arguments(monkeypatch, rho, delta, n_max):
    """The arguments p/2 and p eps/2 the coupling tables pass to Si."""
    seen = []

    def capture(z):
        seen.append(np.array(z))
        return sine_integral_array(z)

    monkeypatch.setattr(matmech, "sine_integral_array", capture)
    matmech._coupling_tables(matmech.epsilon_from_delta(delta, rho), n_max)
    (args,) = seen
    return args


@pytest.mark.parametrize("rho, delta, n_max", [
    (5.0, refdata.TABLE1_DELTA, 2000),      # table1 defaults
    (25.0, 0.01, 1600),                     # the excited-matrix benchmark
    (refdata.TABLE1_MATRIX_RHO, refdata.TABLE1_DELTA,
     refdata.TABLE1_MATRIX_NMAX),           # the paper's matrix settings
])
def test_table_arguments_against_reference(monkeypatch, rho, delta, n_max):
    zs = _table_arguments(monkeypatch, rho, delta, n_max)
    assert zs.size == 2 * n_max + 1
    got = sine_integral_array(zs)
    want = np.array([float(mp.si(z)) for z in zs])
    assert np.max(np.abs(got - want)) <= 1e-15


def test_chebyshev_coefficients_rebuild_from_mpmath():
    # the literals in the module are what tests/si_coefficients.py gives
    assert _PIECES == all_pieces()
