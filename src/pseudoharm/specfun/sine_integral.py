"""Sine integral Si(z) = integral of sin(t)/t from 0 to z, z >= 0.

One numpy-vectorized kernel serves scalars and arrays.  Below z = 4 it sums
the power series; from 4 on it takes Si = pi/2 + Im[E1(iz) e^{iz}] with
E1(iz) e^{iz} from its continued fraction, evaluated by the modified Lentz
method (Numerical Recipes section 6.8, ``cisi``; DLMF 6.5.4 and 6.9).  The
fraction converges fastest at large z and needs at most 48 terms at z = 4;
an argument it fails to converge on raises instead of returning a value.
"""

import math

import numpy as np

from ..errors import DomainError, NonConvergenceError

_HALF_PI = 0.5 * math.pi
_Z_SERIES = 4.0
_SERIES_TERMS = 40        # z^(2k+1)/(2k+1)! at z = 4 is below 1e-25 by k = 28
_CF_MAX_TERMS = 100
_CF_TOL = 4e-16
_TINY = 1e-300


def _si_series(z):
    z2 = z * z
    term = z.copy()
    total = z.copy()
    for k in range(1, _SERIES_TERMS):
        term *= -z2 / ((2 * k) * (2 * k + 1))
        total += term / (2 * k + 1)
    return total


def _si_continued_fraction(z):
    # E1(iz) e^{iz} = 1/(1+iz- 1^2/(3+iz- 2^2/(5+iz- ...)))
    b = 1.0 + 1j * z
    c = np.full(z.shape, 1.0 / _TINY, dtype=complex)
    d = 1.0 / b
    h = d.copy()
    out = np.empty(z.shape, dtype=complex)
    live = np.arange(z.size)
    for i in range(2, _CF_MAX_TERMS + 1):
        a = -float((i - 1) ** 2)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        step = c * d
        h = h * step
        # each value leaves the working arrays at its own convergence, so it
        # does not depend on the other arguments it is evaluated with
        done = np.abs(step - 1.0) < _CF_TOL
        if np.any(done):
            out[live[done]] = h[done]
            going = ~done
            live, b, c, d, h = (live[going], b[going], c[going], d[going],
                                h[going])
            if live.size == 0:
                break
    else:
        raise NonConvergenceError(
            "sine_integral: continued fraction did not converge",
            terms=_CF_MAX_TERMS, z_min=float(np.min(z)))
    # Im[h e^{-iz}] in real arithmetic: numpy's in-place complex product
    # rounds differently on long arrays than on one element
    return _HALF_PI + (out.imag * np.cos(z) - out.real * np.sin(z))


def sine_integral_array(z):
    """Si(z) elementwise to about 1e-15 absolute for z >= 0; float ndarray."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise DomainError(
            f"sine_integral: requires z >= 0, got {float(np.min(z))}")
    out = np.empty(z.shape)
    low = z < _Z_SERIES
    out[low] = _si_series(z[low])
    high = ~low
    if np.any(high):
        out[high] = _si_continued_fraction(z[high])
    return out


def sine_integral(z: float) -> float:
    """Si(z) for scalar z >= 0; the one-element case of sine_integral_array."""
    return float(sine_integral_array([z])[0])
