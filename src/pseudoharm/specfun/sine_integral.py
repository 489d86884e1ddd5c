"""Sine integral Si(z) = integral of sin(t)/t from 0 to z, z >= 0.

One numpy-vectorized kernel serves scalars and arrays.  Below z = 4 it sums
the power series.  From 4 on it takes Si = pi/2 - f(z) cos z - g(z) sin z
with the auxiliary functions f and g (DLMF 6.2(iii)): z f(z) and z^2 g(z)
are smooth and bounded in u = 4/z in (0, 1], and each is a degree-16
Chebyshev series on the pieces (0, 1/8], (1/8, 1/4], (1/4, 1/2] and
(1/2, 1], that is z >= 32, [16, 32), [8, 16) and [4, 8), summed by
Clenshaw's recurrence.  Against 40-digit mpmath the Chebyshev form errs by
at most 2.2e-16 absolute on [4, 2e4] and the series by 8.9e-16 below 4.
Every value takes the same operations whatever else the call evaluates, so
the scalar is the one-element case of the array.

The coefficients in ``_PIECES`` are interpolants at the Chebyshev points of
the first kind, from 50-digit mpmath; ``tests/si_coefficients.py`` rebuilds
them, and a test checks that it gives these literals.
"""

import math

import numpy as np

from ..errors import DomainError

_HALF_PI = 0.5 * math.pi
_Z_SERIES = 4.0
_SERIES_TERMS = 40        # z^(2k+1)/(2k+1)! at z = 4 is below 1e-25 by k = 28

# (u_hi, Chebyshev coefficients of z f(z), of z^2 g(z)) on (u_lo, u_hi],
# u = 4/z, u_lo the previous u_hi (0 for the first); the argument of
# T_j is t = (2u - u_lo - u_hi) / (u_hi - u_lo)
_PIECES = (
    (0.125,
     (0.9992736920369348, -0.0009667963581509694,
      -0.00023928763601635528, 1.362946317621378e-06,
      1.5903344379566962e-07, -3.3834979462890377e-09,
      -2.1756734142073142e-10, 1.2514698652846122e-11,
      3.291658044851256e-13, -5.87969719434526e-14,
      7.708076517134028e-16, 2.9198690450849874e-16,
      -2.0455023805498432e-17, -9.59970240358459e-19,
      2.382541189241831e-19, -8.556696635814774e-21,
      -1.8251068104180447e-21),
     (0.9978330272463032, -0.0028813295812634074,
      -0.0007084492289451133, 6.687786468709796e-06,
      7.589008668372754e-07, -2.273236035591664e-08,
      -1.3435359710787572e-09, 1.043472269492861e-10,
      1.925477095121245e-12, -5.666393696972639e-13,
      1.4393080871841256e-14, 2.994327657876399e-15,
      -2.845099341240979e-16, -7.074981741636619e-18,
      3.267283852032782e-18, -1.8663083515350088e-19,
      -2.216450656681723e-20)),
    (0.25,
     (0.9955039433348281, -0.0027787989992819036,
      -0.00021048501719643032, 3.20283585497995e-06,
      6.724918469314264e-08, -4.638873878043333e-09,
      7.014072578229691e-11, 4.63285627894989e-12,
      -3.6600727427394753e-13, 9.680743699629672e-15,
      3.813998198686285e-16, -5.644914351010083e-17,
      3.0124171073793162e-18, -3.684372315407423e-20,
      -9.01687754573266e-21, 1.0056036712465407e-21,
      -5.723202407954214e-23),
     (0.9867756017543846, -0.00806263102554336,
      -0.0005734041479991596, 1.4381507667652391e-05,
      1.981106464129015e-07, -2.5260689390659113e-08,
      6.802356595767972e-10, 1.9690611764499395e-11,
      -2.7673336952590246e-12, 1.186647484527148e-13,
      5.390150476833788e-16, -4.621863005986339e-16,
      3.6123912613864855e-17, -1.2484855275572122e-18,
      -4.6480021486088545e-20, 1.0666383487995244e-20,
      -8.739919507598123e-22)),
    (0.5,
     (0.9833440371387195, -0.009789943033934502,
      -0.000587588876735631, 2.8180904082883062e-05,
      -3.363769522265227e-07, -4.618958011095669e-08,
      4.427770668377442e-09, -2.0700586556997165e-10,
      7.454176091268371e-13, 9.335653104217775e-13,
      -1.1040645161951299e-13, 7.899668835181517e-15,
      -3.1036727956403784e-16, -1.2113382582168202e-17,
      3.966934078860776e-18, -4.895366439733601e-19,
      4.245105103099315e-20),
     (0.953050642318503, -0.026470245559080594,
      -0.00125954256009034, 0.00010434522145021733,
      -3.0230725186626427e-06, -1.2058970743454732e-07,
      2.2360792456784262e-08, -1.6099356369752966e-09,
      5.542620881708749e-11, 2.8627198630143315e-12,
      -7.014183632544088e-13, 7.245716761545182e-14,
      -4.911498485834692e-15, 1.529463071766979e-16,
      1.6549876380728507e-17, -3.835214317245798e-18,
      4.627901221535309e-19)),
    (1.0,
     (0.9456948502821582, -0.028233801655034252,
      -0.0008044878559027043, 0.00012148407180044161,
      -8.081712187981541e-06, 3.029827842244046e-07,
      8.819599915810802e-09, -3.2067110490690106e-09,
      4.067229629362949e-10, -3.765573154426448e-11,
      2.6421871207331645e-12, -1.026548944958301e-13,
      -7.784162984194707e-15, 2.5004035571365575e-15,
      -3.8991623364559714e-16, 4.768841200743662e-17,
      -4.9151758943788526e-18),
     (0.8604500319812468, -0.0655831928024807,
      -0.00028233881571446156, 0.000295296634819374,
      -3.134340385035312e-05, 2.109508992266979e-06,
      -6.842443675659774e-08, -6.653043754223222e-09,
      1.6731671530710441e-09, -2.2081173025917385e-10,
      2.229030594807176e-11, -1.7590931155466624e-12,
      8.709644948687946e-14, 3.220510697343471e-15,
      -1.6719946326734081e-15, 3.001191069075942e-16,
      -4.0624524516182677e-17)),
)


def _si_series(z):
    z2 = z * z
    term = z.copy()
    total = z.copy()
    for k in range(1, _SERIES_TERMS):
        term *= -z2 / ((2 * k) * (2 * k + 1))
        total += term / (2 * k + 1)
    return total


def _clenshaw(coefficients, t):
    """sum_j c_j T_j(t) by Clenshaw's recurrence."""
    two_t = 2.0 * t
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    for c in coefficients[:0:-1]:
        b1, b2 = two_t * b1 - b2 + c, b1
    return t * b1 - b2 + coefficients[0]


def _si_auxiliary(z):
    """Si(z) = pi/2 - f(z) cos z - g(z) sin z for finite z >= 4."""
    u = _Z_SERIES / z
    out = np.empty(z.shape)
    lo = 0.0
    for hi, f_coefficients, g_coefficients in _PIECES:
        on = (u > lo) & (u <= hi)
        if np.any(on):
            zp = z[on]
            t = (2.0 * u[on] - (lo + hi)) / (hi - lo)
            f = _clenshaw(f_coefficients, t) / zp
            g = _clenshaw(g_coefficients, t) / (zp * zp)
            out[on] = _HALF_PI - f * np.cos(zp) - g * np.sin(zp)
        lo = hi
    return out


def sine_integral_array(z):
    """Si(z) elementwise to about 1e-15 absolute for finite z >= 0; float
    ndarray.  Raises DomainError for a negative or non-finite z."""
    z = np.asarray(z, dtype=float)
    bad = ~((z >= 0.0) & (z < math.inf))
    if np.any(bad):
        raise DomainError(f"sine_integral: requires finite z >= 0, got "
                          f"{float(z[bad].flat[0])}")
    out = np.empty(z.shape)
    low = z < _Z_SERIES
    out[low] = _si_series(z[low])
    high = ~low
    if np.any(high):
        out[high] = _si_auxiliary(z[high])
    return out


def sine_integral(z: float) -> float:
    """Si(z) for scalar z >= 0; the one-element case of sine_integral_array."""
    return float(sine_integral_array([z])[0])
