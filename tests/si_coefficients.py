"""Rebuild the Chebyshev coefficients of ``specfun/sine_integral.py``.

From z = 4 on, Si(z) = pi/2 - f(z) cos z - g(z) sin z with the auxiliary
functions f = Ci sin z - (Si - pi/2) cos z and g = -Ci cos z
- (Si - pi/2) sin z (DLMF 6.2.17-18).  In u = 4/z the smooth, bounded
functions z f(z) and z^2 g(z) are interpolated on each piece (lo, hi] at
the DEGREE + 1 Chebyshev points of the first kind, evaluated with 50-digit
mpmath, and the coefficients rounded to doubles.  First-kind points never
fall on u = 0, where z is infinite.

Run ``python tests/si_coefficients.py`` to print the ``_PIECES`` literal
that the module holds; ``tests/test_sine_integral.py`` checks that the two
agree.
"""

import mpmath as mp

DEGREE = 16
PIECES = ((0.0, 0.125), (0.125, 0.25), (0.25, 0.5), (0.5, 1.0))


def _scaled_auxiliaries(z):
    """(z f(z), z^2 g(z)) at the mpf z."""
    si = mp.si(z) - mp.pi / 2
    ci = mp.ci(z)
    f = ci * mp.sin(z) - si * mp.cos(z)
    g = -ci * mp.cos(z) - si * mp.sin(z)
    return z * f, z * z * g


def piece_coefficients(lo, hi, degree=DEGREE):
    """Chebyshev coefficients of z f and z^2 g in t, u = lo + (hi-lo)(t+1)/2.

    Returns two tuples of degree + 1 floats, lowest order first, for the
    sum c_0 + sum_j c_j T_j(t).
    """
    count = degree + 1
    with mp.workdps(50):
        angles = [mp.pi * (i + mp.mpf(1) / 2) / count for i in range(count)]
        values = [_scaled_auxiliaries(
            4 / (lo + (mp.mpf(hi) - lo) * (mp.cos(a) + 1) / 2))
            for a in angles]
        out = []
        for which in range(2):
            coefficients = [
                2 * mp.fsum(v[which] * mp.cos(j * a)
                            for v, a in zip(values, angles)) / count
                for j in range(count)]
            coefficients[0] /= 2
            out.append(tuple(float(c) for c in coefficients))
    return tuple(out)


def all_pieces():
    """((hi, f coefficients, g coefficients), ...) for PIECES in order."""
    return tuple((hi,) + piece_coefficients(lo, hi) for lo, hi in PIECES)


def _format(pieces):
    lines = ["_PIECES = ("]
    for hi, f_coef, g_coef in pieces:
        lines.append(f"    ({hi!r},")
        for coef, close in ((f_coef, "),"), (g_coef, ")),")):
            pairs = [", ".join(repr(c) for c in coef[i:i + 2])
                     for i in range(0, len(coef), 2)]
            body = ",\n      ".join(pairs)
            lines.append(f"     ({body}{close}")
    lines.append(")")
    return "\n".join(lines)


if __name__ == "__main__":
    print(_format(all_pieces()))
