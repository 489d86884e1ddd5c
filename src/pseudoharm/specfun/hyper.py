"""Kummer M and Tricomi U confluent hypergeometric functions (real arguments).

Three evaluation regimes for U:
  * connection formula through two M series (moderate parameters),
  * Poincare expansion in 1/z for large argument,
  * uniform large-first-parameter expansion in modified Bessel K functions,
    carried through three correction orders so the series/Bessel branches
    overlap to better than 1e-7 for first parameter >= 30.

Each route is built for fixed (a, b) as a function of z, with its
z-independent factors computed once; tricomi_u builds one for a single z.
u_pair_shift_a works the other way round: at fixed (b, z) it shares the
connection formula's factors and the K pair across a root solve in a.

Exterior wave functions take none of these routes.  u_ratio_z_evaluator
gives U(a, b, z)/U(a, b, z_den) over an array of z by one algorithm:
  * for a > 4, the trapezoidal rule on the Laplace integral (DLMF 13.4.4)
    in s = log t, in log form, which converges exponentially;
  * for a <= 4, the downward recurrence in a (DLMF 13.3.7, 13.3.9, 13.3.10)
    from two Laplace moments at a_top in (4, 5], carried on U(., b - l, z),
    l = 0..ceil(b - 1), so that nothing cancels near the poles of
    Gamma(a) at small z.
Each point's window ends where the integrand has fallen e^-40 below its
peak, found from the tail decay rates (e^(a s) on the left, e^(-z t) on the
right) by safe tangent steps, not from the Gaussian width, which is wrong
on the plateau t^(b-1) that small z and b -> 1 give; its step follows the
peak's curvature.  Node counts are rounded to multiples of 16 and bounded
by 4096, points with equal counts are evaluated together in chunks of at
most 8192 nodes (64 kB a temporary), and no point's value depends on the
other points of the call.  Against 20 to 40 digits it keeps 1e-12 of the
wave function's scale, max |U(z) z^(b/2-1/4) e^(-z/2)|, for a in
[-30, 1e4], b in [1, 3], z from 1e-8 to 160 (2.2e-14 at worst in 840
random draws).

The Bessel-branch coefficient polynomials were generated from the defining
recurrences of the expansion and verified against 40-digit reference values;
they are tested constants (see tests).
"""

import math
from functools import partial
from typing import Callable

import numpy as np

from ..errors import DomainError, EvaluationOverflowError, NonConvergenceError
from ..quadrature import integrate
from .laguerre import laguerre
from .bessel import bessel_k_pair
from .gammafn import lgamma, rgamma, sinpi

# Route switch points.  Tested constants, not tuning knobs: the overlap
# agreement property in the test suite pins them.
A_SWITCH = 30.0      # first parameter above which the Bessel branch is used
Z_LARGE = 20.0       # argument above which the Poincare expansion is used
B_INTEGER_TOL = 1e-6  # connection formula is singular at integer b
# cancellation amplification in the connection formula above which the
# convergent Laplace-integral route takes over (available for a > 0)
_AMP_SWITCH = 3e3

_LN2 = math.log(2.0)
_MAX_SERIES_TERMS = 10**6


def kummer_m(a: float, b: float, z: float) -> float:
    """Kummer function M(a, b, z) by power series, z >= 0.

    Terminates when the term drops below 1e-16 of the running sum; raises
    NonConvergenceError if 1e6 terms are exceeded (out-of-regime argument).
    """
    if z < 0.0:
        raise DomainError(f"kummer_m: negative argument z={z}")
    if b <= 0.5 and abs(b - round(b)) < 1e-12:
        raise DomainError(f"kummer_m: b={b} is (nearly) a non-positive integer")
    terms = [1.0]
    term = 1.0
    total = 1.0
    k = 0
    while k < _MAX_SERIES_TERMS:
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        if not math.isfinite(term):
            raise NonConvergenceError(
                "kummer_m: series overflow (argument out of regime)",
                a=a, b=b, z=z, terms=k)
        if term == 0.0:  # polynomial case: a hit a non-positive integer
            break
        terms.append(term)
        total += term
        if abs(term) <= 1e-16 * abs(total):
            break
        k += 1
    else:
        raise NonConvergenceError(
            "kummer_m: series did not converge", a=a, b=b, z=z, terms=k)
    # exact summation: the alternating polynomial cases cancel heavily
    return math.fsum(terms)


# --- coefficient polynomials of the uniform large-a Bessel expansion -------
# p0 = 1; the remaining p_s(b,z), q_s(b,z) solve
#   2 z q_s' + q_s = b p_s/2 + b p_s' - z p_s/4 + z p_s''
#   2 p_{s+1}'    = b q_s/2 + (2-b) q_s' + z q_s'' - z q_s/4
# with p1(b,0) = -b(b-1)/2, p2(b,0) = b(b-1)(b-2)(3b-1)/24,
# p3(b,0) = -b^2(b-1)^2(b-2)(b-3)/48.

def _q0(b, z):
    return b / 2 - z / 12


def _p1(b, z):
    c0 = b * (1 / 2 - b / 2)
    c1 = b * (b / 8 + 1 / 24) - 1 / 12
    c2 = -b / 24
    c3 = 1 / 288
    return c0 + z * (c1 + z * (c2 + z * c3))


def _q1(b, z):
    c0 = b * (b * (7 / 24 - b / 8) - 1 / 12)
    c1 = b * (b * (b / 48 + 1 / 48) - 1 / 12)
    c2 = 1 / 120 - b * b / 96
    c3 = b / 576
    c4 = -1 / 10368
    return c0 + z * (c1 + z * (c2 + z * (c3 + z * c4)))


def _p2(b, z):
    c0 = b * (b * (b * (b / 8 - 5 / 12) + 3 / 8) - 1 / 12)
    c1 = b * (b * (b * (1 / 12 - b / 24) + 1 / 24) - 1 / 12)
    c2 = b * (b * (b * (b / 384 + 1 / 64) - 17 / 384) + 1 / 960) + 1 / 80
    c3 = b * (b * (-b / 576 - 1 / 576) + 11 / 1440)
    c4 = b * (b / 2304 + 1 / 20736) - 13 / 25920
    c5 = -b / 20736
    c6 = 1 / 497664
    return c0 + z * (c1 + z * (c2 + z * (c3 + z * (c4 + z * (c5 + z * c6)))))


def _q2(b, z):
    c0 = b * b * (b * (b * (b / 48 - 1 / 8) + 11 / 48) - 1 / 8)
    c1 = b * (b * (b * (b * (1 / 64 - b / 192) + 13 / 576) - 71 / 960)
              + 23 / 1440) + 1 / 120
    c2 = b * (b * (b * (b * (b / 3840 + 1 / 384) - 3 / 256) + 1 / 1920)
              + 7 / 480)
    c3 = b * (b * (b * (-b / 4608 - 1 / 2304) + 601 / 207360) - 5 / 20736) \
        - 79 / 60480
    c4 = b * (b * (b / 13824 + 1 / 41472) - 1 / 2880)
    c5 = 7 / 414720 - b * b / 82944
    c6 = b / 995328
    c7 = -1 / 29859840
    return c0 + z * (c1 + z * (c2 + z * (c3 + z * (c4 + z * (c5 + z * (c6 + z * c7))))))


def _p3(b, z):
    c0 = b * b * (b * (b * (b * (7 / 48 - b / 48) - 17 / 48) + 17 / 48) - 1 / 8)
    c1 = b * (b * (b * (b * (b * (b / 128 - 17 / 384) + 71 / 1152)
              + 163 / 5760) - 59 / 720) + 17 / 1440) + 1 / 120
    c2 = b * (b * (b * (b * (b * (-b / 1280 - 1 / 3840) + 47 / 2304)
              - 53 / 1280) + 19 / 5760) + 11 / 480)
    c3 = b * (b * (b * (b * (b * (b / 46080 + 5 / 9216) - 17 / 9216)
              - 1333 / 414720) + 353 / 34560) - 359 / 725760) - 179 / 60480
    c4 = b * (b * (b * (b * (-b / 46080 - 1 / 6912) + 11 / 15360)
              + 7 / 34560) - 17 / 12096)
    c5 = b * (b * (b * (b / 110592 + 1 / 55296) - 209 / 1658880)
              - 1 / 414720) + 403 / 4838400
    c6 = b * (b * (-b / 497664 - 1 / 995328) + 19 / 1658880)
    c7 = b * (b / 3981312 + 1 / 59719680) - 13 / 29859840
    c8 = -b / 59719680
    c9 = 1 / 2149908480
    return c0 + z * (c1 + z * (c2 + z * (c3 + z * (c4 + z * (c5 + z * (c6 + z * (c7 + z * (c8 + z * c9))))))))


def _q3(b, z):
    c0 = b * (b * (b * (b * (b * (b * (11 / 384 - b / 384) - 133 / 1152)
              + 1183 / 5760) - 13 / 90) + 17 / 1440) + 1 / 120)
    c1 = b * (b * (b * (b * (b * (b * (b / 1280 - 73 / 11520) + 133 / 11520)
              + 233 / 11520) - 79 / 1152) + 43 / 1440) + 1 / 60)
    c2 = b * (b * (b * (b * (b * (b * (-b / 15360 - 1 / 15360) + 35 / 9216)
              - 1571 / 138240) + 41 / 34560) + 4439 / 241920) - 179 / 60480) \
        - 1 / 252
    c3 = b * (b * (b * (b * (b * (b * (b / 645120 + 1 / 18432) - 67 / 276480)
              - 661 / 829440) + 491 / 138240) - 221 / 362880) - 13 / 3780)
    c4 = b * (b * (b * (b * (b * (-b / 552960 - 1 / 55296) + 67 / 552960)
              + 11 / 155520) - 1867 / 2903040) + 17 / 311040) + 97 / 362880
    c5 = b * (b * (b * (b * (b / 1105920 + 1 / 331776) - 31 / 1105920)
              - 1 / 829440) + 3 / 44800)
    c6 = b * (b * (b * (-b / 3981312 - 1 / 3981312) + 11 / 2985984)
              - 1 / 7464960) - 131 / 43545600
    c7 = b * (b * (b / 23887872 + 1 / 119439360) - 1 / 3732480)
    c8 = 1 / 119439360 - b * b / 238878720
    c9 = b / 4299816960
    c10 = -1 / 180592312320
    return c0 + z * (c1 + z * (c2 + z * (c3 + z * (c4 + z * (c5 + z * (c6 + z * (c7 + z * (c8 + z * (c9 + z * c10)))))))))


def _bessel_combo(a, b, z, k_pair):
    """K_{b-1}(w) P + sqrt(z/a) K_b(w) Q with w = 2 sqrt(a z); positive.

    k_pair evaluates (K_{b-1}, K_b) at w (bessel_k_pair(b - 1)); with e^w K
    the combo is e^w times its unscaled value.
    """
    inv = 1.0 / a
    P = 1.0 + inv * (_p1(b, z) + inv * (_p2(b, z) + inv * _p3(b, z)))
    Q = _q0(b, z) + inv * (_q1(b, z) + inv * (_q2(b, z) + inv * _q3(b, z)))
    k_lo, k_hi = k_pair(2.0 * math.sqrt(a * z))
    return k_lo * P + math.sqrt(z / a) * k_hi * Q


def _connection_u(a, b, z_large=math.inf, laplace_fallback=False):
    """z -> U(a, b, z) by the connection formula, DLMF 13.2.42:

        U = pi/sin(pi b) * (t1 - t2),
        t1 = M(a, b, z) / (Gamma(1+a-b) Gamma(b)),
        t2 = z^(1-b) M(1+a-b, 2-b, z) / (Gamma(a) Gamma(2-b)).

    The four 1/Gamma factors and pi/sin(pi b) depend only on (a, b), so
    they are computed here once.  Above z_large the 1/z expansion takes
    over.  With laplace_fallback, a cancellation in t1 - t2 that amplifies
    rounding by more than _AMP_SWITCH sends z to the Laplace integral
    instead.  b must lie at least B_INTEGER_TOL from the integers.
    """
    r1, r2 = rgamma(1.0 + a - b), rgamma(b)
    r3, r4 = rgamma(a), rgamma(2.0 - b)
    pi_over_s = math.pi / sinpi(b)

    def u(z):
        if z > z_large:
            return _u_large_z(a, b, z)
        t1 = kummer_m(a, b, z) * r1 * r2
        t2 = z ** (1.0 - b) * kummer_m(1.0 + a - b, 2.0 - b, z) * r3 * r4
        diff = t1 - t2
        if laplace_fallback:
            amplification = (abs(t1) + abs(t2)) / abs(diff) \
                if diff != 0.0 else math.inf
            if amplification > _AMP_SWITCH:
                return _u_quadrature(a, b, z)
        return pi_over_s * diff

    return u


def _straddled_connection_u(a, b, z_large=math.inf):
    """The connection formula for b within B_INTEGER_TOL of an integer."""
    # U is entire in b: two-point evaluation straddling the integer kills the
    # O(h) error.  Documented accuracy floor: 1e-7 relative.
    bn = round(b)
    h = 2e-6
    lo, hi = _connection_u(a, bn - h), _connection_u(a, bn + h)
    exact = abs(b - bn) < 1e-12
    offset = b - (bn - h)

    def u(z):
        if z > z_large:
            return _u_large_z(a, b, z)
        if exact:
            return 0.5 * (lo(z) + hi(z))
        u_lo = lo(z)
        return u_lo + offset * (hi(z) - u_lo) / (2.0 * h)

    return u


def _u_connection(a, b, z):
    if abs(b - round(b)) < B_INTEGER_TOL:
        return _straddled_connection_u(a, b)(z)
    return _connection_u(a, b)(z)


def _u_large_z(a, b, z):
    """Poincare expansion U ~ z^-a * sum_k (a)_k (a-b+1)_k / (k! (-z)^k)."""
    total = 1.0
    term = 1.0
    k = 0
    while k < 400:
        nxt = term * (a + k) * (a - b + 1.0 + k) / (-z * (k + 1.0))
        if abs(nxt) >= abs(term) and k > 2:
            # smallest term reached; asymptotic tail starts growing
            if abs(term) > 1e-11 * abs(total):
                raise NonConvergenceError(
                    "tricomi_u: large-z expansion out of regime",
                    a=a, b=b, z=z, floor=abs(term / total))
            break
        term = nxt
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        k += 1
    return z ** (-a) * total


def _log_gu(a, b, z):
    """log of Gamma(a)*U(a,b,z) by quadrature of the Laplace integral.

    Integrand exp(-z t) t^(a-1) (1+t)^(b-a-1) is positive for a > 0; the
    integration runs in u = log t, panels spreading from the peak until the
    tail is below 1e-18 of it.
    """
    if not a > 0.0:
        raise DomainError(f"_log_gu: requires a > 0, got a={a}")

    def log_f(u):
        t = math.exp(u)
        # +u is the Jacobian of t -> e^u
        return -z * t + a * u + (b - a - 1.0) * math.log1p(t)

    # stationary point of log_f: -z t^2 + (b-1-z) t + a = 0
    disc = math.sqrt((b - 1.0 - z) ** 2 + 4.0 * a * z)
    t_peak = ((b - 1.0 - z) + disc) / (2.0 * z)
    u_peak = math.log(t_peak)
    lmax = log_f(u_peak)

    def g(u):
        return math.exp(log_f(u) - lmax)

    def g_nodes(us):
        # the scalar math expression node by node: np.exp differs from
        # math.exp in the last bit for some arguments
        return [g(u) for u in us.tolist()]

    total = 0.0
    # expand in panels from the peak until both tails are negligible; the
    # left tail decays only like exp(a*u), so its panels widen as 1/a
    for direction, width in ((+1.0, 1.0), (-1.0, max(1.0, 4.0 / a))):
        edge = u_peak
        for _ in range(400):
            nxt = edge + direction * width
            total += integrate(g_nodes, min(edge, nxt), max(edge, nxt),
                               rel_tol=1e-12, abs_tol=1e-16)
            edge = nxt
            if g(edge) < 1e-18:
                break
        else:
            raise NonConvergenceError("_log_gu: tail does not decay",
                                      a=a, b=b, z=z)
    return lmax + math.log(total)


def _u_quadrature(a, b, z):
    return math.exp(_log_gu(a, b, z) - lgamma(a))


def _laguerre_u(n, b):
    """z -> U(-n, b, z) = (-1)^n n! L_n^(b-1)(z), exact truncation; the
    degree recurrence is the stable evaluation of the polynomial case."""
    signed_factorial = (-1.0 if n % 2 else 1.0) * math.factorial(n)
    lam = b - 1.0
    return lambda z: signed_factorial * laguerre(n, lam, z)


def _large_a_u(a, b):
    """z -> U(a, b, z) by the uniform large-a Bessel expansion."""
    half_1mb, log_a, lgamma_a = 0.5 * (1.0 - b), math.log(a), lgamma(a)
    k_pair = bessel_k_pair(b - 1.0)

    def u(z):
        combo = _bessel_combo(a, b, z, k_pair)
        logu = _LN2 + half_1mb * (math.log(z) - log_a) + 0.5 * z \
            - lgamma_a + math.log(combo)
        if logu > 709.0:
            raise EvaluationOverflowError(
                f"tricomi_u: value exceeds double range (log={logu:.1f}, "
                "threshold 709)", threshold=709.0)
        if logu < -745.0:
            raise EvaluationOverflowError(
                f"tricomi_u: value underflows double range (log={logu:.1f}, "
                "threshold -745); use the ratio helpers instead",
                threshold=-745.0)
        return math.exp(logu)

    return u


def _u_large_a(a, b, z):
    return _large_a_u(a, b)(z)


def _tricomi_u_of_z(a, b):
    """z -> U(a, b, z), z > 0, for fixed (a, b).

    The route choices that depend only on (a, b), and every factor the
    chosen route shares across z, are made here once; what remains per call
    depends on z.  Routes: Laguerre polynomial, large-a Bessel branch,
    connection formula (with the Laplace integral where its observed
    cancellation is too large, or at integer b for a > 0.1), 1/z expansion.
    """
    if a <= 0.0 and abs(a - round(a)) < 1e-12 and a >= -200.0:
        return _laguerre_u(int(round(-a)), b)
    if a > A_SWITCH:
        return _large_a_u(a, b)
    integer_b = abs(b - round(b)) < B_INTEGER_TOL
    if a > 0.1:
        # integer b is a removable singularity of the connection formula but
        # not of the Laplace integral, so prefer the integral outright there
        if integer_b:
            return partial(_u_quadrature, a, b)
        return _connection_u(a, b, math.inf, True)
    if integer_b:
        return _straddled_connection_u(a, b, Z_LARGE)
    return _connection_u(a, b, Z_LARGE, False)


def tricomi_u(a: float, b: float, z: float) -> float:
    """Tricomi function U(a, b, z) for z > 0.

    Routes on (a, z) and on the observed cancellation in the connection
    formula: Laguerre polynomial, connection formula, Laplace integral,
    large-a Bessel branch or 1/z expansion.
    """
    if not z > 0.0:
        raise DomainError(f"tricomi_u: requires z > 0, got z={z}")
    return _tricomi_u_of_z(a, b)(z)


def u_pair_shift_a(b: float,
                   z: float) -> Callable[[float], tuple[float, float]]:
    """The function a -> (U(a, b, z), U(a-1, b, z)) at fixed (b, z), up to a
    common positive factor: 1/U(a) for a > A_SWITCH + 1, else 1.

    Above A_SWITCH + 1 U may not be representable, and the pair is
    (1, U(a-1)/U(a)), the ratio's Gamma prefactors cancelled analytically
    and K_(b-1), K_b from one bessel_k_pair built here; U > 0 for a > 0, so
    a residual homogeneous of degree 1 in the pair keeps its signs and
    roots.  Where _tricomi_u_of_z takes the plain connection formula for a
    and a-1 (a <= 0.1 and not within 1e-12 of a non-positive integer, b at
    least B_INTEGER_TOL from an integer, z <= Z_LARGE), the pair shares
    1/Gamma(b), 1/Gamma(2-b), pi/sin(pi b) and z^(1-b), and per a costs
    1/Gamma(1+a-b) and 1/Gamma(a), the shifted factors by 1/Gamma(x-1) =
    (x-1)/Gamma(x).  Every other a is evaluated as tricomi_u evaluates it.
    """
    if not z > 0.0:
        raise DomainError(f"u_pair_shift_a: requires z > 0, got z={z}")
    k_pair = bessel_k_pair(b - 1.0)
    shared = abs(b - round(b)) >= B_INTEGER_TOL and z <= Z_LARGE
    if shared:
        r_b, r_2mb = rgamma(b), rgamma(2.0 - b)
        pi_over_s = math.pi / sinpi(b)
        z_1mb = z ** (1.0 - b)

    def pair(a):
        a1 = a - 1.0
        if a > A_SWITCH + 1.0:
            scale = a1 * math.exp(0.5 * (b - 1.0) * math.log1p(-1.0 / a))
            return 1.0, scale * _bessel_combo(a1, b, z, k_pair) \
                / _bessel_combo(a, b, z, k_pair)
        # fall back where a or a - 1 leaves the plain connection formula:
        # a > 0.1, or either on the Laguerre route (within 1e-12 of a
        # non-positive integer; a - 1 <= -0.9 is never positive)
        if not (shared and a <= 0.1 and abs(a1 - round(a1)) >= 1e-12
                and (a > 0.0 or abs(a - round(a)) >= 1e-12)):
            return _tricomi_u_of_z(a, b)(z), _tricomi_u_of_z(a1, b)(z)
        x = 1.0 + a - b
        x1 = 1.0 + a1 - b
        r_x, r_a = rgamma(x), rgamma(a)
        u = pi_over_s * (kummer_m(a, b, z) * r_x * r_b
                         - z_1mb * kummer_m(x, 2.0 - b, z) * r_a * r_2mb)
        u1 = pi_over_s * (kummer_m(a1, b, z) * (x1 * r_x) * r_b
                          - z_1mb * kummer_m(x1, 2.0 - b, z) * (a1 * r_a)
                          * r_2mb)
        return u, u1

    return pair


# --- the exterior evaluator: Laplace rule above _LAPLACE_A, recurrence below -

_LAPLACE_A = 4.0     # the rule serves a > this; smaller a recur down from
#                      a_top = a + m in (_LAPLACE_A, _LAPLACE_A + 1]
_TAIL_DROP = 40.0    # window ends where the integrand is e^-40 of its peak
_NODE_STEP = 16      # node counts are rounded up to a multiple of this
_MAX_NODES = 4096
_CHUNK = 1 << 13     # points x nodes in one temporary array (64 kB)
_MAX_STEPS = 200     # recurrence steps, so a >= -195
_RESCALE_STEPS = 16  # the recurrence's values are rescaled this often


def _log_integrand(a, b, z, s, t):
    """log of t^a (1+t)^(b-a-1) e^(-z t), the Laplace integrand in s = log t
    with its Jacobian, as (b-1) s + (b-1-a) log1p(1/t) - z t: one log1p,
    and the large-a terms stay O(sqrt(a z))."""
    return (b - 1.0) * s + (b - 1.0 - a) * np.log1p(1.0 / t) - z * t


def _log_slope(a, b, z, t):
    """d/ds of _log_integrand: (a + (b-1-z) t - z t^2) / (1 + t)."""
    return (a + (b - 1.0 - z) * t - z * t * t) / (1.0 + t)


def _laplace_window(a, b, z, left_lift):
    """Per point: (s_lo, s_hi, h, log-integrand at the peak), a window in
    s = log t whose ends lie _TAIL_DROP below the integrand's peak, and a
    step for the trapezoidal rule.  The left end lies left_lift * log1p(t_pk)
    further down, for moments weighted by up to (1+t)^-left_lift, which
    raise the left tail against the peak by that much.

    The peak t_pk is the positive root of a + (b-1-z) t - z t^2.  The width
    w1 = arccosh(1 + L/(2 z t_pk)) solves the drop of the large-a
    (cosh-shaped) form and of the plateau form alike; one tangent step from
    s_pk +- w1 then reaches the drop.  On the right the log-integrand is
    concave, so the tangent overshoots and the end is safe.  On the left
    the slope stays above min(slope(s), a) everywhere left of s, and the
    bound a log1p(1/t) - z t_pk of the drop gives a second safe end; the
    larger of the two is taken.  The step h = 2 pi/(sqrt(78 a_eff) + 25),
    a_eff = -(log-integrand)'' at the peak, puts the aliasing term of the
    rule (|Gamma(a_eff + i omega)|/Gamma(a_eff) for a Gamma-shaped peak,
    e^(-pi omega/2) for the double-exponential right tail) below e^-39.
    """
    c = (b - 1.0) - z
    disc = np.sqrt(c * c + (4.0 * a) * z)
    den = disc + np.abs(c)
    t_pk = np.where(c > 0.0, den / (2.0 * z), (2.0 * a) / den)
    s_pk = np.log(t_pk)
    h = (2.0 * math.pi) / (np.sqrt(78.0 * disc / (1.0 + 1.0 / t_pk)) + 25.0)
    phi_pk = _log_integrand(a, b, z, s_pk, t_pk)
    log1p_pk = np.log1p(t_pk)
    left_drop = _TAIL_DROP + left_lift * log1p_pk
    w1 = np.arccosh(1.0 + _TAIL_DROP / (2.0 * z * t_pk))
    # the right (row 0) and left (row 1) start points s_pk +- w1 together
    s_side = s_pk + np.array([[1.0], [-1.0]]) * w1
    t_side = np.exp(s_side)
    slope = _log_slope(a, b, z, t_side)
    drop = np.stack([np.full(z.shape, _TAIL_DROP), left_drop])
    gap = np.maximum(
        drop - phi_pk + _log_integrand(a, b, z, s_side, t_side), 0.0)
    s_hi = s_side[0] - gap[0] / slope[0]
    s_lo = s_side[1] - gap[1] / np.minimum(slope[1], a)
    bound = np.log1p(1.0 / t_pk) + (left_drop + z * t_pk
                                    - min(b - 1.0, 0.0) * log1p_pk) / a
    with np.errstate(over="ignore", divide="ignore"):
        s_lo = np.maximum(s_lo, -np.log(np.expm1(bound)))
    return s_lo, s_hi, h, phi_pk


def _laplace_rule(a, b, z, levels):
    """log(Gamma(a) U(a, b, z)) for a > 0 over a 1-d array z > 0 (DLMF
    13.4.4), and the moments E[(1+t)^-l] = U(a, b-l, z)/U(a, b, z),
    l = 1..levels, under the Laplace integrand (one row per l).

    The trapezoidal rule in s = log t converges exponentially (Trefethen &
    Weideman, SIAM Review 56 (2014) 385).  Each point takes its own window
    and a node count rounded up to a multiple of _NODE_STEP, so its value
    does not depend on the other points of the call; points with equal
    counts are summed together, at most _CHUNK nodes at a time.
    """
    s_lo, s_hi, h, phi_pk = _laplace_window(a, b, z, levels)
    counts = _NODE_STEP * np.ceil(((s_hi - s_lo) / h + 1.0) / _NODE_STEP)
    if not np.all(counts <= _MAX_NODES):
        raise NonConvergenceError(
            "Laplace rule: window needs more nodes than the bound",
            a=a, b=b, nodes=float(np.max(counts)), bound=_MAX_NODES)
    log_gu = np.empty_like(z)
    moments = np.empty((levels, z.size))
    for count in set(counts.tolist()):
        n = int(count)
        k = np.arange(n, dtype=float)
        rows = np.flatnonzero(counts == count)
        per_chunk = max(1, _CHUNK // n)
        for i in range(0, rows.size, per_chunk):
            r = rows[i:i + per_chunk]
            step = (s_hi[r] - s_lo[r]) / (n - 1)
            s = s_lo[r, None] + step[:, None] * k
            t = np.exp(s)
            # the analytic peak bounds every node, so nothing overflows
            weight = np.exp(_log_integrand(a, b, z[r, None], s, t)
                            - phi_pk[r, None])
            total = np.sum(weight, axis=1)
            log_gu[r] = phi_pk[r] + np.log(step * total)
            if levels:
                damp = 1.0 / (1.0 + t)
                for lev in range(levels):
                    weight = weight * damp
                    moments[lev, r] = np.sum(weight, axis=1) / total
    return log_gu, moments


def _log_abs_u(a, b, z):
    """(log|U(a, b, z)| + C, sign of U) over a 1-d array z > 0; the constant
    C = log Gamma(a_top) depends on (a, b) only.

    For a > _LAPLACE_A, a_top = a and the Laplace rule gives log Gamma(a) U.
    Otherwise U comes down from a_top = a + m in (_LAPLACE_A, _LAPLACE_A +
    1], m steps in a, carried on W_l = U(., b - l, z), l = 0..L with
    L = max(1, ceil(b - 1)), so that b - L <= 1:

        W_L(a-1) = z W_(L-1)(a) + (a - b + L) W_L(a)    (DLMF 13.3.10)
        W_l(a-1) = (a-1) W_l(a) + W_(l+1)(a-1), l < L   (DLMF 13.3.9)

    started from W_l(a_top)/W_0(a_top) = E[(1+t)^-l] under the Laplace
    integrand.  Together they make the three-term recurrence in a (DLMF
    13.3.7), run downward, its stable direction.  Near a pole of Gamma(a)
    at small z, where the z^(1-b) part of U vanishes like 1/Gamma(a), that
    part is carried by the exact factor a - 1 and nothing cancels; the
    plain recurrence loses it to rounding of its large terms, up to 1e-7
    of U at b = 3, z = 1e-8.  Each level removes one power of z from what
    cancels: with L = 1 for b > 2 the O(z) term of the z^(1-b) part still
    cancels, z^(2-b) rounding units.  a + j - 1 is formed from the exact a,
    so U near a zero of 1/Gamma(a) sees a itself, not a_top - m.
    """
    if a > _LAPLACE_A:
        log_gu, _ = _laplace_rule(a, b, z, 0)
        return log_gu, np.ones_like(z)
    m = math.floor(_LAPLACE_A + 1.0 - a)
    if m > _MAX_STEPS:
        raise DomainError(
            f"u_ratio_z_evaluator: a={a} needs {m} recurrence steps, more "
            f"than {_MAX_STEPS}")
    levels = max(1, math.ceil(b - 1.0))
    log_gu, moments = _laplace_rule(a + m, b, z, levels)
    w = [np.ones_like(z)] + list(moments)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(m, 0, -1):
            a_j = a + j
            w[levels] = z * w[levels - 1] + (a_j - (b - levels)) * w[levels]
            for lev in range(levels - 1, -1, -1):
                w[lev] = (a + (j - 1)) * w[lev] + w[lev + 1]
            if j % _RESCALE_STEPS == 0:
                scale = np.abs(w[0]) + np.abs(w[levels])
                log_gu = log_gu + np.log(scale)
                w = [v / scale for v in w]
        log_u = log_gu + np.log(np.abs(w[0]))
    return log_u, np.sign(w[0])


def u_ratio_z_evaluator(a: float, b: float, z_den: float):
    """The function z -> U(a, b, z) / U(a, b, z_den) over an array z > 0
    (a float for a 0-d z), built once per (a, b, z_den), e.g. once per
    exterior wave function.

    One algorithm for every a: the Laplace rule, and below _LAPLACE_A the
    downward recurrence from it (_log_abs_u).  The ratio is formed in log
    form, so a far tail where U underflows gives 0.0.  Each point's value
    depends on that point alone, not on the others of the call.
    """
    if not z_den > 0.0:
        raise DomainError("u_ratio_z_evaluator: requires z_den > 0")
    log_den, sign_den = _log_abs_u(a, b, np.array([float(z_den)]))

    def ratio(z):
        za = np.asarray(z, dtype=float)
        flat = za.reshape(-1)
        if not np.all(flat > 0.0):
            raise DomainError("u_ratio_z_evaluator: requires z > 0")
        log_u, sign = _log_abs_u(a, b, flat)
        with np.errstate(over="ignore"):
            out = (sign * sign_den[0]) * np.exp(log_u - log_den[0])
        if not np.all(np.isfinite(out)):
            raise EvaluationOverflowError(
                f"u_ratio_z_evaluator: U({a}, {b}, z)/U(z_den) exceeds double "
                "range (log threshold 709.78)", threshold=709.78)
        return float(out[0]) if za.ndim == 0 else out.reshape(za.shape)

    return ratio
