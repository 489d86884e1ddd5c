"""Kummer M and Tricomi U confluent hypergeometric functions (real arguments).

U has one algorithm:
  * for a > 4, the trapezoidal rule on the Laplace integral (DLMF 13.4.4)
    in s = log t, in log form, which converges exponentially (Trefethen &
    Weideman, SIAM Review 56 (2014) 385);
  * for a <= 4, the downward recurrence in a (DLMF 13.3.7, 13.3.9, 13.3.10)
    from two Laplace moments at a_top in (4, 5], carried on U(., b - l, z),
    l = 0..ceil(b - 1), so that nothing cancels near the poles of
    Gamma(a) at small z.
The array evaluator (_log_abs_u) runs it over the samples of
u_ratio_z_evaluator, U(a, b, z)/U(a, b, z_den) over an array of z; the
point evaluator (_log_abs_u_point) at every single point, in floats with
the math module, as numpy's fixed cost on one-element arrays was most of a
point's cost.  Each point's window ends where the integrand has fallen
e^-40 below its peak, found from the tail decay rates (e^(a s) on the
left, e^(-z t) on the right) by safe tangent steps, not from the Gaussian
width, which is wrong on the plateau t^(b-1) that small z and b -> 1 give;
its step follows the peak's curvature.  The two windows' ends agree to a
few ulps, with the same node counts (see tests).  Node counts are rounded
to multiples of 16 and bounded by 4096, points with equal counts are
evaluated together in chunks of at most 8192 nodes (64 kB a temporary),
and no point's value depends on the other points of the call.  Against 20
to 40 digits u_ratio_z_evaluator keeps 1e-12 of the wave function's scale,
max |U(z) z^(b/2-1/4) e^(-z/2)|, for a in [-30, 1e4], b in [1, 3], z from
1e-8 to 160 (2.2e-14 at worst in 840 random draws).

u_pair_shift_a serves a root solve in a at fixed (b, z): for a <= 0.1 it
shares the factors of the connection formula (DLMF 13.2.42) across a.  The
plain connection formula (_u_connection) and the uniform large-a expansion
in modified Bessel K functions, carried through three correction orders
(_u_large_a), are no route: they are kept as the independent checks of
acceptance criterion 7.

u_ratio_slope_a gives R = U(a-1, b, z)/U(a, b, z) and dR/da - 1 at one z
from one pass of the same algorithm; a wave function's exterior norm is
(dR/da - 1)/(2 delta) at z = delta^2, by the Wronskian identity
int_delta^inf (f/f(delta))^2 dx = (1/2) dL/dkappa for the exterior
log-derivative L (E. P. Wigner, Phys. Rev. 98 (1955) 145; Lane & Thomas,
Rev. Mod. Phys. 30 (1958) 257).  An a-derivative of a Laplace expectation
is its covariance with log(t/(1+t)):
  * for a > 4 (ground states), dR/da - 1 = E[1/t] + (a-1) Cov(1/t,
    log(t/(1+t))) from centred values of one window, with no cancellation
    against the 1 (a finite difference of R errs by 5e-10 at a = 54);
  * for a <= 4 (excited states, and ground states of small |kappa|), the
    downward recurrence carries the a-derivatives forward-mode next to the
    values, from the Laplace moments' covariances at a_top.
Against 40 digits it keeps dR/da - 1 to 1.2e-13 relative on the excited
states alpha in [-1/4, 3.5], delta in [1e-4, 1e-2], n <= 30, both
parities, and to 3e-14 on the ground states of alpha in [-1/4, -0.001],
delta in [1e-4, 5e-2] (see tests); where dR/da - 1 is a difference of two
terms some 300 times larger, 1e-16 in a Laplace moment becomes 1e-13.

The large-a expansion's coefficient polynomials were generated from its
defining recurrences and verified against 40-digit reference values; they
are tested constants (see tests).
"""

import math
from typing import Callable

import numpy as np

from ..errors import DomainError, EvaluationOverflowError, NonConvergenceError
from .bessel import bessel_k_pair
from .gammafn import lgamma, rgamma, sinpi

# The region of u_pair_shift_a's shared connection formula.  Tested
# constants, not tuning knobs: the tests check the pair against mpmath on
# both sides of every one.
A_CONNECTION_MIN = -52.0  # connection formula from this a: a - 1 of every
#                           excited solve, n <= 50
Z_CONNECTION = 1.0       # connection formula up to this z
B_INTEGER_TOL = 1e-6     # connection formula is singular at integer b
# rounding amplification in the connection formula above which the point
# evaluator takes over
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


def _u_connection(a, b, z):
    """U(a, b, z) = pi/sin(pi b) (M(a, b, z)/(Gamma(1+a-b) Gamma(b)) -
    z^(1-b) M(1+a-b, 2-b, z)/(Gamma(a) Gamma(2-b))) (DLMF 13.2.42), with no
    cancellation check, for b at least B_INTEGER_TOL from the integers; no
    route, kept for the checks of acceptance criterion 7."""
    if abs(b - round(b)) < B_INTEGER_TOL:
        raise DomainError(f"connection formula: b={b} is within "
                          f"{B_INTEGER_TOL} of an integer")
    t1 = kummer_m(a, b, z) * rgamma(1.0 + a - b) * rgamma(b)
    t2 = z ** (1.0 - b) * kummer_m(1.0 + a - b, 2.0 - b, z) \
        * rgamma(a) * rgamma(2.0 - b)
    return math.pi / sinpi(b) * (t1 - t2)


def _u_large_a(a, b, z):
    """U(a, b, z) by the uniform large-a Bessel expansion; no route, kept to
    check _u_connection at a in [30, 100], z <= 1e-4 (criterion 7)."""
    combo = _bessel_combo(a, b, z, bessel_k_pair(b - 1.0))
    return math.exp(_LN2 + 0.5 * (1.0 - b) * (math.log(z) - math.log(a))
                    + 0.5 * z - lgamma(a) + math.log(combo))


def _u_point(a, b, z, count=1):
    """(U(a, b, z), ..., U(a - count + 1, b, z)) at one float z > 0 from
    one pass of the point evaluator (_log_abs_u_point)."""
    log_c = lgamma(a + _recurrence_steps(a))
    out = []
    for log_u, sign in _log_abs_u_point(a, b, z, count):
        logu = log_u - log_c
        if not -745.13 <= logu <= 709.78:
            bound = -745.13 if logu < 0.0 else 709.78
            raise EvaluationOverflowError(
                f"tricomi_u: U({a}, {b}, {z}) leaves double range "
                f"(log={logu:.1f}, threshold {bound})", threshold=bound)
        out.append(sign * math.exp(logu))
    return tuple(out)


def tricomi_u(a: float, b: float, z: float) -> float:
    """Tricomi function U(a, b, z) for z > 0 by the point evaluator
    (_log_abs_u_point), for every a >= -195 (DomainError below).

    Stated region: a in [-60, 100], b in [1/2, 9/2] (integer b and its
    neighbourhood included), z in [1e-8, 160].  There it errs against 30
    digits by at most 1e-12 S, with S = |U(a)| + |(2a + 2 - b + z) U(a+1)|
    + |(a+1)(a+2-b) U(a+2)| the terms of the recurrence DLMF 13.3.7 that
    give U(a) (measured at worst over 1 800 random draws: 2.7e-13), and by
    at most 7e-14 S for a in [-52, 30], z <= 1 (3.5e-14 over 2 400 draws).
    For b in [-1/2, 1/2) add 2e-13 |U|/(|b| + z): near b = 0 at small z,
    U(a <= 0) is itself O(|b| + z), and the recurrence keeps only that
    much of it.  A value beyond double range raises
    EvaluationOverflowError.
    """
    if not z > 0.0:
        raise DomainError(f"tricomi_u: requires z > 0, got z={z}")
    return _u_point(a, b, z)[0]


def u_pair_shift_a(b: float,
                   z: float) -> Callable[[float], tuple[float, float]]:
    """The function a -> (U(a, b, z), U(a-1, b, z)) at fixed (b, z).

    For a <= 0.1 with a and a - 1 in the connection formula's region and
    more than 1e-12 from the integers, the pair shares 1/Gamma(b),
    1/Gamma(2-b), pi/sin(pi b) and z^(1-b), and per a costs 1/Gamma(1+a-b)
    and 1/Gamma(a), the shifted factors by 1/Gamma(x-1) = (x-1)/Gamma(x).
    A point leaves this hot path where a value is not finite or where
    1/Gamma(1+a-b) lies so near a pole that the rounding of 1+a-b could be
    amplified past _AMP_SWITCH ulps at a or a - 1.  Every other a takes
    both values from one pass of the point evaluator, U(a - 1) one step
    below U(a); for a <= 4 that is tricomi_u's pass at a and at a - 1.0,
    so where a - 1.0 is exact the pair has tricomi_u's bits.  Where U
    leaves double range it raises EvaluationOverflowError; a root solve at
    large a takes U(a-1)/U(a) from the Laplace moment E[1/t] instead (the
    runaway ground state's residual in regspec).
    """
    if not z > 0.0:
        raise DomainError(f"u_pair_shift_a: requires z > 0, got z={z}")
    shared = (b >= 0.5 and abs(b - round(b)) >= B_INTEGER_TOL
              and z <= Z_CONNECTION)
    if shared:
        r_b, r_2mb = rgamma(b), rgamma(2.0 - b)
        pi_over_s = math.pi / sinpi(b)
        try:
            z_1mb = z ** (1.0 - b)
        except OverflowError:  # beyond double range: no shared formula
            shared = False

    def pair(a):
        a1 = a - 1.0
        # the shared formula serves a <= 0.1 with a and a - 1 more than
        # 1e-12 from the non-positive integers, where 1/Gamma(a) and
        # 1/Gamma(a - 1) are small and need the point evaluator
        if (shared and A_CONNECTION_MIN <= a1 and a <= 0.1
                and abs(a1 - round(a1)) >= 1e-12
                and (a > 0.0 or abs(a - round(a)) >= 1e-12)):
            x = 1.0 + a - b
            x1 = 1.0 + a1 - b
            r_x, r_a = rgamma(x), rgamma(a)
            t1 = kummer_m(a, b, z) * r_x * r_b
            t2 = z_1mb * kummer_m(x, 2.0 - b, z) * r_a * r_2mb
            s1 = kummer_m(a1, b, z) * (x1 * r_x) * r_b
            s2 = z_1mb * kummer_m(x1, 2.0 - b, z) * (a1 * r_a) * r_2mb
            u, u1 = pi_over_s * (t1 - t2), pi_over_s * (s1 - s2)
            # near a pole of 1/Gamma, r_x carries the rounding of x, up to
            # (1 + |a| + |b|) ulps, over the distance from x to the pole
            ulps = 1.0 + abs(a) + abs(b)
            limit = _AMP_SWITCH * abs(x - round(x))
            if (abs(t1) * ulps < limit * abs(t1 - t2)
                    and abs(s1) * ulps < limit * abs(s1 - s2)
                    and math.isfinite(u) and math.isfinite(u1)):
                return u, u1
        return _u_point(a, b, z, 2)

    return pair


# --- the evaluators: Laplace rule above _LAPLACE_A, recurrence below --------

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


def _laplace_window(a, b, z, left_lift, left_extra=0.0):
    """Per point: (s_lo, s_hi, h, log-integrand at the peak), a window in
    s = log t whose ends lie _TAIL_DROP below the integrand's peak, and a
    step for the trapezoidal rule.  The left end lies left_lift * log1p(t_pk)
    + left_extra further down, for moments weighted by up to
    (1+t)^-left_lift, which raise the left tail against the peak by that
    much, or by 1/t (left_extra).

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
    left_drop = _TAIL_DROP + left_extra + left_lift * log1p_pk
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


def _recurrence_steps(a):
    """Steps m of the downward recurrence from a_top = a + m in
    (_LAPLACE_A, _LAPLACE_A + 1] to a; 0 for a > _LAPLACE_A."""
    return max(0, math.floor(_LAPLACE_A + 1.0 - a))


def _log_abs_u(a, b, z):
    """(log|U(a, b, z)| + C, sign of U(a, b, z)) over a 1-d array z > 0;
    the constant C = log Gamma(a_top) depends on (a, b) only.

    For a > _LAPLACE_A, a_top = a and the Laplace rule gives log Gamma(a)
    U.  Otherwise U comes down from a_top = a + m, m = _recurrence_steps(a),
    in m steps in a, carried on W_l = U(., b - l, z), l = 0..L with
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
    m = _recurrence_steps(a)
    if m == 0:
        log_gu, _ = _laplace_rule(a, b, z, 0)
        return log_gu, np.ones_like(z)
    if m > _MAX_STEPS:
        raise DomainError(
            f"array evaluator of U: a={a} needs {m} recurrence steps, more "
            f"than {_MAX_STEPS}")
    levels = max(1, math.ceil(b - 1.0))
    log_gu, moments = _laplace_rule(a + m, b, z, levels)
    w = [np.ones_like(z)] + list(moments)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(m, 0, -1):
            w[levels] = z * w[levels - 1] + (a + j - (b - levels)) * w[levels]
            for lev in range(levels - 1, -1, -1):
                w[lev] = (a + (j - 1)) * w[lev] + w[lev + 1]
            if j % _RESCALE_STEPS == 0:
                scale = np.abs(w[0]) + np.abs(w[levels])
                log_gu = log_gu + np.log(scale)
                w = [v / scale for v in w]
        return log_gu + np.log(np.abs(w[0])), np.sign(w[0])


def _laplace_window_point(a, b, z, left_lift, left_extra=0.0):
    """_laplace_window at one float z, by the same formulas with the math
    module: (s_lo, s_hi, h, log-integrand at the peak) as floats."""
    c = (b - 1.0) - z
    disc = math.sqrt(c * c + (4.0 * a) * z)
    den = disc + abs(c)
    t_pk = den / (2.0 * z) if c > 0.0 else (2.0 * a) / den
    s_pk = math.log(t_pk)
    h = (2.0 * math.pi) / (math.sqrt(78.0 * disc / (1.0 + 1.0 / t_pk)) + 25.0)
    phi_pk = (b - 1.0) * s_pk + (b - 1.0 - a) * math.log1p(1.0 / t_pk) \
        - z * t_pk
    log1p_pk = math.log1p(t_pk)
    left_drop = _TAIL_DROP + left_extra + left_lift * log1p_pk
    w1 = math.acosh(1.0 + _TAIL_DROP / (2.0 * z * t_pk))
    ends = []
    for s, drop in ((s_pk + w1, _TAIL_DROP), (s_pk - w1, left_drop)):
        t = math.exp(s)
        slope = (a + (b - 1.0 - z) * t - z * t * t) / (1.0 + t)
        phi = (b - 1.0) * s + (b - 1.0 - a) * math.log1p(1.0 / t) - z * t
        ends.append((s, slope, max(drop - phi_pk + phi, 0.0)))
    (s_right, slope_right, gap_right), (s_left, slope_left, gap_left) = ends
    s_hi = s_right - gap_right / slope_right
    s_lo = s_left - gap_left / min(slope_left, a)
    bound = math.log1p(1.0 / t_pk) + (left_drop + z * t_pk
                                      - min(b - 1.0, 0.0) * log1p_pk) / a
    try:
        s_lo = max(s_lo, -math.log(math.expm1(bound)))
    except OverflowError:  # the array code's bound is -inf there
        pass
    return s_lo, s_hi, h, phi_pk


def _laplace_point(a, b, z, left_lift, left_extra=0.0):
    """(t, weight, sum of the weights, log(Gamma(a) U(a, b, z))) at the
    nodes of one point's trapezoidal rule (as in _laplace_rule), the weight
    relative to the integrand's peak; the window from
    _laplace_window_point."""
    s_lo, s_hi, h, phi_pk = _laplace_window_point(a, b, z, left_lift,
                                                  left_extra)
    count = _NODE_STEP * math.ceil(((s_hi - s_lo) / h + 1.0) / _NODE_STEP)
    if not count <= _MAX_NODES:
        raise NonConvergenceError(
            "Laplace rule: window needs more nodes than the bound",
            a=a, b=b, nodes=count, bound=_MAX_NODES)
    step = (s_hi - s_lo) / (count - 1)
    s = s_lo + step * np.arange(count, dtype=float)
    t = np.exp(s)
    weight = np.exp(_log_integrand(a, b, z, s, t) - phi_pk)
    total = float(weight.sum())
    return t, weight, total, phi_pk + math.log(step * total)


def _laplace_inv_t(a, b, z):
    """E[1/t] under the Laplace weight t^(a-1) (1+t)^(b-a-1) e^(-zt) at one
    z > 0, for a > _LAPLACE_A: U(a-1, b, z)/U(a, b, z) = (a-1)(1 + E[1/t]).
    The window of u_ratio_slope_a's a > _LAPLACE_A branch, whose E[1/t] has
    the same bits."""
    t, weight, total, _ = _laplace_point(a, b, z, 0, _TAIL_DROP / (a - 1.0))
    return float(weight @ (1.0 / t)) / total


def _log_abs_u_point(a, b, z, count=1, slopes=False):
    """The point evaluator: _log_abs_u's algorithm at one float z > 0,
    [(log|U(a - i, b, z)| + log Gamma(a_top), sign) for i < count] from one
    pass of m + count - 1 steps, m = _recurrence_steps(a) (one value at a >
    _LAPLACE_A is the Laplace rule alone).  The values are rescaled every
    _RESCALE_STEPS steps counted from a_top, so each has the bits of a
    one-value pass at a - i where that is exact.  The math module's domain
    and range errors, met far outside the stated region, raise
    EvaluationOverflowError.

    With slopes (count 2, m >= 1) it returns (R, dR/da - 1), R =
    U(a-1)/U(a), for u_ratio_slope_a: the a-derivatives go forward-mode
    next to the values from dW_l = Cov((1+t)^-l, log(t/(1+t))) at a_top,
    rescaled every _RESCALE_STEPS steps counted from a - 1; Gamma(a_top),
    its a-derivative and the rescaling factors cancel in R.
    """
    m = _recurrence_steps(a)
    if m + count - 1 > _MAX_STEPS:
        raise DomainError(
            f"point evaluator of U: a={a} needs {m + count - 1} recurrence "
            f"steps, more than {_MAX_STEPS}")
    levels = max(1, math.ceil(b - 1.0)) if m + count > 1 else 0
    try:
        t, weight, total, log_gu = _laplace_point(a + m, b, z, levels)
        damp = 1.0 / (1.0 + t)
        w, dw = [1.0], [0.0]
        if slopes:
            lam = -np.log1p(1.0 / t)
            lam_c = lam - float(weight @ lam) / total
        for _ in range(levels):
            weight = weight * damp
            w.append(float(weight.sum()) / total)
            if slopes:
                dw.append(float(weight @ lam_c) / total)
        out = [(log_gu, 1.0)] if m == 0 else []
        phase = 0 if slopes else m + 1
        for j in range(m, 1 - count, -1):
            # w, dw hold W_l(a + j) and its a-derivative; step to a + j - 1
            c = a + j - (b - levels)
            if slopes:
                dw[levels] = z * dw[levels - 1] + w[levels] + c * dw[levels]
            w[levels] = z * w[levels - 1] + c * w[levels]
            c = a + (j - 1)
            for lev in range(levels - 1, -1, -1):
                if slopes:
                    dw[lev] = w[lev] + c * dw[lev] + dw[lev + 1]
                w[lev] = c * w[lev] + w[lev + 1]
            if j == 1:
                u0, du0 = w[0], dw[0]
            if (j - phase) % _RESCALE_STEPS == 0:
                scale = abs(w[0]) + abs(w[levels])
                log_gu += math.log(scale)
                w = [v / scale for v in w]
                dw = [v / scale for v in dw]
                if j == 0:
                    u0, du0 = u0 / scale, du0 / scale
            if j <= 1 and not slopes:
                out.append((log_gu + math.log(abs(w[0])),
                            math.copysign(1.0, w[0])))
        if slopes:
            ratio = w[0] / u0
            return ratio, (dw[0] - ratio * du0) / u0 - 1.0
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise EvaluationOverflowError(
            f"point evaluator of U: U({a}, {b}, {z}) leaves double range "
            f"({exc})") from exc
    return out


def u_ratio_slope_a(a: float, b: float, z: float) -> tuple[float, float]:
    """(R, dR/da - 1) for R = U(a-1, b, z)/U(a, b, z) at one z > 0, from
    one pass of the point evaluator's algorithm.

    Under the Laplace weight t^(a-1) (1+t)^(b-a-1) e^(-zt) (DLMF 13.4.4),
    d/da of an expectation is its covariance with lam = log(t/(1+t)).
      * a > _LAPLACE_A: R = (a-1)(1 + E[1/t]) and
        dR/da - 1 = E[1/t] + (a-1) Cov(1/t, lam), from centred values.
        For the ground state's large a, dR/da is 1 + O(sqrt(z/a)); the
        difference is formed without that cancellation.  The window's left
        end lies _TAIL_DROP/(a-1) further down for the weight 1/t.
      * a <= _LAPLACE_A: the downward recurrence, carried forward-mode in
        a (_log_abs_u_point with slopes).

    Stated region: the excited and ground states of the module docstring,
    dR/da - 1 within 1.2e-13 relative of 40 digits.
    """
    if not z > 0.0:
        raise DomainError(f"u_ratio_slope_a: requires z > 0, got z={z}")
    if _recurrence_steps(a) > 0:
        return _log_abs_u_point(a, b, z, 2, slopes=True)
    t, weight, total, _ = _laplace_point(a, b, z, 0, _TAIL_DROP / (a - 1.0))
    inv_t = 1.0 / t
    lam = -np.log1p(inv_t)
    e_inv = float(weight @ inv_t) / total
    lam_c = lam - float(weight @ lam) / total
    cov = float(weight @ ((inv_t - e_inv) * lam_c)) / total
    return (a - 1.0) * (1.0 + e_inv), e_inv + (a - 1.0) * cov


def u_ratio_z_evaluator(a: float, b: float, z_den: float):
    """The function z -> U(a, b, z) / U(a, b, z_den) over an array z > 0
    (a float for a 0-d z), built once per (a, b, z_den), e.g. once per
    exterior wave function.

    The samples take the array evaluator (_log_abs_u), the denominator the
    point evaluator.  The ratio is formed in log form, so a far tail where
    U underflows gives 0.0.  Each point's value depends on that point
    alone, not on the others of the call.

    Tested region: against 20 to 40 digits the ratio keeps 1e-12 of the
    wave function's scale max |U(z) z^(b/2-1/4) e^(-z/2)| for a in
    [-30, 1e4], b in [1, 3], z in [1e-8, 160].  Above b = 3, for a <= 0,
    the error grows with b in the oscillatory bulk z in [b, 4|a| + 2b].
    Against 40 digits on 241 points there, relative to the largest scaled
    value within ten points, it is 2.6e-9 at (a, b) = (-30, 10.74),
    1.3e-10 at (-20, 10.7), 5.5e-12 at (-30, 7) and 1.5e-13 at
    (-30, 4.5).  A plain three-term recurrence in a from two Laplace
    values keeps 1.6e-13 or better at those four points.
    """
    if not z_den > 0.0:
        raise DomainError("u_ratio_z_evaluator: requires z_den > 0")
    [(log_den, sign_den)] = _log_abs_u_point(a, b, float(z_den))

    def ratio(z):
        za = np.asarray(z, dtype=float)
        flat = za.reshape(-1)
        if not np.all(flat > 0.0):
            raise DomainError("u_ratio_z_evaluator: requires z > 0")
        log_u, sign = _log_abs_u(a, b, flat)
        with np.errstate(over="ignore"):
            out = (sign * sign_den) * np.exp(log_u - log_den)
        if not np.all(np.isfinite(out)):
            raise EvaluationOverflowError(
                f"u_ratio_z_evaluator: U({a}, {b}, z)/U(z_den) exceeds double "
                "range (log threshold 709.78)", threshold=709.78)
        return float(out[0]) if za.ndim == 0 else out.reshape(za.shape)

    return ratio
