"""Kummer M and Tricomi U confluent hypergeometric functions (real arguments).

Three evaluation regimes for U:
  * connection formula through two M series (moderate parameters),
  * Poincare expansion in 1/z for large argument,
  * uniform large-first-parameter expansion in modified Bessel K functions,
    carried through three correction orders so the series/Bessel branches
    overlap to better than 1e-7 for first parameter >= 30.

Each route is built for fixed (a, b) as a function of z, with its
z-independent factors computed once; tricomi_u builds one for a single z,
u_ratio_z_evaluator keeps one for a whole exterior wave function.
u_pair_shift_a works the other way round: at fixed (b, z) it shares the
connection formula's factors and the K pair across a root solve in a.

The Bessel-branch coefficient polynomials were generated from the defining
recurrences of the expansion and verified against 40-digit reference values;
they are tested constants (see tests).
"""

import math
from functools import partial
from typing import Callable

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

    total = 0.0
    # expand in panels from the peak until both tails are negligible; the
    # left tail decays only like exp(a*u), so its panels widen as 1/a
    for direction, width in ((+1.0, 1.0), (-1.0, max(1.0, 4.0 / a))):
        edge = u_peak
        for _ in range(400):
            nxt = edge + direction * width
            total += integrate(g, min(edge, nxt), max(edge, nxt),
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


def u_ratio_z_evaluator(a: float, b: float,
                        z_den: float) -> Callable[[float], float]:
    """The function z -> U(a, b, z) / U(a, b, z_den), stable for any large a.

    Built once per (a, b, z_den), e.g. once per exterior wave function:
    the denominator (above the Bessel switch, its e^w-scaled combo and log
    terms), the connection-formula factors and the route choices that
    depend only on (a, b) are computed here, not at every z.
    """
    if not z_den > 0.0:
        raise DomainError("u_ratio_z_evaluator: requires z_den > 0")

    def check(z):
        if not z > 0.0:
            raise DomainError("u_ratio_z_evaluator: requires z > 0")

    if a > A_SWITCH:
        # in log form from e^w-scaled K, so a far tail whose K underflows
        # gives exp(logr) = 0.0 rather than the log of zero
        half_1mb, log_z_den = 0.5 * (1.0 - b), math.log(z_den)
        sqrt_az_den = math.sqrt(a * z_den)
        k_pair = bessel_k_pair(b - 1.0, scaled=True)
        combo_den = _bessel_combo(a, b, z_den, k_pair)

        def ratio(z):
            check(z)
            w_shift = 2.0 * (math.sqrt(a * z) - sqrt_az_den)
            logr = half_1mb * (math.log(z) - log_z_den) \
                + 0.5 * (z - z_den) - w_shift \
                + math.log(_bessel_combo(a, b, z, k_pair) / combo_den)
            return math.exp(logr)

        return ratio
    u = _tricomi_u_of_z(a, b)
    u_den = u(z_den)

    def ratio(z):
        check(z)
        return u(z) / u_den

    return ratio

