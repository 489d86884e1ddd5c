"""Modified Bessel functions I and K of real order, real positive argument.

K routes: half-integer orders use the closed forms exactly; integer orders
the integer-order logarithmic series; orders within 0.05 of an integer, for
z < 2, Temme's series; otherwise the I(+/-order) difference series below
the seam and the exponential asymptotic series with order reduced into
[0.5, 1.5] above it.  The same routes give e^z K, which stays finite where
K underflows.
"""

import math

from ..errors import DomainError
from .gammafn import rgamma, sinpi

_EULER_GAMMA = 0.5772156649015328606065120900824024

# Seam between the series and asymptotic K routes.  Just below it the
# series route loses digits in I_{-lam} - I_lam, the more the closer lam is
# to an integer.  Relative error against mpmath, worst over z in [8, 8.5]
# and the integers 0..3: 1.0e-7 for orders at least 0.05 from an integer
# (9.6e-8 at lam = 2.05, z = 8.4), 3.5e-7 at distance 1e-2, 4.9e-6 at 1e-3,
# 7.7e-4 at 5e-6 and 4.1e-3 just outside the 1e-6 integer band.  At z = 8.4
# and lam = 1e-2, 1e-3, 5e-6: 3.5e-7, 3.3e-6, 3.6e-5.  Small orders are the
# b - 1 = sqrt(1/4 + alpha) of couplings just above alpha = -1/4.
_Z_SEAM = 8.5
_ORDER_INT_TOL = 1e-6

# Temme's series replaces the difference series where the order lies within
# _TEMME_ORDER of an integer (an exact integer excepted) and z < _TEMME_Z.
# There I_{-lam} - I_lam cancels by about 1/|lam - integer| (2.5e-11
# relative at distance 5e-6, z = 0.5), which the runaway ground state's
# exterior ratio amplifies by 1e3 to 1e4 into kappa.
_TEMME_ORDER = 0.05
_TEMME_Z = 2.0
# Taylor coefficients c_1, c_3, ..., c_13 of 1/Gamma(1 + x) (A&S 6.1.34):
# (1/Gamma(1 - mu) - 1/Gamma(1 + mu)) / (2 mu) = -sum_j c_(2j+1) mu^(2j),
# to rounding for |mu| < _TEMME_ORDER.
_RGAMMA_ODD_TAYLOR = (0.5772156649015329, -0.04200263503409524,
                      -0.04219773455554433, 0.0072189432466631,
                      -0.00021524167411495098, -2.013485478078824e-05,
                      1.133027231981696e-06)


def bessel_i(lam: float, z: float) -> float:
    """I_lam(z) by the ascending power series (z >= 0 moderate)."""
    if z < 0.0:
        raise DomainError(f"bessel_i: negative argument z={z}")
    if lam < 0.0 and abs(lam - round(lam)) < 1e-12:
        lam = -lam  # integer order symmetry
    if z == 0.0:
        return 1.0 if lam == 0.0 else (0.0 if lam > 0.0 else math.inf)
    return _i_series(lam, rgamma(1.0 + lam), z)


def _i_series(lam, rgamma_1p, z):
    """I_lam(z), z > 0, by the series; rgamma_1p is 1/Gamma(1 + lam)."""
    h = 0.5 * z
    q = h * h
    # term_k = h^(2k+lam) / (k! Gamma(k+1+lam)); start from k=0 via rgamma
    term = math.exp(lam * math.log(h)) * rgamma_1p
    total = term
    k = 0
    while k < 10_000:
        den = (k + 1.0) * (k + 1.0 + lam)
        if den == 0.0:
            # lam is a negative integer reached by the recurrence; restart
            # the term from the first non-vanishing index via rgamma
            term = math.exp((2 * (k + 1) + lam) * math.log(h)) \
                * rgamma(k + 2.0 + lam) / math.factorial(k + 1)
        else:
            term *= q / den
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total
        k += 1
    raise DomainError(f"bessel_i: series not converging for lam={lam} z={z}")


def _k_half_integer(lam, z, scaled):
    # K_{1/2}(z) = sqrt(pi/(2 z)) e^-z; upward recurrence in the order
    base = math.sqrt(math.pi / (2.0 * z))
    if not scaled:
        base *= math.exp(-z)
    n_steps = int(round(lam - 0.5))
    k_prev = base  # K_{-1/2} = K_{1/2}
    k_cur = base
    mu = 0.5
    for _ in range(n_steps):
        k_prev, k_cur = k_cur, k_prev + (2.0 * mu / z) * k_cur
        mu += 1.0
    return k_cur


def _k_order_constants(lam):
    """1/Gamma(1 - lam), 1/Gamma(1 + lam) and sin(pi lam): the factors of
    the non-integer series route that depend only on the order."""
    return rgamma(1.0 - lam), rgamma(1.0 + lam), sinpi(lam)


def _k_series_noninteger(lam, z, order_constants):
    # K = pi/2 * (I_{-lam} - I_{lam}) / sin(pi lam)
    rgamma_1m, rgamma_1p, s = order_constants
    return 0.5 * math.pi * (_i_series(-lam, rgamma_1m, z)
                            - _i_series(lam, rgamma_1p, z)) / s


def _k_integer_series(n, z):
    """K_n(z) for integer n >= 0 by the logarithmic series (z below seam)."""
    h = 0.5 * z
    q = h * h
    lnh = math.log(h)
    if n == 0:
        # -(ln(z/2)+gamma) I_0 + sum_k H_k q^k / (k!)^2
        term = 1.0
        i0 = 1.0
        s = 0.0
        hk = 0.0
        for k in range(1, 200):
            term *= q / (k * k)
            hk += 1.0 / k
            i0 += term
            s += term * hk
            if term * (hk + 1.0) <= 1e-17 * (abs(s) + 1.0):
                break
        return -(lnh + _EULER_GAMMA) * i0 + s
    # general n >= 1
    # finite sum: 1/2 (z/2)^-n sum_{k=0}^{n-1} (n-k-1)!/k! (-q)^k
    fin = 0.0
    for k in range(n):
        fin += math.factorial(n - k - 1) / math.factorial(k) * (-q) ** k
    fin *= 0.5 * math.exp(-n * lnh)
    # log term: (-1)^(n+1) ln(z/2) I_n(z); sign = (-1)^n
    sign = 1.0 if n % 2 == 0 else -1.0
    logterm = -sign * lnh * bessel_i(float(n), z)
    # psi series: (-1)^n 1/2 (z/2)^n sum_k [psi(k+1)+psi(n+k+1)] q^k/(k!(n+k)!)
    psi1 = -_EULER_GAMMA            # psi(1)
    psin = -_EULER_GAMMA + sum(1.0 / j for j in range(1, n + 1))  # psi(n+1)
    term = math.exp(n * lnh) / math.factorial(n)
    s = term * (psi1 + psin)
    for k in range(1, 200):
        term *= q / (k * (n + k))
        psi1 += 1.0 / k
        psin += 1.0 / (n + k)
        add = term * (psi1 + psin)
        s += add
        if abs(add) <= 1e-17 * (abs(s) + 1e-300):
            break
    return fin + logterm + sign * 0.5 * s


def _k_temme(mu, z):
    """K_mu(z) and K_(mu+1)(z) for 0 < |mu| < _TEMME_ORDER and 0 < z < _TEMME_Z.

    Temme's series (J. Comput. Phys. 19:324, 1975; Numerical Recipes,
    section 6.7): the 1/sin(pi mu) of the difference form is carried
    analytically, so nothing cancels as mu -> 0.
    """
    h = 0.5 * z
    d = -math.log(h)
    e = mu * d
    r_plus, r_minus = rgamma(1.0 + mu), rgamma(1.0 - mu)
    mu2 = mu * mu
    gam1 = -sum(c * mu2 ** j for j, c in enumerate(_RGAMMA_ODD_TAYLOR))
    gam2 = 0.5 * (r_minus + r_plus)
    sinhc = math.sinh(e) / e if e != 0.0 else 1.0
    f = math.pi * mu / math.sin(math.pi * mu) \
        * (gam1 * math.cosh(e) + gam2 * sinhc * d)
    p = 0.5 * math.exp(e) / r_plus     # Gamma(1 + mu) h^-mu / 2
    q = 0.5 * math.exp(-e) / r_minus   # Gamma(1 - mu) h^mu / 2
    k_mu, k_next = f, p
    c = 1.0
    q2 = h * h
    for i in range(1, 200):
        f = (i * f + p + q) / (i * i - mu2)
        c *= q2 / i
        p /= i - mu
        q /= i + mu
        term, term_next = c * f, c * (p - i * f)
        k_mu += term
        k_next += term_next
        if abs(term) <= 1e-17 * abs(k_mu) \
                and abs(term_next) <= 1e-17 * abs(k_next):
            break
    return k_mu, k_next / h


def _k_asymptotic(lam, z, scaled):
    """Exponential expansion, min-term truncated; intended for z >= seam."""
    mu4 = 4.0 * lam * lam
    total = 1.0
    term = 1.0
    k = 0
    while k < 60:
        nxt = term * (mu4 - (2 * k + 1) ** 2) / (8.0 * z * (k + 1.0))
        if abs(nxt) >= abs(term) and k > 1:
            break
        term = nxt
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        k += 1
    pre = math.sqrt(math.pi / (2.0 * z))
    if not scaled:
        pre *= math.exp(-z)
    return pre * total


def _k_asymptotic_reduced(lam, z, scaled):
    # reduce the order into [0.5, 1.5] where the expansion converges deepest,
    # then recur upward (stable for K)
    m = math.floor(lam + 0.5)  # lam = m + mu, mu in [-0.5, 0.5)
    mu = lam - m
    if m == 0:
        return _k_asymptotic(lam, z, scaled)
    k_lo = _k_asymptotic(abs(mu), z, scaled)
    k_hi = _k_asymptotic(mu + 1.0, z, scaled)
    order = mu + 1.0
    for _ in range(m - 1):
        k_lo, k_hi = k_hi, k_lo + (2.0 * order / z) * k_hi
        order += 1.0
    return k_hi


def bessel_k(lam: float, z: float) -> float:
    """Modified Bessel function of the second kind K_lam(z), z > 0."""
    return _k_routed(lam, z, False)


def _bessel_k_scaled(lam: float, z: float) -> float:
    """e^z K_lam(z), z > 0; finite where K_lam(z) itself underflows."""
    return _k_routed(lam, z, True)


def _bessel_k_scaled_of_order(lam: float):
    """The function z -> e^z K_lam(z) for a fixed order.

    The order factors of the series route (1/Gamma(1 -+ lam), sin(pi lam))
    are computed once here; each value equals _bessel_k_scaled(lam, z).
    """
    order_constants = _k_order_constants(abs(lam))
    return lambda z: _k_routed(lam, z, True, order_constants)


def _k_routed(lam, z, scaled, order_constants=None):
    if not z > 0.0:
        raise DomainError(f"bessel_k: requires z > 0, got z={z}")
    lam = abs(lam)  # K is even in the order
    two = 2.0 * lam
    if abs(two - round(two)) < 1e-12 and int(round(two)) % 2 == 1:
        return _k_half_integer(lam, z, scaled)
    if z > _Z_SEAM:
        return _k_asymptotic_reduced(lam, z, scaled)
    k = _k_series(lam, z, order_constants)
    return k * math.exp(z) if scaled else k


def _k_series(lam, z, order_constants=None):
    """K_lam(z) below the seam, lam >= 0 not a half-integer.

    order_constants, if given, is _k_order_constants(lam).
    """
    m = int(round(lam))
    mu = lam - m
    if z < _TEMME_Z and 0.0 < abs(mu) < _TEMME_ORDER:
        k_lo, k_hi = _k_temme(mu, z)
        order = mu + 1.0
        for _ in range(m):
            k_lo, k_hi = k_hi, k_lo + (2.0 * order / z) * k_hi
            order += 1.0
        return k_lo
    if abs(mu) >= _ORDER_INT_TOL:
        if order_constants is None:
            order_constants = _k_order_constants(lam)
        return _k_series_noninteger(lam, z, order_constants)
    if m <= 1:
        return _k_integer_series(m, z)
    k_lo = _k_integer_series(0, z)
    k_hi = _k_integer_series(1, z)
    order = 1.0
    for _ in range(m - 1):
        k_lo, k_hi = k_hi, k_lo + (2.0 * order / z) * k_hi
        order += 1.0
    return k_hi
