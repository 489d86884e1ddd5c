"""Modified Bessel functions I and K of real order, real positive argument.

K routes: half-integer orders use the closed forms exactly; near-integer
orders fall back to the integer-order logarithmic series (documented floor
~1e-6 * |dK/d(order)| inside the 1e-6 band); otherwise the I(+/-order)
difference series below the seam and the exponential asymptotic series with
order reduced into [0.5, 1.5] above it.  The same routes give e^z K, which
stays finite where K underflows.
"""

import math

from ..errors import DomainError
from .gammafn import rgamma, sinpi

_EULER_GAMMA = 0.5772156649015328606065120900824024

# seam between the series and asymptotic K routes; worst-case relative
# accuracy at the seam is ~6e-9 for the unluckiest non-half-integer order
_Z_SEAM = 8.5
_ORDER_INT_TOL = 1e-6


def bessel_i(lam: float, z: float) -> float:
    """I_lam(z) by the ascending power series (z >= 0 moderate)."""
    if z < 0.0:
        raise DomainError(f"bessel_i: negative argument z={z}")
    if lam < 0.0 and abs(lam - round(lam)) < 1e-12:
        lam = -lam  # integer order symmetry
    if z == 0.0:
        return 1.0 if lam == 0.0 else (0.0 if lam > 0.0 else math.inf)
    h = 0.5 * z
    q = h * h
    # term_k = h^(2k+lam) / (k! Gamma(k+1+lam)); start from k=0 via rgamma
    term = math.exp(lam * math.log(h)) * rgamma(1.0 + lam)
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


def _k_series_noninteger(lam, z):
    # K = pi/2 * (I_{-lam} - I_{lam}) / sin(pi lam)
    return 0.5 * math.pi * (bessel_i(-lam, z) - bessel_i(lam, z)) / sinpi(lam)


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


def _k_routed(lam, z, scaled):
    if not z > 0.0:
        raise DomainError(f"bessel_k: requires z > 0, got z={z}")
    lam = abs(lam)  # K is even in the order
    two = 2.0 * lam
    if abs(two - round(two)) < 1e-12 and int(round(two)) % 2 == 1:
        return _k_half_integer(lam, z, scaled)
    if z > _Z_SEAM:
        return _k_asymptotic_reduced(lam, z, scaled)
    k = _k_series(lam, z)
    return k * math.exp(z) if scaled else k


def _k_series(lam, z):
    """K_lam(z) below the seam, lam >= 0 not a half-integer."""
    m = int(round(lam))
    if abs(lam - m) >= _ORDER_INT_TOL:
        return _k_series_noninteger(lam, z)
    if m <= 1:
        return _k_integer_series(m, z)
    k_lo = _k_integer_series(0, z)
    k_hi = _k_integer_series(1, z)
    order = 1.0
    for _ in range(m - 1):
        k_lo, k_hi = k_hi, k_lo + (2.0 * order / z) * k_hi
        order += 1.0
    return k_hi
