"""Modified Bessel function K of real order and positive argument.

One algorithm for every order and argument (Numerical Recipes, section 6.7,
`bessik`).  The order lam = m + mu with mu in [-1/2, 1/2); the pair K_mu,
K_(mu+1) comes from Temme's series below z = 2 (J. Comput. Phys. 19:324,
1975), which carries 1/sin(pi mu) analytically so nothing cancels as mu
approaches an integer, and from Steed's evaluation of the continued
fraction CF2 from z = 2 up (Thompson & Barnett, J. Comput. Phys. 64:490,
1986), exact at half-integer orders.  Upward recurrence in the order, which
is stable for K, then reaches lam.  Callers need consecutive orders (the
Tricomi Bessel branch combines K_(b-1) and K_b, the c0 fixed point takes
K_(nu-1/2)/K_(nu+1/2)), so the evaluator returns the pair.
"""

import math

from ..errors import DomainError, NonConvergenceError
from .gammafn import rgamma

# Temme's series below this argument, CF2 from it on.
_TEMME_Z = 2.0
# Taylor coefficients c_1, c_3, ..., c_21 of 1/Gamma(1 + x) (A&S 6.1.34):
# (1/Gamma(1 - mu) - 1/Gamma(1 + mu)) / (2 mu) = -sum_j c_(2j+1) mu^(2j),
# to rounding for |mu| <= 1/2 (the first omitted term is 1.3e-21 there).
_RGAMMA_ODD_TAYLOR = (0.5772156649015329, -0.04200263503409524,
                      -0.04219773455554433, 0.0072189432466631,
                      -0.00021524167411495098, -2.013485478078824e-05,
                      1.133027231981696e-06, 6.116095104481416e-09,
                      -1.18127457048702e-09, 7.782263439905071e-12,
                      5.100370287454476e-13)
_EPS = 1e-17
_MAX_TERMS = 10_000


def bessel_k_pair(lam: float):
    """The function z -> (K_lam(z), K_(lam+1)(z)), z > 0, for a fixed order.

    The order constants of Temme's series (two 1/Gamma values, gam1, gam2,
    pi mu / sin(pi mu)) are computed here once.
    """
    if lam < -0.5:
        # K is even in the order: (K_lam, K_(lam+1)) = (K_(-lam), K_(-lam-1))
        pair_of_reflected = bessel_k_pair(-lam - 1.0)
        return lambda z: pair_of_reflected(z)[::-1]
    m = math.floor(lam + 0.5)
    mu = lam - m
    temme = _temme_constants(mu)

    def pair(z):
        if not z > 0.0:
            raise DomainError(f"bessel_k_pair: requires z > 0, got z={z}")
        if z < _TEMME_Z:
            k_lo, k_hi = _temme(mu, temme, z)
        else:
            k_lo, k_hi = _steed(mu, z)
        order = mu + 1.0
        for _ in range(m):
            k_lo, k_hi = k_hi, k_lo + (2.0 * order / z) * k_hi
            order += 1.0
        return k_lo, k_hi

    return pair


def _temme_constants(mu):
    """pi mu / sin(pi mu), gam1, gam2, 1/Gamma(1 + mu), 1/Gamma(1 - mu)."""
    r_plus, r_minus = rgamma(1.0 + mu), rgamma(1.0 - mu)
    mu2 = mu * mu
    gam1 = 0.0
    for c in reversed(_RGAMMA_ODD_TAYLOR):
        gam1 = gam1 * mu2 - c
    fact = math.pi * mu / math.sin(math.pi * mu) if mu != 0.0 else 1.0
    return fact, gam1, 0.5 * (r_minus + r_plus), r_plus, r_minus


def _temme(mu, constants, z):
    """K_mu(z) and K_(mu+1)(z), |mu| <= 1/2, 0 < z < 2, by Temme's series."""
    fact, gam1, gam2, r_plus, r_minus = constants
    h = 0.5 * z
    d = -math.log(h)
    e = mu * d
    sinhc = math.sinh(e) / e if e != 0.0 else 1.0
    f = fact * (gam1 * math.cosh(e) + gam2 * sinhc * d)
    p = 0.5 * math.exp(e) / r_plus     # Gamma(1 + mu) h^-mu / 2
    q = 0.5 * math.exp(-e) / r_minus   # Gamma(1 - mu) h^mu / 2
    k_mu, k_next = f, p
    c = 1.0
    q2 = h * h
    mu2 = mu * mu
    for i in range(1, _MAX_TERMS):
        f = (i * f + p + q) / (i * i - mu2)
        c *= q2 / i
        p /= i - mu
        q /= i + mu
        term, term_next = c * f, c * (p - i * f)
        k_mu += term
        k_next += term_next
        if abs(term) <= _EPS * abs(k_mu) \
                and abs(term_next) <= _EPS * abs(k_next):
            return k_mu, k_next / h
    raise NonConvergenceError("bessel_k_pair: Temme series did not converge",
                              mu=mu, z=z)


def _steed(mu, z):
    """K_mu(z) and K_(mu+1)(z), |mu| <= 1/2, z >= 2, by Steed's CF2.

    The continued fraction gives K_(mu+1)/K_mu and, through the same
    recurrence, the normalising sum s with K_mu = sqrt(pi/(2z)) e^-z / s.
    At half-integer orders a1 = 1/4 - mu^2 is 0 and the first step is exact.
    """
    b = 2.0 * (1.0 + z)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    a1 = 0.25 - mu * mu
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _MAX_TERMS):
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) <= _EPS * abs(s):
            break
    else:
        raise NonConvergenceError("bessel_k_pair: continued fraction CF2 "
                                  "did not converge", mu=mu, z=z)
    k_mu = math.sqrt(math.pi / (2.0 * z)) / s * math.exp(-z)
    return k_mu, k_mu * (mu + z + 0.5 - a1 * h) / z
