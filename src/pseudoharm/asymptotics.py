"""Small-cutoff expansions: excited-state corrections epsilon_n, the
ground-state coefficient c0 (self-consistent and closed form) and the
energy estimate -2 c0 / delta^2.

All in oscillator units, and every result is a plain float.  The energy of
the runaway even ground state for -1/4 <= alpha < 0 behaves as
E = -2 c0/delta^2 + O(delta^2): the expansion of kappa carries a constant
-1/2 which cancels in E, and the next coefficient (c1) vanishes
identically, so no function returns it.
"""

import functools
import math

from .errors import DomainError, NonConvergenceError
from .rootfind import brent
from .specfun import bessel_k_pair, gamma, lgamma
from .unreg import PotentialSpec, label_from_display, nu_of_alpha

_EULER_GAMMA = 0.5772156649015328606065120900824024


# --- the interior wave, cos(u t) (even) or sin(u t)/u (odd), t = |x|/delta,
# as entire functions of s2 = u^2 (cosh, sinh for s2 < 0): the two families
# hold the only regime branch; every interior formula goes through them.

_SERIES_S2 = 1e-4  # below this |s2| Taylor series replace the closed forms
# below this |s2| the differences sinc - cos and 1 - cos sinc, which cancel
# like eps/|s2|, come from their own series (terms to 1e-16 relative here)
_DIFF_SERIES_S2 = 1e-2
# (sinc - cos)/s2 = 1/3 - s2/30 + ...: s2^(k-1) has -2k (-1)^k/(2k+1)!
_SINC_MINUS_COS = (1.0 / 3.0, -1.0 / 30.0, 1.0 / 840.0, -1.0 / 45360.0,
                   1.0 / 3991680.0)
# (1 - cos sinc)/(2 s2) = 1/3 - s2/15 + ...: s2^(k-1) has -(-4)^k/(2 (2k+1)!)
_ODD_NORM = (1.0 / 3.0, -1.0 / 15.0, 2.0 / 315.0, -1.0 / 2835.0,
             2.0 / 155925.0, -2.0 / 6081075.0)


def _series(coeffs, s2):
    """sum_k coeffs[k] s2^k by Horner's rule."""
    total = 0.0
    for c in reversed(coeffs):
        total = total * s2 + c
    return total


def _sinc_family(s2):
    """sin(u)/u continued through s2 = 0 (sinh(v)/v for negative s2)."""
    if abs(s2) < _SERIES_S2:
        return 1.0 - s2 / 6.0 + s2 * s2 / 120.0 - s2 ** 3 / 5040.0
    if s2 > 0.0:
        u = math.sqrt(s2)
        return math.sin(u) / u
    v = math.sqrt(-s2)
    return math.sinh(v) / v


def _cos_family(s2):
    """cos(u) continued through s2 = 0 (cosh(v) for negative s2)."""
    if s2 > 0.0:
        return math.cos(math.sqrt(s2))
    return math.cosh(math.sqrt(-s2))


def _interior_log_derivative(s2: float, parity: str):
    """(N, D), N/D = t psi'/psi at t = 1: -u tan u = (-s2 sinc, cos) even,
    u cot u = (cos, sinc) odd; a pair, so callers can clear D."""
    if parity == "odd":
        return _cos_family(s2), _sinc_family(s2)
    return -s2 * _sinc_family(s2), _cos_family(s2)


def _interior_norm(s2: float, parity: str) -> float:
    """Integral of the interior wave squared over 0 <= t <= 1: (1 + C S)/2
    even, (1 - C S)/(2 s2) odd (its Taylor series below _DIFF_SERIES_S2)."""
    if parity == "even":
        return 0.5 * (1.0 + _cos_family(s2) * _sinc_family(s2))
    if abs(s2) < _DIFF_SERIES_S2:
        return _series(_ODD_NORM, s2)
    return 0.5 * (1.0 - _cos_family(s2) * _sinc_family(s2)) / s2


def _interior_slope_factor(alpha: float, parity: str) -> float:
    """Prefactor (nu - w)/(nu - 1 + w) of the correction formula, w = N/D at
    s2 = -alpha: -r tan r, r cot r, r tanh r or r coth r, r = sqrt|alpha|.

    Below |alpha| = _DIFF_SERIES_S2, where nu - 1 cancels, it is taken as
    alpha/nu, exactly nu - 1.  For odd states there nu - w cancels too
    (w = u cot u -> 1), and the numerator is alpha/nu + (1 - w), 1 - w =
    (sinc - cos)/sinc from its series.
    """
    nu = nu_of_alpha(alpha)
    num, den = _interior_log_derivative(-alpha, parity)
    w = num / den
    if abs(alpha) >= _DIFF_SERIES_S2:
        return (nu - w) / (nu - 1.0 + w)
    shift = alpha / nu
    if parity == "odd":
        one_minus_w = _series(_SINC_MINUS_COS, -alpha) * -alpha \
            / _sinc_family(-alpha)
        return (shift + one_minus_w) / (shift + w)
    return (nu - w) / (shift + w)


def epsilon_n(spec: PotentialSpec, parity: str, n: int) -> float:
    """Correction epsilon_n, kappa ~ 2 n_radial + nu + 2 epsilon_n, for the
    state with display index n; it scales as delta^(2 nu - 1).

    The display-to-radial relabelling for the even branch at alpha < 0 is
    applied here, so callers pass display indices uniformly.  Requires a
    regularized spec with delta < 0.1 and alpha != 0 (the formulas
    degenerate at alpha = 0, where the closed-form oscillator result holds).
    """
    if not spec.is_regularized or spec.delta >= 0.1:
        raise DomainError("epsilon_n: requires a regularized spec with delta < 0.1")
    alpha = spec.alpha
    if alpha == 0.0:
        raise DomainError("epsilon_n: formulas degenerate at alpha = 0")
    if alpha < -0.25:
        raise DomainError(f"epsilon_n: requires alpha >= -1/4, got {alpha}")
    label = label_from_display(alpha, parity, n)
    nu = nu_of_alpha(alpha)
    n_rad = label.n
    # Gamma(nu+n+1/2) / (n! Gamma(nu-1/2) Gamma(nu+1/2)): the reflection of
    # the 1/Gamma(1/2-nu-n) pole factor carried through analytically, so no
    # near-pole evaluation occurs at half-integer nu. Gamma(nu-1/2) diverges
    # at nu=1/2 (alpha=-1/4), correctly sending epsilon_n -> 0 there.
    if nu == 0.5:
        gam = 0.0
    else:
        gam = math.exp(lgamma(nu + n_rad + 0.5) - lgamma(n_rad + 1.0)
                       - lgamma(nu + 0.5)) / gamma(nu - 0.5)
    return -_interior_slope_factor(alpha, parity) * gam \
        * spec.delta ** (2.0 * nu - 1.0)


def kappa_estimate(spec: PotentialSpec, parity: str, n: int) -> float:
    """Asymptotic kappa = 2 n_radial + nu + 2 epsilon_n for display index n."""
    label = label_from_display(spec.alpha, parity, n)
    nu = nu_of_alpha(spec.alpha)
    return 2.0 * label.n + nu + 2.0 * epsilon_n(spec, parity, n)


def _c0_rhs(alpha: float, nu: float, c: float, k_pair) -> float:
    # k_pair is bessel_k_pair(nu - 1/2): K_(nu-1/2) and K_(nu+1/2) together
    u = math.sqrt(abs(alpha) - 4.0 * c)
    k_lo, k_hi = k_pair(2.0 * math.sqrt(c))
    ratio = k_lo / k_hi
    return 0.25 * ((u * math.tan(u) + nu) * ratio) ** 2


@functools.lru_cache(maxsize=64)
def c0_self_consistent(alpha: float) -> float:
    """c0 > 0 from the transcendental fixed-point condition, solved once per
    alpha (15 to 27 evaluations) and memoized.

    The bracket (0, |alpha|/4) is forced by realness of sqrt(|alpha|-4c0);
    Brent's method closes it to 1e-15 relative.  Against a 30-digit mpmath
    solve, c0 agrees to 6.8e-15 or better at five couplings from
    -1/4 + 2.5e-11 to -0.2, and to 2.2e-13 at alpha = -0.001, where the
    condition's slope falls to 2e-3 and rounding in its two nearly equal
    terms sets the limit.
    """
    if not -0.25 <= alpha < 0.0:
        raise DomainError(f"c0_self_consistent: requires -1/4 <= alpha < 0, got {alpha}")
    nu = nu_of_alpha(alpha)
    hi = 0.25 * abs(alpha)
    k_pair = bessel_k_pair(nu - 0.5)

    def g(c):
        return c - _c0_rhs(alpha, nu, c, k_pair)

    lo = hi * 1e-12
    g_lo, g_hi = g(lo), g(hi * (1.0 - 1e-12))
    if g_lo * g_hi > 0.0:
        raise NonConvergenceError(
            "c0_self_consistent: fixed-point bracket failed",
            alpha=alpha, g_lo=g_lo, g_hi=g_hi)
    return brent(g, lo, hi * (1.0 - 1e-12), xtol=0.0, rtol=1e-15,
                 f_lo=g_lo, f_hi=g_hi)


def c0_closed_form(alpha: float) -> float:
    """Closed-form c0; valid while 4 c0 is small next to 1 + sqrt(1/4+alpha)."""
    if not -0.25 <= alpha < 0.0:
        raise DomainError(f"c0_closed_form: requires -1/4 <= alpha < 0, got {alpha}")
    s = math.sqrt(0.25 + alpha)
    r = math.sqrt(abs(alpha))
    den = r * math.tan(r) + 0.5 + s
    if s < 1e-6:
        # alpha -> -1/4: 1^(1/s) limit taken analytically
        return math.exp(-2.0 / den - 2.0 * _EULER_GAMMA)
    bracket = 1.0 - 2.0 * s / den
    return math.exp((math.log(bracket) + lgamma(1.0 + s) - lgamma(1.0 - s))
                    / s)


def c0_small_alpha(alpha: float) -> float:
    """Small-|alpha| reduction c0 ~ |alpha|^(2/sqrt(1-4|alpha|)), meant for
    |alpha| < 0.01."""
    if not -0.25 <= alpha < 0.0:
        raise DomainError(f"c0_small_alpha: requires -1/4 <= alpha < 0, got {alpha}")
    return abs(alpha) ** (2.0 / math.sqrt(1.0 - 4.0 * abs(alpha)))


_C0_METHODS = {
    "self_consistent": c0_self_consistent,
    "closed_form": c0_closed_form,
    "small_alpha": c0_small_alpha,
}


def ground_state_energy_estimate(alpha: float, delta: float,
                                 method: str = "self_consistent") -> float:
    """Leading ground-state energy -2 c0 / delta^2 (units of hbar*omega)."""
    try:
        c0 = _C0_METHODS[method](alpha)
    except KeyError:
        raise ValueError(f"unknown c0 method {method!r}") from None
    return -2.0 * c0 / (delta * delta)

