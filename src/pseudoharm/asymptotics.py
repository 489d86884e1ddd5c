"""Small-cutoff expansions: excited-state corrections epsilon_n, the
ground-state coefficient c0 (self-consistent and closed form), the energy
estimate -2 c0 / delta^2, and the limiting ground-state wave function.

All in oscillator units.  The energy of the runaway even ground state for
-1/4 <= alpha < 0 behaves as E = -2 c0/delta^2 + O(delta^2): the expansion
of kappa carries a constant -1/2 which cancels in E, and the next
coefficient (c1) vanishes identically.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError
from .rootfind import bisect
from .specfun import bessel_k, gamma, lgamma
from .unreg import PotentialSpec, label_from_display, nu_of_alpha

_EULER_GAMMA = 0.5772156649015328606065120900824024


@dataclass(frozen=True)
class CorrectionTerm:
    """Leading small-delta correction: kappa ~ 2n + nu + 2 epsilon_n."""

    parity: str
    alpha_sign: str  # negative | positive
    n: int           # display index
    epsilon_n: float
    leading_power: float  # 2 nu - 1


@dataclass(frozen=True)
class GroundStateExpansion:
    """Ground-state coefficients: c0 > 0 and the identically-zero c1."""

    c0: float
    method: str  # self_consistent | closed_form | small_alpha
    validity_ok: bool
    c1: float = 0.0


def _interior_slope_factor(alpha: float, parity: str) -> float:
    """Prefactor of the correction formula for the four (parity, sign) cases."""
    nu = nu_of_alpha(alpha)
    r = math.sqrt(abs(alpha))
    if alpha < 0.0:
        if parity == "odd":
            w = r / math.tan(r)  # r*cot(r)
            return (nu - w) / (nu - 1.0 + w)
        w = r * math.tan(r)
        return (nu + w) / (nu - 1.0 - w)
    if parity == "odd":
        w = r / math.tanh(r)  # r*coth(r)
        return (nu - w) / (nu - 1.0 + w)
    w = r * math.tanh(r)
    return (nu - w) / (nu - 1.0 + w)


def epsilon_n(spec: PotentialSpec, parity: str, n: int) -> CorrectionTerm:
    """Correction epsilon_n for the state with display index n.

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
    eps = -_interior_slope_factor(alpha, parity) * gam \
        * spec.delta ** (2.0 * nu - 1.0)
    return CorrectionTerm(
        parity=parity,
        alpha_sign="negative" if alpha < 0.0 else "positive",
        n=n, epsilon_n=eps, leading_power=2.0 * nu - 1.0)


def kappa_estimate(spec: PotentialSpec, parity: str, n: int) -> float:
    """Asymptotic kappa = 2 n_radial + nu + 2 epsilon_n for display index n."""
    label = label_from_display(spec.alpha, parity, n)
    nu = nu_of_alpha(spec.alpha)
    eps = epsilon_n(spec, parity, n).epsilon_n
    return 2.0 * label.n + nu + 2.0 * eps


def _c0_rhs(alpha: float, nu: float, c: float) -> float:
    u = math.sqrt(abs(alpha) - 4.0 * c)
    w = 2.0 * math.sqrt(c)
    ratio = bessel_k(nu - 0.5, w) / bessel_k(nu + 0.5, w)
    return 0.25 * ((u * math.tan(u) + nu) * ratio) ** 2


def c0_self_consistent(alpha: float) -> GroundStateExpansion:
    """c0 from the transcendental fixed-point condition, root to 1e-12 rel.

    The bracket (0, |alpha|/4) is forced by realness of sqrt(|alpha|-4c0).
    """
    if not -0.25 <= alpha < 0.0:
        raise DomainError(f"c0_self_consistent: requires -1/4 <= alpha < 0, got {alpha}")
    nu = nu_of_alpha(alpha)
    hi = 0.25 * abs(alpha)

    def g(c):
        return c - _c0_rhs(alpha, nu, c)

    lo = hi * 1e-12
    g_lo, g_hi = g(lo), g(hi * (1.0 - 1e-12))
    if g_lo * g_hi > 0.0:
        raise NonConvergenceError(
            "c0_self_consistent: fixed-point bracket failed",
            alpha=alpha, g_lo=g_lo, g_hi=g_hi)
    c0 = bisect(g, lo, hi * (1.0 - 1e-12), rel_tol=1e-15)
    return GroundStateExpansion(
        c0=c0, method="self_consistent",
        validity_ok=4.0 * c0 / (1.0 + math.sqrt(0.25 + alpha)) < 0.1)


def c0_closed_form(alpha: float) -> GroundStateExpansion:
    """Closed-form c0; valid while 4 c0 is small next to 1 + sqrt(1/4+alpha)."""
    if not -0.25 <= alpha < 0.0:
        raise DomainError(f"c0_closed_form: requires -1/4 <= alpha < 0, got {alpha}")
    s = math.sqrt(0.25 + alpha)
    r = math.sqrt(abs(alpha))
    den = r * math.tan(r) + 0.5 + s
    if s < 1e-6:
        # alpha -> -1/4: 1^(1/s) limit taken analytically
        c0 = math.exp(-2.0 / den - 2.0 * _EULER_GAMMA)
    else:
        bracket = 1.0 - 2.0 * s / den
        log_c0 = (math.log(bracket) + lgamma(1.0 + s) - lgamma(1.0 - s)) / s
        c0 = math.exp(log_c0)
    return GroundStateExpansion(
        c0=c0, method="closed_form",
        validity_ok=4.0 * c0 / (1.0 + s) < 0.1)


def c0_small_alpha(alpha: float) -> GroundStateExpansion:
    """Small-|alpha| reduction c0 ~ |alpha|^(2/sqrt(1-4|alpha|))."""
    if not -0.25 <= alpha < 0.0:
        raise DomainError(f"c0_small_alpha: requires -1/4 <= alpha < 0, got {alpha}")
    c0 = abs(alpha) ** (2.0 / math.sqrt(1.0 - 4.0 * abs(alpha)))
    return GroundStateExpansion(c0=c0, method="small_alpha", validity_ok=abs(alpha) < 0.01)


_C0_METHODS = {
    "self_consistent": c0_self_consistent,
    "closed_form": c0_closed_form,
    "small_alpha": c0_small_alpha,
}


def ground_state_energy_estimate(alpha: float, delta: float,
                                 method: str = "self_consistent") -> float:
    """Leading ground-state energy -2 c0 / delta^2 (units of hbar*omega)."""
    try:
        c0 = _C0_METHODS[method](alpha).c0
    except KeyError:
        raise ValueError(f"unknown c0 method {method!r}") from None
    return -2.0 * c0 / (delta * delta)


def limiting_ground_wavefunction(kappa: float, x):
    """Limiting normalized ground state (2|k|)^(1/4) exp(-sqrt(2|k|)|x|).

    Valid once |kappa| is large; its square integrates to one exactly and
    concentrates to a point as |kappa| grows.
    """
    if not kappa < 0.0 or abs(kappa) < 10.0:
        raise DomainError(
            f"limiting_ground_wavefunction: requires kappa <= -10, got {kappa}")
    s = math.sqrt(2.0 * abs(kappa))
    xa = np.asarray(x, dtype=float)
    val = s ** 0.5 * np.exp(-s * np.abs(xa))
    # peak value (2|kappa|)^(1/4) = sqrt(s)
    if np.ndim(x) == 0:
        return float(val)
    return val
