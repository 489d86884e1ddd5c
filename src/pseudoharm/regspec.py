"""Exact bound states of the constant-cutoff (regularized) potential.

The four eigenvalue conditions (even/odd parity, attractive/repulsive
coupling) share one form: the interior logarithmic derivative at the
matching point equals

    delta^2 - kappa - 1 - 2 U(a-1, b, delta^2) / U(a, b, delta^2),

with a = (nu - kappa)/2 and b = nu + 1/2.  The interior side is
u*cot(u) or -u*tan(u) in the oscillatory regime and u*coth(u) or
u*tanh(u) in the evanescent one; both pairs are single analytic functions
of the signed square s2 = (q delta x0)^2 = (2 kappa + 1) delta^2
- (delta^4 + alpha), so one code path serves all regimes.

Every root solve, excited or runaway ground state, runs on one entire
(pole-free) rescaling of the condition: multiplying through by sin/cos-type
entire factors and by U(a, b, delta^2) removes both the trigonometric poles
and the U-denominator zeros that sit within O(delta^(2 nu - 1)) of every
root, which a raw-residual scan cannot separate at small delta.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .asymptotics import c0_self_consistent, epsilon_n
from .errors import BracketError, DomainError
from .quadrature import integrate_to_infinity
from .rootfind import brent, scan_outward
from .specfun import u_pair_shift_a, u_ratio_z_evaluator
from .unreg import (BranchLabel, EigenSolution, PotentialSpec, make_label,
                    nu_of_alpha)

MAX_EXCITED_N = 50


@dataclass(frozen=True)
class MatchingState:
    """Interior wavenumber at the matching point, as the product q*delta*x0
    (oscillatory, E above the core plateau) or k*delta*x0 (evanescent)."""

    q_or_k: float
    regime: str  # oscillatory | evanescent


def signed_q_squared(spec: PotentialSpec, kappa: float) -> float:
    """(q delta x0)^2; negative values mean the evanescent regime."""
    d2 = spec.delta * spec.delta
    return (2.0 * kappa + 1.0) * d2 - (d2 * d2 + spec.alpha)


def matching_state(spec: PotentialSpec, kappa: float) -> MatchingState:
    s2 = signed_q_squared(spec, kappa)
    if s2 >= 0.0:
        return MatchingState(q_or_k=math.sqrt(s2), regime="oscillatory")
    return MatchingState(q_or_k=math.sqrt(-s2), regime="evanescent")


# --- analytic continuations in s2 = u^2 (u imaginary <-> evanescent) -------

def _sinc_family(s2):
    """sin(u)/u continued through s2 = 0 (sinh(v)/v for negative s2)."""
    if abs(s2) < 1e-4:
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


def _hyper_args(spec: PotentialSpec, kappa: float):
    nu = nu_of_alpha(spec.alpha)
    return 0.5 * (nu - kappa), nu + 0.5, spec.delta * spec.delta


def _require_regularized(spec: PotentialSpec, who: str):
    if not spec.is_regularized:
        raise DomainError(f"{who}: requires a regularized spec (delta set)")


def _entire_residual(spec: PotentialSpec, parity: str) -> Callable[[float], float]:
    """Pole-free rescaling of the eigenvalue condition; every solve roots it.

    Multiplying the condition by sin-type/cos-type entire factors and by
    U(a, b, delta^2) keeps exactly the eigenvalue zeros: no trig poles, and
    the U-zeros (which shadow each root at distance ~delta^(2nu-1)) cancel.
    The pair U(a), U(a-1) comes from one evaluator built per residual (b and
    delta^2 stay fixed); for the runaway ground state it is divided by U(a).
    """
    d2 = spec.delta * spec.delta
    nu = nu_of_alpha(spec.alpha)
    u_pair = u_pair_shift_a(nu + 0.5, d2)

    def g(kappa: float) -> float:
        u0, u1 = u_pair(0.5 * (nu - kappa))
        s2 = signed_q_squared(spec, kappa)
        outer = (d2 - kappa - 1.0) * u0 - 2.0 * u1
        if parity == "odd":
            return _cos_family(s2) * u0 - _sinc_family(s2) * outer
        return -s2 * _sinc_family(s2) * u0 - _cos_family(s2) * outer

    return g


def solve_excited(spec: PotentialSpec, parity: str, n: int) -> EigenSolution:
    """Root-solve the bound state with radial index n (kappa near 2n + nu).

    Seeds from the small-delta correction kappa = 2n + nu + 2 eps_n, which
    lies within one 0.05 scan step of the root in all but a few far cases.
    The grid of the window seed +- 0.55 (then seed +- 1.4) is scanned
    outward from the seed for the nearest sign change of the entire
    residual, and Brent's method closes that bracket to 1e-12 absolute in
    kappa: about 6 residual evaluations a solve.  An evaluation takes the
    U pair from one u_pair_shift_a evaluator built for the solve: four
    Kummer series and 2 rgamma calls, about 13 us on one desk core (about
    21 us and 8 rgamma calls as two tricomi_u calls).
    """
    _require_regularized(spec, "solve_excited")
    if spec.alpha < -0.25:
        raise DomainError("solve_excited: requires alpha >= -1/4 "
                          "(see the matrix-mechanics route for lower alpha)")
    if not 0 <= n <= MAX_EXCITED_N:
        raise DomainError(f"solve_excited: radial index out of range: {n}")
    nu = nu_of_alpha(spec.alpha)
    label = make_label(spec.alpha, parity, n)
    base = 2.0 * n + nu
    shift = 0.0
    if spec.alpha != 0.0 and spec.delta < 0.1:
        shift = 2.0 * epsilon_n(spec, parity, label.n_display).epsilon_n
        shift = max(-0.45, min(0.45, shift))  # distrust exploding corrections
    seed = base + shift
    g = _entire_residual(spec, parity)
    kappa = _scan_for_root(g, seed, windows=(0.55, 1.4), step=0.05,
                           context=dict(spec=spec, parity=parity, n=n))
    return EigenSolution(label=label, nu=nu, kappa=kappa,
                         energy=kappa + 0.5, method="transcendental")


def _scan_for_root(g, seed, windows, step, context):
    for half_width in windows:
        lo, hi = seed - half_width, seed + half_width
        bracket = scan_outward(g, seed, lo, hi, step)
        if bracket is not None:
            b_lo, b_hi, g_lo, g_hi = bracket
            return brent(g, b_lo, b_hi, xtol=1e-12, f_lo=g_lo, f_hi=g_hi)
    raise BracketError(
        f"no sign change of the eigenvalue condition in "
        f"[{lo:.6g}, {hi:.6g}] (step {step})", seed=seed, **context)


def solve_ground_even(spec: PotentialSpec) -> EigenSolution:
    """The runaway even-parity ground state for -1/4 <= alpha < 0.

    Seeded by kappa = -2 c0/delta^2 - 1/2.  Brent's method roots the
    excited states' entire residual on seed +- 0.5, the window doubling
    until it brackets a sign change, and stops at 1e-12 |seed|: a stopping
    tolerance, not the accuracy.  The root amplifies the relative error of
    the ratio U(a-1)/U(a) by 1e3 to 1e4.  Against a 40-digit mpmath solve
    of the condition, kappa agrees to 1.3e-11 relative at the Table 1
    couplings (delta = 0.002).
    On the 36-point grid alpha in {-1/4, -1/4 + 2.5e-11, -0.2499, -0.2,
    -0.15, -0.1, -0.05, -0.01, -0.001}, delta in {1e-4, 2e-3, 1e-2, 5e-2}
    it agrees to 1.6e-7, worst at alpha = -0.001, delta = 1e-4, where the
    ratio errs by 8e-13 (a = 98.5).

    The returned state is checked to lie on the oscillatory tan branch
    below the first interior pole, with kappa < 0.
    """
    _require_regularized(spec, "solve_ground_even")
    if not -0.25 <= spec.alpha < 0.0:
        raise DomainError(
            f"solve_ground_even: requires -1/4 <= alpha < 0, got {spec.alpha}")
    if spec.delta > 0.05:
        raise DomainError(
            f"solve_ground_even: requires delta <= 0.05, got {spec.delta}")
    nu = nu_of_alpha(spec.alpha)
    c0 = c0_self_consistent(spec.alpha).c0
    d2 = spec.delta * spec.delta
    seed = -2.0 * c0 / d2 - 0.5
    g = _entire_residual(spec, "even")
    half = 0.5
    scale = max(1.0, abs(seed))
    while half <= 16.0:
        try:
            kappa = brent(g, seed - half, seed + half, xtol=1e-12 * scale)
            break
        except BracketError:
            half *= 2.0
    else:
        raise BracketError(
            "solve_ground_even: no root near the asymptotic seed",
            seed=seed, c0=c0, window=half, alpha=spec.alpha, delta=spec.delta)
    if kappa >= 0.0:
        raise BracketError("solve_ground_even: found non-negative kappa",
                           kappa=kappa)
    s2 = signed_q_squared(spec, kappa)
    if not (s2 > 0.0 and math.sqrt(s2) < 0.5 * math.pi):
        raise BracketError(
            "solve_ground_even: root left the expected tan branch",
            kappa=kappa, s2=s2)
    # ground state: display index 0 regardless of the excited relabelling
    label = BranchLabel(parity="even", n=0, n_display=0)
    return EigenSolution(label=label, nu=nu, kappa=kappa,
                         energy=kappa + 0.5, method="transcendental")


@dataclass
class PiecewiseWaveFunction:
    """Region-I/region-II closure: normalized, continuous at the cutoff.

    inner_coeff multiplies the interior sin/cos (or sinh/cosh) wave;
    outer_coeff is the wave-function value at the matching point, i.e. the
    amplitude of the exterior closure expressed relative to its value at
    x = delta (the raw multiplier of U alone is not representable in double
    precision for the runaway ground state).
    """

    spec: PotentialSpec
    solution: EigenSolution
    inner_coeff: float
    outer_coeff: float
    matching_point: float
    _inner_wave: Callable[[float], float] = None
    _outer_rel: Callable[[float], float] = None

    def __call__(self, x):
        if np.ndim(x) == 0:
            return self._value(float(x))
        return np.array([self._value(float(v)) for v in np.ravel(x)]).reshape(np.shape(x))

    def _value(self, x: float) -> float:
        sign = 1.0
        if self.solution.label.parity == "odd":
            if x == 0.0:
                return 0.0
            sign = math.copysign(1.0, x)
        ax = abs(x)
        if ax <= self.matching_point:
            return sign * self.inner_coeff * self._inner_wave(ax)
        return sign * self.outer_coeff * self._outer_rel(ax)


def build_wavefunction(spec: PotentialSpec,
                       solution: EigenSolution) -> PiecewiseWaveFunction:
    """Assemble and normalize the piecewise closure for a converged state."""
    _require_regularized(spec, "build_wavefunction")
    kappa = solution.kappa
    parity = solution.label.parity
    delta = spec.delta
    s2 = signed_q_squared(spec, kappa)
    state = matching_state(spec, kappa)
    rate = state.q_or_k / delta  # q or k (x0 = 1)

    if state.regime == "oscillatory":
        inner_wave = (lambda x: math.sin(rate * x)) if parity == "odd" \
            else (lambda x: math.cos(rate * x))
    else:
        inner_wave = (lambda x: math.sinh(rate * x)) if parity == "odd" \
            else (lambda x: math.cosh(rate * x))

    # U(a, b, x^2) / U(a, b, delta^2), with everything that does not depend
    # on x computed once for the state
    u_ratio = u_ratio_z_evaluator(*_hyper_args(spec, kappa))

    def outer_rel(x: float) -> float:
        # region II relative to its value at the matching point
        y2 = x * x
        return (x / delta) ** solution.nu \
            * math.exp(-0.5 * (y2 - delta * delta)) \
            * u_ratio(y2)

    u = state.q_or_k
    # closed-form interior norm integral over [0, delta] with unit amplitude
    if state.regime == "oscillatory":
        if parity == "odd":
            inner_int = delta * (0.5 - math.sin(2.0 * u) / (4.0 * u))
        else:
            inner_int = delta * (0.5 + math.sin(2.0 * u) / (4.0 * u))
    else:
        if parity == "odd":
            inner_int = delta * (math.sinh(2.0 * u) / (4.0 * u) - 0.5)
        else:
            inner_int = delta * (math.sinh(2.0 * u) / (4.0 * u) + 0.5)

    match_val = inner_wave(delta)
    outer_int = integrate_to_infinity(
        lambda x: outer_rel(x) ** 2, delta,
        rel_tol=1e-10, tail_cutoff=1e-18,
        first_width=min(1.0, 4.0 / math.sqrt(2.0 * abs(kappa) + 2.0)))
    norm_sq = 2.0 * (inner_int + match_val * match_val * outer_int)
    amp = 1.0 / math.sqrt(norm_sq)
    wf = PiecewiseWaveFunction(
        spec=spec, solution=solution,
        inner_coeff=amp, outer_coeff=amp * match_val,
        matching_point=delta)
    wf._inner_wave = inner_wave
    wf._outer_rel = outer_rel
    return wf
