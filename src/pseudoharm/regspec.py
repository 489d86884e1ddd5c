"""Exact bound states of the constant-cutoff (regularized) potential.

The four eigenvalue conditions (even/odd parity, attractive/repulsive
coupling) share one form: the interior logarithmic derivative at the
matching point equals

    delta^2 - kappa - 1 - 2 U(a-1, b, delta^2) / U(a, b, delta^2),

with a = (nu - kappa)/2 and b = nu + 1/2.  The interior side is N/D, the
log-derivative of cos(u t) (even) or sin(u t)/u (odd), t = |x|/delta, with
s2 = u^2 = (2 kappa + 1) delta^2 - (delta^4 + alpha); negative s2 (the
evanescent regime) makes them cosh and sinh.  Residual, wave function and
its norm all take the interior from the entire families of s2 in
`asymptotics`, so one code path serves all regimes.

Every root solve, excited or runaway ground state, runs on one entire
(pole-free) rescaling of the condition N/D = exterior: multiplied through by
D and by U(a, b, delta^2), it has neither the trigonometric poles nor the
U-denominator zeros that sit within O(delta^(2 nu - 1)) of every root,
which a raw-residual scan cannot separate at small delta.  Above a = 4,
where U(a) > 0 has no zeros, the runaway ground state's residual is the
same function divided by U(a), with the exterior term in a form that has
no O(kappa) cancellation (_entire_residual).
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .asymptotics import (_cos_family, _interior_log_derivative,
                          _interior_norm, _sinc_family, c0_self_consistent,
                          epsilon_n)
from .errors import BracketError, DomainError, NonConvergenceError
from .rootfind import brent, scan_outward
from .specfun import u_pair_shift_a, u_ratio_slope_a, u_ratio_z_evaluator
from .specfun.hyper import _LAPLACE_A, _laplace_inv_t
from .unreg import (BranchLabel, EigenSolution, PotentialSpec, make_label,
                    nu_of_alpha)

MAX_EXCITED_N = 50
# Brent's stops: an excited root to this absolute width in kappa, the
# ground root to this width relative to max(1, |seed|)
KAPPA_ABS_TOL = 1e-12
GROUND_KAPPA_REL_TOL = 1e-12


def signed_q_squared(spec: PotentialSpec, kappa: float) -> float:
    """(q delta x0)^2; negative values mean the evanescent regime."""
    d2 = spec.delta * spec.delta
    return (2.0 * kappa + 1.0) * d2 - (d2 * d2 + spec.alpha)


def _hyper_args(spec: PotentialSpec, kappa: float):
    nu = nu_of_alpha(spec.alpha)
    return 0.5 * (nu - kappa), nu + 0.5, spec.delta * spec.delta


def _require_regularized(spec: PotentialSpec, who: str):
    if not spec.is_regularized:
        raise DomainError(f"{who}: requires a regularized spec (delta set)")


def _entire_residual(spec: PotentialSpec, parity: str) -> Callable[[float], float]:
    """Pole-free rescaling of the eigenvalue condition; every solve roots it.

    N u0 - D outer: the condition times D and u0 = U(a, b, delta^2) keeps
    exactly the eigenvalue zeros: no trig poles, and the U-zeros (which
    shadow each root at distance ~delta^(2nu-1)) cancel.  Up to a =
    _LAPLACE_A the pair U(a), U(a-1) comes from one evaluator built per
    residual (b and delta^2 stay fixed).  Above it (runaway ground states
    only) the residual is divided by U(a) > 0, which keeps its roots and
    signs: under the Laplace weight of DLMF 13.4.4, U(a-1)/U(a) = (a-1)(1 +
    E[1/t]), and the exterior term is

        delta^2 + 1 - nu - (nu - kappa - 2) E[1/t],

    whose O(kappa) parts cancel analytically, where the form delta^2 -
    kappa - 1 - 2 U(a-1)/U(a) cancels two numbers of size |kappa|.
    """
    d2 = spec.delta * spec.delta
    nu = nu_of_alpha(spec.alpha)
    b = nu + 0.5
    u_pair = u_pair_shift_a(b, d2)

    def g(kappa: float) -> float:
        a = 0.5 * (nu - kappa)
        num, den = _interior_log_derivative(signed_q_squared(spec, kappa),
                                            parity)
        if a > _LAPLACE_A:
            inv_t = _laplace_inv_t(a, b, d2)
            return num - den * (d2 + 1.0 - nu - (nu - kappa - 2.0) * inv_t)
        u0, u1 = u_pair(a)
        outer = (d2 - kappa - 1.0) * u0 - 2.0 * u1
        return num * u0 - den * outer

    return g


def solve_excited(spec: PotentialSpec, parity: str, n: int) -> EigenSolution:
    """Root-solve the bound state with radial index n (kappa near 2n + nu).

    Up to delta = _SEED_DELTA the seed is the small-delta correction
    kappa = 2n + nu + 2 eps_n, which lies within one 0.05 scan step of the
    root in all but a few far cases.  Brent's method first tries the
    bracket seed +- 8 corr^2 of the seed's error law (_seed).  Where its
    ends do not change sign, or no law applies, the grid of the window
    seed +- 0.55 (then seed +- 1.4) is scanned outward from the seed for
    the nearest sign change of the entire residual, and Brent closes that
    cell.  Either way the stop is 1e-12 absolute in kappa.  On the tests'
    160-solve grid 143 solves close the narrow bracket, and a solve takes
    5.0 residual evaluations (5.6 by the scan alone).  An evaluation takes
    the U pair from one u_pair_shift_a evaluator built for the solve: four
    Kummer series and 2 rgamma calls, about 13 us on one desk core, or at
    integer b one pass of the point evaluator.  Above _SEED_DELTA the seed
    can lie nearer another state's root, and the root is continued in
    delta instead (_continue_in_delta).
    """
    _require_regularized(spec, "solve_excited")
    if spec.alpha < -0.25:
        raise DomainError("solve_excited: requires alpha >= -1/4 "
                          "(see the matrix-mechanics route for lower alpha)")
    if not 0 <= n <= MAX_EXCITED_N:
        raise DomainError(f"solve_excited: radial index out of range: {n}")
    nu = nu_of_alpha(spec.alpha)
    label = make_label(spec.alpha, parity, n)
    if spec.delta > _SEED_DELTA:
        kappa = _continue_in_delta(spec, parity, n, label.n_display)
    else:
        kappa = _seeded_root(spec, parity, n, label.n_display)
    return EigenSolution(label=label, nu=nu, kappa=kappa,
                         energy=kappa + 0.5, method="transcendental")


# Up to this cutoff the seed 2n + nu + 2 eps_n lies nearest the n-th root
# for every alpha >= -1/4 and n <= MAX_EXCITED_N (checked against a full
# scan); at alpha = -1/4 it is one state off from n = 27 at 0.03 and from
# n = 2 at 0.1.
_SEED_DELTA = 0.02
# continuation steps in log(delta): at most log(1.25), halved on rejection
_LOG_STEP = math.log(1.25)
_MIN_LOG_STEP = 1e-3
# a continued root may lie at most this far from its extrapolated seed: a
# small part of the spacing 2 of the levels of one parity
_MAX_SEED_MISS = 0.25
# the scan's grid step in kappa
_SCAN_STEP = 0.05
# the seed's bracket is _SEED_LAW corr^2 wide on each side (see _seed)
_SEED_LAW = 8.0


def _seed(spec, parity, n, n_display):
    """The seed 2n + nu + corr, corr = 2 eps_n clamped to +-0.45, and the
    half-width of the bracket its error law allows (0.0 for none).

    For alpha in [-0.2, 0.6], delta <= 0.01 and n <= 4 the seed misses the
    root by at most 4.9 corr^2 (measured), and _SEED_LAW corr^2 plus a
    rounding floor leaves margin.  No law is claimed where corr is 0 or
    clamped, nor for a bracket as wide as half a scan step.  Elsewhere the
    bracket may miss, and the scan takes over: near alpha = -1/4 (76 corr^2
    at alpha -0.249, delta 0.01, even n 0), and for even states at alpha
    >= 1 with delta >= 0.005 (up to 4.4 times the half-width at alpha 2).
    """
    corr = 0.0
    if spec.alpha != 0.0 and spec.delta < 0.1:
        corr = 2.0 * epsilon_n(spec, parity, n_display)
    shift = max(-0.45, min(0.45, corr))  # distrust exploding corrections
    seed = 2.0 * n + nu_of_alpha(spec.alpha) + shift
    half_width = 0.0
    if corr != 0.0 and shift == corr:
        w = _SEED_LAW * corr * corr + 1e-9 * (1.0 + abs(seed))
        if w < 0.5 * _SCAN_STEP:
            half_width = w
    return seed, half_width


def _seeded_root(spec, parity, n, n_display):
    """Brent on seed +- the law's half-width when its ends change sign; the
    outward scan of seed +- 0.55, then +- 1.4, otherwise."""
    seed, half_width = _seed(spec, parity, n, n_display)
    g = _entire_residual(spec, parity)
    if half_width:
        try:
            return brent(g, seed - half_width, seed + half_width,
                         xtol=KAPPA_ABS_TOL)
        except BracketError:  # the root lies outside the law's bracket
            pass
    return _scan_for_root(g, seed, windows=(0.55, 1.4), step=_SCAN_STEP,
                          context=dict(spec=spec, parity=parity, n=n))


def _continue_in_delta(spec, parity, n, n_display):
    """The n-th root at spec.delta, followed from _SEED_DELTA upward.

    Levels of one parity never cross in one dimension, so the root that
    moves continuously from the n-th root at _SEED_DELTA is the n-th.  Each
    step of at most _LOG_STEP in log(delta) seeds the scan by linear
    extrapolation in log(delta) and accepts the nearest root only within
    _MAX_SEED_MISS of that seed; otherwise the step is halved, and below
    _MIN_LOG_STEP the solve raises BracketError.
    """
    delta = _SEED_DELTA
    kappa = _seeded_root(PotentialSpec(spec.alpha, delta), parity, n,
                         n_display)
    slope = 0.0  # d kappa / d log(delta) over the last accepted step
    log_step = _LOG_STEP
    while delta < spec.delta:
        nxt = min(delta * math.exp(log_step), spec.delta)
        dlog = math.log(nxt / delta)
        seed = kappa + slope * dlog
        g = _entire_residual(PotentialSpec(spec.alpha, nxt), parity)
        context = dict(spec=spec, parity=parity, n=n, delta=nxt)
        try:
            root = _scan_for_root(g, seed, windows=(_MAX_SEED_MISS,),
                                  step=_SCAN_STEP, context=context)
        except BracketError:
            log_step *= 0.5
            if log_step < _MIN_LOG_STEP:
                raise
            continue
        slope = (root - kappa) / dlog
        delta, kappa = nxt, root
        log_step = min(2.0 * log_step, _LOG_STEP)
    return kappa


def _scan_for_root(g, seed, windows, step, context):
    for half_width in windows:
        lo, hi = seed - half_width, seed + half_width
        bracket = scan_outward(g, seed, lo, hi, step)
        if bracket is not None:
            b_lo, b_hi, g_lo, g_hi = bracket
            return brent(g, b_lo, b_hi, xtol=KAPPA_ABS_TOL, f_lo=g_lo,
                         f_hi=g_hi)
    raise BracketError(
        f"no sign change of the eigenvalue condition in "
        f"[{lo:.6g}, {hi:.6g}] (step {step})", seed=seed, **context)


def solve_ground_even(spec: PotentialSpec) -> EigenSolution:
    """The runaway even-parity ground state for -1/4 <= alpha < 0.

    Seeded by kappa = -2 c0/delta^2 - 1/2.  Brent's method roots the
    entire residual on seed +- 0.5, the window doubling until it brackets a
    sign change, and stops at GROUND_KAPPA_REL_TOL max(1, |seed|): a
    stopping tolerance, not the accuracy.  Above a = 4 the residual's
    exterior term is delta^2 + 1 - nu - (nu - kappa - 2) E[1/t], one
    Laplace window of 32 to 64 nodes an evaluation (_entire_residual);
    below it, the U pair.  On the 36-point grid alpha in {-1/4,
    -1/4 + 2.5e-11, -0.2499, -0.2, -0.15, -0.1, -0.05, -0.01, -0.001},
    delta in {1e-4, 2e-3, 1e-2, 5e-2} a solve takes 5.8 residual
    evaluations on average, at most 7 where a > 4, and 0.16 ms on one
    core of a shared VM (10.1, up to 18, and 0.28 ms on the former form
    delta^2 - kappa - 1 - 2 U(a-1)/U(a)); its 7 points with 0.1 < a <= 4
    take the point evaluator's U pair, about 20% more on the grid's mean
    than the connection formula took.  Against a 30-digit mpmath solve of
    the condition, kappa agrees to 2.9e-13 relative or better at the Table
    1 couplings and alpha in {-1/4 + 2.5e-11, -0.2499, -0.01, -0.001},
    delta in {1e-4, 2e-3, 1e-2}, within Brent's stop.

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
    c0 = c0_self_consistent(spec.alpha)
    d2 = spec.delta * spec.delta
    seed = -2.0 * c0 / d2 - 0.5
    g = _entire_residual(spec, "even")
    half = 0.5
    scale = max(1.0, abs(seed))
    while half <= 16.0:
        try:
            kappa = brent(g, seed - half, seed + half,
                          xtol=GROUND_KAPPA_REL_TOL * scale)
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
    if not 0.0 < s2 < (0.5 * math.pi) ** 2:
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

    inner_coeff multiplies the interior wave cos(u t) or sin(u t)/u;
    outer_coeff is the wave-function value at the matching point, i.e. the
    amplitude of the exterior closure expressed relative to its value at
    x = delta (the raw multiplier of U alone is not representable in double
    precision for the runaway ground state).  outer_rel takes an array.
    outer_integral is the integral of psi^2 over x > delta that the
    amplitude was taken from (the energy-slope route of build_wavefunction).
    """

    spec: PotentialSpec
    solution: EigenSolution
    inner_coeff: float
    outer_coeff: float
    matching_point: float
    inner_wave: Callable[[float], float]
    outer_rel: Callable[[np.ndarray], np.ndarray]
    outer_integral: float

    def __call__(self, x):
        """psi at x (scalar or array): each distinct |x| once, the exterior
        points in one array call, the interior points (|x| <= delta) one
        by one.  A point's value depends on that point alone, so sharing
        it between x and -x, or repeats, keeps its bits."""
        xa = np.asarray(x, dtype=float)
        ax = np.abs(xa)
        outer = ax > self.matching_point
        psi = np.empty(xa.shape)
        if np.any(outer):
            values, where = np.unique(ax[outer], return_inverse=True)
            psi[outer] = (self.outer_coeff * self.outer_rel(values))[where]
        inner = ~outer
        if np.any(inner):
            values, where = np.unique(ax[inner], return_inverse=True)
            psi[inner] = np.array([self.inner_coeff * self.inner_wave(v)
                                   for v in values.tolist()])[where]
        if self.solution.label.parity == "odd":
            psi = np.sign(xa) * psi
        return float(psi) if xa.ndim == 0 else psi


def build_wavefunction(spec: PotentialSpec,
                       solution: EigenSolution) -> PiecewiseWaveFunction:
    """Assemble and normalize the piecewise closure for a converged state.

    The norm needs no quadrature.  The interior integral is closed-form
    (asymptotics._interior_norm).  The exterior one comes from the energy
    slope of the exterior log-derivative L = f'/f at the cutoff, f the
    exterior solution: for -f''/2 + V f = E f, (f' df/dE - f df'/dE)' =
    2 f^2, and E = kappa + 1/2, so

        int_delta^inf (f/f(delta))^2 dx = (1/2) dL/dkappa at x = delta

    (the Wronskian identity behind Wigner's bound on the phase-shift
    slope, Phys. Rev. 98 (1955) 145, and R-matrix theory, Lane & Thomas,
    Rev. Mod. Phys. 30 (1958) 257).  With delta L = delta^2 - kappa - 1 -
    2 R, R = U(a-1, b, delta^2)/U(a, b, delta^2) and a = (nu - kappa)/2,
    that is (dR/da - 1)/(2 delta), from one pass of
    specfun.u_ratio_slope_a.  cli's norm report integrates psi^2 by
    quadrature, an independent check of the identity.
    """
    _require_regularized(spec, "build_wavefunction")
    kappa = solution.kappa
    parity = solution.label.parity
    delta = spec.delta
    nu = solution.nu
    s2 = signed_q_squared(spec, kappa)

    def inner_wave(x: float) -> float:
        t = x / delta
        if parity == "odd":
            return t * _sinc_family(s2 * t * t)  # sin(u t)/u
        return _cos_family(s2 * t * t)

    # U(a, b, x^2) / U(a, b, delta^2), with everything that does not depend
    # on x computed once for the state
    args = _hyper_args(spec, kappa)
    u_ratio = u_ratio_z_evaluator(*args)

    def outer_rel(x):
        # region II relative to its value at the matching point; 1-d arrays
        # throughout, so a point's bits do not depend on the call's shape.
        # Where the Gaussian factor underflows the value is 0.0, and
        # neither U, which grows like x^(2n) there, nor the power, which
        # overflows at the far tail probes of a quadrature, is evaluated.
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y2 = x * x
        gauss = np.exp(-0.5 * (y2 - delta * delta))
        live = gauss > 0.0
        rel = np.zeros_like(x)
        rel[live] = (x[live] / delta) ** nu * gauss[live] \
            * u_ratio(y2[live])
        return rel

    match_val = inner_wave(delta)
    outer_int = u_ratio_slope_a(*args)[1] / (2.0 * delta)
    outer_sq = match_val * match_val * outer_int
    norm_sq = 2.0 * (delta * _interior_norm(s2, parity) + outer_sq)
    if not (outer_int > 0.0 and math.isfinite(norm_sq)):
        raise NonConvergenceError(
            "build_wavefunction: the exterior integral from the energy slope "
            "is not positive and finite", exterior=outer_int,
            alpha=spec.alpha, delta=delta, kappa=kappa)
    amp = 1.0 / math.sqrt(norm_sq)
    return PiecewiseWaveFunction(
        spec=spec, solution=solution,
        inner_coeff=amp, outer_coeff=amp * match_val,
        matching_point=delta, inner_wave=inner_wave, outer_rel=outer_rel,
        outer_integral=amp * amp * outer_sq)
