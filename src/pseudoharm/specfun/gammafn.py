"""Gamma function family: gamma, log-gamma, reciprocal gamma, sin(pi x).

Thin wrappers over the standard library's math.gamma and math.lgamma that
add this package's errors (poles, overflow) and the entire 1/Gamma.
"""

import math

from ..errors import DomainError, EvaluationOverflowError, PoleError

# Gamma(x) overflows double precision above this argument.
GAMMA_OVERFLOW_X = 171.61447887182298


def sinpi(x: float) -> float:
    """sin(pi*x) with exact reduction; returns 0.0 exactly at integers."""
    if not math.isfinite(x):
        raise DomainError(f"sinpi: non-finite argument {x}")
    n = round(x)
    r = x - n  # exact for |x| < 2**52: n is within a factor of two of x
    sign = -1.0 if (int(n) & 1) else 1.0
    if r == 0.0:
        return 0.0
    return sign * math.sin(math.pi * r)


def gamma(x: float) -> float:
    """Gamma(x) for real x; raises PoleError at non-positive integers."""
    if not math.isfinite(x):
        raise DomainError(f"gamma: non-finite argument {x}")
    if x > GAMMA_OVERFLOW_X:
        raise EvaluationOverflowError(
            f"gamma: overflow for x={x} (max representable argument "
            f"{GAMMA_OVERFLOW_X})", threshold=GAMMA_OVERFLOW_X)
    if x <= 0.0 and x == round(x):
        raise PoleError(f"gamma: pole at non-positive integer x={x}")
    return math.gamma(x)


def lgamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not (x > 0.0):
        raise DomainError(f"lgamma: requires x > 0, got {x}")
    return math.lgamma(x)


def rgamma(x: float) -> float:
    """1/Gamma(x); entire, returns 0.0 exactly at non-positive integers."""
    if not math.isfinite(x):
        raise DomainError(f"rgamma: non-finite argument {x}")
    if x >= 0.5:
        if x > GAMMA_OVERFLOW_X:
            return math.exp(-math.lgamma(x))  # underflows gracefully to 0.0
        return 1.0 / math.gamma(x)
    s = sinpi(x)
    if s == 0.0:
        return 0.0
    y = 1.0 - x
    if y > GAMMA_OVERFLOW_X:
        # Gamma(1-x) overflows; 1/Gamma(x) = s*Gamma(1-x)/pi overflows too
        return math.copysign(math.inf, s)
    # reflection: 1/Gamma(x) = sin(pi x) Gamma(1-x) / pi
    return s * math.gamma(y) / math.pi
