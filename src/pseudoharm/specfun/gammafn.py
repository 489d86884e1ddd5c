"""Gamma function family: gamma, log-gamma, reciprocal gamma, sin/cos(pi x).

Lanczos rational approximation with g = 6.024680040776729583740234375,
13-term numerator over x(x+1)...(x+11).  Reflection handles x < 0.5.
"""

import math

from ..errors import DomainError, EvaluationOverflowError, PoleError

# Numerator coefficients of the exp(g)-scaled Lanczos sum, highest power first.
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222,
    0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208,
    449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526,
    75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507,
    3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571,
    43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342,
    103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
# Denominator x(x+1)...(x+11) expanded, highest power first.
_LANCZOS_DEN = (
    1.0,
    66.0,
    1925.0,
    32670.0,
    357423.0,
    2637558.0,
    13339535.0,
    45995730.0,
    105258076.0,
    150917976.0,
    120543840.0,
    39916800.0,
    0.0,
)

_SQRT_2PI = 2.5066282746310005024157652848110

# Gamma(x) overflows double precision above this argument.
GAMMA_OVERFLOW_X = 171.61447887182298


def _lanczos_sum_expg_scaled(x):
    num = 0.0
    den = 0.0
    if x < 13.0:
        for c in _LANCZOS_NUM:
            num = num * x + c
        for c in _LANCZOS_DEN:
            den = den * x + c
    else:
        # evaluate in 1/x to avoid overflow of the raw polynomials
        ix = 1.0 / x
        for c in reversed(_LANCZOS_NUM):
            num = num * ix + c
        for c in reversed(_LANCZOS_DEN):
            den = den * ix + c
    return num / den


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


def _is_nonpositive_integer(x, tol=0.0):
    return x <= 0.5 and abs(x - round(x)) <= tol


def gamma(x: float) -> float:
    """Gamma(x) for real x; raises PoleError at non-positive integers."""
    if not math.isfinite(x):
        raise DomainError(f"gamma: non-finite argument {x}")
    if x >= 0.5:
        if x > GAMMA_OVERFLOW_X:
            raise EvaluationOverflowError(
                f"gamma: overflow for x={x} (max representable argument "
                f"{GAMMA_OVERFLOW_X})", threshold=GAMMA_OVERFLOW_X)
        q = x + _LANCZOS_G - 0.5
        # the scaled sum already carries the sqrt(2*pi) normalisation
        return math.exp((x - 0.5) * math.log(q) - q + _LANCZOS_G) \
            * _lanczos_sum_expg_scaled(x)
    if x == round(x):
        raise PoleError(f"gamma: pole at non-positive integer x={x}")
    # reflection: Gamma(x) = pi / (sin(pi x) * Gamma(1-x))
    s = sinpi(x)
    return math.pi / (s * gamma(1.0 - x))


def lgamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not (x > 0.0):
        raise DomainError(f"lgamma: requires x > 0, got {x}")
    q = x + _LANCZOS_G - 0.5
    return ((x - 0.5) * math.log(q) - q + _LANCZOS_G
            + math.log(_lanczos_sum_expg_scaled(x)))


def rgamma(x: float) -> float:
    """1/Gamma(x); entire, returns 0.0 exactly at non-positive integers."""
    if not math.isfinite(x):
        raise DomainError(f"rgamma: non-finite argument {x}")
    if x >= 0.5:
        if x > GAMMA_OVERFLOW_X:
            return math.exp(-lgamma(x))  # underflows gracefully to 0.0
        return 1.0 / gamma(x)
    s = sinpi(x)
    if s == 0.0:
        return 0.0
    y = 1.0 - x
    if y > GAMMA_OVERFLOW_X:
        # Gamma(1-x) overflows; 1/Gamma(x) = s*Gamma(1-x)/pi overflows too
        v = math.copysign(math.inf, s)
        return v
    return s * gamma(y) / math.pi
