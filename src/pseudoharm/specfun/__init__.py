"""Self-contained special-function kernel.

Pure functions of their arguments with no internal mutable state; safe for
unlimited concurrent invocation.
"""

from .bessel import bessel_i, bessel_k
from .gammafn import cospi, gamma, lgamma, rgamma, sinpi
from .hyper import (
    A_SWITCH,
    kummer_m,
    tricomi_u,
    tricomi_u_recurrence_shift,
    u_ratio_shift_a,
    u_ratio_shift_z,
)
from .laguerre import laguerre
from .sine_integral import sine_integral, sine_integral_array

__all__ = [
    "A_SWITCH",
    "bessel_i",
    "bessel_k",
    "cospi",
    "gamma",
    "kummer_m",
    "laguerre",
    "lgamma",
    "rgamma",
    "sine_integral",
    "sine_integral_array",
    "sinpi",
    "tricomi_u",
    "tricomi_u_recurrence_shift",
    "u_ratio_shift_a",
    "u_ratio_shift_z",
]
