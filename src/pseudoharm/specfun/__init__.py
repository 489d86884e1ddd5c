"""Self-contained special-function kernel.

Pure functions of their arguments with no internal mutable state; safe for
unlimited concurrent invocation.
"""

from .bessel import bessel_k, bessel_k_pair
from .gammafn import gamma, lgamma, rgamma, sinpi
from .hyper import tricomi_u, u_pair_shift_a, u_ratio_z_evaluator
from .laguerre import laguerre
from .sine_integral import sine_integral, sine_integral_array

__all__ = [
    "bessel_k",
    "bessel_k_pair",
    "gamma",
    "laguerre",
    "lgamma",
    "rgamma",
    "sine_integral",
    "sine_integral_array",
    "sinpi",
    "tricomi_u",
    "u_pair_shift_a",
    "u_ratio_z_evaluator",
]
