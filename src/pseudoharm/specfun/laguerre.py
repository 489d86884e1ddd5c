"""Generalized Laguerre polynomials via the stable three-term recurrence."""

import numpy as np

from ..errors import DomainError

MAX_DEGREE = 200


def laguerre(n: int, lam: float, x):
    """L_n^(lam)(x) for integer n >= 0, lam > -1, x >= 0 a float or an array.

    An array runs the degree recurrence elementwise with the operations of
    the scalar case in the same order, so each element has the bits of the
    scalar call.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"laguerre: degree must be a non-negative integer, got {n}")
    if n > MAX_DEGREE:
        raise DomainError(f"laguerre: degree {n} exceeds supported maximum {MAX_DEGREE}")
    if lam <= -1.0:
        raise DomainError(f"laguerre: requires lam > -1, got {lam}")
    if np.any(np.less(x, 0.0)):
        raise DomainError(f"laguerre: requires x >= 0, got {x}")
    if n == 0:
        return np.ones_like(x, dtype=float) if np.ndim(x) else 1.0
    prev = 1.0
    cur = 1.0 + lam - x
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 + lam - x) * cur - (k + lam) * prev) / (k + 1.0)
    return cur
