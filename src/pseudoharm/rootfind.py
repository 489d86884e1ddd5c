"""Bracket-scan root finding: bisection to a coarse width, secant polish.

The residuals this package roots are cheap; robustness beats Newton.
"""

import math

from .errors import BracketError, NonConvergenceError


def scan_sign_changes(f, lo: float, hi: float, step: float):
    """Brackets [x0, x1] with f(x0)*f(x1) < 0 on a uniform scan of [lo, hi].

    f must be continuous on [lo, hi]: a pole between two scan points would
    show as a sign change.
    """
    brackets = []
    n = max(1, int(math.ceil((hi - lo) / step)))
    x0 = lo
    f0 = f(x0)
    for i in range(n + 1):
        x1 = min(lo + (i + 1) * step, hi)
        if x1 <= x0:
            break
        f1 = f(x1)
        if f0 == 0.0:
            brackets.append((x0, x0))
        elif f0 * f1 < 0.0:
            brackets.append((x0, x1))
        x0, f0 = x1, f1
    return brackets


def bisect_then_secant(f, lo: float, hi: float, bisect_tol: float = 1e-8,
                       polish_tol: float = 1e-12, max_iter: int = 200):
    """Root of f in [lo, hi] (endpoints must bracket a sign change).

    Bisection narrows the bracket to bisect_tol, then secant iterations
    polish to polish_tol (absolute in x); the result stays inside the
    original bracket.
    """
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise BracketError(
            f"bisect_then_secant: no sign change on [{lo}, {hi}]",
            f_lo=f_lo, f_hi=f_hi)
    a, b = lo, hi
    fa, fb = f_lo, f_hi
    it = 0
    while b - a > bisect_tol and it < max_iter:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
        it += 1
    # secant polish from the bracket endpoints, clamped to [a, b]
    x0, x1 = a, b
    f0, f1 = fa, fb
    for _ in range(60):
        denom = f1 - f0
        if denom == 0.0:
            break
        x2 = x1 - f1 * (x1 - x0) / denom
        if not (a <= x2 <= b):
            x2 = 0.5 * (a + b)
        f2 = f(x2)
        if f2 == 0.0 or abs(x2 - x1) <= polish_tol:
            return x2
        # keep a valid bracket for the clamp
        if fa * f2 < 0.0:
            b, fb = x2, f2
        else:
            a, fa = x2, f2
        x0, f0 = x1, f1
        x1, f1 = x2, f2
    if b - a <= max(bisect_tol, 4.0 * polish_tol) or abs(x1 - x0) <= 1e-9 * (1.0 + abs(x1)):
        return x1
    raise NonConvergenceError(
        "bisect_then_secant: polish failed to reach tolerance",
        bracket=(a, b), last=x1)


def bisect(f, lo: float, hi: float, rel_tol: float = 1e-12,
           max_iter: int = 400):
    """Plain bisection to a relative width tolerance; endpoints must bracket."""
    fa = f(lo)
    fb = f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if fa * fb > 0.0:
        raise BracketError(f"bisect: no sign change on [{lo}, {hi}]",
                           f_lo=fa, f_hi=fb)
    a, b = lo, hi
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a <= rel_tol * max(abs(a), abs(b)):
            return 0.5 * (a + b)
    return 0.5 * (a + b)
