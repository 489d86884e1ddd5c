"""Bracketed root finding: an outward grid scan from a seed, then Brent.

The callers root continuous residuals and hold a seed close to the root, so
a scan that starts at the seed finds a bracket in a few evaluations, and
Brent's method (inverse-quadratic and secant steps, falling back on
bisection) closes it superlinearly while always keeping a sign change.
"""

import math
import sys

from .errors import BracketError, NonConvergenceError

_MAX_ITER = 200


def scan_outward(f, seed: float, lo: float, hi: float, step: float):
    """The sign-change cell of the grid on [lo, hi] nearest the seed.

    The grid is lo, lo + step, ... clipped at hi.  Its cells are visited in
    order of midpoint distance from the seed (ties to the lower cell), f is
    evaluated only at the ends of visited cells, and the scan stops at the
    first cell whose ends differ in sign or hold an exact zero.  Returns
    (x0, x1, f(x0), f(x1)), or None when no cell qualifies.  f must be
    continuous on [lo, hi]: a pole inside a cell shows as a sign change.
    """
    n = max(1, int(math.ceil((hi - lo) / step)))
    xs = [lo]
    for i in range(1, n + 2):
        x = min(lo + i * step, hi)
        if x <= xs[-1]:
            break
        xs.append(x)
    cells = sorted(range(len(xs) - 1),
                   key=lambda i: abs(0.5 * (xs[i] + xs[i + 1]) - seed))
    values = {}

    def value(i):
        if i not in values:
            values[i] = f(xs[i])
        return values[i]

    for i in cells:
        f0, f1 = value(i), value(i + 1)
        if f0 == 0.0 or f1 == 0.0 or (f0 < 0.0) != (f1 < 0.0):
            return xs[i], xs[i + 1], f0, f1
    return None


def brent(f, lo: float, hi: float, xtol: float = 1e-12,
          rtol: float = 4.0 * sys.float_info.epsilon, f_lo: float = None,
          f_hi: float = None) -> float:
    """Root of f in [lo, hi] by Brent's method (Brent 1973, ch. 4).

    The endpoints must bracket a sign change or hold a zero; f_lo and f_hi
    pass values the caller already has.  Stops when the bracket around the
    best iterate is narrower than xtol + rtol |x|, so the result is within
    about that of a root.
    """
    x_pre, x_cur = lo, hi
    f_pre = f(lo) if f_lo is None else f_lo
    f_cur = f(hi) if f_hi is None else f_hi
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if (f_pre < 0.0) == (f_cur < 0.0):
        raise BracketError(f"brent: no sign change on [{lo}, {hi}]",
                           f_lo=f_pre, f_hi=f_cur)
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_MAX_ITER):
        if f_pre != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        tol = 0.5 * (xtol + rtol * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < tol:
            return x_cur
        if abs(s_pre) > tol and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) \
                    / (d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - tol):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > tol else math.copysign(tol, s_bis)
        f_cur = f(x_cur)
    raise NonConvergenceError("brent: no convergence", bracket=(lo, hi),
                              last=x_cur, max_iter=_MAX_ITER)
