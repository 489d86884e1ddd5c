"""Adaptive Gauss-Kronrod quadrature (G7/K15 pair) with interval bisection.

Integrands take an array of abscissae and return their values: one call
evaluates the 15 nodes of a panel, the 30 of a bisected panel's halves, or
the probes of a few doublings of the tail search.

Semi-infinite integrals are handled by growing the upper limit until the
integrand falls below a fixed fraction of its observed peak.
"""

import heapq

import numpy as np

from .errors import NonConvergenceError

# Kronrod-15 abscissae on [-1, 1] (positive half) and weights; the embedded
# Gauss-7 rule uses every other node.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


# doublings of the tail search whose probes share one integrand call
_PROBE_DOUBLINGS = 4


def _kronrod_nodes(a: float, b: float):
    """The 15 nodes [c, c - x_j..., c + x_j...] of [a, b] and the half-width."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    offsets = [h * x for x in _XGK[:7]]
    return [c] + [c - x for x in offsets] + [c + x for x in offsets], h


def _kronrod_sums(values, h: float):
    """(K15, |K15 - G7|) from the 15 values at _kronrod_nodes, summed in the
    order of the scalar rule."""
    fc = values[0]
    result_k = _WGK[7] * fc
    result_g = _WG[3] * fc
    for j in range(7):
        f1 = values[1 + j]
        f2 = values[8 + j]
        result_k += _WGK[j] * (f1 + f2)
        if j % 2 == 1:
            result_g += _WG[j // 2] * (f1 + f2)
    return result_k * h, abs((result_k - result_g) * h)


def gauss_kronrod_15(f, a: float, b: float):
    """Return (K15 estimate, |K15 - G7| error estimate) of f over [a, b].

    f is called once, on the 15 nodes as an array, and returns their 15
    values; the sums run in the order of the scalar rule, so a scalar
    integrand mapped over the nodes gives its bits.
    """
    nodes, h = _kronrod_nodes(a, b)
    return _kronrod_sums(np.asarray(f(np.array(nodes)), dtype=float).tolist(),
                         h)


def _gauss_kronrod_15_halves(f, lo: float, mid: float, hi: float):
    """gauss_kronrod_15 on [lo, mid] and on [mid, hi], f called once on the
    30 nodes."""
    nodes_lo, h_lo = _kronrod_nodes(lo, mid)
    nodes_hi, h_hi = _kronrod_nodes(mid, hi)
    values = np.asarray(f(np.array(nodes_lo + nodes_hi)),
                        dtype=float).tolist()
    return _kronrod_sums(values[:15], h_lo), _kronrod_sums(values[15:], h_hi)


def integrate(f, a: float, b: float, rel_tol: float = 1e-10,
              abs_tol: float = 0.0, max_intervals: int = 2000):
    """Adaptive quadrature of f over the finite interval [a, b].

    Bisects the interval with the largest local error estimate until the
    summed estimate meets rel_tol (relative to the accumulated integral) or
    abs_tol.  Raises NonConvergenceError if the interval budget is exhausted,
    reporting the tolerance actually achieved.
    """
    if a == b:
        return 0.0
    val, err = gauss_kronrod_15(f, a, b)
    heap = [(-err, a, b, val)]
    total = val
    total_err = err
    floor_err = 0.0  # irreducible error from intervals at float resolution
    n = 1
    while n < max_intervals and heap:
        if total_err + floor_err <= max(abs_tol, rel_tol * abs(total)):
            return total
        neg_err, lo, hi, val = heapq.heappop(heap)
        total_err += neg_err  # remove the parent's error estimate
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # interval at floating-point resolution
            floor_err -= neg_err
            continue
        (v1, e1), (v2, e2) = _gauss_kronrod_15_halves(f, lo, mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        n += 1
    if total_err + floor_err <= max(abs_tol, rel_tol * abs(total)):
        return total
    raise NonConvergenceError(
        "integrate: interval budget exhausted",
        achieved=(total_err + floor_err) / abs(total) if total else total_err,
        requested=rel_tol, intervals=n)


def integrate_to_infinity(f, a: float, rel_tol: float = 1e-10,
                          tail_cutoff: float = 1e-18,
                          first_width: float = 1.0,
                          max_doublings: int = 60):
    """Integrate f over [a, inf) for integrands with eventual rapid decay.

    The upper limit grows in doubling panels [a + w, a + 2w] until the panel
    contribution falls below tail_cutoff times the peak panel, then the
    retained range is refined adaptively.  The probes of _PROBE_DOUBLINGS
    doublings go to f in one call.
    """
    width = first_width
    upper = a + width
    xs = [upper, a + 0.5 * width]
    peak = 0.0
    for start in range(0, max_doublings, _PROBE_DOUBLINGS):
        # the next few doublings' probes in one call; the loop below walks
        # them in order and stops where the scalar search would
        count = min(_PROBE_DOUBLINGS, max_doublings - start)
        u, w = upper, width
        for _ in range(count):
            new_upper = a + 2.0 * w
            xs += [0.5 * (u + new_upper), new_upper]
            u, w = new_upper, 2.0 * w
        values = np.abs(f(np.array(xs))).tolist()
        if start == 0:
            peak = max(values[:2])
            values = values[2:]
        for i in range(count):
            mid_val, end_val = values[2 * i], values[2 * i + 1]
            peak = max(peak, mid_val, end_val)
            upper = a + 2.0 * width
            width *= 2.0
            if max(mid_val, end_val) <= tail_cutoff * peak and peak > 0.0:
                return integrate(f, a, upper, rel_tol=rel_tol,
                                 abs_tol=tail_cutoff * peak * (upper - a))
        xs = []
    raise NonConvergenceError(
        "integrate_to_infinity: integrand does not decay",
        upper=upper)
