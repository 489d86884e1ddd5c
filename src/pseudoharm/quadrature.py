"""Adaptive Gauss-Kronrod quadrature (G7/K15 pair), refined in rounds.

Integrands take an array of abscissae and return their values; each value
depends on its own abscissa only.  Every panel carries its K15 estimate and
the error estimate |K15 - G7| (Piessens et al., QUADPACK, Springer 1983).

Refinement goes in rounds.  A round sorts the live panels by error
estimate and bisects the largest ones until the panels left unsplit could
meet the target on their own; the nodes of all the new halves go to the
integrand in one call.  Refinement stops once the summed error estimate
plus the float-resolution floor (the estimates of panels too narrow to
bisect) is at most max(abs_tol, rel_tol |total|), and raises
NonConvergenceError once no round can bisect without passing the panel
budget.

Semi-infinite integrals are handled by growing the upper limit in
doubling panels until the integrand falls below a fixed fraction of its
observed peak; refinement starts from those panels, the probes of every
doubling going to the integrand in one call.
"""

import math

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
# node offsets [0, -x_j..., +x_j...] on [-1, 1]; the weights of the centre
# and of the node pairs j = 0..6 (K15), of the centre and pairs 1, 3, 5 (G7)
_UNIT_NODES = np.array((0.0,) + tuple(-x for x in _XGK[:7]) + _XGK[:7])
_K_WEIGHTS = np.array((_WGK[7],) + _WGK[:7])
_G_WEIGHTS = np.array((_WG[3],) + _WG[:3])


# panel budget of a refinement
_MAX_PANELS = 2000
# a semi-infinite integral's upper limit stops growing where the integrand
# has fallen below this fraction of its observed peak
_TAIL_CUTOFF = 1e-18


def _kronrod_panels(f, lo, hi):
    """(K15 estimates, |K15 - G7| error estimates) of f over the panels
    [lo[i], hi[i]] (1-d arrays), f called once on all their nodes.

    A panel's nodes are [c, c - h x_j..., c + h x_j...], and its sums
    accumulate in the order of the scalar rule (centre, then node pairs),
    so a scalar integrand mapped over the nodes gives its bits, whatever
    other panels share the call.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    nodes = c[:, None] + h[:, None] * _UNIT_NODES
    values = np.asarray(f(nodes.reshape(-1)), dtype=float).reshape(nodes.shape)
    terms = values[:, :8].copy()
    terms[:, 1:] += values[:, 8:]
    result_k = np.add.accumulate(terms * _K_WEIGHTS, axis=1)[:, -1]
    result_g = np.add.accumulate(terms[:, ::2] * _G_WEIGHTS, axis=1)[:, -1]
    return result_k * h, np.abs((result_k - result_g) * h)


def _refine(f, edges, rel_tol, abs_tol, max_intervals):
    """Integrate f over [edges[0], edges[-1]] from the panels between
    consecutive edges, refining in rounds (module docstring); rounds counts
    the integrand calls."""
    lo = np.asarray(edges[:-1], dtype=float)
    hi = np.asarray(edges[1:], dtype=float)
    val, err = _kronrod_panels(f, lo, hi)
    narrow = []  # (error, lo, hi, value) of the panels at float resolution
    rounds = 1
    while True:
        floor_err = math.fsum(p[0] for p in narrow)
        total = math.fsum(val.tolist() + [p[3] for p in narrow])
        target = max(abs_tol, rel_tol * abs(total))
        total_err = float(err.sum()) + floor_err
        if total_err <= target:
            return total
        # largest estimate first, a NaN one as infinite; left[k] is the
        # error left on the live panels after the k largest
        key = np.where(np.isnan(err), math.inf, err)
        order = np.argsort(-key, kind="stable")
        left = np.cumsum(key[order][::-1])[::-1]
        count = max(1, int(np.count_nonzero(left + floor_err > target)))
        count = min(count, max_intervals - lo.size - len(narrow))
        if count <= 0 or not lo.size:
            worst = max(list(zip(key.tolist(), lo.tolist(), hi.tolist()))
                        + [p[:3] for p in narrow])
            raise NonConvergenceError(
                "integrate: interval budget exhausted",
                achieved=total_err / abs(total) if total else total_err,
                requested=rel_tol, intervals=lo.size + len(narrow),
                worst_interval=worst[1:], rounds=rounds)
        split = order[:count]
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        at_floor = (mid == lo[split]) | (mid == hi[split])
        if at_floor.any():
            gone = split[at_floor]
            narrow += zip(err[gone].tolist(), lo[gone].tolist(),
                          hi[gone].tolist(), val[gone].tolist())
            split, mid = split[~at_floor], mid[~at_floor]
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        lo, hi, val, err = lo[keep], hi[keep], val[keep], err[keep]
        if new_lo.size:
            new_val, new_err = _kronrod_panels(f, new_lo, new_hi)
            lo = np.concatenate((lo, new_lo))
            hi = np.concatenate((hi, new_hi))
            val = np.concatenate((val, new_val))
            err = np.concatenate((err, new_err))
            rounds += 1


def integrate(f, a: float, b: float, rel_tol: float = 1e-10,
              abs_tol: float = 0.0, max_intervals: int = _MAX_PANELS):
    """Adaptive quadrature of f over the finite interval [a, b].

    Refines in rounds from the one panel [a, b] until the summed error
    estimate meets rel_tol (relative to the integral) or abs_tol.  Raises
    NonConvergenceError when the panel budget is exhausted, reporting the
    tolerance achieved, the panel with the largest error estimate
    (worst_interval) and the number of rounds.
    """
    if a == b:
        return 0.0
    return _refine(f, [a, b], rel_tol, abs_tol, max_intervals)


def integrate_to_infinity(f, a: float, rel_tol: float = 1e-10,
                          first_width: float = 1.0,
                          max_doublings: int = 60):
    """Integrate f over [a, inf) for integrands with eventual rapid decay.

    The upper limit grows in doubling panels [a + w, a + 2w] until the panel
    contribution falls below _TAIL_CUTOFF times the peak panel; refinement
    then starts from [a, a + first_width] and the doubling panels, all in
    one integrand call.  The probes of all max_doublings doublings go to f
    in one call, and are walked in order to the first that meets the stop.
    """
    width = first_width
    upper = a + width
    edges = [a, upper]
    xs = [upper, a + 0.5 * width]
    u, w = upper, width
    for _ in range(max_doublings):
        new_upper = a + 2.0 * w
        xs += [0.5 * (u + new_upper), new_upper]
        u, w = new_upper, 2.0 * w
    values = np.abs(f(np.array(xs))).tolist()
    peak = max(values[:2])
    for i in range(max_doublings):
        mid_val, end_val = values[2 * i + 2], values[2 * i + 3]
        peak = max(peak, mid_val, end_val)
        upper = a + 2.0 * width
        width *= 2.0
        edges.append(upper)
        if max(mid_val, end_val) <= _TAIL_CUTOFF * peak and peak > 0.0:
            return _refine(f, edges, rel_tol,
                           _TAIL_CUTOFF * peak * (upper - a), _MAX_PANELS)
    raise NonConvergenceError(
        "integrate_to_infinity: integrand does not decay",
        upper=upper)
