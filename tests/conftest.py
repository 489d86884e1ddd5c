import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pseudoharm import matmech  # noqa: E402
from pseudoharm.specfun import u_pair_shift_a  # noqa: E402
from pseudoharm.unreg import nu_of_alpha  # noqa: E402


def simpson(f, a, b, n=4001):
    """Plain composite Simpson oracle, independent of package quadrature."""
    if n % 2 == 0:
        n += 1
    x = np.linspace(a, b, n)
    y = np.array([f(v) for v in x])
    h = (b - a) / (n - 1)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


def scan_sign_changes(f, lo, hi, step):
    """Every bracket of a full uniform scan of [lo, hi] (grid lo, lo + step,
    ... clipped at hi): cells (x0, x1) with f(x0) f(x1) < 0, and (x, x) for
    each grid point where f is exactly zero.  The oracle for
    rootfind.scan_outward, which visits the same cells lazily from a seed."""
    n = max(1, int(math.ceil((hi - lo) / step)))
    xs = [lo]
    for i in range(1, n + 2):
        x = min(lo + i * step, hi)
        if x <= xs[-1]:
            break
        xs.append(x)
    fs = [f(x) for x in xs]
    brackets = []
    for i, (x, fx) in enumerate(zip(xs, fs)):
        if fx == 0.0:
            brackets.append((x, x))
        elif i + 1 < len(xs) and fx * fs[i + 1] < 0.0:
            brackets.append((x, xs[i + 1]))
    return brackets


def eig_condition_residual(spec, parity, kappa):
    """The paper's matching condition in its raw form: the interior
    log-derivative u cot u (odd) or -u tan u (even), continued to
    v coth v and v tanh v in the evanescent regime, minus the exterior
    delta^2 - kappa - 1 - 2 U(a-1, b, delta^2) / U(a, b, delta^2).
    It has poles at the trigonometric poles and at the zeros of U(a); the
    program roots the entire rescaling regspec._entire_residual instead."""
    d2 = spec.delta * spec.delta
    nu = nu_of_alpha(spec.alpha)
    u0, u1 = u_pair_shift_a(nu + 0.5, d2)(0.5 * (nu - kappa))
    s2 = (2.0 * kappa + 1.0) * d2 - (d2 * d2 + spec.alpha)
    u = math.sqrt(abs(s2))
    if s2 > 0.0:
        interior = u / math.tan(u) if parity == "odd" else -u * math.tan(u)
    elif s2 < 0.0:
        interior = u / math.tanh(u) if parity == "odd" else u * math.tanh(u)
    else:
        interior = 1.0 if parity == "odd" else 0.0
    return interior - (d2 - kappa - 1.0 - 2.0 * u1 / u0)


def one_sided_derivative(f, x0, h, side):
    """Third-order one-sided first derivative at x0 (side=+1 right, -1 left)."""
    s = float(side)
    f0 = f(x0)
    f1 = f(x0 + s * h)
    f2 = f(x0 + 2 * s * h)
    f3 = f(x0 + 3 * s * h)
    return s * (-11.0 * f0 + 18.0 * f1 - 9.0 * f2 + 2.0 * f3) / (6.0 * h)


# --- dense sine-basis oracles ----------------------------------------------
# The program applies each parity block as an FFT operator and never forms
# it, and sums wave functions by blocked angle addition; these build the
# same elements and sums the direct way, for comparison.

def element(n, m, alpha, rho, epsilon):
    """Single Hamiltonian element H_nm / E1; pure in (n, m, parameters)."""
    if (n + m) % 2 == 1:
        return 0.0
    g, h, k = matmech._coupling_tables(alpha, rho, epsilon, max(n, m))
    veps = matmech.v_epsilon(alpha, rho, epsilon)
    dm = abs(n - m) // 2
    sm = (n + m) // 2
    val = 0.0
    if n == m:
        val += float(n) ** 2
        val += epsilon * veps * (1.0 - (-1.0) ** n
                                 * math.sin(math.pi * n * epsilon)
                                 / (math.pi * n * epsilon))
        val += 2.0 * ((1.0 - epsilon ** 3) / 24.0 - h[sm]) \
            * math.pi ** 2 * rho ** 2 / 4.0
        val += 2.0 * alpha / math.pi ** 2 * (k[0] - k[sm])
    else:
        val += epsilon * veps * (g[dm] - g[sm])
        val += 2.0 * (h[dm] - h[sm]) * math.pi ** 2 * rho ** 2 / 4.0
        val += 2.0 * alpha / math.pi ** 2 * (k[dm] - k[sm])
    return val


def dense_block(alpha, rho, epsilon, n_max, block):
    """Dense H / E1 over the basis indices of one parity block ("even":
    odd n, "odd": even n), or over all indices 1..n_max ("full")."""
    first, step = {"even": (1, 2), "odd": (2, 2), "full": (1, 1)}[block]
    idx = np.arange(first, n_max + 1, step)
    veps = matmech.v_epsilon(alpha, rho, epsilon)
    g, h, k = matmech._coupling_tables(alpha, rho, epsilon, n_max)
    pr2 = math.pi ** 2 * rho ** 2 / 4.0
    api2 = alpha / math.pi ** 2
    half_d = np.abs(idx[:, None] - idx[None, :]) // 2
    half_s = (idx[:, None] + idx[None, :]) // 2
    mat = epsilon * veps * (g[half_d] - g[half_s]) \
        + 2.0 * pr2 * (h[half_d] - h[half_s]) \
        + 2.0 * api2 * (k[half_d] - k[half_s])
    # elements with odd n+m vanish identically (even potential)
    mat[(idx[:, None] + idx[None, :]) % 2 == 1] = 0.0
    dia = np.arange(idx.size)
    nn = idx.astype(float)
    mat[dia, dia] = (
        nn ** 2
        + epsilon * veps * (1.0 - (-1.0) ** idx
                            * np.sin(math.pi * epsilon * nn)
                            / (math.pi * epsilon * nn))
        + 2.0 * pr2 * ((1.0 - epsilon ** 3) / 24.0 - h[idx])
        + 2.0 * api2 * (k[0] - k[idx]))
    return mat


def dense_wavefunction(pair, model, x_grid):
    """Real-space samples from the full len(x) x n sine table: the direct
    sum the program evaluates by blocked angle addition, with the same box
    and sign convention."""
    a_box = math.pi * math.sqrt(model.rho / 2.0)
    x = np.asarray(x_grid, dtype=float)
    idx = model.indices[pair.block]
    phases = np.outer(x / a_box * math.pi, idx)
    psi = math.sqrt(2.0 / a_box) * (np.sin(phases) @ pair.coefficients)
    right = np.where((x > 0.5 * a_box) & (np.abs(psi) > 1e-8))[0]
    if right.size and psi[right[0]] < 0.0:
        psi = -psi
    return psi
