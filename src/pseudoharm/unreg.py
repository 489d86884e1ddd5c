"""Closed-form bound states of the singular (uncut) oscillator-plus-inverse-
square potential, in dimensionless units (hbar = m = omega = 1, so the
oscillator length and half-quantum energy scale are both unity).

Energies: E_n = (2n + 1 + sqrt(1/4 + alpha)), doubly degenerate in parity.
The even/odd display labels follow the convention that keeps odd labels
continuous through alpha = 0: for alpha < 0 the even display index is the
radial index plus one.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .specfun import laguerre, lgamma

ALPHA_MIN = -0.25
PARITIES = ("even", "odd")


def nu_of_alpha(alpha: float) -> float:
    """Near-origin exponent nu = 1/2 + sqrt(1/4 + alpha); positive root only."""
    if not math.isfinite(alpha):
        raise DomainError(f"nu_of_alpha: alpha must be finite, got {alpha}")
    if alpha < ALPHA_MIN:
        raise DomainError(
            f"nu_of_alpha: requires alpha >= -1/4 for real exponent, got {alpha}")
    return 0.5 + math.sqrt(0.25 + alpha)


@dataclass(frozen=True)
class PotentialSpec:
    """Dimensionless problem definition: coupling alpha, optional cutoff delta.

    delta None means the singular (unregularized) potential; a present delta
    replaces the potential inside |x| < delta by its value at the cutoff.
    """

    alpha: float
    delta: Optional[float] = None

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise DomainError(
                f"PotentialSpec: alpha must be finite, got {self.alpha}")
        if self.delta is None:
            if self.alpha < ALPHA_MIN:
                raise DomainError(
                    f"PotentialSpec: unregularized potential requires "
                    f"alpha >= -1/4, got {self.alpha}")
        else:
            if not 0.0 < self.delta < 0.2:
                raise DomainError(
                    f"PotentialSpec: cutoff must satisfy 0 < delta < 0.2, "
                    f"got {self.delta}")

    @property
    def is_regularized(self) -> bool:
        return self.delta is not None

    @property
    def nu(self) -> float:
        return nu_of_alpha(self.alpha)


@dataclass(frozen=True)
class BranchLabel:
    """Parity branch with radial index n and its display index.

    For alpha < 0 the even branch displays as n+1 so that degenerate pairs
    carry matching display labels on either side of alpha = 0.
    """

    parity: str
    n: int
    n_display: int

    def __post_init__(self):
        if self.parity not in PARITIES:
            raise DomainError(f"BranchLabel: parity must be even|odd, got {self.parity!r}")
        if self.n < 0:
            raise DomainError(f"BranchLabel: radial index must be >= 0, got {self.n}")


def make_label(alpha: float, parity: str, n: int) -> BranchLabel:
    """Label for radial index n with the display convention applied."""
    n_display = n + 1 if (parity == "even" and alpha < 0.0) else n
    return BranchLabel(parity=parity, n=int(n), n_display=int(n_display))


def label_from_display(alpha: float, parity: str, n_display: int) -> BranchLabel:
    """Inverse of make_label: build the label from a display index."""
    n = n_display - 1 if (parity == "even" and alpha < 0.0) else n_display
    if n < 0:
        raise DomainError(
            f"label_from_display: no {parity} state with display index "
            f"{n_display} at alpha={alpha}")
    return BranchLabel(parity=parity, n=int(n), n_display=int(n_display))


@dataclass(frozen=True)
class EigenSolution:
    """One bound state: label, exponent nu, kappa, energy E = kappa + 1/2."""

    label: BranchLabel
    nu: float
    kappa: float
    energy: float
    method: str  # closed_form | transcendental | asymptotic | matrix


def unreg_energy(spec: PotentialSpec, label: BranchLabel) -> EigenSolution:
    """Closed-form energy E = 2n + 1 + sqrt(1/4 + alpha); parity-degenerate."""
    if spec.is_regularized:
        raise DomainError("unreg_energy: spec carries a cutoff; use the "
                          "regularized solver instead")
    nu = nu_of_alpha(spec.alpha)
    kappa = 2.0 * label.n + nu
    return EigenSolution(label=label, nu=nu, kappa=kappa,
                         energy=kappa + 0.5, method="closed_form")


def unreg_psi(spec: PotentialSpec, label: BranchLabel, x):
    """Normalized eigenfunction at x (scalar or array), oscillator-length units.

    psi(x) = N (-1)^n exp(-x^2/2) |x|^nu L_n^(nu-1/2)(x^2), odd branch
    antisymmetrized; psi(0) = 0 on both branches since nu > 0.
    """
    nu = nu_of_alpha(spec.alpha)
    n = label.n
    norm = math.exp(0.5 * (lgamma(n + 1.0) - lgamma(n + nu + 0.5)))
    sign_n = -1.0 if n % 2 else 1.0
    xa = np.asarray(x, dtype=float)
    ax = np.abs(xa)
    body = norm * sign_n * np.exp(-0.5 * xa * xa) * ax ** nu \
        * _laguerre_arr(n, nu - 0.5, xa * xa)
    if label.parity == "odd":
        body = body * np.sign(xa)
    if np.ndim(x) == 0:
        return float(body)
    return body


def _laguerre_arr(n, lam, w):
    if np.ndim(w) == 0:
        return laguerre(n, lam, float(w))
    flat = np.array([laguerre(n, lam, float(v)) for v in np.ravel(w)])
    return flat.reshape(np.shape(w))
