"""Sine-basis matrix mechanics for the shifted regularized potential.

The potential is centred in a hard box of width a (basis sqrt(2/a)
sin(n pi x / a)); the box size enters through rho = (oscillator quantum) /
(box ground energy), and the strip |x - a/2| < eps a/2 carries the constant
cutoff value.  Matrix elements connect only equal-parity indices
(n +/- m even), so the Hamiltonian splits into two symmetric blocks: odd
basis indices give even-parity states and vice versa.

All elements are closed-form in the tabulated functions g, h, k, l of
j = n -/+ m and the sine integral.  Folded into one coupling table F over
j/2, a block's off-diagonal part is F[|i-j|] - F[i+j+s] (s = 1 for the even
block, s = 2 for the odd block): a Toeplitz matrix minus a Hankel matrix.
No matrix is stored.  Each block is a ``BlockOperator`` that holds F, the
diagonal and the two FFT symbols of a circulant embedding, in O(n_max)
memory, and applies the block to vectors in O(n_max log n_max) operations;
``eigensolver.eigh_lowest`` needs nothing else.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvaluationOverflowError
from .eigensolver import eigh_lowest
from .specfun.sine_integral import sine_integral_array


def epsilon_from_delta(delta: float, rho: float) -> float:
    """Box-relative cutoff: eps = (2/pi) sqrt(2/rho) delta."""
    if not (math.isfinite(rho) and rho > 0.0):
        raise DomainError(f"epsilon_from_delta: rho must be finite and "
                          f"positive, got {rho}")
    return 2.0 / math.pi * math.sqrt(2.0 / rho) * delta


class BlockOperator:
    """One parity block of H / E1: diagonal plus F[|i-j|] - F[i+j+s] off it.

    ``op @ x`` takes a vector or a column block.  Both Toeplitz and Hankel
    parts are embedded in circulants of length 2n and applied with one real
    FFT pair: the Hankel product is the circular cross-correlation of
    F[s:s+2n-1] with x, whose transform is conj(rfft(x)) times the symbol.
    """

    def __init__(self, table, shift, diagonal):
        n = diagonal.size
        length = 2 * n
        toeplitz = np.zeros(length)
        toeplitz[:n] = table[:n]
        toeplitz[length - n + 1:] = table[1:n][::-1]
        hankel = np.zeros(length)
        hankel[:2 * n - 1] = table[shift:shift + 2 * n - 1]
        self.table = table
        self.shape = (n, n)
        self._length = length
        self._toeplitz_symbol = np.fft.rfft(toeplitz).real
        self._hankel_symbol = np.fft.rfft(hankel)
        self._diagonal = diagonal
        # the Toeplitz-minus-Hankel part carries F[0] - F[2i+s] on the
        # diagonal; the rest of each diagonal entry is applied pointwise
        self._pointwise = (diagonal - table[0]
                           + table[shift + 2 * np.arange(n)])

    def diagonal(self):
        return self._diagonal.copy()

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.shape[0]:
            raise ValueError(f"BlockOperator: cannot apply {self.shape} "
                             f"to shape {x.shape}")
        toe, han = self._toeplitz_symbol, self._hankel_symbol
        pointwise = self._pointwise
        if x.ndim == 2:
            toe, han = toe[:, None], han[:, None]
            pointwise = pointwise[:, None]
        spec = np.fft.rfft(x, n=self._length, axis=0)
        coupled = np.fft.irfft(toe * spec - han * np.conj(spec),
                               n=self._length, axis=0)[:self.shape[0]]
        return pointwise * x + coupled


@dataclass
class MatrixModel:
    """Parity-blocked sine-basis Hamiltonian in units of the box quantum."""

    alpha: float
    rho: float
    epsilon: float
    n_max: int
    blocks: dict = field(repr=False)           # parity -> BlockOperator
    indices: dict = field(repr=False)          # parity -> basis indices (1-based)


@dataclass(frozen=True)
class MatrixEigenpair:
    """One Ritz eigenpair: energy in box-quantum units, unit coefficients.

    n_max_used, alpha, rho and epsilon identify the model it came from.
    """

    energy: float
    coefficients: np.ndarray
    block: str
    n_max_used: int
    alpha: float
    rho: float
    epsilon: float

    def energy_hw(self, rho: float) -> float:
        return self.energy / rho


def v_epsilon(alpha: float, rho: float, epsilon: float) -> float:
    """Constant strip value in box-quantum units."""
    inv = 4.0 * alpha / (math.pi * math.pi * epsilon * epsilon)
    if not math.isfinite(inv):
        raise EvaluationOverflowError(
            "v_epsilon: alpha/epsilon^2 exceeds double range; smallest usable "
            f"epsilon is ~{math.sqrt(abs(alpha) / 1e300):.3e}",
            threshold=math.sqrt(abs(alpha) / 1e300))
    return math.pi ** 2 * rho ** 2 * epsilon ** 2 / 16.0 + inv


def _sinc(x):
    out = np.ones_like(x)
    nz = x != 0.0
    out[nz] = np.sin(x[nz]) / x[nz]
    return out


def _coupling_tables(alpha, rho, epsilon, n_max):
    """g, h, k tables over even j = |n -/+ m| in [0, 2 n_max].

    Index by j//2.  cos(p/2) for even j is exactly (-1)^(j/2); the
    1 - cos(p eps/2) piece of l is evaluated as 2 sin^2(p eps/4) to dodge
    cancellation at small arguments.
    """
    half = np.arange(n_max + 1)              # j = 2*half
    j = 2.0 * half
    p = math.pi * j
    cos_half_p = np.where(half % 2 == 0, 1.0, -1.0)
    pe2 = 0.5 * p * epsilon

    g = cos_half_p * _sinc(pe2)

    h = np.zeros(n_max + 1)
    nzp = p != 0.0
    pnz = p[nzp]
    pe2nz = pe2[nzp]
    h[nzp] = cos_half_p[nzp] * (
        2.0 / pnz ** 3 * np.sin(pe2nz)
        + (cos_half_p[nzp] - epsilon * np.cos(pe2nz)) / pnz ** 2
        - epsilon ** 2 / (4.0 * pnz) * np.sin(pe2nz))

    # l_eps(j) = (4/eps) sin^2(p eps/4) - 2 [1 - cos(p/2)] + p [Si(p/2) - Si(p eps/2)]
    ell = np.zeros(n_max + 1)
    one_minus_cos_half = np.where(cos_half_p > 0.0, 0.0, 2.0)
    si = sine_integral_array(np.concatenate([0.5 * p, np.abs(pe2nz)]))
    si_big, si_small = si[:n_max + 1], si[n_max + 1:]
    ell[nzp] = (4.0 / epsilon * np.sin(0.25 * p[nzp] * epsilon) ** 2
                - 2.0 * one_minus_cos_half[nzp]
                + pnz * (si_big[nzp] - si_small))
    k = cos_half_p * (2.0 / epsilon * (1.0 - epsilon) - ell)
    return g, h, k


def _diagonal(idx, alpha, rho, epsilon, veps, h, k):
    """Diagonal elements H_nn / E1 for basis indices idx."""
    nn = idx.astype(float)
    return (nn ** 2
            + epsilon * veps * (1.0 - (-1.0) ** idx
                                * _sinc(math.pi * epsilon * nn))
            + 2.0 * math.pi ** 2 * rho ** 2 / 4.0
            * ((1.0 - epsilon ** 3) / 24.0 - h[idx])
            + 2.0 * alpha / math.pi ** 2 * (k[0] - k[idx]))


def assemble(alpha: float, rho: float, epsilon: float,
             n_max: int) -> MatrixModel:
    """Build the two parity-block operators of H / E1.

    The coupling table F = eps v_eps g + (pi^2 rho^2 / 2) h
    + (2 alpha / pi^2) k gives every off-diagonal element as
    F[|n-m|/2] - F[(n+m)/2].
    """
    if not math.isfinite(alpha):
        raise DomainError(f"assemble: alpha must be finite, got {alpha}")
    if n_max < 4:
        raise DomainError(f"assemble: n_max must be >= 4, got {n_max}")
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"assemble: epsilon must lie in (0, 0.5), got {epsilon}")
    if not (math.isfinite(rho) and rho > 0.0):
        raise DomainError(f"assemble: rho must be finite and positive, got {rho}")
    veps = v_epsilon(alpha, rho, epsilon)
    g, h, k = _coupling_tables(alpha, rho, epsilon, n_max)
    table = (epsilon * veps * g
             + 2.0 * math.pi ** 2 * rho ** 2 / 4.0 * h
             + 2.0 * alpha / math.pi ** 2 * k)
    blocks, indices = {}, {}
    # odd n give even parity, (n+m)/2 = i+j+1; even n give odd parity, i+j+2
    for block, first, shift in (("even", 1, 1), ("odd", 2, 2)):
        idx = np.arange(first, n_max + 1, 2)
        blocks[block] = BlockOperator(
            table, shift, _diagonal(idx, alpha, rho, epsilon, veps, h, k))
        indices[block] = idx
    return MatrixModel(alpha=alpha, rho=rho, epsilon=epsilon, n_max=n_max,
                       blocks=blocks, indices=indices)


def eigensolve(model: MatrixModel, k: int, want_vectors: bool = True):
    """Lowest k eigenpairs per parity block, merged and sorted by energy."""
    if k < 1:
        raise DomainError(f"eigensolve: k must be >= 1, got {k}")
    if k > model.n_max:
        raise DomainError(f"eigensolve: k={k} exceeds n_max={model.n_max}")
    pairs = []
    for block, mat in model.blocks.items():
        kk = min(k, mat.shape[0])
        vals, vecs = eigh_lowest(mat, kk, want_vectors=want_vectors)
        for j in range(kk):
            pairs.append(MatrixEigenpair(
                energy=float(vals[j]),
                coefficients=vecs[:, j].copy() if want_vectors else None,
                block=block, n_max_used=model.n_max, alpha=model.alpha,
                rho=model.rho, epsilon=model.epsilon))
    pairs.sort(key=lambda p: p.energy)
    return pairs


def _sine_series(theta, first, coefficients):
    """sum_j c_j sin((first + 2 j) theta) for every theta, by angle addition.

    With j = q B + r and B = isqrt(n), (first + 2j) theta is the sum of
    (first + 2qB) theta and 2r theta.  N x B cos and sin tables of the second
    angle times the coefficients as a zero-padded B x Q array give the
    partial sums C_q + i S_q = sum_r c_{qB+r} e^{2ir theta}; N x Q tables of
    the first angle combine them as sum_q sin(.) C_q + cos(.) S_q.  That is
    about 4 N sqrt(n) sines and cosines and no N x n array.
    """
    n = len(coefficients)
    width = math.isqrt(n)
    rows = -(-n // width)
    padded = np.zeros(rows * width)
    padded[:n] = coefficients
    blocks = padded.reshape(rows, width).T
    inner = np.outer(theta, 2.0 * np.arange(width))
    outer = np.outer(theta, first + 2.0 * width * np.arange(rows))
    return (np.einsum("nq,nq->n", np.sin(outer), np.cos(inner) @ blocks)
            + np.einsum("nq,nq->n", np.cos(outer), np.sin(inner) @ blocks))


def reconstruct_wavefunction(pair: MatrixEigenpair, model: MatrixModel,
                             x_grid) -> np.ndarray:
    """Real-space samples of sum_m c_m sqrt(2/a) sin(m pi x / a) on [0, a].

    The box width is a = pi sqrt(rho/2) oscillator lengths.  The global sign
    is fixed so the first sample right of the box centre with magnitude
    above 1e-8 is positive.  ``x_grid`` is a scalar or a 1-D sequence; the
    result is 1-D.

    The sum over the n basis indices of the pair's block is evaluated by
    blocked angle addition: about 4 sqrt(n) sines and cosines per sample and
    two (len(x) x sqrt(n)) by (sqrt(n) x sqrt(n)) matrix products, with
    O(len(x) sqrt(n)) memory.  It agrees with the direct sine sum to a few
    units of rounding times max|psi|.

    Raises DomainError when the grid is not 1-D, holds a non-finite value
    or leaves [0, a], or when the pair has no coefficients or does not
    belong to the model (other n_max, other coefficient length, other
    alpha, rho or epsilon).
    """
    pair_params = (pair.alpha, pair.rho, pair.epsilon)
    model_params = (model.alpha, model.rho, model.epsilon)
    if pair_params != model_params:
        raise DomainError(
            "reconstruct_wavefunction: pair comes from another model "
            f"((alpha, rho, epsilon)={pair_params}, model has {model_params})")
    idx = model.indices[pair.block]
    coefficients = pair.coefficients
    shape = None if coefficients is None else np.shape(coefficients)
    if pair.n_max_used != model.n_max or shape != idx.shape:
        raise DomainError(
            "reconstruct_wavefunction: pair does not fit the model "
            f"(block={pair.block}, n_max_used={pair.n_max_used}, "
            f"model.n_max={model.n_max}, coefficients shape={shape}, "
            f"block size={idx.size})")
    a_box = math.pi * math.sqrt(model.rho / 2.0)
    x = np.asarray(x_grid, dtype=float)
    if x.ndim > 1:
        raise DomainError("reconstruct_wavefunction: grid must be 1-D, "
                          f"got shape {x.shape}")
    x = x.reshape(-1)
    if not np.all(np.isfinite(x)):
        raise DomainError("reconstruct_wavefunction: grid holds a "
                          "non-finite value")
    if np.any((x < 0.0) | (x > a_box)):
        raise DomainError("reconstruct_wavefunction: grid must lie in [0, a]")
    psi = math.sqrt(2.0 / a_box) * _sine_series(
        x / a_box * math.pi, int(idx[0]), coefficients)
    right = np.where((x > 0.5 * a_box) & (np.abs(psi) > 1e-8))[0]
    if right.size and psi[right[0]] < 0.0:
        psi = -psi
    return psi
