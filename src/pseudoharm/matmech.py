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
``eigensolver.eigh_lowest`` needs nothing else.  The symbols are built on
the block's first application, so a block that is only assembled (the odd
block in ``table1``) costs no FFT.

The g, h, k tables, with their 2 n_max + 1 sine integrals, depend on
(eps, n_max) only; alpha and rho enter F and the diagonal as weights.
``assemble`` takes the tables, and the parts of F and of the diagonal that
do not depend on alpha, from ``_alpha_free_parts``, an LRU cache keyed on
(rho, eps, n_max) that holds the last _PARTS_CACHE_SIZE cutoffs, about
64 n_max bytes each, as read-only arrays.  Couplings solved one after
another at one cutoff in one process (the CLI's ``table1``, the paper's
excited-level comparison) build them once; a model built from a cached
entry has the bits of one built cold.  A single CLI run of one coupling
gains nothing.

``ground_state`` solves for the even block's lowest pair, which ``table1``
and ``eigensolve`` with k = 1 take from it.  For an attractive cutoff the
strip term is close to rank one, and when the rank-one model's root lies
deep below the diagonal the solve gives ``eigh_lowest`` the model's
eigenvector as its start and the model's Sherman-Morrison inverse as its
preconditioner; otherwise, and for excited pairs, eigh_lowest runs with its
own start and diagonal preconditioner.

``reconstruct_wavefunction`` sums a pair's n sines at each sample by
blocked angle addition over the powers of e^{2i theta}: three complex
exponentials and about 2 sqrt(n) complex multiplications a sample, plus
one small real matrix product, and no trig table.  The samples go through
in blocks of about _SERIES_CHUNK power-by-sample entries.
"""

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvaluationOverflowError
from .eigensolver import eigh_lowest, rank_one_preconditioner, rank_one_root
from .specfun.sine_integral import sine_integral_array

# The strip-model start serves the even ground state when the model's root
# lies more than this many times the gap between the two smallest model
# diagonal entries below the smallest.  Over 540 cases (rho 5, 25, 50;
# delta 0.1 to 1e-4; n_max 100 to 8000; alpha -1 to 2) the 204 it admitted
# all applied fewer operator columns (979 against 4112) and none took more
# iterations; factors 1 and 4 let 24 and 9 cases take more iterations.
_STRIP_GATE = 16.0

# Cutoffs (rho, epsilon, n_max) whose parts _alpha_free_parts keeps.  An
# entry holds about 64 n_max bytes: 0.1 MB at n_max 1600 and 8 MB at
# n_max 128000.
_PARTS_CACHE_SIZE = 4

# powers x points in one block of _sine_series: 128 kB of complex
# temporaries.  Counted with getrusage over repeated n_max 1600 calls on
# 801 points and nothing else, blocks up to 12288 took no minor page
# faults, while 16384 took 98 a call and the whole grid 147.  Between
# eigensolves, as in the benchmark's excited-matrix passes, the calls do
# take faults: 260-740 a pass for the twelve calls and 530-590 for the
# four solves, moving with the heap's history (the same code took 679 or
# 1241 faults a pass from checkouts at paths of two lengths).  A block of
# 7680 moved faults into the solves: 813 -> 868 a pass.
_SERIES_CHUNK = 1 << 13


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
    The two symbols are built on the first application and kept, so a
    block that is never applied costs no FFT.
    """

    def __init__(self, table, shift, diagonal):
        n = diagonal.size
        self.table = table
        self.shape = (n, n)
        self._shift = shift
        self._length = 2 * n
        self._symbols = None
        self._diagonal = diagonal
        # the Toeplitz-minus-Hankel part carries F[0] - F[2i+s] on the
        # diagonal; the rest of each diagonal entry is applied pointwise
        self._pointwise = (diagonal - table[0]
                           + table[shift + 2 * np.arange(n)])

    def diagonal(self):
        return self._diagonal.copy()

    def _build_symbols(self):
        n, length, table = self.shape[0], self._length, self.table
        toeplitz = np.zeros(length)
        toeplitz[:n] = table[:n]
        toeplitz[length - n + 1:] = table[1:n][::-1]
        hankel = np.zeros(length)
        hankel[:2 * n - 1] = table[self._shift:self._shift + 2 * n - 1]
        return np.fft.rfft(toeplitz).real, np.fft.rfft(hankel)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.shape[0]:
            raise ValueError(f"BlockOperator: cannot apply {self.shape} "
                             f"to shape {x.shape}")
        if self._symbols is None:
            self._symbols = self._build_symbols()
        toe, han = self._symbols
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
        """Energy in units of hbar omega; rho must be the pair's own."""
        if rho != self.rho:
            raise DomainError(f"energy_hw: pair has rho={self.rho}, "
                              f"got {rho}")
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


def _coupling_tables(epsilon, n_max):
    """g, h, k tables over even j = |n -/+ m| in [0, 2 n_max], read-only.

    Index by j//2.  They depend on the cutoff and the basis size only, not
    on alpha or rho.  cos(p/2) for even j is exactly (-1)^(j/2); the
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
    for table in (g, h, k):
        table.flags.writeable = False
    return g, h, k


@functools.lru_cache(maxsize=_PARTS_CACHE_SIZE)
def _alpha_free_parts(rho, epsilon, n_max):
    """The parts of H / E1 that do not depend on alpha, read-only.

    Returns (g, k, oscillator table, blocks): g and k from
    ``_coupling_tables``, the oscillator term (pi^2 rho^2 / 2) h of F, and
    per block (name, shift, basis indices, n^2, 1 - (-1)^n sinc(pi eps n),
    the oscillator term (pi^2 rho^2 / 2) ((1 - eps^3) / 24 - h[n]) and
    k[0] - k[n]).  Memoized on (rho, epsilon, n_max), which ``assemble``
    passes as float, float, int; an entry holds about 64 n_max bytes.
    """
    g, h, k = _coupling_tables(epsilon, n_max)
    oscillator_weight = 2.0 * math.pi ** 2 * rho ** 2 / 4.0
    oscillator_table = oscillator_weight * h
    oscillator_table.flags.writeable = False
    # odd n give even parity, (n+m)/2 = i+j+1; even n give odd parity,
    # i+j+2
    blocks = []
    for block, first, shift in (("even", 1, 1), ("odd", 2, 2)):
        idx = np.arange(first, n_max + 1, 2)
        nn = idx.astype(float)
        parts = (idx, nn ** 2,
                 1.0 - (-1.0) ** idx * _sinc(math.pi * epsilon * nn),
                 oscillator_weight * ((1.0 - epsilon ** 3) / 24.0 - h[idx]),
                 k[0] - k[idx])
        for array in parts:
            array.flags.writeable = False
        blocks.append((block, shift) + parts)
    return g, k, oscillator_table, tuple(blocks)


def assemble(alpha: float, rho: float, epsilon: float,
             n_max: int) -> MatrixModel:
    """Build the two parity-block operators of H / E1.

    Each block is weighted from the g, h, k tables: the coupling table
    F = eps v_eps g + (pi^2 rho^2 / 2) h + (2 alpha / pi^2) k gives every
    off-diagonal element as F[|n-m|/2] - F[(n+m)/2], and the diagonal is
    H_nn / E1 = n^2 + eps v_eps (1 - (-1)^n sinc(pi eps n))
    + (pi^2 rho^2 / 2) ((1 - eps^3) / 24 - h[n]) + (2 alpha / pi^2)
    (k[0] - k[n]).  Everything but the alpha and strip weights comes from
    ``_alpha_free_parts``, a cache keyed on (float(rho), float(epsilon),
    n_max) that keeps the last _PARTS_CACHE_SIZE cutoffs, about 64 n_max
    bytes each (0.1 MB at n_max 1600).  Its arrays are read-only and shared
    by every model built from them.  A model built warm carries the bits of
    one built cold: the call weights and adds the parts in the same order
    either way.  Repeated couplings at one cutoff in one process (the
    CLI's ``table1``, or a library caller's sweep over alpha) skip the 2
    n_max + 1 sine integrals and the alpha-free arithmetic; a single CLI
    run of one coupling gains nothing.

    Raises DomainError for an n_max that is not an integer or is below 4,
    epsilon outside (0, 0.5), a rho that is not finite and positive, or a
    non-finite alpha.
    """
    try:
        n_max = operator.index(n_max)
    except TypeError:
        raise DomainError(f"assemble: n_max must be an integer, "
                          f"got {n_max!r}") from None
    if n_max < 4:
        raise DomainError(f"assemble: n_max must be >= 4, got {n_max}")
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"assemble: epsilon must lie in (0, 0.5), got {epsilon}")
    if not (math.isfinite(rho) and rho > 0.0):
        raise DomainError(f"assemble: rho must be finite and positive, got {rho}")
    if not math.isfinite(alpha):
        raise DomainError(f"assemble: alpha must be finite, got {alpha}")
    strip_weight = epsilon * v_epsilon(alpha, rho, epsilon)
    coupling_weight = 2.0 * alpha / math.pi ** 2
    g, k, oscillator_table, parts = _alpha_free_parts(
        float(rho), float(epsilon), n_max)
    table = strip_weight * g + oscillator_table + coupling_weight * k
    blocks, indices = {}, {}
    for block, shift, idx, square, strip, oscillator, coupling in parts:
        blocks[block] = BlockOperator(
            table, shift, square + strip_weight * strip + oscillator
            + coupling_weight * coupling)
        indices[block] = idx
    return MatrixModel(alpha=alpha, rho=rho, epsilon=epsilon,
                       n_max=n_max, blocks=blocks, indices=indices)


def _strip_start(model: MatrixModel) -> dict:
    """eigh_lowest's start and preconditioner for the even ground state.

    The strip term eps v_eps g of the even block is close to sigma u u^T,
    with u_i = (-1)^i sinc(pi n_i eps / 2) over the basis indices
    n_i = 2i + 1 and sigma = 2 eps v_eps.  With d0 = diag - sigma u^2 the
    model diag(d0) + sigma u u^T has the block's diagonal, and for
    sigma < 0 its lowest eigenvalue t0 lies below min d0
    (``rank_one_root``).  When t0 is deep, more than _STRIP_GATE times the
    gap between the two smallest d0 below min d0, the model's eigenvector
    u / (d0 - t0) is close to the block's ground state: the search starts
    from it alone and corrects by the model's inverse
    (``rank_one_preconditioner``).  Otherwise, and for sigma >= 0, returns
    {}: eigh_lowest's own start and diagonal correction.
    """
    sigma = 2.0 * model.epsilon * v_epsilon(model.alpha, model.rho,
                                            model.epsilon)
    if not sigma < 0.0:
        return {}
    u = _sinc(0.5 * math.pi * model.epsilon
              * model.indices["even"].astype(float))
    u[1::2] = -u[1::2]
    d0 = model.blocks["even"].diagonal() - sigma * u * u
    t0 = rank_one_root(d0, u, sigma)
    lowest, second = np.partition(d0, 1)[:2]
    if not lowest - t0 > _STRIP_GATE * (second - lowest):
        return {}
    return {"start": u / (d0 - t0),
            "precondition": rank_one_preconditioner(d0, u, sigma)}


def ground_state(model: MatrixModel, want_vectors: bool = True):
    """Lowest even-block eigenpair: (values, vectors) as from eigh_lowest.

    An attractive cutoff (alpha < 0) makes the even block's ground state
    deep and close to the strip's rank-one model; then the solve starts
    from the model's eigenvector, one search column an iteration, with the
    model's Sherman-Morrison preconditioner (see ``_strip_start``).
    Otherwise it is eigh_lowest(block, 1).  Either way the residual
    contract is eigh_lowest's.
    """
    return eigh_lowest(model.blocks["even"], 1, want_vectors=want_vectors,
                       **_strip_start(model))


def eigensolve(model: MatrixModel, k: int, want_vectors: bool = True):
    """Lowest k eigenpairs per parity block, merged and sorted by energy.

    With k = 1 the even block goes through ``ground_state``.  Excited pairs
    (k > 1) keep eigh_lowest's own start and preconditioner: with them the
    strip model's applied more operator columns on some inputs.
    """
    if k < 1:
        raise DomainError(f"eigensolve: k must be >= 1, got {k}")
    if k > model.n_max:
        raise DomainError(f"eigensolve: k={k} exceeds n_max={model.n_max}")
    pairs = []
    for block, mat in model.blocks.items():
        kk = min(k, mat.shape[0])
        if block == "even" and kk == 1:
            vals, vecs = ground_state(model, want_vectors)
        else:
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

    With j = q B + r and B = isqrt(n), the sum is
    Im(e^{i first theta} sum_q G^q P_q) with E = e^{2i theta},
    G = e^{2iB theta} and the partial sums P_q = sum_r c_{qB+r} E^r.  The
    powers E^r, r < B, come from repeated multiplication as the rows of a
    B x N array; the zero-padded Q x B coefficients times that array, seen
    as B x 2N reals, give every P_q in one real matrix product; Horner's
    rule in G sums over q.  That is three complex exponentials and about
    2 sqrt(n) complex multiplications per sample, and no N x n array.
    After r steps a power carries at most r roundings (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1), the size of
    the rounding that the angle 2 r theta itself carries.

    The samples go through in blocks of at most _SERIES_CHUNK // B, so
    every temporary holds about _SERIES_CHUNK complex entries.  A sample's
    value depends on its block only through the rounding of the matrix
    product.
    """
    n = len(coefficients)
    width = math.isqrt(n)
    rows = -(-n // width)
    padded = np.zeros(rows * width)
    padded[:n] = coefficients
    padded = padded.reshape(rows, width)
    out = np.empty(theta.size)
    per_block = max(1, _SERIES_CHUNK // width)
    for lo in range(0, theta.size, per_block):
        angle = theta[lo:lo + per_block]
        step = np.exp(2j * angle)
        powers = np.empty((width, angle.size), dtype=complex)
        powers[0] = 1.0
        for r in range(1, width):
            np.multiply(powers[r - 1], step, out=powers[r])
        partial = (padded @ powers.view(float)).view(complex)
        stride = np.exp(2j * width * angle)
        total = partial[rows - 1].copy()
        for q in range(rows - 2, -1, -1):
            total *= stride
            total += partial[q]
        out[lo:lo + per_block] = (np.exp(1j * first * angle) * total).imag
    return out


def reconstruct_wavefunction(pair: MatrixEigenpair, model: MatrixModel,
                             x_grid) -> np.ndarray:
    """Real-space samples of sum_m c_m sqrt(2/a) sin(m pi x / a) on [0, a].

    The box width is a = pi sqrt(rho/2) oscillator lengths.  The global sign
    is fixed so the first sample right of the box centre with magnitude
    above 1e-8 is positive.  ``x_grid`` is a scalar or a 1-D sequence; the
    result is 1-D.

    The sum over the n basis indices of the pair's block is evaluated by
    blocked angle addition: three complex exponentials and about 2 sqrt(n)
    complex multiplications per sample, and one (sqrt(n) x sqrt(n)) by
    (sqrt(n) x 2 len(x)) real matrix product, in blocks of samples that
    keep the temporaries near _SERIES_CHUNK complex entries.  It agrees
    with the direct sine sum to a few units of rounding times max|psi|.

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
