"""Lowest eigenpairs of a symmetric operator by block Davidson iteration.

The operator is anything with ``shape``, ``diagonal()`` and ``op @ X`` for
column blocks X: a dense ndarray or a ``matmech.BlockOperator``.  Each
iteration takes the Rayleigh-Ritz pairs of the search space, and extends
the space by the residuals of the unconverged pairs, preconditioned by
(diag - theta)^-1 (Davidson 1975, J. Comput. Phys. 17:87).  By default the
space starts from the unit vectors at the smallest diagonal entries, so a
run is deterministic; it restarts from the lowest Ritz vectors when it
reaches its size cap.  When the cap is not below the operator's dimension
the space is the whole space from the start, an exact solve.

A caller that knows more about the operator can give the start block and
the preconditioner instead.  For an operator close to diag(d0) + sigma u
u^T with sigma < 0, ``rank_one_root`` gives the model's lowest eigenvalue
t0 from its secular equation, (d0 - t0)^-1 u is the model's eigenvector
(Golub 1973, SIAM Rev. 15:318), and ``rank_one_preconditioner`` inverts
the model minus theta by the Sherman-Morrison formula.

Every returned pair has residual ||A x - lambda x|| at most residual_tol
times a lower bound on ||A||_2 <= ||A||_1: the largest of max |a_ii| and
the norms ||A v|| over the unit search vectors v.
"""

import numpy as np

from .errors import DomainError, NonConvergenceError

# the stop: residual at most this times a lower bound on ||A|| (see above)
RESIDUAL_TOL = 1e-10
_MAX_ITERATIONS = 300
_GUARD_VECTORS = 2          # block size is k plus these
_MAX_SUBSPACE = 40          # restart cap, raised to 6 blocks for large k
_FIRST_WIDTH = 8            # workspace columns per block before it grows
_PRECONDITION_FLOOR = 1e-8  # smallest |diag - theta| relative to the scale
_DROP = 1e-8                # corrections with less new norm are discarded
_RANK_ONE_FLOOR = 1e-8      # smallest |1 + sigma u^T (d0 - theta)^-1 u|
_SECULAR_RTOL = 1e-6        # secular root: step relative to min d0 - t
_SECULAR_ITERATIONS = 100


def _column_norms(a):
    return np.sqrt(np.einsum("ij,ij->j", a, a))


def _widened(a, rows, width, m):
    """A C-order rows x width array holding the first m columns of a."""
    out = np.empty((rows, width))
    out[:a.shape[0], :m] = a[:, :m]
    return out


def _orthonormalize(basis, vectors):
    """Columns of vectors made orthonormal to basis and to each other.

    Block Gram-Schmidt, twice: each pass projects the unit columns off the
    basis as one block, then makes them orthonormal among themselves by
    modified Gram-Schmidt, dropping columns that keep under _DROP of their
    norm.  Repeating the whole pass keeps a column that lost most of its
    norm to the others orthogonal to the basis too.  A single column is
    normalized directly, with the bits the loop gives it, and an empty
    basis projects nothing off.
    """
    empty = np.empty((basis.shape[0], 0))
    norms = _column_norms(vectors)
    if vectors.shape[1] == 1:
        if not norms[0] > 0.0:
            return empty
        block = vectors / norms
        for _ in range(2):
            if basis.shape[1]:
                block = block - basis @ (basis.T @ block)
            column = block[:, 0]
            norm = np.sqrt(column @ column)
            if not norm > _DROP:
                return empty
            block = block / norm
        return block
    nonzero = norms > 0.0
    block = vectors[:, nonzero] / norms[nonzero]
    for _ in range(2):
        block = block - basis @ (basis.T @ block)
        kept = []
        for v in block.T:
            for w in kept:
                v = v - (w @ v) * w
            norm = np.sqrt(v @ v)
            if norm > _DROP:
                kept.append(v / norm)
        block = np.array(kept).T if kept else empty
    return block


def _shifted(diag, theta, floor):
    """diag - theta for each theta, as columns, floored to |.| >= floor;
    a zero difference gets +floor."""
    denom = diag[:, None] - theta
    out = np.maximum(np.abs(denom), floor)
    return np.negative(out, out=out, where=denom < 0.0)


def _diagonal_correction(diag):
    """The correction step (diag - theta)^-1 r, with |diag - theta| floored."""
    def precondition(resid, theta, floor):
        return resid / _shifted(diag, theta, floor)
    return precondition


def rank_one_root(d0, u, sigma):
    """Lowest eigenvalue t0 of diag(d0) + sigma u u^T for sigma < 0.

    t0 lies below min d0, where it solves the secular equation
    1 + sigma g(t) = 0 with g(t) = sum u_i^2 / (d0_i - t).  On t < min d0,
    1/g is decreasing and concave (a multiple of the weighted harmonic mean
    of the d0_i - t), so Newton's method on 1/g - |sigma| from the left end
    of the bracket [min d0 - |sigma| sum u^2, min d0] steps past the root
    once and then descends on it from the right; a step that leaves the
    bracket bisects it instead.  It stops when a step is at most
    _SECULAR_RTOL of min d0 - t: 5 to 8 passes over d0 at table1's
    couplings.

    Raises DomainError unless sigma < 0 and u is not zero.
    """
    weights = u * u
    total = float(np.sum(weights))
    if not (sigma < 0.0 and total > 0.0):
        raise DomainError("rank_one_root: needs sigma < 0 and u != 0, got "
                          f"sigma={sigma}, sum u^2={total}")
    top = float(np.min(d0))
    lo, hi = top + sigma * total, top
    t = lo
    for _ in range(_SECULAR_ITERATIONS):
        inverse = 1.0 / (d0 - t)
        g = weights @ inverse
        excess = 1.0 / g + sigma
        if excess > 0.0:
            lo = t
        else:
            hi = t
        # d(1/g)/dt = -g'/g^2 with g' = sum u_i^2 / (d0_i - t)^2
        new = t + excess * g * g / (weights @ (inverse * inverse))
        if abs(new - t) <= _SECULAR_RTOL * (top - new):
            return new
        t = new if lo < new < hi else 0.5 * (lo + hi)
    return t


def rank_one_preconditioner(d0, u, sigma):
    """The correction step (diag(d0) + sigma u u^T - theta)^-1 r.

    By Sherman-Morrison it is y - z sigma (u^T y) / (1 + sigma u^T z), with
    y = (d0 - theta)^-1 r and z = (d0 - theta)^-1 u, |d0 - theta| floored
    as in the diagonal correction.  The denominator is the model's secular
    function at theta, which vanishes at the model's own eigenvalues; a
    column whose |denominator| falls under _RANK_ONE_FLOOR takes the
    diagonal correction (d0 + sigma u^2 - theta)^-1 r instead.  Returns a
    ``precondition`` for ``eigh_lowest``.
    """
    diagonal = _diagonal_correction(d0 + sigma * u * u)

    def precondition(resid, theta, floor):
        shifted = _shifted(d0, theta, floor)
        y = resid / shifted
        z = u[:, None] / shifted
        denom = 1.0 + sigma * (u @ z)
        near = np.abs(denom) < _RANK_ONE_FLOOR
        denom[near] = 1.0
        out = y - z * (sigma * (u @ y) / denom)
        if np.any(near):
            out[:, near] = diagonal(resid[:, near], theta[near], floor)
        return out
    return precondition


def eigh_lowest(op, k, want_vectors=True, residual_tol=RESIDUAL_TOL,
                start=None, precondition=None):
    """Lowest k eigenpairs of the symmetric operator op.

    Returns (values, vectors) with values ascending and vectors as
    orthonormal columns; vectors is None when want_vectors is False.  Raises
    NonConvergenceError, with the residuals reached, when the iteration
    budget runs out or the search space stops growing.

    start, when given, is the first search block (a vector or columns,
    made orthonormal here): the block holds its columns, at least k, and no
    guard vectors.  Otherwise the block is k + _GUARD_VECTORS unit vectors
    at the smallest diagonal entries.  precondition, when given, is called
    as precondition(resid, theta, floor) with the residual columns of the
    unconverged Ritz pairs and their values, and returns their corrections;
    floor is the smallest |diag - theta| the default (diag - theta)^-1
    allows.  The stop, the iteration budget and the restart rule are the
    same either way.

    The search space V, its image AV = op @ V and the projection V^T AV
    live in arrays that start min(max_dim, 8 block) columns wide: each
    iteration writes its new columns after the m in use and fills in only
    the projection's new columns, whose upper triangle is all the
    symmetric eigensolver reads.  When the new columns would not fit, the
    arrays are copied into ones twice as wide, up to max_dim; a solve that
    converges early never touches a max_dim-wide workspace.  The space
    itself grows only while it stays within max_dim, and a restart keeps
    block columns and adds at most block more, with max_dim >= 6 block.
    For the same reason the space reaches the whole dimension n only when
    max_dim >= n, and then it starts there.
    """
    if k < 1:
        raise DomainError(f"eigh_lowest: k must be >= 1, got {k}")
    n = op.shape[0]
    k = min(k, n)
    diag = np.asarray(op.diagonal(), dtype=float)
    if precondition is None:
        precondition = _diagonal_correction(diag)
    if start is None:
        block = min(n, k + _GUARD_VECTORS)
    else:
        start = _orthonormalize(np.empty((n, 0)),
                                np.asarray(start, dtype=float).reshape(n, -1))
        block = start.shape[1]
        if block < k:
            raise DomainError(f"eigh_lowest: start spans {block} directions, "
                              f"fewer than k={k}")
    max_dim = max(_MAX_SUBSPACE, 6 * block)
    if max_dim >= n:
        # the exact space from the start: one Rayleigh-Ritz solve
        m = width = n
        space = np.eye(n)
    else:
        m, width = block, min(max_dim, _FIRST_WIDTH * block)
        space = np.zeros((n, width))
        if start is None:
            first = np.argsort(diag, kind="stable")[:block]
            space[first, np.arange(block)] = 1.0
        else:
            space[:, :block] = start
    images = np.empty((n, width))
    proj = np.empty((width, width))
    images[:, :m] = op @ space[:, :m]
    proj[:m, :m] = space[:, :m].T @ images[:, :m]
    scale = max(np.max(np.abs(diag)),
                np.max(_column_norms(images[:, :m])))
    bound = residual_tol * scale
    for iteration in range(1, _MAX_ITERATIONS + 1):
        theta, coeff = np.linalg.eigh(proj[:m, :m], UPLO="U")
        x = space[:, :m] @ coeff[:, :block]
        ax = images[:, :m] @ coeff[:, :block]
        resid = ax - x * theta[:block]
        res = _column_norms(resid)
        if np.all(res[:k] <= bound):
            return theta[:k], (x[:, :k] if want_vectors else None)
        if m == n:
            break                   # exact space: rounding left above bound
        active = res > bound
        corrections = precondition(resid[:, active], theta[:block][active],
                                   _PRECONDITION_FLOOR * scale)
        if m + corrections.shape[1] > max_dim:
            m = block               # restart from the Ritz vectors
            space[:, :m] = x
            images[:, :m] = ax
            proj[:m, :m] = x.T @ ax
        new = _orthonormalize(space[:, :m], corrections)
        added = new.shape[1]
        if added == 0:
            break                   # no direction left to add
        grown = m + added
        if grown > width:
            width = min(max_dim, 2 * width)
            space = _widened(space, n, width, m)
            images = _widened(images, n, width, m)
            proj = _widened(proj, width, width, m)
        space[:, m:grown] = new
        images[:, m:grown] = op @ new
        proj[:grown, m:grown] = space[:, :grown].T @ images[:, m:grown]
        scale = max(scale,
                    np.max(_column_norms(images[:, m:grown])))
        bound = residual_tol * scale
        m = grown
    raise NonConvergenceError(
        "eigh_lowest: residuals above bound", iterations=iteration, n=n, k=k,
        residuals=[float(r) for r in res[:k]], bound=float(bound))
