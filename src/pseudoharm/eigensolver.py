"""Lowest eigenpairs of a symmetric operator by block Davidson iteration.

The operator is anything with ``shape``, ``diagonal()`` and ``op @ X`` for
column blocks X: a dense ndarray or a ``matmech.BlockOperator``.  Each
iteration takes the Rayleigh-Ritz pairs of the search space, and extends
the space by the residuals of the unconverged pairs, preconditioned by
(diag - theta)^-1 (Davidson 1975, J. Comput. Phys. 17:87).  The space
starts from the unit vectors at the smallest diagonal entries, so a run is
deterministic; it restarts from the lowest Ritz vectors when it reaches
its size cap.  When the cap is not below the operator's dimension the
space is the whole space from the start, an exact solve.

Every returned pair has residual ||A x - lambda x|| at most residual_tol
times a lower bound on ||A||_2 <= ||A||_1: the largest of max |a_ii| and
the norms ||A v|| over the unit search vectors v.
"""

import numpy as np

from .errors import DomainError, NonConvergenceError

_MAX_ITERATIONS = 300
_GUARD_VECTORS = 2          # block size is k plus these
_MAX_SUBSPACE = 40          # restart cap, raised to 6 blocks for large k
_PRECONDITION_FLOOR = 1e-8  # smallest |diag - theta| relative to the scale
_DROP = 1e-8                # corrections with less new norm are discarded


def _column_norms(a):
    return np.sqrt(np.einsum("ij,ij->j", a, a))


def _orthonormalize(basis, vectors):
    """Columns of vectors made orthonormal to basis and to each other.

    Block Gram-Schmidt, twice: each pass projects the unit columns off the
    basis as one block, then makes them orthonormal among themselves by
    modified Gram-Schmidt, dropping columns that keep under _DROP of their
    norm.  Repeating the whole pass keeps a column that lost most of its
    norm to the others orthogonal to the basis too.
    """
    norms = _column_norms(vectors)
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
        block = (np.array(kept).T if kept
                 else np.empty((basis.shape[0], 0)))
    return block


def eigh_lowest(op, k, want_vectors=True, residual_tol=1e-10):
    """Lowest k eigenpairs of the symmetric operator op.

    Returns (values, vectors) with values ascending and vectors as
    orthonormal columns; vectors is None when want_vectors is False.  Raises
    NonConvergenceError, with the residuals reached, when the iteration
    budget runs out or the search space stops growing.

    The search space V, its image AV = op @ V and the projection V^T AV
    live in arrays allocated once, max_dim columns wide: each iteration
    writes its new columns after the m in use and fills in only the
    projection's new columns, whose upper triangle is all the symmetric
    eigensolver reads.  The space never outgrows them: it grows only while
    it stays within max_dim, and a restart keeps block columns and adds at
    most block more, with max_dim >= 6 block.  For the same reason the
    space reaches the whole dimension n only when max_dim >= n, and then
    it starts there.
    """
    if k < 1:
        raise DomainError(f"eigh_lowest: k must be >= 1, got {k}")
    n = op.shape[0]
    k = min(k, n)
    diag = np.asarray(op.diagonal(), dtype=float)
    block = min(n, k + _GUARD_VECTORS)
    max_dim = max(_MAX_SUBSPACE, 6 * block)
    if max_dim >= n:
        # the exact space from the start: one Rayleigh-Ritz solve
        m = width = n
        space = np.eye(n)
    else:
        m, width = block, max_dim
        space = np.zeros((n, width))
        start = np.argsort(diag, kind="stable")[:block]
        space[start, np.arange(block)] = 1.0
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
        denom = diag[:, None] - theta[:block][active]
        floor = _PRECONDITION_FLOOR * scale
        denom = np.where(np.abs(denom) < floor,
                         np.where(denom < 0.0, -floor, floor), denom)
        corrections = resid[:, active] / denom
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
