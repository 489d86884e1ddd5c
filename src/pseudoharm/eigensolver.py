"""Lowest eigenpairs of a symmetric operator by block Davidson iteration.

The operator is anything with ``shape``, ``diagonal()`` and ``op @ X`` for
column blocks X: a dense ndarray or a ``matmech.BlockOperator``.  Each
iteration takes the Rayleigh-Ritz pairs of the search space, and extends
the space by the residuals of the unconverged pairs, preconditioned by
(diag - theta)^-1 (Davidson 1975, J. Comput. Phys. 17:87).  The space
starts from the unit vectors at the smallest diagonal entries, so a run is
deterministic; it restarts from the lowest Ritz vectors when it reaches
its size cap, and becomes the whole space, an exact solve, once it would
reach the operator's dimension.

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


def _orthonormalize(basis, vectors):
    """Columns of vectors made orthonormal to basis and to each other.

    Two passes of classical Gram-Schmidt against the basis, then modified
    Gram-Schmidt within the block; columns that keep under _DROP of their
    norm are dropped.
    """
    kept = []
    for j in range(vectors.shape[1]):
        v = vectors[:, j]
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        v = v / norm0
        for _ in range(2):
            v = v - basis @ (basis.T @ v)
            for w in kept:
                v = v - (w @ v) * w
        norm = np.linalg.norm(v)
        if norm > _DROP:
            kept.append(v / norm)
    if not kept:
        return np.empty((basis.shape[0], 0))
    return np.column_stack(kept)


def eigh_lowest(op, k, want_vectors=True, residual_tol=1e-10):
    """Lowest k eigenpairs of the symmetric operator op.

    Returns (values, vectors) with values ascending and vectors as
    orthonormal columns; vectors is None when want_vectors is False.  Raises
    NonConvergenceError, with the residuals reached, when the iteration
    budget runs out or the search space stops growing.
    """
    if k < 1:
        raise DomainError(f"eigh_lowest: k must be >= 1, got {k}")
    n = op.shape[0]
    k = min(k, n)
    diag = np.asarray(op.diagonal(), dtype=float)
    block = min(n, k + _GUARD_VECTORS)
    max_dim = max(_MAX_SUBSPACE, 6 * block)
    if max_dim >= n:
        basis = np.eye(n)
    else:
        basis = np.zeros((n, block))
        start = np.argsort(diag, kind="stable")[:block]
        basis[start, np.arange(block)] = 1.0
    images = op @ basis
    scale = max(np.max(np.abs(diag)),
                np.max(np.linalg.norm(images, axis=0)))
    bound = residual_tol * scale
    for iteration in range(1, _MAX_ITERATIONS + 1):
        proj = basis.T @ images
        theta, coeff = np.linalg.eigh(0.5 * (proj + proj.T))
        x = basis @ coeff[:, :block]
        ax = images @ coeff[:, :block]
        resid = ax - x * theta[:block]
        res = np.linalg.norm(resid[:, :k], axis=0)
        if np.all(res <= bound):
            return theta[:k], (x[:, :k] if want_vectors else None)
        if basis.shape[1] == n:
            break                   # exact space: rounding left above bound
        active = np.linalg.norm(resid, axis=0) > bound
        denom = diag[:, None] - theta[:block][active]
        floor = _PRECONDITION_FLOOR * scale
        denom = np.where(np.abs(denom) < floor,
                         np.where(denom < 0.0, -floor, floor), denom)
        corrections = resid[:, active] / denom
        if basis.shape[1] + corrections.shape[1] > max_dim:
            basis, images = x, ax
        new = _orthonormalize(basis, corrections)
        if basis.shape[1] + new.shape[1] >= n:
            basis = np.eye(n)
            images = op @ basis
        elif new.shape[1] == 0:
            break                   # no direction left to add
        else:
            new_images = op @ new
            scale = max(scale, np.max(np.linalg.norm(new_images, axis=0)))
            bound = residual_tol * scale
            basis = np.hstack([basis, new])
            images = np.hstack([images, new_images])
    raise NonConvergenceError(
        "eigh_lowest: residuals above bound", iterations=iteration, n=n, k=k,
        residuals=[float(r) for r in res], bound=float(bound))
