import numpy as np
import pytest

from pseudoharm import eigensolver, matmech, refdata
from pseudoharm.eigensolver import eigh_lowest
from pseudoharm.errors import DomainError, NonConvergenceError


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a + a.T


class CountingOperator:
    """An operator that counts the columns it is applied to."""

    def __init__(self, op):
        self.op = op
        self.shape = op.shape
        self.columns = 0

    def diagonal(self):
        return np.array(self.op.diagonal())

    def __matmul__(self, x):
        self.columns += 1 if np.ndim(x) == 1 else np.shape(x)[1]
        return self.op @ x


def max_subspace(k):
    return max(eigensolver._MAX_SUBSPACE,
               6 * (k + eigensolver._GUARD_VECTORS))


def assert_residual_contract(a, vals, vecs, tol=1e-10):
    norm_a = np.max(np.abs(a).sum(axis=1))
    for j in range(len(vals)):
        r = np.linalg.norm(a @ vecs[:, j] - vals[j] * vecs[:, j])
        assert r <= tol * norm_a
    assert np.max(np.abs(vecs.T @ vecs - np.eye(len(vals)))) < 1e-12


def test_input_not_modified():
    a = random_symmetric(60, 3)
    before = a.copy()
    eigh_lowest(a, 3)
    assert np.array_equal(a, before)


@pytest.mark.parametrize("k", [0, -2])
def test_k_below_one_rejected(k):
    with pytest.raises(DomainError, match="k must be >= 1"):
        eigh_lowest(random_symmetric(5, 1), k)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 60, 200])
def test_eigenvalues_match_numpy(n):
    a = random_symmetric(n, n)
    k = min(n, 4)
    vals, _ = eigh_lowest(a, k, want_vectors=False)
    ref = np.linalg.eigvalsh(a)
    scale = max(1.0, np.max(np.abs(ref)))
    assert np.max(np.abs(vals - ref[:k])) < 1e-12 * scale


def test_wide_dynamic_range():
    # diagonal spanning eight orders, like the sine-basis Hamiltonian
    n = 300
    rng = np.random.default_rng(7)
    a = np.diag(np.arange(1, n + 1, dtype=float) ** 2)
    a[0, 0] = -4000.0
    pert = rng.standard_normal((n, n))
    a += 0.5 * (pert + pert.T)
    vals, vecs = eigh_lowest(a, 4)
    ref = np.linalg.eigvalsh(a)[:4]
    assert np.max(np.abs(vals - ref)) < 1e-9


def test_eigenvector_residual_contract():
    a = random_symmetric(90, 5)
    vals, vecs = eigh_lowest(a, 6, residual_tol=1e-10)
    norm_a = np.max(np.abs(a).sum(axis=1))
    for j in range(6):
        r = np.linalg.norm(a @ vecs[:, j] - vals[j] * vecs[:, j])
        assert r <= 1e-10 * norm_a


def test_degenerate_cluster_orthogonality():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    a = q @ np.diag([2.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]) @ q.T
    a = 0.5 * (a + a.T)
    vals, vecs = eigh_lowest(a, 5)
    assert np.allclose(vals[:3], 2.0, atol=1e-10)
    gram = vecs.T @ vecs
    assert np.max(np.abs(gram - np.eye(5))) < 1e-9


def test_values_only_mode():
    a = random_symmetric(25, 2)
    vals, vecs = eigh_lowest(a, 3, want_vectors=False)
    assert vecs is None
    assert np.allclose(vals, np.linalg.eigvalsh(a)[:3], atol=1e-12)


def test_deterministic():
    a = random_symmetric(150, 11)
    v1, x1 = eigh_lowest(a, 3)
    v2, x2 = eigh_lowest(a, 3)
    assert np.array_equal(v1, v2) and np.array_equal(x1, x2)


def test_budget_exhaustion_raises_with_context():
    # a tolerance below rounding cannot be met, even by the exact solve
    a = random_symmetric(12, 4)
    with pytest.raises(NonConvergenceError) as info:
        eigh_lowest(a, 2, residual_tol=1e-30)
    assert info.value.context["n"] == 12
    assert len(info.value.context["residuals"]) == 2


def test_restart_path():
    # a strong perturbation of a wide diagonal: six pairs take more search
    # directions than the space holds, so the space restarts
    n, k = 300, 6
    rng = np.random.default_rng(7)
    a = np.diag(np.arange(1, n + 1, dtype=float) ** 2)
    a[0, 0] = -4000.0
    pert = rng.standard_normal((n, n))
    a += 20.0 * (pert + pert.T)
    op = CountingOperator(a)
    vals, vecs = eigh_lowest(op, k)
    assert max_subspace(k) < n
    assert op.columns > max_subspace(k)
    ref = np.linalg.eigvalsh(a)[:k]
    assert np.max(np.abs(vals - ref)) < 1e-12 * np.max(np.abs(ref))
    assert_residual_contract(a, vals, vecs)


@pytest.mark.parametrize("n", [9, 40])
def test_exact_space_path(n):
    # n <= max_dim: one Rayleigh-Ritz solve on the whole space
    k = 3
    assert n <= max_subspace(k)
    a = random_symmetric(n, 13)
    op = CountingOperator(a)
    vals, vecs = eigh_lowest(op, k)
    assert op.columns == n
    ref = np.linalg.eigvalsh(a)[:k]
    assert np.max(np.abs(vals - ref)) < 1e-12 * np.max(np.abs(ref))
    assert_residual_contract(a, vals, vecs)


def test_table1_solves_apply_no_more_columns():
    # the parent of the preallocated search space applied 24, 24, 24, 21
    # and 21 columns at alpha = -0.25 .. -0.05 (table1 defaults)
    parent = [24, 24, 24, 21, 21]
    build = matmech.assembler(5.0, matmech.epsilon_from_delta(
        refdata.TABLE1_DELTA, 5.0), 2000)
    for alpha, most in zip(sorted(refdata.TABLE1), parent):
        op = CountingOperator(build(alpha).blocks["even"])
        eigh_lowest(op, 1, want_vectors=False)
        assert op.columns <= most


def test_excited_matrix_solves_apply_no_more_columns():
    # the parent applied 29, 27 (alpha = -0.1) and 25, 27 (alpha = 0.1)
    # columns to the even and odd blocks at rho 25, delta 0.01, n_max 1600
    parent = {(-0.1, "even"): 29, (-0.1, "odd"): 27,
              (0.1, "even"): 25, (0.1, "odd"): 27}
    eps = matmech.epsilon_from_delta(0.01, 25.0)
    for alpha in (-0.1, 0.1):
        model = matmech.assemble(alpha, 25.0, eps, 1600)
        for block in ("even", "odd"):
            op = CountingOperator(model.blocks[block])
            eigh_lowest(op, 3)
            assert op.columns <= parent[alpha, block]
