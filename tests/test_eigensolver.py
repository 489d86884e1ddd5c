import numpy as np
import pytest

from pseudoharm.eigensolver import eigh_lowest
from pseudoharm.errors import NonConvergenceError


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a + a.T


def test_input_not_modified():
    a = random_symmetric(60, 3)
    before = a.copy()
    eigh_lowest(a, 3)
    assert np.array_equal(a, before)


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
