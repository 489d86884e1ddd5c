import numpy as np
import pytest

from conftest import dense_block
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
    eps = matmech.epsilon_from_delta(refdata.TABLE1_DELTA, 5.0)
    for alpha, most in zip(sorted(refdata.TABLE1), parent):
        model = matmech.assemble(alpha, 5.0, eps, 2000)
        op = CountingOperator(model.blocks["even"])
        eigh_lowest(op, 1, want_vectors=False)
        assert op.columns <= most


def test_table1_ground_state_solves_apply_five_columns_each():
    # matmech.ground_state starts from the strip model's eigenvector and
    # adds one column an iteration: 25 columns in all where the generic
    # start above applies 114
    eps = matmech.epsilon_from_delta(refdata.TABLE1_DELTA, 5.0)
    columns = []
    for alpha in sorted(refdata.TABLE1):
        model = matmech.assemble(alpha, 5.0, eps, 2000)
        op = model.blocks["even"] = CountingOperator(model.blocks["even"])
        matmech.ground_state(model, want_vectors=False)
        columns.append(op.columns)
    assert max(columns) <= 5
    assert sum(columns) <= 25


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


def spy_on_widening(monkeypatch):
    """The (rows, width) of every array eigh_lowest widens, in order."""
    widened = []
    copy = eigensolver._widened

    def spy(a, rows, width, m):
        widened.append((rows, width))
        return copy(a, rows, width, m)

    monkeypatch.setattr(eigensolver, "_widened", spy)
    return widened


def assert_operator_residual_contract(op, vals, vecs, tol=1e-10):
    # the contract's scale is at least the largest diagonal entry
    resid = op @ vecs - vecs * vals
    assert np.all(np.linalg.norm(resid, axis=0)
                  <= tol * np.max(np.abs(op.diagonal())))
    assert np.max(np.abs(vecs.T @ vecs - np.eye(len(vals)))) < 1e-12


def even_block(alpha, rho, delta, n_max):
    eps = matmech.epsilon_from_delta(delta, rho)
    return matmech.assemble(alpha, rho, eps, n_max), eps


def test_solve_that_outgrows_the_first_workspace(monkeypatch):
    # k = 2 is a block of 4: the workspace starts 32 columns wide, and at
    # alpha -1/4, delta 0.002, rho 5, n_max 2000 the solve applies 37
    # columns, so it widens once, to max_dim, and never restarts
    k, block = 2, 2 + eigensolver._GUARD_VECTORS
    first = eigensolver._FIRST_WIDTH * block
    model, eps = even_block(-0.25, 5.0, 0.002, 2000)
    n = model.blocks["even"].shape[0]
    widened = spy_on_widening(monkeypatch)
    op = CountingOperator(model.blocks["even"])
    vals, vecs = eigh_lowest(op, k)
    assert first < op.columns <= max_subspace(k)
    wide = max_subspace(k)
    assert widened == [(n, wide), (n, wide), (wide, wide)]
    ref = np.linalg.eigvalsh(dense_block(-0.25, 5.0, eps, 2000, "even"))[:k]
    assert np.max(np.abs(vals - ref)) < 1e-12 * np.max(np.abs(ref))
    assert_operator_residual_contract(model.blocks["even"], vals, vecs)


def test_solve_that_outgrows_the_workspace_and_restarts(monkeypatch):
    # at rho 50, n_max 10000 the same solve applies 107 columns: it widens
    # once and then restarts within max_dim.  The dense block (5000 x 5000)
    # is too large; the references are the k = 3 solve, whose workspace
    # starts at max_dim, and the strip-model ground state
    k = 2
    model, _ = even_block(-0.25, 50.0, 0.002, 10000)
    n = model.blocks["even"].shape[0]
    widened = spy_on_widening(monkeypatch)
    op = CountingOperator(model.blocks["even"])
    vals, vecs = eigh_lowest(op, k)
    assert op.columns > max_subspace(k)
    wide = max_subspace(k)
    assert widened == [(n, wide), (n, wide), (wide, wide)]
    widened.clear()
    wider, _ = eigh_lowest(model.blocks["even"], 3, want_vectors=False)
    assert widened == []
    ground, _ = matmech.ground_state(model, want_vectors=False)
    assert vals == pytest.approx(wider[:k], rel=1e-12)
    assert vals[0] == pytest.approx(ground[0], rel=1e-12)
    assert_operator_residual_contract(model.blocks["even"], vals, vecs)


def test_table1_generic_solves_keep_the_first_workspace(monkeypatch):
    # k = 1 at the Table 1 couplings applies at most 24 columns, the
    # starting width of a block of 3
    widened = spy_on_widening(monkeypatch)
    eps = matmech.epsilon_from_delta(refdata.TABLE1_DELTA, 5.0)
    for alpha in sorted(refdata.TABLE1):
        model = matmech.assemble(alpha, 5.0, eps, 2000)
        op = CountingOperator(model.blocks["even"])
        eigh_lowest(op, 1, want_vectors=False)
        assert op.columns <= eigensolver._FIRST_WIDTH * (
            1 + eigensolver._GUARD_VECTORS)
    assert widened == []


def test_start_block_from_the_caller():
    # an exact eigenvector as the start: the first Ritz pair converges
    a = random_symmetric(200, 5)
    w, v = np.linalg.eigh(a)
    op = CountingOperator(a)
    vals, vecs = eigh_lowest(op, 1, start=3.0 * v[:, 0])
    assert op.columns == 1
    assert vals[0] == pytest.approx(w[0], rel=1e-12)
    assert_residual_contract(a, vals, vecs)


def test_start_block_narrower_than_k_rejected():
    a = random_symmetric(60, 1)
    with pytest.raises(DomainError, match="start spans 1"):
        eigh_lowest(a, 2, start=np.ones(60))


def rank_one_model(n, seed, sigma):
    """diag(d0) + sigma u u^T with spread, shuffled d0, and its parts."""
    rng = np.random.default_rng(seed)
    d0 = (2.0 * np.arange(n) + 1.0) ** 2 + rng.uniform(-0.5, 0.5, n)
    rng.shuffle(d0)
    u = rng.standard_normal(n)
    return d0, u, np.diag(d0) + sigma * np.outer(u, u)


@pytest.mark.parametrize("n", [5, 60, 400])
@pytest.mark.parametrize("sigma", [-1e-3, -1.0, -50.0, -1e4])
def test_rank_one_root_matches_dense(n, sigma):
    d0, u, model = rank_one_model(n, n, sigma)
    want = np.linalg.eigvalsh(model)[0]
    got = eigensolver.rank_one_root(d0, u, sigma)
    assert got < np.min(d0)
    assert got == pytest.approx(want, rel=1e-6)


def test_rank_one_root_of_the_strip_model():
    # the even block's own strip model at alpha -1/4, table1's cutoff,
    # n_max 400
    model = matmech.assemble(-0.25, 5.0, matmech.epsilon_from_delta(
        refdata.TABLE1_DELTA, 5.0), 400)
    sigma = 2.0 * model.epsilon * matmech.v_epsilon(
        model.alpha, model.rho, model.epsilon)
    u = matmech._sinc(0.5 * np.pi * model.epsilon * model.indices["even"])
    u[1::2] = -u[1::2]
    d0 = model.blocks["even"].diagonal() - sigma * u * u
    want = np.linalg.eigvalsh(np.diag(d0) + sigma * np.outer(u, u))[0]
    got = eigensolver.rank_one_root(d0, u, sigma)
    assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("sigma,u", [(0.0, np.ones(4)), (2.0, np.ones(4)),
                                     (-1.0, np.zeros(4))])
def test_rank_one_root_domain(sigma, u):
    with pytest.raises(DomainError):
        eigensolver.rank_one_root(np.arange(4.0), u, sigma)


def test_rank_one_preconditioner_matches_dense_solve():
    n, sigma = 120, -50.0
    d0, u, model = rank_one_model(n, 3, sigma)
    values = np.linalg.eigvalsh(model)
    # below the spectrum, between two eigenvalues, far above
    theta = np.array([values[0] - 3.0, 0.5 * (values[4] + values[5]),
                      2.0 * values[-1]])
    resid = np.random.default_rng(4).standard_normal((n, 3))
    got = eigensolver.rank_one_preconditioner(d0, u, sigma)(
        resid, theta, 0.0)
    for j in range(3):
        want = np.linalg.solve(model - theta[j] * np.eye(n), resid[:, j])
        assert np.max(np.abs(got[:, j] - want)) < 1e-10 * np.max(np.abs(want))


def test_rank_one_preconditioner_falls_back_at_the_model_root():
    # at the model's own eigenvalue 1 + sigma u^T (d0 - theta)^-1 u
    # vanishes: that column takes the diagonal correction, the other
    # column still the Sherman-Morrison one
    n, sigma = 80, -50.0
    d0, u, model = rank_one_model(n, 8, sigma)
    root = np.linalg.eigvalsh(model)[0]
    secular = 1.0 + sigma * np.sum(u * u / (d0 - root))
    assert abs(secular) < eigensolver._RANK_ONE_FLOOR
    theta = np.array([root, root - 10.0])
    resid = np.random.default_rng(9).standard_normal((n, 2))
    got = eigensolver.rank_one_preconditioner(d0, u, sigma)(
        resid, theta, 0.0)
    assert np.array_equal(got[:, 0],
                          resid[:, 0] / ((d0 + sigma * u * u) - root))
    want = np.linalg.solve(model - theta[1] * np.eye(n), resid[:, 1])
    assert np.max(np.abs(got[:, 1] - want)) < 1e-10 * np.max(np.abs(want))
