import dataclasses
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from conftest import dense_block, dense_wavefunction, element, simpson
from pseudoharm import matmech, refdata, regspec
from pseudoharm.eigensolver import eigh_lowest
from pseudoharm.errors import DomainError
from pseudoharm.unreg import PotentialSpec


class TestElements:
    def test_kinetic_diagonal_exact(self):
        # n^2 is exact in floats up to n ~ 2^26; the assembled diagonal
        # carries it through the g/h/k tables untouched
        eps = 1e-3
        model = matmech.assemble(0.0, 50.0, eps, 12)
        for block in ("even", "odd"):
            idx = model.indices[block]
            for i, n in enumerate(idx):
                kin = float(n) ** 2
                pot = element(int(n), int(n), 0.0, 50.0, eps) - kin
                assert model.blocks[block].diagonal()[i] - pot == \
                    pytest.approx(kin, rel=1e-13)

    def test_l_table_vanishes_at_zero_index(self):
        # l_eps(0) = 0 means k_eps(0) = (2/eps)(1-eps)
        g, h, k = matmech._coupling_tables(0.3, 25.0, 0.01, 8)
        assert k[0] == pytest.approx((2.0 / 0.01) * (1.0 - 0.01), rel=1e-14)

    def test_element_matches_assembled_matrix(self):
        # the scalar element oracle against the vectorized dense oracle
        model = matmech.assemble(-0.07, 25.0, 0.02, 30)
        for block in ("even", "odd"):
            idx = model.indices[block]
            mat = dense_block(-0.07, 25.0, 0.02, 30, block)
            for i in (0, 2, 5):
                for j in (1, 3, 9):
                    want = element(int(idx[i]), int(idx[j]),
                                   -0.07, 25.0, 0.02)
                    assert mat[i, j] == pytest.approx(want, rel=1e-12,
                                                      abs=1e-15)

    @pytest.mark.parametrize("alpha,rho,eps,n_max", [
        (-0.3, 5.0, 0.005, 301),        # alpha < -1/4: experimental regime
        (0.0, 50.0, 1e-3, 800),
        (0.6, 25.0, 0.02, 160),
        (-0.05, 5.0, matmech.epsilon_from_delta(0.002, 5.0), 2000),
        (0.1, 25.0, 0.3, 41),
    ])
    def test_operator_matches_dense_block(self, alpha, rho, eps, n_max):
        model = matmech.assemble(alpha, rho, eps, n_max)
        rng = np.random.default_rng(n_max)
        for block in ("even", "odd"):
            mat = dense_block(alpha, rho, eps, n_max, block)
            op = model.blocks[block]
            assert op.shape == mat.shape
            assert np.array_equal(op.diagonal(), np.diagonal(mat))
            xs = rng.standard_normal((mat.shape[0], 3))
            want = mat @ xs
            for got in (op @ xs, np.column_stack([op @ x for x in xs.T])):
                err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert err < 1e-14, (block, err)

    @pytest.mark.parametrize("alpha,rho,eps,n_max", [
        (-0.3, 5.0, 0.005, 301),
        (0.0, 50.0, 1e-3, 800),
        (0.6, 25.0, 0.02, 160),
        (-0.1, 25.0, matmech.epsilon_from_delta(0.01, 25.0), 1600),
    ])
    def test_eigh_lowest_matches_dense_eigh(self, alpha, rho, eps, n_max):
        model = matmech.assemble(alpha, rho, eps, n_max)
        for block in ("even", "odd"):
            ref = np.linalg.eigh(dense_block(alpha, rho, eps, n_max, block))[0]
            for k in (1, 4):
                vals, _ = eigh_lowest(model.blocks[block], k)
                assert np.max(np.abs(vals - ref[:k]) / np.abs(ref[:k])) \
                    < 1e-10, (block, k)

    def test_odd_index_sum_elements_vanish(self):
        assert element(3, 4, 0.2, 25.0, 0.01) == 0.0
        assert element(2, 7, -0.1, 25.0, 0.01) == 0.0

    def test_symmetry_exact(self):
        for block in ("even", "odd", "full"):
            mat = dense_block(0.1, 25.0, 1e-2, 40, block)
            assert np.array_equal(mat, mat.T)

    def test_triangles_agree_via_pure_element(self):
        # build both triangles independently from the pure element function
        n_max = 14
        full = np.empty((n_max, n_max))
        for n in range(1, n_max + 1):
            for m in range(1, n_max + 1):
                full[n - 1, m - 1] = element(n, m, -0.05, 25.0, 0.02)
        assert np.max(np.abs(full - full.T)) == 0.0

    def test_harmonic_diagonal_vs_quadrature(self):
        # the x-dependent harmonic element against direct quadrature of
        # (pi^2 rho^2/4) (u-1/2)^2 (2 sin^2(n pi u)) outside the strip
        rho, eps = 25.0, 1e-3
        g, h, k = matmech._coupling_tables(0.0, rho, eps, 12)
        pr2 = math.pi ** 2 * rho ** 2 / 4.0
        for n in (1, 2, 5):
            analytic = 2.0 * pr2 * ((1.0 - eps ** 3) / 24.0 - h[n])

            def f(u):
                if abs(u - 0.5) < eps / 2.0:
                    return 0.0
                return (u - 0.5) ** 2 * 2.0 * math.sin(n * math.pi * u) ** 2

            oracle = pr2 * simpson(f, 0.0, 1.0, n=40001)
            assert analytic == pytest.approx(oracle, rel=1e-8), n

    def test_vconst_strip_value(self):
        # v_eps in box units equals (delta^2 + alpha/delta^2)/2 in hw units
        rho, delta = 5.0, 0.002
        eps = matmech.epsilon_from_delta(delta, rho)
        v = matmech.v_epsilon(-0.05, rho, eps)
        hw = (delta ** 2 + -0.05 / delta ** 2) / 2.0
        assert v / rho == pytest.approx(hw, rel=1e-12)

    def test_assemble_validation(self):
        with pytest.raises(DomainError):
            matmech.assemble(0.1, 25.0, 0.6, 40)
        with pytest.raises(DomainError):
            matmech.assemble(0.1, 25.0, 0.01, 3)
        with pytest.raises(DomainError):
            matmech.assemble(0.1, -1.0, 0.01, 40)
        for alpha in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="alpha must be finite"):
                matmech.assemble(alpha, 25.0, 0.01, 40)
        for rho in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="rho must be finite"):
                matmech.assemble(0.1, rho, 0.01, 40)

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf])
    def test_epsilon_from_delta_validation(self, rho):
        with pytest.raises(DomainError, match="rho must be finite"):
            matmech.epsilon_from_delta(0.01, rho)

    @pytest.mark.parametrize("k", [0, -2])
    def test_eigensolve_validation(self, k):
        model = matmech.assemble(0.1, 25.0, 0.01, 40)
        with pytest.raises(DomainError, match="k must be >= 1"):
            matmech.eigensolve(model, k)


class TestSpectra:
    def test_parity_blocks_match_full_matrix(self):
        # the full matrix from the pure element function against the
        # spectra of the two parity blocks
        n_max = 40
        full = np.array([[element(n, m, 0.1, 25.0, 1e-2)
                          for m in range(1, n_max + 1)]
                         for n in range(1, n_max + 1)])
        ev_split = np.sort(np.concatenate(
            [np.linalg.eigvalsh(dense_block(0.1, 25.0, 1e-2, n_max, block))
             for block in ("even", "odd")]))
        ev_full = np.linalg.eigvalsh(full)
        assert np.max(np.abs(ev_split - ev_full)
                      / np.maximum(np.abs(ev_full), 1.0)) < 1e-12

    def test_oscillator_limit(self):
        model = matmech.assemble(0.0, 50.0, 1e-3, 800)
        pairs = matmech.eigensolve(model, 3)
        lowest = pairs[0]
        assert lowest.block == "even"
        assert lowest.energy / 50.0 == pytest.approx(0.5, rel=1e-3)
        # the first few levels alternate parity with unit spacing
        for i, p in enumerate(pairs[:6]):
            assert p.energy / 50.0 == pytest.approx(0.5 + i, rel=1e-3)

    def test_rayleigh_ritz_monotone_in_basis_size(self):
        eps = matmech.epsilon_from_delta(0.002, 5.0)
        vals = []
        for n_max in (400, 800, 1600):
            model = matmech.assemble(-0.05, 5.0, eps, n_max)
            v, _ = eigh_lowest(model.blocks["even"], 1, want_vectors=False)
            vals.append(v[0])
        assert vals[0] > vals[1] > vals[2]

    def test_cross_method_convergence_to_transcendental(self):
        ref = regspec.solve_ground_even(PotentialSpec(-0.05, 0.002)).energy
        eps = matmech.epsilon_from_delta(0.002, 5.0)
        gaps = []
        for n_max in (500, 1000, 2000):
            model = matmech.assemble(-0.05, 5.0, eps, n_max)
            v, _ = eigh_lowest(model.blocks["even"], 1, want_vectors=False)
            gaps.append(abs(v[0] / 5.0 - ref))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] / abs(ref) < 1e-4

    def test_box_size_independence_for_excited_states(self):
        # energies of confined excited states cannot depend on the
        # fabricated box once the basis resolves the fine scale
        delta = 0.01
        for alpha in (-0.1, 0.1):
            ref = [regspec.solve_excited(PotentialSpec(alpha, delta), p, n).energy
                   for p, n in (("even", 0), ("odd", 0), ("even", 1))]
            for rho, n_max in ((25.0, 1600), (50.0, 2300)):
                eps = matmech.epsilon_from_delta(delta, rho)
                model = matmech.assemble(alpha, rho, eps, n_max)
                ve, _ = eigh_lowest(model.blocks["even"], 3, want_vectors=False)
                vo, _ = eigh_lowest(model.blocks["odd"], 2, want_vectors=False)
                got = [ve[0] / rho, vo[0] / rho, ve[1] / rho]
                if alpha < 0:
                    got = [ve[1] / rho, vo[0] / rho, ve[2] / rho]
                for g, r in zip(got, ref):
                    assert g == pytest.approx(r, rel=2e-6), (alpha, rho)

    def test_compact_box_reference_value(self):
        # rho = 5, n_max = 10000 reference ground energy
        eps = matmech.epsilon_from_delta(0.002, refdata.COMPACT_BOX_RHO)
        model = matmech.assemble(-0.05, refdata.COMPACT_BOX_RHO, eps,
                                 refdata.COMPACT_BOX_NMAX)
        v, _ = eigh_lowest(model.blocks["even"], 1, want_vectors=False)
        assert v[0] / refdata.COMPACT_BOX_RHO == pytest.approx(
            refdata.COMPACT_BOX_GROUND_HW, rel=1e-5)


class TestReconstruction:
    def _ground(self, alpha=-0.1, delta=0.01, rho=5.0, n_max=1200):
        eps = matmech.epsilon_from_delta(delta, rho)
        model = matmech.assemble(alpha, rho, eps, n_max)
        pairs = matmech.eigensolve(model, 1)
        return model, pairs[0]

    def test_endpoints_vanish(self):
        model, pair = self._ground()
        a_box = math.pi * math.sqrt(model.rho / 2.0)
        psi = matmech.reconstruct_wavefunction(pair, model, [0.0, a_box])
        assert psi[0] == 0.0 and psi[1] == pytest.approx(0.0, abs=1e-10)

    def test_even_block_symmetry_about_centre(self):
        model, pair = self._ground()
        a_box = math.pi * math.sqrt(model.rho / 2.0)
        xs = np.linspace(0.1, 0.9, 7) * a_box
        psi = matmech.reconstruct_wavefunction(pair, model, xs)
        psi_ref = matmech.reconstruct_wavefunction(pair, model, a_box - xs)
        assert np.max(np.abs(psi - psi_ref)) < 1e-10 * np.max(np.abs(psi))

    def test_sign_convention(self):
        model, pair = self._ground()
        a_box = math.pi * math.sqrt(model.rho / 2.0)
        xs = np.linspace(0.5 * a_box, 0.6 * a_box, 50)
        psi = matmech.reconstruct_wavefunction(pair, model, xs)
        first = psi[np.abs(psi) > 1e-8]
        assert first[0] > 0.0

    def test_grid_domain_checked(self):
        model, pair = self._ground(n_max=200)
        with pytest.raises(DomainError):
            matmech.reconstruct_wavefunction(pair, model, [-0.1])

    def test_fidelity_against_transcendental_ground_state(self):
        spec = PotentialSpec(-0.1, 0.01)
        sol = regspec.solve_ground_even(spec)
        wf = regspec.build_wavefunction(spec, sol)
        model, pair = self._ground(n_max=2000)
        a_box = math.pi * math.sqrt(model.rho / 2.0)
        half = 0.45 * a_box
        xs = np.linspace(-half, half, 801)
        psi_m = matmech.reconstruct_wavefunction(pair, model, xs + 0.5 * a_box)
        psi_t = wf(xs)
        dx = xs[1] - xs[0]
        overlap = abs(np.sum(psi_m * psi_t) * dx)
        norm_m = np.sum(psi_m ** 2) * dx
        norm_t = np.sum(psi_t ** 2) * dx
        fidelity = overlap / math.sqrt(norm_m * norm_t)
        assert fidelity > 0.999

    def test_non_finite_grid_rejected(self):
        model, pair = self._ground(n_max=200)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                matmech.reconstruct_wavefunction(pair, model, [bad, 1.0])

    def test_two_dimensional_grid_rejected(self):
        model, pair = self._ground(n_max=200)
        for grid in ([[0.5, 1.0]], [[0.5, 1.0], [2.0, 3.0]]):
            with pytest.raises(DomainError):
                matmech.reconstruct_wavefunction(pair, model, grid)

    def test_empty_and_scalar_grids(self):
        model, pair = self._ground(n_max=200)
        empty = matmech.reconstruct_wavefunction(pair, model, [])
        assert empty.shape == (0,)
        scalar = matmech.reconstruct_wavefunction(pair, model, 1.0)
        assert scalar.shape == (1,)
        assert scalar == matmech.reconstruct_wavefunction(pair, model, [1.0])

    def test_pair_without_vectors_rejected(self):
        model, _ = self._ground(n_max=200)
        pair = matmech.eigensolve(model, 1, want_vectors=False)[0]
        with pytest.raises(DomainError, match="n_max_used=200"):
            matmech.reconstruct_wavefunction(pair, model, [1.0])

    def test_pair_from_other_basis_rejected(self):
        eps = matmech.epsilon_from_delta(0.01, 5.0)
        small = matmech.assemble(-0.1, 5.0, eps, 5)
        model = matmech.assemble(-0.1, 5.0, eps, 6)
        # n_max 5 and 6 share the even block (1, 3, 5): only n_max tells
        for pair in matmech.eigensolve(small, 2):
            with pytest.raises(DomainError, match="model.n_max=6"):
                matmech.reconstruct_wavefunction(pair, model, [1.0])
        pair = matmech.eigensolve(model, 1)[0]
        short = dataclasses.replace(pair, coefficients=pair.coefficients[:-1])
        with pytest.raises(DomainError, match="block size=3"):
            matmech.reconstruct_wavefunction(short, model, [1.0])

    def test_pair_from_other_model_rejected(self):
        # same n_max and block sizes: only the model parameters tell
        model, pair = self._ground(n_max=200)
        eps25 = matmech.epsilon_from_delta(0.01, 25.0)
        for other in (matmech.assemble(-0.1, 25.0, eps25, 200),
                      matmech.assemble(-0.1, 25.0, model.epsilon, 200),
                      matmech.assemble(-0.2, 5.0, model.epsilon, 200)):
            with pytest.raises(DomainError, match="another model"):
                matmech.reconstruct_wavefunction(pair, other, [1.0])
        assert (pair.alpha, pair.rho, pair.epsilon) \
            == (model.alpha, model.rho, model.epsilon)


# isqrt(n) does not divide the block size n, so the last coefficient row is
# zero-padded, at n_max 11 (odd block, n = 5), 21 (n = 11 and 10) and 1600
# (n = 800); it divides at the other sizes
@pytest.mark.parametrize("n_max", [4, 5, 6, 7, 11, 17, 21, 200, 1600])
def test_wavefunction_matches_dense_oracle(n_max):
    rho = 25.0
    model = matmech.assemble(-0.1, rho, matmech.epsilon_from_delta(0.01, rho),
                             n_max)
    a_box = math.pi * math.sqrt(rho / 2.0)
    uniform = np.linspace(0.0, a_box, 801)
    grids = (uniform,
             np.random.default_rng(n_max).uniform(0.0, a_box, 97),
             np.array([0.0, a_box]),
             np.array([]))
    pairs = matmech.eigensolve(model, 3)
    assert {p.block for p in pairs} == {"even", "odd"}
    for pair in pairs:
        scale = np.max(np.abs(dense_wavefunction(pair, model, uniform)))
        for xs in grids:
            psi = matmech.reconstruct_wavefunction(pair, model, xs)
            want = dense_wavefunction(pair, model, xs)
            assert psi.shape == want.shape
            assert np.all(np.abs(psi - want) <= 1e-13 * scale)


def test_wavefunction_matches_30_digit_sum():
    rho = 25.0
    model = matmech.assemble(0.1, rho, matmech.epsilon_from_delta(0.01, rho),
                             1600)
    a_box = math.pi * math.sqrt(rho / 2.0)
    xs = np.concatenate([np.random.default_rng(5).uniform(0.0, a_box, 4),
                         [0.37 * a_box, 0.5 * a_box, 0.93 * a_box]])
    with mp.workdps(30):
        for pair in matmech.eigensolve(model, 2):
            scale = np.max(np.abs(matmech.reconstruct_wavefunction(
                pair, model, np.linspace(0.0, a_box, 801))))
            psi = matmech.reconstruct_wavefunction(pair, model, xs)
            idx = model.indices[pair.block]
            norm = mp.sqrt(2 / mp.mpf(a_box))
            want = np.array([float(norm * mp.fsum(
                mp.mpf(c) * mp.sin(int(m) * mp.mpf(x / a_box * math.pi))
                for c, m in zip(pair.coefficients, idx))) for x in xs])
            sign = math.copysign(1.0, float(np.dot(psi, want)))
            assert np.max(np.abs(psi - sign * want)) <= 1e-14 * scale


def test_wavefunction_peak_allocation():
    # the direct len(x) x n sine table alone is 801 x 800 doubles (5.1 MB)
    rho = 25.0
    model = matmech.assemble(0.1, rho, matmech.epsilon_from_delta(0.01, rho),
                             1600)
    pair = matmech.eigensolve(model, 1)[0]
    xs = np.linspace(0.0, math.pi * math.sqrt(rho / 2.0), 801)
    matmech.reconstruct_wavefunction(pair, model, xs)
    tracemalloc.start()
    try:
        matmech.reconstruct_wavefunction(pair, model, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
