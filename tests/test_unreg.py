import math

import numpy as np
import pytest

from pseudoharm.errors import DomainError
from pseudoharm.quadrature import integrate
from pseudoharm.unreg import (BranchLabel, PotentialSpec, label_from_display,
                              make_label, nu_of_alpha, unreg_energy, unreg_psi)


class TestNu:
    def test_known_values(self):
        assert nu_of_alpha(0.0) == pytest.approx(1.0, rel=1e-15)
        assert nu_of_alpha(-0.25) == pytest.approx(0.5, rel=1e-15)
        assert nu_of_alpha(0.75) == pytest.approx(1.5, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            nu_of_alpha(-0.2500001)


class TestSpecAndLabels:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            PotentialSpec(-0.3)            # unregularized needs alpha >= -1/4
        with pytest.raises(DomainError):
            PotentialSpec(-0.1, 0.3)       # cutoff range (0, 0.2)
        PotentialSpec(-0.3, 0.01)          # regularized allows lower alpha

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("delta", [None, 0.01])
    def test_spec_rejects_non_finite_alpha(self, alpha, delta):
        with pytest.raises(DomainError, match="alpha must be finite"):
            PotentialSpec(alpha, delta)

    def test_display_relabelling(self):
        assert make_label(-0.1, "even", 0).n_display == 1
        assert make_label(-0.1, "odd", 0).n_display == 0
        assert make_label(0.1, "even", 0).n_display == 0
        assert make_label(0.0, "even", 2).n_display == 2
        lbl = label_from_display(-0.1, "even", 3)
        assert lbl.n == 2
        with pytest.raises(DomainError):
            label_from_display(-0.1, "even", 0)

    def test_label_validation(self):
        with pytest.raises(DomainError):
            BranchLabel("sideways", 0, 0)
        with pytest.raises(DomainError):
            BranchLabel("even", -1, 0)


class TestEnergies:
    def test_oscillator_tower(self):
        spec = PotentialSpec(0.0)
        sol = unreg_energy(spec, make_label(0.0, "odd", 0))
        assert sol.energy == 1.5
        for n in range(4):
            sol = unreg_energy(spec, make_label(0.0, "odd", n))
            assert sol.energy == 2.0 * n + 1.5  # exact float arithmetic

    def test_critical_coupling(self):
        sol = unreg_energy(PotentialSpec(-0.25), make_label(-0.25, "odd", 0))
        assert sol.energy == pytest.approx(1.0, rel=1e-15)

    def test_generic_value_cross_checked_with_regularized_solver(self):
        spec = PotentialSpec(0.1)
        sol = unreg_energy(spec, make_label(0.1, "odd", 2))
        assert sol.energy == pytest.approx(5.0 + math.sqrt(0.35), rel=1e-15)
        from pseudoharm.regspec import solve_excited
        reg = solve_excited(PotentialSpec(0.1, 1e-6), "odd", 2)
        # the regularized level sits 2*eps_n ~ -1.1e-8 below the closed form
        assert reg.energy == pytest.approx(sol.energy, abs=2e-8)

    def test_parity_degeneracy_bit_identical(self):
        for alpha in np.linspace(-0.24, 2.0, 13):
            spec = PotentialSpec(float(alpha))
            for n in range(6):
                e_even = unreg_energy(spec, make_label(alpha, "even", n)).energy
                e_odd = unreg_energy(spec, make_label(alpha, "odd", n)).energy
                assert e_even == e_odd  # bit-identical

    def test_energy_kappa_relation(self):
        sol = unreg_energy(PotentialSpec(0.3), make_label(0.3, "even", 1))
        assert sol.energy == sol.kappa + 0.5

    def test_display_label_jump_is_relabelling_only(self):
        # underlying radial quantum number does not change across alpha = 0
        e_neg = unreg_energy(PotentialSpec(-1e-9), make_label(-1e-9, "even", 1))
        e_pos = unreg_energy(PotentialSpec(+1e-9), make_label(+1e-9, "even", 1))
        assert e_neg.energy == pytest.approx(e_pos.energy, abs=1e-8)
        assert e_neg.label.n_display == 2
        assert e_pos.label.n_display == 1

    def test_odd_energies_continuous_through_zero(self):
        vals = [unreg_energy(PotentialSpec(a), make_label(a, "odd", 1)).energy
                for a in (-1e-6, 0.0, 1e-6)]
        assert abs(vals[2] - vals[0]) < 1e-5
        assert vals[0] < vals[1] < vals[2]


class TestWaveFunctions:
    def test_vanishes_at_origin(self):
        for alpha, parity, n in [(-0.1, "even", 0), (0.1, "odd", 1), (1.0, "even", 2)]:
            spec = PotentialSpec(alpha)
            assert unreg_psi(spec, make_label(alpha, parity, n), 0.0) == 0.0

    def test_odd_antisymmetry(self):
        spec = PotentialSpec(0.1)
        lbl = make_label(0.1, "odd", 1)
        assert unreg_psi(spec, lbl, -0.7) == -unreg_psi(spec, lbl, 0.7)

    def test_even_symmetry(self):
        spec = PotentialSpec(-0.1)
        lbl = make_label(-0.1, "even", 1)
        assert unreg_psi(spec, lbl, -1.3) == unreg_psi(spec, lbl, 1.3)

    def test_normalization(self):
        spec = PotentialSpec(-0.1)
        lbl = make_label(-0.1, "even", 0)
        val = integrate(lambda x: unreg_psi(spec, lbl, x) ** 2, -12.0, 12.0,
                        rel_tol=1e-12)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_orthonormality(self):
        for alpha in (-0.1, 0.1, 1.0):
            spec = PotentialSpec(alpha)
            for parity in ("even", "odd"):
                labels = [make_label(alpha, parity, n) for n in range(5)]
                for i, li in enumerate(labels):
                    for lj in labels[i:]:
                        val = integrate(
                            lambda x: unreg_psi(spec, li, x) * unreg_psi(spec, lj, x),
                            -12.0, 12.0, rel_tol=1e-11, abs_tol=1e-12)
                        expect = 1.0 if li.n == lj.n else 0.0
                        assert val == pytest.approx(expect, abs=1e-9), \
                            (alpha, parity, li.n, lj.n)

    def test_schroedinger_residual_five_point(self):
        # -psi'' + (x^2 + alpha/x^2) psi = 2 E psi on x in [0.2, 6]
        alpha = 0.3
        spec = PotentialSpec(alpha)
        lbl = make_label(alpha, "odd", 2)
        sol = unreg_energy(spec, lbl)
        h = 1e-2
        xs = np.arange(0.2, 6.0, 0.04)
        worst = 0.0
        scale = 0.0
        for x in xs:
            f = [unreg_psi(spec, lbl, x + k * h) for k in (-2, -1, 0, 1, 2)]
            d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
            resid = -d2 + (x * x + alpha / (x * x)) * f[2] - 2.0 * sol.energy * f[2]
            worst = max(worst, abs(resid))
            scale = max(scale, abs(f[2]))
        assert worst < 1e-5 * scale

    def test_array_evaluation(self):
        spec = PotentialSpec(0.2)
        lbl = make_label(0.2, "odd", 1)
        xs = np.linspace(-2, 2, 9)
        vals = unreg_psi(spec, lbl, xs)
        assert vals.shape == xs.shape
        assert vals[4] == 0.0
