import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (eig_condition_residual, exterior_ratio, hyperu_ref,
                      one_sided_derivative, scalar_window_check,
                      scan_sign_changes)
from pseudoharm import asymptotics, regspec
from pseudoharm.specfun import (bessel, hyper, tricomi_u, u_pair_shift_a,
                                u_ratio_z_evaluator)
from pseudoharm.errors import BracketError, DomainError, PseudoharmError
from pseudoharm.quadrature import integrate, integrate_to_infinity
from pseudoharm.rootfind import brent
from pseudoharm.unreg import PotentialSpec, make_label, nu_of_alpha, unreg_psi

TABLE1_TRICOMI = {
    -0.25: -11295.301683,
    -0.20: -8056.826663,
    -0.15: -5149.852852,
    -0.10: -2679.724708,
    -0.05: -828.4898894,
}


class TestResidual:
    def test_sign_change_brackets_root_when_pole_excluded(self):
        # the raw condition has a root/U-zero pair within ~delta^(2nu-1) of
        # kappa = 2n + nu, so a bracket containing both shows no net sign
        # change; the entire rescaling used for scanning resolves the root
        spec = PotentialSpec(0.1, 1e-4)
        nu = nu_of_alpha(0.1)
        r_lo = eig_condition_residual(spec, "odd", nu - 0.01)
        r_hi = eig_condition_residual(spec, "odd", nu + 0.01)
        assert r_lo * r_hi > 0.0  # pole shadows the root at this width
        g = regspec._entire_residual(spec, "odd")
        assert g(nu - 0.01) * g(nu + 0.01) < 0.0
        # straddling just the root (the U-zero sits ~1.5e-6 above it) the
        # raw residual does change sign
        root = regspec.solve_excited(spec, "odd", 0).kappa
        assert eig_condition_residual(spec, "odd", root - 1e-7) \
            * eig_condition_residual(spec, "odd", root + 1e-7) < 0.0

    def test_residual_vanishes_at_reference_ground_state(self):
        # above a = 4 the residual is divided by U(a): the raw condition
        # times cos(u) > 0
        spec = PotentialSpec(-0.05, 0.002)
        kappa = -828.4898894 - 0.5
        res = regspec._entire_residual(spec, "even")(kappa)
        d2 = spec.delta ** 2
        nu = nu_of_alpha(spec.alpha)
        ratio = exterior_ratio(0.5 * (nu - kappa), nu + 0.5, d2)
        s2 = regspec.signed_q_squared(spec, kappa)
        rhs = asymptotics._cos_family(s2) * (d2 - kappa - 1.0 - 2.0 * ratio)
        assert abs(res) < 1e-6 * abs(rhs)

    @pytest.mark.parametrize("alpha,delta,parity,kappa", [
        (0.1, 1e-3, "odd", 1.2), (0.1, 1e-3, "even", 0.7),
        (-0.1, 0.01, "odd", 2.95), (-0.1, 0.01, "even", 3.1),
        (0.3, 0.01, "even", -6.0),                      # evanescent
        (-0.05, 0.002, "even", -829.2), (-0.2, 0.01, "even", -300.0)])
    def test_entire_residual_is_the_scaled_condition(self, alpha, delta,
                                                     parity, kappa):
        # the raw condition times U(a) (1 above a = 4) and the entire
        # factor cos(u) (even) or sin(u)/u (odd), continued to the
        # evanescent regime
        spec = PotentialSpec(alpha, delta)
        nu = nu_of_alpha(alpha)
        a = 0.5 * (nu - kappa)
        u0 = 1.0 if a > hyper._LAPLACE_A \
            else tricomi_u(a, nu + 0.5, delta * delta)
        s2 = regspec.signed_q_squared(spec, kappa)
        factor = asymptotics._cos_family(s2) if parity == "even" \
            else asymptotics._sinc_family(s2)
        raw = eig_condition_residual(spec, parity, kappa)
        got = regspec._entire_residual(spec, parity)(kappa)
        assert got == pytest.approx(factor * u0 * raw, rel=1e-9)

    def test_requires_regularized(self):
        with pytest.raises(DomainError):
            regspec.solve_excited(PotentialSpec(0.1), "odd", 0)
        with pytest.raises(DomainError):
            regspec.solve_ground_even(PotentialSpec(-0.1))


class TestMatchingState:
    def test_regime_exclusivity(self):
        # the sign of (q d)^2 tracks alpha: oscillatory for the attractive
        # states and the runaway ground state, evanescent for repulsive ones
        for alpha, kappa, oscillatory in [(-0.1, 0.9, True),
                                          (0.1, 1.1, False),
                                          (-0.05, -829.0, True)]:
            s2 = regspec.signed_q_squared(PotentialSpec(alpha, 1e-3), kappa)
            assert (s2 > 0.0) == oscillatory

    def test_analytic_families_continuous_at_zero(self):
        for fam in (asymptotics._sinc_family, asymptotics._cos_family):
            below = fam(-1e-5)
            above = fam(1e-5)
            assert below == pytest.approx(above, abs=1e-4)

    def test_families_match_trig_forms(self):
        u = 0.7
        assert asymptotics._sinc_family(u * u) == pytest.approx(math.sin(u) / u, rel=1e-14)
        assert asymptotics._cos_family(u * u) == pytest.approx(math.cos(u), rel=1e-14)
        v = 1.3
        assert asymptotics._sinc_family(-v * v) == pytest.approx(math.sinh(v) / v, rel=1e-14)
        assert asymptotics._cos_family(-v * v) == pytest.approx(math.cosh(v), rel=1e-14)


class TestSolveExcited:
    def test_approaches_closed_form(self):
        spec = PotentialSpec(0.1, 1e-4)
        sol = regspec.solve_excited(spec, "odd", 0)
        # eps_n ~ delta^(2nu-1) leaves a ~1.3e-6 correction here
        assert abs(sol.kappa - nu_of_alpha(0.1)) < 2e-6

    def test_monotone_convergence_in_delta(self):
        nu = nu_of_alpha(-0.1)
        devs = [abs(regspec.solve_excited(PotentialSpec(-0.1, d), "odd", 1).kappa
                    - (2.0 + nu)) for d in (1e-2, 1e-3, 1e-4)]
        assert devs[0] > devs[1] > devs[2]

    def test_near_degenerate_pair_ordering(self):
        # even states sit slightly above their odd partners here
        spec = PotentialSpec(-0.05, 1e-3)
        for n in (0, 1, 2):
            e_odd = regspec.solve_excited(spec, "odd", n).energy
            e_even = regspec.solve_excited(spec, "even", n).energy
            assert 0.0 < e_even - e_odd < 0.05

    def test_display_labels(self):
        sol = regspec.solve_excited(PotentialSpec(-0.1, 1e-3), "even", 0)
        assert sol.label.n_display == 1
        sol = regspec.solve_excited(PotentialSpec(0.1, 1e-3), "even", 0)
        assert sol.label.n_display == 0

    def test_alpha_zero_matches_odd_oscillator(self):
        sol = regspec.solve_excited(PotentialSpec(0.0, 1e-3), "odd", 1)
        assert sol.energy == pytest.approx(3.5, abs=1e-5)

    def test_bracket_error_reports_window(self):
        # the level spacing of 2 means realistic specs always yield a root
        # inside the widened window; the no-bracket path is contract-tested
        # on a sign-definite function
        with pytest.raises(BracketError) as exc:
            regspec._scan_for_root(lambda k: 1.0 + k * k, seed=3.0,
                                   windows=(0.5, 1.0), step=0.05,
                                   context=dict(parity="odd", n=1))
        assert exc.value.context["seed"] == 3.0
        assert "parity" in exc.value.context

    @pytest.mark.parametrize("alpha,delta", [(-0.1, 0.19), (-0.25, 0.1),
                                             (-0.24, 0.15), (-0.2, 0.19),
                                             (0.1, 0.19)])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_large_cutoff_roots_are_indexed(self, alpha, delta, parity):
        # the seed 2n + nu can lie nearer another state's root at large
        # delta (alpha -0.1, delta 0.19: even n = 1 and 2 both gave 3.866);
        # the root continued in delta is the n-th root of a full scan from
        # kappa = 0, below which lies only the runaway ground state
        spec = PotentialSpec(alpha, delta)
        kappas = [regspec.solve_excited(spec, parity, n).kappa
                  for n in range(6)]
        assert all(k1 > k0 for k0, k1 in zip(kappas, kappas[1:]))
        g = regspec._entire_residual(spec, parity)
        roots = [brent(g, lo, hi, xtol=1e-13) for lo, hi in
                 scan_sign_changes(g, 0.0, kappas[-1] + 1.0, 0.02)]
        assert len(roots) == 6
        for kappa, root in zip(kappas, roots):
            assert abs(kappa - root) <= 1e-10 * root

    @pytest.mark.parametrize("alpha", [-0.25, 0.75])  # b = 1 and b = 2
    @pytest.mark.parametrize("delta", [1e-4, 1e-3, 1e-2])
    def test_integer_b_against_40_digit_solve(self, alpha, delta):
        # the U pair at integer b comes from the point evaluator (the
        # straddled connection formula before left 6.3e-11 at alpha -1/4);
        # the reference roots the entire condition with mpmath's hyperu
        import mpmath as mp

        spec = PotentialSpec(alpha, delta)
        with mp.workdps(40):
            d2 = mp.mpf(delta) ** 2
            nu = mp.mpf(1) / 2 + mp.sqrt(mp.mpf(1) / 4 + mp.mpf(alpha))

            def entire(k, parity):
                s2 = (2 * k + 1) * d2 - (d2 * d2 + mp.mpf(alpha))
                u = mp.sqrt(s2)  # imaginary in the evanescent regime
                cos, sinc = mp.re(mp.cos(u)), mp.re(mp.sin(u) / u)
                num, den = (-s2 * sinc, cos) if parity == "even" \
                    else (cos, sinc)
                u0 = mp.hyperu((nu - k) / 2, nu + mp.mpf(1) / 2, d2)
                u1 = mp.hyperu((nu - k) / 2 - 1, nu + mp.mpf(1) / 2, d2)
                return num * u0 - den * ((d2 - k - 1) * u0 - 2 * u1)

            for parity in ("even", "odd"):
                for n in range(3):
                    kappa = regspec.solve_excited(spec, parity, n).kappa
                    ref = mp.findroot(lambda k: entire(k, parity),
                                      (mp.mpf(kappa) - 1e-7,
                                       mp.mpf(kappa) + 1e-7),
                                      solver="anderson")
                    assert abs((kappa - ref) / ref) < 1e-12, (parity, n)

    def test_continuation_raises_when_the_root_is_lost(self, monkeypatch):
        # a residual without a root near the continued seed
        monkeypatch.setattr(regspec, "_entire_residual",
                            lambda spec, parity: lambda k: 1.0 + k * k)
        monkeypatch.setattr(regspec, "_seeded_root",
                            lambda spec, parity, n, n_display: 1.0)
        with pytest.raises(BracketError) as exc:
            regspec.solve_excited(PotentialSpec(0.1, 0.1), "odd", 0)
        assert exc.value.context["n"] == 0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            regspec.solve_excited(PotentialSpec(-0.3, 0.01), "odd", 0)
        with pytest.raises(DomainError):
            regspec.solve_excited(PotentialSpec(0.1, 0.01), "odd", 51)


# The 160-solve grid: kappa of even n = 0..3 then odd n = 0..3 for each
# (alpha, delta), as the full-window scan with bisection and secant polish
# found them.  The outward scan with Brent agrees to 2.5e-13.
GRID_KAPPAS = {
    (-0.2, 0.01): (
        0.878664578702516, 2.921180102468094, 4.949430977753579,
        6.971448940478187, 0.744331130673966, 2.7491387166181243,
        4.752125030737038, 6.754359953440102),
    (-0.2, 0.002): (
        0.7893252970912518, 2.805666506223489, 4.8161169387558935,
        6.824083990475011, 0.7334870797453771, 2.7357363732288538,
        4.737122722622512, 6.7381551350322395),
    (-0.2, 0.001): (
        0.7702201873836568, 2.7814937788631866, 4.788620113780143,
        6.794013242255651, 0.7308155161202705, 2.7324487920828187,
        4.733453472201163, 6.734200715924962),
    (-0.2, 0.0001): (
        0.7393210016471923, 2.7429353016643128, 4.745172477914792,
        6.746843026821041, 0.726157266115667, 2.726730255843119,
        4.727081491711052, 6.727342148636158),
    (-0.1, 0.01): (
        1.0104550057708677, 3.058842634197825, 5.0928748170836835,
        7.1200770066034815, 0.8895858560165556, 2.8904726703601886,
        4.891088323451616, 6.891578530067052),
    (-0.1, 0.002): (
        0.9206208895702861, 2.93368596209187, 4.942846911370555,
        6.95019199140434, 0.8879550296649464, 2.888209442509281,
        4.888385961550561, 6.888526455991624),
    (-0.1, 0.001): (
        0.9065655595703018, 2.914086507336014, 4.919339377553188,
        6.9235400173754575, 0.8876821201527585, 2.8878307857653756,
        4.88793392329581, 6.888016005810773),
    (-0.1, 0.0001): (
        0.8904941468860336, 2.8917336679050303, 4.892594542245899,
        6.893280225816085, 0.8873628074420002, 2.887387778399333,
        4.887405099930193, 6.887418884077997),
    (0.1, 0.01): (
        1.0614292472108446, 3.043106556743209, 5.028354043458032,
        7.0155047127062975, 1.09131146010728, 3.0911360031404036,
        5.09099636538328, 7.0908757330341),
    (0.1, 0.002): (
        1.0871224409333013, 3.0844572885478554, 5.082331572362471,
        7.0804919558992525, 1.0915638194562154, 3.0915376936922225,
        5.091516902303526, 7.091498940995376),
    (0.1, 0.001): (
        1.089633226541231, 3.0884627018158226, 5.087530249146704,
        7.086724079990749, 1.0915885321699914, 3.0915770274696537,
        5.091567871898762, 7.091559962624763),
    (0.1, 0.0001): (
        1.0914784975728586, 3.091401886003849, 5.091340914088354,
        7.091288239460766, 1.0916067029973682, 3.0916059485113254,
        5.091605348087928, 7.091604829400299),
    (0.3, 0.01): (
        1.23832303297187, 3.2358576498908143, 5.233697462117933,
        7.231712682550901, 1.2414326130983897, 3.241293703196868,
        5.241172708247778, 7.24106211106111),
    (0.3, 0.002): (
        1.241317806163849, 3.2410936255368137, 5.240898288302435,
        7.240719679578184, 1.2416026462673921, 3.2415898880615246,
        5.241578777748764, 7.241568624062131),
    (0.3, 0.001): (
        1.2415118344976201, 3.24143170576114, 5.241361913495676,
        7.241298119840387, 1.2416136957232158, 3.2416091324754452,
        5.241605158708061, 7.241601527151669),
    (0.3, 0.0001): (
        1.2416162989960406, 3.241613666432489, 5.24161137395306,
        7.2416092789036535, 1.2416196464804508, 3.2416194965032434,
        5.241619365901547, 7.241619246548106),
    (0.6, 0.01): (
        1.4215663508256764, 3.421207638201183, 5.420862149261438,
        7.42052494126322, 1.4218989497541517, 3.4218477715894746,
        5.421798579693947, 7.421750657973438),
    (0.6, 0.002): (
        1.4219345119113809, 3.421916130993858, 5.4218984648788835,
        7.421881256072647, 1.4219515922765742, 3.421948961475393,
        5.421946433294867, 7.421943970848619),
    (0.6, 0.001): (
        1.421948893142305, 3.421943773676602, 5.421938853782725,
        7.421934061692201, 1.421953650859354, 3.421952918021433,
        5.42195221377741, 7.421951527851248),
    (0.6, 0.0001): (
        1.4219543661908651, 3.421954292860008, 5.421954222390674,
        7.421954153754569, 1.4219544343428998, 3.4219544238451673,
        5.421954413757083, 7.4219544039314425),
}


def _grid_solves():
    for (alpha, delta), kappas in GRID_KAPPAS.items():
        spec = PotentialSpec(alpha, delta)
        for i, kappa in enumerate(kappas):
            yield spec, ("even", "odd")[i // 4], i % 4, kappa


def _count_scans(monkeypatch):
    """A one-item list that counts the outward scans of regspec."""
    scans = [0]
    scan = regspec.scan_outward

    def counted(*args):
        scans[0] += 1
        return scan(*args)

    monkeypatch.setattr(regspec, "scan_outward", counted)
    return scans


class TestTranscendentalGrid:
    def test_kappas_match_the_full_scan(self):
        worst = max(abs(regspec.solve_excited(spec, parity, n).kappa - want)
                    for spec, parity, n, want in _grid_solves())
        assert worst < 1e-12

    def test_outward_scan_picks_the_full_scan_bracket(self, monkeypatch):
        # the nearest of all brackets on the same grid, for every scan the
        # solves make; the grid holds 3 far seeds (the root more than one
        # step away)
        scan = regspec.scan_outward

        def checked(g, seed, lo, hi, step):
            got = scan(g, seed, lo, hi, step)
            brackets = scan_sign_changes(g, lo, hi, step)
            want = min(brackets, default=None,
                       key=lambda br: abs(0.5 * (br[0] + br[1]) - seed))
            assert (None if got is None else got[:2]) == want, (seed, got)
            return got

        monkeypatch.setattr(regspec, "scan_outward", checked)
        far = 0
        for spec, parity, n, kappa in _grid_solves():
            regspec.solve_excited(spec, parity, n)
            n_display = make_label(spec.alpha, parity, n).n_display
            seed, _ = regspec._seed(spec, parity, n, n_display)
            far += abs(kappa - seed) > 0.05
        assert far == 3

    def test_the_seeds_bracket_serves_most_solves(self, monkeypatch):
        # a solve that makes no scan closed the narrow bracket of _seed
        scans = _count_scans(monkeypatch)
        solves = list(_grid_solves())
        unscanned = 0
        for spec, parity, n, _ in solves:
            before = scans[0]
            regspec.solve_excited(spec, parity, n)
            unscanned += scans[0] == before
        assert unscanned >= 0.85 * len(solves)

    @pytest.mark.parametrize("alpha,parity,scanned", [
        (-0.249, "even", True),   # the seed misses by about 76 corr^2
        (-0.25, "even", True),    # corr = 0: no bracket
        (-0.25, "odd", True),
        (0.75, "even", False),    # integer b; the law holds
        (1.0, "even", True),      # the law fails at this delta
    ])
    def test_bracket_or_fallback_gives_the_scans_root(self, monkeypatch,
                                                      alpha, parity, scanned):
        spec = PotentialSpec(alpha, 0.01)
        scans = _count_scans(monkeypatch)
        kappa = regspec.solve_excited(spec, parity, 0).kappa
        assert (scans[0] > 0) == scanned
        monkeypatch.setattr(regspec, "_SEED_LAW", math.inf)  # scan only
        want = regspec.solve_excited(spec, parity, 0).kappa
        assert abs(kappa - want) < 1e-12

    def test_residual_evaluation_budget(self, monkeypatch):
        count = [0]
        residual = regspec._entire_residual

        def counted(spec, parity):
            g = residual(spec, parity)

            def h(kappa):
                count[0] += 1
                return g(kappa)
            return h

        monkeypatch.setattr(regspec, "_entire_residual", counted)
        solves = list(_grid_solves())
        for spec, parity, n, _ in solves:
            regspec.solve_excited(spec, parity, n)
        assert len(solves) == 160
        assert count[0] / len(solves) <= 5.5

    def test_gamma_work_per_residual_evaluation(self, monkeypatch):
        # the U pair of a residual evaluation shares 1/Gamma(b), 1/Gamma(2-b)
        # across the solve and takes 1/Gamma(1+a-b), 1/Gamma(a) per a: 2
        # rgamma calls where two tricomi_u calls made 8.  Every evaluation
        # of this grid is on the plain connection formula (a <= 0.1, off
        # the integers), where the shared factors serve.
        calls, per_evaluation = [0], []
        rgamma = hyper.rgamma

        def counting(x):
            calls[0] += 1
            return rgamma(x)

        residual = regspec._entire_residual

        def counted(spec, parity):
            g = residual(spec, parity)

            def h(kappa):
                before = calls[0]
                value = g(kappa)
                per_evaluation.append(calls[0] - before)
                return value
            return h

        monkeypatch.setattr(hyper, "rgamma", counting)
        monkeypatch.setattr(regspec, "_entire_residual", counted)
        for spec, parity, n, _ in _grid_solves():
            regspec.solve_excited(spec, parity, n)
        assert len(per_evaluation) > 700
        assert max(per_evaluation) <= 2

    def test_second_window(self):
        # a root 1.0 from the seed lies outside the first window only
        kappa = regspec._scan_for_root(lambda k: k - 4.0, seed=3.0,
                                       windows=(0.55, 1.4), step=0.05,
                                       context={})
        assert kappa == pytest.approx(4.0, abs=1e-12)


# solve_ground_even's grid: couplings from -1/4 to near 0, cutoffs from
# 1e-4 to its bound 5e-2
_GROUND_ALPHAS = [-0.25, -0.25 + 2.5e-11, -0.2499, -0.2, -0.15, -0.1, -0.05,
                  -0.01, -0.001]
_GROUND_DELTAS = [1e-4, 2e-3, 1e-2, 5e-2]


def _error_against_30_digits(spec, kappa):
    """|kappa - ref|/|ref| for ref the root of the same matching condition
    by mpmath at 30 digits, the secant started within 1e-9 of kappa."""
    import mpmath as mp

    with mp.workdps(30):
        a_mp, d2 = mp.mpf(spec.alpha), mp.mpf(spec.delta) ** 2
        nu = mp.mpf(0.5) + mp.sqrt(mp.mpf(0.25) + a_mp)
        b = nu + mp.mpf(0.5)

        def residual(k):
            u = mp.sqrt((2 * k + 1) * d2 - (d2 * d2 + a_mp))
            ratio = mp.hyperu((nu - k) / 2 - 1, b, d2) \
                / mp.hyperu((nu - k) / 2, b, d2)
            return -u * mp.tan(u) - (d2 - k - 1 - 2 * ratio)

        ref = mp.findroot(residual, (mp.mpf(kappa) * (1 - 1e-9),
                                     mp.mpf(kappa) * (1 + 1e-9)),
                          solver="secant")
        return float(abs((kappa - ref) / ref))


class TestSolveGround:
    @pytest.mark.parametrize("alpha,ref", sorted(TABLE1_TRICOMI.items()))
    def test_reference_table(self, alpha, ref):
        sol = regspec.solve_ground_even(PotentialSpec(alpha, 0.002))
        assert sol.energy == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("alpha", sorted(TABLE1_TRICOMI)
                             + [-0.25 + 2.5e-11, -0.2499])
    def test_against_30_digit_solve(self, alpha):
        # the same matching condition solved by mpmath at 30 digits; the
        # root amplifies the exterior ratio's relative error by 1e3 to 1e4
        spec = PotentialSpec(alpha, 0.002)
        kappa = regspec.solve_ground_even(spec).kappa
        assert _error_against_30_digits(spec, kappa) < 1.5e-11

    @pytest.mark.parametrize("alpha", sorted(TABLE1_TRICOMI))
    @pytest.mark.parametrize("delta", [1e-4, 2e-3, 1e-2])
    def test_table1_couplings_to_brents_stop(self, alpha, delta):
        # on the E[1/t] form nothing of size |kappa| cancels, so kappa
        # meets the condition within Brent's stop, 1e-12 relative, plus
        # rounding: 2.3e-13 at worst (alpha -0.1, delta 2e-3)
        spec = PotentialSpec(alpha, delta)
        kappa = regspec.solve_ground_even(spec).kappa
        assert _error_against_30_digits(spec, kappa) < 2e-12

    def test_residual_evaluations_on_the_grid(self, monkeypatch):
        # 5.8 evaluations a solve on average, 4 to 7 where a > 4 (10.1 and
        # 6 to 18 on the former form, which cancelled two numbers of size
        # |kappa|)
        counts = []
        entire = regspec._entire_residual

        def counting(spec, parity):
            g = entire(spec, parity)

            def h(kappa):
                counts[-1] += 1
                return g(kappa)
            return h

        monkeypatch.setattr(regspec, "_entire_residual", counting)
        for alpha in _GROUND_ALPHAS:
            for delta in _GROUND_DELTAS:
                counts.append(0)
                spec = PotentialSpec(alpha, delta)
                kappa = regspec.solve_ground_even(spec).kappa
                a = regspec._hyper_args(spec, kappa)[0]
                assert a <= hyper._LAPLACE_A or counts[-1] <= 7, \
                    (alpha, delta, counts[-1])
        assert sum(counts) / len(counts) <= 6.5

    def test_oscillatory_tan_branch(self):
        spec = PotentialSpec(-0.1, 1e-3)
        sol = regspec.solve_ground_even(spec)
        assert sol.kappa < 0.0
        s2 = regspec.signed_q_squared(spec, sol.kappa)
        assert 0.0 < s2 < (0.5 * math.pi) ** 2

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            regspec.solve_ground_even(PotentialSpec(0.1, 1e-3))
        with pytest.raises(DomainError):
            regspec.solve_ground_even(PotentialSpec(-0.1, 0.1))


class TestInterlacing:
    def test_parity_gap_shrinks_with_delta(self):
        for alpha in (-0.1, 0.1):
            gaps = []
            for delta in (1e-2, 1e-3, 1e-4):
                spec = PotentialSpec(alpha, delta)
                gap = abs(regspec.solve_excited(spec, "even", 0).energy
                          - regspec.solve_excited(spec, "odd", 0).energy)
                gaps.append(gap)
            assert gaps[0] > gaps[1] > gaps[2], alpha

    def test_alpha_continuity_at_fixed_delta(self):
        # level curves are continuous through alpha = 0 at fixed cutoff.
        # Every curve rises monotonically in alpha (Hellmann-Feynman); the
        # even curves sweep a whole level across a narrow zone around zero
        # with unbounded slope at 0, so continuity shows up as adjacent-step
        # sizes that keep shrinking under grid refinement rather than as a
        # fixed bound.
        delta = 0.01

        def local_roots(alpha, parity, lo, hi):
            spec = PotentialSpec(alpha, delta)
            g = regspec._entire_residual(spec, parity)
            return np.array([brent(g, b_lo, b_hi) + 0.5
                             for b_lo, b_hi in
                             scan_sign_changes(g, lo, hi, 0.04)])

        def track(parity, step, e_start):
            alphas = np.arange(-0.08, 0.0801, step)
            e = e_start
            out = [e]
            for a in alphas[1:]:
                roots = local_roots(round(float(a), 12), parity,
                                    e - 1.2, e + 1.2)
                assert roots.size, (parity, a, e)
                e = float(roots[np.argmin(np.abs(roots - e))])
                out.append(e)
            return np.array(out)

        # odd curves are gentle: small bounded steps
        odd = track("odd", 0.02, 3.414)  # internal n = 1 at alpha = -0.08
        assert np.max(np.abs(np.diff(odd))) < 0.05
        assert np.all(np.diff(odd) > 0.0)

        # even curve through the steep crossover zone: monotone rise, and
        # refinement keeps shrinking the largest step (no jump survives it)
        max_steps = []
        for step in (0.02, 0.01, 0.0025):
            curve = track("even", step, 3.598)  # internal n = 1
            diffs = np.diff(curve)
            assert np.all(diffs > -1e-9)
            max_steps.append(diffs.max())
        assert max_steps[0] > max_steps[1] > max_steps[2]
        assert max_steps[2] < 0.5 * max_steps[0]


class TestWaveFunction:
    def _build(self, alpha, delta, parity, n):
        spec = PotentialSpec(alpha, delta)
        sol = regspec.solve_excited(spec, parity, n)
        return spec, sol, regspec.build_wavefunction(spec, sol)

    def test_value_continuity(self):
        spec, sol, wf = self._build(-0.1, 0.01, "odd", 0)
        d = spec.delta
        gap = abs(wf(d * (1 - 1e-12)) - wf(d * (1 + 1e-12)))
        assert gap < 1e-10 * abs(wf(d))

    def test_log_derivative_continuity(self):
        spec, sol, wf = self._build(-0.1, 0.01, "odd", 0)
        d = spec.delta
        h = 1e-5 * d
        left = one_sided_derivative(wf, d, h, -1) / wf(d)
        right = one_sided_derivative(wf, d, h, +1) / wf(d)
        assert right == pytest.approx(left, rel=1e-7)

    def test_normalization(self):
        for alpha, parity, n in [(-0.1, "odd", 0), (0.1, "even", 1)]:
            spec, sol, wf = self._build(alpha, 0.01, parity, n)
            norm = 2.0 * (integrate(lambda x: wf(x) ** 2, 0.0, spec.delta,
                                    rel_tol=1e-12)
                          + integrate_to_infinity(lambda x: wf(x) ** 2,
                                                  spec.delta, rel_tol=1e-11))
            assert norm == pytest.approx(1.0, abs=1e-8)

    def test_ground_state_wavefunction_continuity(self):
        spec = PotentialSpec(-0.1, 1e-3)
        sol = regspec.solve_ground_even(spec)
        wf = regspec.build_wavefunction(spec, sol)
        d = spec.delta
        assert abs(wf(d * (1 - 1e-12)) - wf(d * (1 + 1e-12))) \
            < 1e-10 * abs(wf(d))
        h = 1e-4 * d
        left = one_sided_derivative(wf, d, h, -1) / wf(d)
        right = one_sided_derivative(wf, d, h, +1) / wf(d)
        assert right == pytest.approx(left, rel=1e-7)

    @staticmethod
    def _closed_expression(spec, sol, wf, x):
        # the piecewise closure written out for one point, with the exterior
        # ratio from an evaluator built for this one point, called on a
        # one-point array (numpy's array power and exp, as in the sampler)
        d = spec.delta
        sign = math.copysign(1.0, x) if sol.label.parity == "odd" else 1.0
        ax = abs(x)
        if ax <= d:
            s2 = regspec.signed_q_squared(spec, sol.kappa)
            t = ax / d
            if sol.label.parity == "odd":
                wave = t * asymptotics._sinc_family(s2 * t * t)
            else:
                wave = asymptotics._cos_family(s2 * t * t)
            return sign * wf.inner_coeff * wave
        a, b, z0 = regspec._hyper_args(spec, sol.kappa)
        xa = np.array([ax])
        y2 = xa * xa
        rel = (xa / d) ** sol.nu * np.exp(-0.5 * (y2 - d * d)) \
            * u_ratio_z_evaluator(a, b, z0)(y2)
        return sign * wf.outer_coeff * float(rel[0])

    @pytest.mark.parametrize("alpha,delta,parity,n", [
        (0.1, 1e-3, "odd", 1), (-0.1, 0.01, "even", 1),
        (0.75, 0.01, "even", 0), (-0.1, 1e-3, "even", None)])
    def test_samples_equal_per_point_closed_expression(self, alpha, delta,
                                                       parity, n):
        spec = PotentialSpec(alpha, delta)
        if n is None:
            sol = regspec.solve_ground_even(spec)
        else:
            sol = regspec.solve_excited(spec, parity, n)
        wf = regspec.build_wavefunction(spec, sol)
        xs = np.concatenate([np.linspace(-6.0, 6.0, 601),
                             [delta, -delta, 0.5 * delta, 4.6, -5.9]])
        psi = wf(xs)
        for x, p in zip(xs, psi):
            x = float(x)
            assert p == self._closed_expression(spec, sol, wf, x), x
            assert wf(x) == p

    @pytest.mark.parametrize("alpha,delta,parity,n", [
        (-0.1, 0.01, "odd", 0), (-0.1, 0.01, "even", 1),   # oscillatory
        (0.1, 1e-3, "odd", 1), (0.75, 0.01, "even", 0),    # evanescent
        (-1e-5, 1e-3, "odd", 1),                           # |s2| < 1e-4
        (-0.1, 1e-3, "even", None)])                       # ground state
    def test_inner_samples_match_trig_forms(self, alpha, delta, parity, n):
        # the interior written out as sin(q x)/u, cos(q x) (or sinh, cosh),
        # u = q delta, independently of the s2 families
        spec = PotentialSpec(alpha, delta)
        if n is None:
            sol = regspec.solve_ground_even(spec)
        else:
            sol = regspec.solve_excited(spec, parity, n)
        wf = regspec.build_wavefunction(spec, sol)
        s2 = regspec.signed_q_squared(spec, sol.kappa)
        u = math.sqrt(abs(s2))
        sin, cos = (math.sin, math.cos) if s2 > 0.0 else (math.sinh, math.cosh)
        xs = np.linspace(-delta, delta, 41)
        psi = wf(xs)
        scale = max(np.max(np.abs(psi)),
                    np.max(np.abs(wf(np.linspace(-6.0, 6.0, 601)))))
        for x, p in zip(xs, psi):
            t = abs(x) / delta
            if parity == "odd":
                want = math.copysign(1.0, x) * sin(u * t) / u
            else:
                want = cos(u * t)
            assert abs(p - wf.inner_coeff * want) <= 1e-14 * scale, x

    def test_gamma_work_is_per_state_not_per_point(self, monkeypatch):
        # the Gamma factors of the exterior are computed when the wave
        # function is built;
        # sampling it, or integrating its norm, costs no further rgamma call
        calls = []

        def counting(fn):
            def wrapped(x):
                calls.append(x)
                return fn(x)
            return wrapped

        states = [(PotentialSpec(0.1, 1e-3), "odd", 1),   # connection, 1/z
                  (PotentialSpec(0.75, 0.01), "even", 0),  # integer b
                  (PotentialSpec(-0.1, 1e-3), "even", None)]  # ground state
        sols = [regspec.solve_ground_even(spec) if n is None
                else regspec.solve_excited(spec, parity, n)
                for spec, parity, n in states]
        for mod in (hyper, bessel):
            monkeypatch.setattr(mod, "rgamma", counting(mod.rgamma))
        for (spec, _, _), sol in zip(states, sols):
            counts = []
            for n_points in (61, 601):
                calls.clear()
                wf = regspec.build_wavefunction(spec, sol)
                wf(np.linspace(-6.0, 6.0, n_points))
                counts.append(len(calls))
            assert counts[0] == counts[1] <= 8, (spec, counts)

    def test_single_points_of_u_take_the_point_evaluator(self, monkeypatch):
        # the array evaluator serves sample arrays only: no call reaches it
        # from tricomi_u, from the pair's fallback at integer b, from an
        # excited solve at integer b or from building a wave function, and
        # the first sampling of the wave function makes the first call
        sizes = []
        array_path = hyper._log_abs_u

        def counted(a, b, z):
            sizes.append(z.size)
            return array_path(a, b, z)

        monkeypatch.setattr(hyper, "_log_abs_u", counted)
        for a, b, z in [(-1.3, 2.0, 0.5), (0.3, 1.7, 25.0), (45.0, 1.7, 1e-3),
                        (-30.5, 1.45, 1e-6)]:
            tricomi_u(a, b, z)
        for b in (1.0, 2.0):
            for a in (-0.3, -2.7, -20.2, 0.5, 3.5):
                u_pair_shift_a(b, 1e-4)(a)
        wfs = []
        for alpha in (-0.25, 0.75):
            spec = PotentialSpec(alpha, 0.01)
            for parity in ("even", "odd"):
                sol = regspec.solve_excited(spec, parity, 1)
                wfs.append(regspec.build_wavefunction(spec, sol))
        assert sizes == []
        wfs[0](np.array([0.5, 1.0, 2.0]))
        assert sizes == [3]

    def test_each_distinct_abs_x_evaluated_once(self):
        # x and -x, and repeats, share one evaluation with the bits of
        # the point evaluated alone
        spec, sol, wf = self._build(-0.1, 0.01, "odd", 1)
        sizes = []
        outer_rel = wf.outer_rel
        wf.outer_rel = lambda x: sizes.append(x.size) or outer_rel(x)
        xs = [-2.0, 2.0, 2.0, 0.5, -0.005, 0.005, 0.005]
        psi = wf(np.array(xs)).tolist()
        assert sizes == [2]
        assert psi == [wf(x) for x in xs]

    def test_far_tail_probes_evaluate_nothing(self):
        # integrate_to_infinity probes up to 2^60 first widths out, where
        # (x/delta)^nu overflows for nu > 17; the Gaussian factor has
        # underflowed there, and the exterior is 0.0 with no warning
        spec = PotentialSpec(300.0, 0.01)
        wf = regspec.build_wavefunction(
            spec, regspec.solve_excited(spec, "even", 0))
        x = spec.delta * (1.0 + 2.0 ** np.arange(40, 61))
        assert wf.outer_rel(x).tolist() == [0.0] * x.size

    def test_odd_antisymmetric_even_symmetric(self):
        spec, sol, wf = self._build(-0.1, 0.01, "odd", 1)
        assert wf(-0.5) == -wf(0.5)
        assert wf(0.0) == 0.0
        spec, sol, wf = self._build(-0.1, 0.01, "even", 0)
        assert wf(-0.5) == wf(0.5)

    def test_converges_to_unregularized(self):
        # max-norm distance to the closed-form eigenfunction shrinks with
        # the cutoff (the two curve families become identical)
        alpha, parity, n = -0.1, "odd", 0
        xs = np.linspace(0.05, 5.0, 160)
        spec0 = PotentialSpec(alpha)
        label = make_label(alpha, parity, n)
        ref = unreg_psi(spec0, label, xs)
        dists = []
        for delta in (0.05, 0.01, 0.002):
            spec, sol, wf = self._build(alpha, delta, parity, n)
            dists.append(np.max(np.abs(wf(xs) - ref)))
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 1e-3  # the even/odd families converge ~delta^(2nu-1)


def _psi_reference(spec, sol, wf, xs):
    """The same state (same kappa, same amplitude inner_coeff) at 20 digits:
    cos(u t) or sin(u t)/u inside, x^nu e^(-x^2/2) U(a, b, x^2) outside,
    continuous at the cutoff."""
    import mpmath as mp

    with mp.workdps(30):
        d = mp.mpf(spec.delta)
        u = mp.sqrt(mp.mpf(regspec.signed_q_squared(spec, sol.kappa)))
        odd = sol.label.parity == "odd"

        def wave(t):
            return mp.re(mp.sin(u * t) / u if odd else mp.cos(u * t))

        a, b, z0 = regspec._hyper_args(spec, sol.kappa)
        u0 = hyperu_ref(a, b, z0)
        match = wf.inner_coeff * wave(1)
        out = []
        for x in xs:
            sign = -1 if (odd and x < 0) else 1
            ax = abs(mp.mpf(x))
            if ax <= d:
                val = wf.inner_coeff * wave(ax / d)
            else:
                val = match * (ax / d) ** sol.nu \
                    * mp.exp(-(ax * ax - d * d) / 2) \
                    * hyperu_ref(a, b, ax * ax) / u0
            out.append(sign * val)
        return out


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(alpha=st.one_of(st.floats(-0.25, 3.0),
                       st.sampled_from([-0.25, -0.25 + 1e-12, -1e-9, 0.0,
                                        1e-9, 0.75, 2.0])),
       delta=st.floats(-5.0, math.log10(0.2)).map(lambda t: 10.0 ** t),
       state=st.sampled_from(["ground", "even", "odd"]),
       n=st.integers(0, 30),
       ends=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)))
# the ground-state exterior that took the log of a negative number
@example(alpha=-0.1, delta=0.005, state="ground", n=0, ends=(-12.0, 12.0))
def test_wavefunction_raises_only_package_errors(alpha, delta, state, n,
                                                 ends):
    # solve, build and sample over any x range: finite samples or a
    # PseudoharmError, never another exception or a warning
    try:
        spec = PotentialSpec(alpha, delta)
        sol = (regspec.solve_ground_even(spec) if state == "ground"
               else regspec.solve_excited(spec, state, n))
        psi = regspec.build_wavefunction(spec, sol)(
            np.linspace(min(ends), max(ends), 41))
    except PseudoharmError:
        return
    assert np.all(np.isfinite(psi)), psi


class TestWaveFunctionAgainstReference:
    """Regularized samples against 20 digits, to 1e-12 of max|psi| on
    x in [-12, 12], and the program's own norm within 1e-10 of 1."""

    @staticmethod
    def _check(spec, sol, xs):
        from pseudoharm import cli

        wf = regspec.build_wavefunction(spec, sol)
        psi = wf(np.asarray(xs))
        ref = _psi_reference(spec, sol, wf, xs)
        scale = max(abs(float(r)) for r in ref)
        worst = max(abs(float(p - r)) for p, r in zip(psi.tolist(), ref))
        assert worst <= 1e-12 * scale, worst / scale
        norm = cli._norm_report(wf, spec)["norm"]
        assert abs(norm - 1.0) <= 1e-10, norm
        # the amplitude itself, by a tight quadrature of the samples split
        # at the cutoff's scales, carries the 1e-12 of the samples
        edges = [0.0, spec.delta] + [e for e in (0.01, 0.1, 1.0, 4.0, 8.0,
                                                 16.0) if e > spec.delta]
        tight = 2.0 * sum(integrate(lambda x: wf(x) ** 2, lo, hi,
                                    rel_tol=1e-14, abs_tol=1e-300)
                          for lo, hi in zip(edges, edges[1:]))
        assert abs(tight - 1.0) <= 2e-12, tight

    @pytest.mark.parametrize("alpha", [-0.2, 0.1, 0.6])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("n,delta", [(0, 1e-3), (1, 1e-3), (12, 1e-3),
                                         (30, 1e-3), (1, 1e-4), (12, 1e-2)])
    def test_excited(self, alpha, parity, n, delta):
        spec = PotentialSpec(alpha, delta)
        sol = regspec.solve_excited(spec, parity, n)
        xs = list(np.linspace(-12.0, 12.0, 25)) \
            + [0.5 * delta, delta, -1.5 * delta, 0.05, -0.3, 1.7, 4.1]
        self._check(spec, sol, xs)

    @pytest.mark.parametrize("alpha,delta", [(-0.15, 1e-2), (-0.2, 2e-3),
                                             (-0.05, 1e-4)])
    def test_ground(self, alpha, delta):
        spec = PotentialSpec(alpha, delta)
        sol = regspec.solve_ground_even(spec)
        decay = 1.0 / math.sqrt(2.0 * abs(sol.energy))
        xs = [0.0, 0.5 * delta, -delta, 12.0, -12.0, 1.0] \
            + [s * k * decay for k in (0.5, 1, 2, 4, 8, 16, 30)
               for s in (1.0, -1.0)]
        self._check(spec, sol, xs)


def _check_slope(spec, sol, bound):
    """build_wavefunction's exterior integral int_delta^inf (f/f(delta))^2
    dx = (dR/da - 1)/(2 delta) within bound, relative, of 40 digits, with
    R = U(a-1, b, delta^2)/U(a, b, delta^2) and dR/da by mpmath's numerical
    derivative of mpmath's U; and R from the same pass within 2e-15."""
    import mpmath as mp

    a, b, z = regspec._hyper_args(spec, sol.kappa)
    ratio, _ = hyper.u_ratio_slope_a(a, b, z)
    wf = regspec.build_wavefunction(spec, sol)
    got = wf.outer_integral / wf.outer_coeff ** 2
    with mp.workdps(40):
        b, z = mp.mpf(b), mp.mpf(z)

        def ratio_ref(x):
            return mp.hyperu(x - 1, b, z, maxprec=2000) \
                / mp.hyperu(x, b, z, maxprec=2000)

        a = mp.mpf(a)
        ref = (mp.diff(ratio_ref, a) - 1) / (2 * mp.mpf(spec.delta))
        assert abs(float((got - ref) / ref)) <= bound, (spec, sol.label)
        assert abs(float(ratio / ratio_ref(a) - 1)) <= 2e-15, \
            (spec, sol.label)


class TestExteriorNormFromSlope:
    """build_wavefunction's exterior integral, from the energy slope of the
    exterior log-derivative, against 40 digits.  The bounds are about twice
    the largest errors measured on these grids: 1.2e-13 on the excited
    states (alpha -0.1, delta 1e-4, even n 30, where dR/da - 1 is the
    difference of two terms 300 times larger) and 2.9e-14 on the ground
    states (alpha -0.001, delta 2e-3, a = 0.91, on the recurrence).  R
    itself erred by 8.9e-16 at most (alpha -0.25, delta 1e-4, even n 0)."""

    @pytest.mark.parametrize("alpha", [-0.25, -0.2, -0.1, 0.1, 0.6, 3.5])
    @pytest.mark.parametrize("delta", [1e-4, 1e-3, 1e-2])
    def test_excited(self, alpha, delta):
        spec = PotentialSpec(alpha, delta)
        for parity in ("even", "odd"):
            for n in (0, 1, 12, 30):
                _check_slope(spec, regspec.solve_excited(spec, parity, n),
                             2.5e-13)

    @pytest.mark.parametrize("alpha", [-0.25, -0.25 + 2.5e-11, -0.2499,
                                       -0.2, -0.15, -0.1, -0.05, -0.01,
                                       -0.001])
    def test_ground(self, alpha):
        # solve_ground_even's grid; where a <= 4 (alpha -0.001 from delta
        # 2e-3, -0.01 from 1e-2, -0.05 and -0.1 at 5e-2) the slope comes
        # from the recurrence
        for delta in (1e-4, 2e-3, 1e-2, 5e-2):
            spec = PotentialSpec(alpha, delta)
            _check_slope(spec, regspec.solve_ground_even(spec), 6e-14)

    def test_scalar_window_on_the_slope_grids(self):
        # the math-module window of one point against the array code on
        # the two grids above: the same node counts, the ends at most 1 ulp
        # apart (0.25 on the ground states)
        states = []
        for alpha in _GROUND_ALPHAS:
            for delta in _GROUND_DELTAS:
                spec = PotentialSpec(alpha, delta)
                states.append((spec, regspec.solve_ground_even(spec)))
        for alpha in (-0.25, -0.2, -0.1, 0.1, 0.6, 3.5):
            for delta in (1e-4, 1e-3, 1e-2):
                spec = PotentialSpec(alpha, delta)
                states += [(spec, regspec.solve_excited(spec, parity, n))
                           for parity in ("even", "odd")
                           for n in (0, 1, 12, 30)]
        for spec, sol in states:
            counts, ulps = scalar_window_check(
                *regspec._hyper_args(spec, sol.kappa))
            assert counts[0] == counts[1] and ulps <= 4.0, \
                (spec, sol.label, counts, ulps)

    def test_build_calls_no_quadrature(self, monkeypatch):
        from pseudoharm import quadrature

        def refuse(*args, **kwargs):
            raise AssertionError("build_wavefunction called the quadrature")

        # every function of the module, at every name it has in the package
        entry = {id(obj) for obj in vars(quadrature).values()
                 if callable(obj)
                 and getattr(obj, "__module__", None) == quadrature.__name__}
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("pseudoharm"):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in entry:
                        monkeypatch.setattr(mod, name, refuse)
        assert quadrature.integrate_to_infinity is refuse
        for spec, parity, n in [(PotentialSpec(0.1, 1e-3), "odd", 1),
                                (PotentialSpec(-0.2, 1e-2), "even", 30),
                                (PotentialSpec(-0.1, 1e-3), "even", None)]:
            sol = (regspec.solve_ground_even(spec) if n is None
                   else regspec.solve_excited(spec, parity, n))
            wf = regspec.build_wavefunction(spec, sol)
            assert np.all(np.isfinite(wf(np.linspace(-6.0, 6.0, 61))))

    @pytest.mark.parametrize("alpha,delta,state,n", [
        (-0.2, 1e-4, "even", 1), (-0.1, 1e-4, "even", 30),
        (0.1, 1e-4, "even", 30), (0.1, 1e-2, "odd", 12),
        (0.6, 1e-3, "odd", 0), (3.5, 1e-2, "even", 30),
        (-0.25, 1e-3, "odd", 1), (-0.25, 1e-4, "ground", 0),
        (-0.1, 1e-2, "ground", 0), (-0.001, 2e-3, "ground", 0)])
    def test_cli_norm_report_agrees(self, alpha, delta, state, n):
        # the CLI's quadrature of psi^2 against the slope route: at most
        # 1.2e-13 apart over the 180 states of the two grids above
        from pseudoharm import cli

        spec = PotentialSpec(alpha, delta)
        sol = (regspec.solve_ground_even(spec) if state == "ground"
               else regspec.solve_excited(spec, state, n))
        report = cli._norm_report(regspec.build_wavefunction(spec, sol), spec)
        assert abs(report["exterior_rel_diff"]) <= 2.5e-13
        assert abs(report["norm"] - 1.0) <= 2.5e-13
