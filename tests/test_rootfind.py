import math

import pytest

from conftest import scan_sign_changes
from pseudoharm.errors import BracketError, NonConvergenceError
from pseudoharm import rootfind
from pseudoharm.rootfind import brent, scan_outward


def test_scan_finds_simple_roots():
    roots = [brent(math.cos, lo, hi)
             for lo, hi in scan_sign_changes(math.cos, 0.0, 8.0, 0.25)]
    assert len(roots) == 3
    assert roots[0] == pytest.approx(math.pi / 2, abs=1e-12)
    assert roots[1] == pytest.approx(3 * math.pi / 2, abs=1e-12)
    assert roots[2] == pytest.approx(5 * math.pi / 2, abs=1e-12)


def test_brent_accuracy():
    r = brent(lambda x: x * x * x - 2.0, 0.0, 2.0, xtol=1e-14)
    assert r == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-13)


def test_brent_relative_tolerance():
    r = brent(lambda x: x - 1e6, 0.0, 1e8, xtol=0.0, rtol=1e-14)
    assert r == pytest.approx(1e6, rel=1e-12)


def test_bracket_error():
    with pytest.raises(BracketError):
        brent(lambda x: 1.0 + x * x, -1.0, 1.0)
    with pytest.raises(BracketError):
        brent(lambda x: 1.0, 0.0, 1.0)


def test_brent_endpoint_zeros():
    assert brent(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert brent(lambda x: x - 3.0, 1.0, 3.0) == 3.0


def test_brent_uses_the_given_end_values():
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.3

    r = brent(f, 0.0, 1.0, f_lo=-0.3, f_hi=0.7)
    assert r == pytest.approx(0.3, abs=1e-12)
    assert 0.0 not in calls and 1.0 not in calls
    # a zero handed in is returned without evaluating f
    before = len(calls)
    assert brent(f, 0.5, 2.0, f_lo=0.0, f_hi=1.0) == 0.5
    assert len(calls) == before


def test_brent_iteration_cap(monkeypatch):
    monkeypatch.setattr(rootfind, "_MAX_ITER", 2)
    with pytest.raises(NonConvergenceError):
        brent(lambda x: x * x * x - 2.0, 0.0, 2.0, xtol=1e-15)


def test_scan_checks_the_last_grid_point():
    # an exact zero at the window's upper end used to be dropped
    assert scan_outward(lambda x: x - 1.0, 0.5, 0.0, 1.0, 0.25) \
        == (0.75, 1.0, -0.25, 0.0)
    assert scan_sign_changes(lambda x: x - 1.0, 0.0, 1.0, 0.25) == [(1.0, 1.0)]
    assert scan_outward(lambda x: x - 0.5, 0.0, 0.0, 1.0, 0.25) \
        == (0.25, 0.5, -0.25, 0.0)
    assert brent(lambda x: x - 1.0, 0.75, 1.0, f_lo=-0.25, f_hi=0.0) == 1.0


def test_scan_picks_the_oracle_bracket_nearest_the_seed():
    # cos has sign changes near pi/2, 3 pi/2 and 5 pi/2 in [0, 8]
    for seed in (0.0, 1.0, 3.0, 4.7, 6.0, 8.0, math.pi):
        brackets = scan_sign_changes(math.cos, 0.0, 8.0, 0.25)
        want = min(brackets, key=lambda b: abs(0.5 * (b[0] + b[1]) - seed))
        got = scan_outward(math.cos, seed, 0.0, 8.0, 0.25)
        assert got[:2] == want
        assert got[2:] == (math.cos(got[0]), math.cos(got[1]))


def test_scan_ties_go_to_the_lower_cell():
    # the seed sits on the grid point 1.0, midway between two sign changes
    # f has roots in (0.75, 1.0) and (1.0, 1.25)
    def f(x):
        return (x - 0.9) * (x - 1.1)

    assert scan_outward(f, 1.0, 0.0, 2.0, 0.25)[:2] == (0.75, 1.0)


def test_scan_evaluates_lazily_and_reports_no_bracket():
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.51

    lo, hi = scan_outward(f, 0.5, 0.0, 1.0, 0.05)[:2]
    assert lo <= 0.51 <= hi
    assert len(calls) <= 3
    assert scan_outward(lambda x: 1.0 + x * x, 0.0, -1.0, 1.0, 0.1) is None
