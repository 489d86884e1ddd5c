import math

import pytest

from pseudoharm.errors import BracketError
from pseudoharm.rootfind import bisect, bisect_then_secant, scan_sign_changes


def test_scan_finds_simple_roots():
    brackets = scan_sign_changes(math.cos, 0.0, 8.0, 0.25)
    roots = [bisect_then_secant(math.cos, lo, hi) for lo, hi in brackets]
    assert len(roots) == 3
    assert roots[0] == pytest.approx(math.pi / 2, abs=1e-12)
    assert roots[2] == pytest.approx(5 * math.pi / 2, abs=1e-12)


def test_bisect_then_secant_accuracy():
    r = bisect_then_secant(lambda x: x * x * x - 2.0, 0.0, 2.0,
                           bisect_tol=1e-8, polish_tol=1e-14)
    assert r == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-13)


def test_bracket_error():
    with pytest.raises(BracketError):
        bisect_then_secant(lambda x: 1.0 + x * x, -1.0, 1.0)
    with pytest.raises(BracketError):
        bisect(lambda x: 1.0, 0.0, 1.0)


def test_plain_bisect_relative_tolerance():
    r = bisect(lambda x: x - 1e6, 0.0, 1e8, rel_tol=1e-14)
    assert r == pytest.approx(1e6, rel=1e-12)
