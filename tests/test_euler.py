"""Local factors: closed forms vs the truncated defining sum."""

import cmath
import math
from fractions import Fraction

import pytest

from cubic_mds import arith
from cubic_mds.errors import PoleError
from cubic_mds.euler import (
    local_factor_closed,
    local_factor_oracle,
    ramified_even_closed,
    ramified_even_recursive,
    unit_factor_generic,
    unit_factor_two,
)

S_POINTS = [2.0 + 0.0j, 3.5 + 0.0j, 1.25 + 0.0j, 2.0 + 1.5j, 0.9 + 3.0j]

# ======================================================================
# closed vs oracle across every ramification branch
# ======================================================================


def tail_bound(p: int, s: complex, K: int) -> float:
    # Coefficients grow like p^(k/2); tail after K terms is geometric.
    ratio = p ** (0.5 - s.real)
    assert ratio < 1
    return 4.0 * ratio ** (K + 1) / (1 - ratio)


@pytest.mark.parametrize("s", S_POINTS)
def test_closed_matches_oracle_unit_and_ramified(s):
    # n sweeps products p^r * n0 hitting r = 0..4 at each prime.
    for p in [2, 3, 5, 7, 11]:
        for n0 in [1, 5, 7, 11, 13, 17]:
            for r in range(5):
                n = p**r * n0
                if n > 4000:
                    continue
                K = 80
                closed = local_factor_closed(p, n, s)
                oracle = local_factor_oracle(p, n, s, K)
                tol = tail_bound(p, s, K) + 1e-12
                assert abs(closed - oracle) <= tol, (p, n, s)


def test_unit_two_branches_explicit():
    # x = 1/4 at s = 2; exact rationals per residue of n mod 8.
    x = Fraction(1, 4)
    expected = {
        1: 1 + x,
        3: 1 + x + 2 * x * x,
        5: 1 + x,
        7: (1 + x * x + 2 * x**3) / (1 - x),
    }
    for n, want in expected.items():
        got = unit_factor_two(n, 2.0 + 0.0j)
        assert abs(got - complex(float(want))) < 1e-15, n


def test_unit_generic_explicit():
    # p = 5, n = 1: (-1/5) = +1, factor (1+x)/(1-x) = 13/12 at x = 1/25.
    got = unit_factor_generic(5, 1, 2.0 + 0.0j)
    assert abs(got - 13.0 / 12.0) < 1e-15
    # p = 7, n = 1: (-1/7) = -1, factor (1+x)/(1+x) = 1.
    got = unit_factor_generic(7, 1, 2.0 + 0.0j)
    assert abs(got - 1.0) < 1e-15


def test_three_adic_explicit():
    # r = 0 slices: numerator 1 + (-n/3) kills n = 1 mod 3 entirely.
    assert local_factor_closed(3, 1, 2.0) == 0
    assert local_factor_closed(3, 7, 2.0) == 0
    # n = 5: 2/(1 - 1/9) = 9/4.
    assert abs(local_factor_closed(3, 5, 2.0) - 2.25) < 1e-15


def test_ramified_first_power():
    # p || n: series is 1 + p^-s and nothing deeper.
    for p, n in [(5, 35), (7, 77), (11, 33)]:
        for s in S_POINTS:
            got = local_factor_closed(p, n, s)
            want = 1 + cmath.exp(-s * math.log(p))
            assert abs(got - want) < 1e-14, (p, s)


def test_ramified_even_routes_agree():
    for p in [5, 7]:
        for r in (2, 4):
            for n0 in [1, 2, 3]:
                if arith.kronecker(n0, p) == 0:
                    continue
                for s in S_POINTS:
                    a = ramified_even_closed(p, r, n0, s)
                    b = ramified_even_recursive(p, r, n0, s)
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), (p, r, n0, s)


# ======================================================================
# guards
# ======================================================================


def test_domain_validation():
    with pytest.raises(ValueError):
        local_factor_closed(4, 5, 2.0)
    with pytest.raises(ValueError):
        local_factor_closed(5, 0, 2.0)
    with pytest.raises(ValueError):
        local_factor_oracle(6, 1, 2.0, 40)
    for K in (0, -1):
        with pytest.raises(ValueError, match="K >= 1"):
            local_factor_oracle(5, 7, 2.0, K)
    for s in (float("nan"), float("inf"), complex(1.0, float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            local_factor_closed(5, 7, s)


def test_pole_guard():
    # p = 7, n = 1: denominator 1 - (-1/7) x = 1 - (-1)(1/7) never 0 at
    # real s, but n = 3 has (-3/7) = +1 so s = 0 hits 1 - x = 0.
    with pytest.raises(PoleError):
        local_factor_closed(7, 3, 0.0)


def test_oracle_truncation_stability():
    s = 2.0 + 0.7j
    for p, n in [(2, 7), (3, 3), (5, 25), (7, 7)]:
        a = local_factor_oracle(p, n, s, 40)
        b = local_factor_oracle(p, n, s, 80)
        assert abs(a - b) <= tail_bound(p, s, 40) + 1e-15, (p, n)
