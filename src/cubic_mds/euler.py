"""Local Euler factors of the slice series.

For fixed n >= 1 the slice over m factors into local pieces

    Z_{n,p}(s) = sum_{k>=0} C(p^k, -n) p^{-ks}          (p != 3)
    Z_{n,3}(s) = sum_{k>=0} C(3^(k+1), -n) 3^{-ks}       (p = 3)

(the shift at 3 comes from the coefficient being C(3m, -n), which
always carries one factor of 3).  Each of these rational functions in
p^{-s} has a closed form depending only on the ramification of p in n;
`local_factor_closed` implements the full case table and
`local_factor_oracle` evaluates the defining truncated sum so tests can
pit them against each other.

When p divides n to an even power there are two algebraically equal
evaluation routes: a single displayed fraction and a recursive form
(geometric partial sum plus a shifted unit-part factor).  Both are kept
and cross-checked; at p = 2 only the recursive route is valid because
the unit part needs the mod-8 branch table rather than a quadratic
symbol.
"""

from __future__ import annotations

import cmath
import math

from . import arith, sqcount
from .arith import _POLE_EPS, _finite, _guard, _px


def _check_domain(p: int, n: int) -> None:
    if n < 1:
        raise ValueError(f"slice index must satisfy n >= 1, got {n}")
    if p < 2 or not arith.is_probable_prime(p):
        raise ValueError(f"p must be prime, got {p}")


# ======================================================================
# oracle: truncated defining sum
# ======================================================================

def local_factor_oracle(p: int, n: int, s: complex, K: int = 60) -> complex:
    """Truncated defining sum at prime p, slice index n, point s: K+1 terms.

    Converges for Re(s) > 1/2; the tail after K terms is geometric of
    ratio p^(1/2 - Re s).  ValueError when s is not finite or K < 1.

    The counts C(p^k, -n), at p = 3 C(3^(k+1), -n), come from one
    `sqcount.count_roots_levels` call: one split of n and at most one
    Kronecker symbol per (p, n).
    """
    _check_domain(p, n)
    _finite(s)
    if K < 1:
        raise ValueError(f"truncation order must satisfy K >= 1, got {K}")
    logp = math.log(p)
    shift = 1 if p == 3 else 0
    counts = sqcount.count_roots_levels(p, -n, K + shift)
    total = 0.0 + 0.0j
    for k in range(K + 1):
        c = counts[k + shift]
        if c:
            total += c * cmath.exp(-s * k * logp)
    return total


# ======================================================================
# closed forms, by ramification case
# ======================================================================

def unit_factor_generic(p: int, u: int, s: complex) -> complex:
    """Z_{u,p}(s) for odd p >= 5 not dividing u:  (1+x)/(1 - (-u/p) x)."""
    return _unit_factor(p, _px(p, s), arith.kronecker(-u, p))


def _unit_factor(p: int, x: complex, eps: int) -> complex:
    """(1 + x) / (1 - eps x) with x = p^-s and eps = (-u/p); the pole
    message is formatted only when there is a pole."""
    den = 1 - eps * x
    if abs(den) < _POLE_EPS:
        _guard(den, f"1 - (-u/p) p^-s at p={p}")
    return (1 + x) / den


def unit_factor_two(u: int, s: complex) -> complex:
    """Z_{u,2}(s) for odd u, the four-branch table keyed by u mod 8."""
    x = _px(2, s)
    r8 = u % 8
    if r8 in (1, 5):
        # C(4, -u) = 0 since -u is 3 mod 4; the series stops at 1 + x.
        return 1 + x
    if r8 == 3:
        return 1 + x + 2 * x * x
    # u = 7 mod 8: -u is 1 mod 8, every deep level contributes 4.
    return (1 + x * x + 2 * x**3) / _guard(1 - x, "1 - 2^-s")


def _geometric_block(p: int, half: int, s: complex) -> complex:
    """(1 - p^((1-2s) half)) / (1 - p^(1-2s)), the ramified partial sum."""
    y = cmath.exp((1 - 2 * s) * math.log(p))
    return (1 - y**half) / _guard(1 - y, f"1 - p^(1-2s) at p={p}")


def ramified_even_closed(p: int, r: int, n0: int, s: complex) -> complex:
    """Single-fraction form for odd p >= 5, p^r || n with r even >= 2.

    Only valid when the unit part is governed by the quadratic symbol,
    i.e. p odd; use `ramified_even_recursive` at p = 2.
    """
    if p < 5 or r < 2 or r % 2:
        raise ValueError("requires odd p >= 5 and even r >= 2")
    x = _px(p, s)
    eps = arith.kronecker(-n0, p)
    prs = cmath.exp(r * s * math.log(p))
    phalf = float(p) ** (r // 2)
    lead = (1 - x * x) / _guard(1 - x, f"1 - p^-s at p={p}")
    y = cmath.exp((1 - 2 * s) * math.log(p))
    unit_den = _guard(1 - eps * x, f"1 - (-n0/p) p^-s at p={p}")
    numer = prs * unit_den + phalf * x * eps * (1 - eps * p * x)
    denom = _guard(1 - y, f"1 - p^(1-2s) at p={p}") * prs * unit_den
    return lead * numer / denom


def ramified_even_recursive(p: int, r: int, n0: int, s: complex) -> complex:
    """Partial geometric sum plus shifted unit factor; valid for all p != 3."""
    if p == 3 or r < 2 or r % 2:
        raise ValueError("requires p != 3 and even r >= 2")
    x = _px(p, s)
    lead = (1 - x * x) / _guard(1 - x, f"1 - p^-s at p={p}")
    partial = lead * _geometric_block(p, r // 2, s)
    unit = (
        unit_factor_two(n0 % 8, s)
        if p == 2
        else unit_factor_generic(p, n0, s)
    )
    return partial + float(p) ** (r // 2) * x**r * unit


def _closed_at_three(n: int, s: complex) -> complex:
    x = _px(3, s)
    r = arith.valuation(n, 3) if n % 3 == 0 else 0
    if r == 0:
        return (1 + arith.kronecker(-n, 3)) / _guard(1 - x, "1 - 3^-s")
    n0 = n // 3**r
    if r % 2 == 1:
        return 1 + (3 * x + 3 * x * x) * _geometric_block(3, (r - 1) // 2, s)
    tail_unit = (1 + arith.kronecker(-n0, 3)) / _guard(1 - x, "1 - 3^-s")
    return (1 + 3 * x) * _geometric_block(3, r // 2, s) + (
        float(3) ** (r // 2) * x**r * tail_unit
    )


def local_factor_closed(p: int, n: int, s: complex) -> complex:
    """Closed-form Z_{n,p}(s); full case dispatch on the ramification.

    Raises PoleError when s sits within 1e-13 of a pole of the relevant
    rational function, ValueError when s is not finite.
    """
    _check_domain(p, n)
    return _local_factor(p, n, _finite(s))


def _local_factor(p: int, n: int, s: complex) -> complex:
    """`local_factor_closed` without the checks: p prime, n >= 1, s finite."""
    if p == 3:
        return _closed_at_three(n, s)
    x = _px(p, s)
    if n % p:
        if p == 2:
            return unit_factor_two(n % 8, s)
        return unit_factor_generic(p, n, s)
    r = arith.valuation(n, p)
    n0 = n // p**r
    lead = (1 - x * x) / _guard(1 - x, f"1 - p^-s at p={p}")
    if r % 2 == 1:
        return lead * _geometric_block(p, (r + 1) // 2, s)
    if p == 2:
        return ramified_even_recursive(2, r, n0, s)
    return ramified_even_closed(p, r, n0, s)
