"""Square-root counting: formula vs exhaustive search, every branch."""

import math
import random

import numpy as np
import pytest

from cubic_mds import sqcount
from cubic_mds.errors import OracleScaleError

try:
    from hypothesis import given, strategies as st
except ImportError:  # the property test below is then not collected
    given = None

# ======================================================================
# exhaustive cross-check
# ======================================================================


def test_formula_matches_bruteforce_full_grid():
    for m in range(1, 121):
        table = sqcount.count_roots_residue_table(m)
        for n in range(-60, 61):
            want = int(table[n % m])
            assert sqcount.count_roots(m, n) == want, (m, n)


def test_residue_table_is_bruteforce():
    for m in [1, 2, 7, 8, 9, 16, 24, 45, 97]:
        table = sqcount.count_roots_residue_table(m)
        direct = [0] * m
        for x in range(m):
            direct[x * x % m] += 1
        assert list(table) == direct, m


def test_bruteforce_guard():
    with pytest.raises(OracleScaleError):
        sqcount.count_roots_bruteforce(10**8 + 7, 1)


# ======================================================================
# prime-power branches, frozen values
# ======================================================================

# Hand-computed by squaring every residue; each row is
# (p, alpha, n, count).  Covers: unit n at odd p, unit n at p = 2 for
# alpha = 1, 2, 3, 4, and ramified n = p^r * n0 with r >= alpha,
# r < alpha even, r < alpha odd.
FROZEN_PRIME_POWER = [
    (5, 1, 1, 2),
    (5, 1, 2, 0),
    (5, 2, 6, 2),
    (5, 2, 5, 0),      # r = 1 odd < alpha = 2
    (5, 2, 25, 5),     # r >= alpha: p^floor(alpha/2)
    (5, 3, 25, 10),    # r = 2 even < alpha, -> p * (1 + (1/5)) = 10
    (5, 3, 50, 0),     # r = 2 even, n0 = 2 not a square mod 5
    (5, 4, 125, 0),    # r = 3 odd < alpha = 4
    (5, 4, 625, 25),   # r >= alpha: 5^2
    (2, 1, 1, 1),
    (2, 1, 3, 1),
    (2, 2, 1, 2),
    (2, 2, 3, 0),
    (2, 3, 1, 4),
    (2, 3, 5, 0),
    (2, 4, 9, 4),
    (2, 4, 12, 0),     # x = 2t needs t^2 = 3 mod 4, impossible
    (3, 2, 3, 0),
    (3, 3, 9, 6),      # r = 2 even: 3 * (1 + (1/3)) = 6
    (3, 4, 27, 0),
    (3, 4, 81, 9),
]


def test_prime_power_frozen_values():
    for p, alpha, n, want in FROZEN_PRIME_POWER:
        got = sqcount.count_roots_prime_power(p, alpha, n)
        brute = sqcount.count_roots_bruteforce(p**alpha, n)
        assert got == brute, (p, alpha, n, got, brute)
        assert got == want, (p, alpha, n)


def test_two_adic_sweep():
    for alpha in range(1, 11):
        q = 2**alpha
        for n in range(q):
            assert sqcount.count_roots_prime_power(2, alpha, n) == (
                sqcount.count_roots_bruteforce(q, n)
            ), (alpha, n)


def test_odd_prime_power_sweep():
    for p in [3, 5, 7]:
        for alpha in range(1, 6):
            q = p**alpha
            if q > 3000:
                continue
            for n in range(q):
                assert sqcount.count_roots_prime_power(p, alpha, n) == (
                    sqcount.count_roots_bruteforce(q, n)
                ), (p, alpha, n)


# ======================================================================
# multiplicativity and the coefficient map
# ======================================================================


def test_multiplicative_in_m():
    rng = random.Random(21)
    for _ in range(300):
        m1 = rng.randrange(1, 200)
        m2 = rng.randrange(1, 200)
        if math.gcd(m1, m2) != 1:
            continue
        n = rng.randrange(-500, 500)
        assert sqcount.count_roots(m1 * m2, n) == (
            sqcount.count_roots(m1, n) * sqcount.count_roots(m2, n)
        ), (m1, m2, n)


def test_coefficient_is_shifted_count():
    for m in range(1, 40):
        for n in range(1, 40):
            assert sqcount.coefficient(m, n) == sqcount.count_roots(
                3 * m, -n
            ), (m, n)


def test_coefficient_sieve_matches_scalar():
    for n in [1, 3, 5, 7, 15, 33, 35]:
        sieved = sqcount.coefficient_sieve(n, 200)
        for m in range(1, 201):
            assert sieved[m] == sqcount.coefficient(m, n), (m, n)


if given is not None:
    # n divisible by 2, 3 or a square takes the exponent-by-exponent path.
    sieve_n = st.one_of(
        st.sampled_from((3, 9, 27, 4, 8, 12, 18, 25, 45, 49, 72)),
        st.integers(1, 2000),
    )

    @given(n=sieve_n, m_cutoff=st.integers(1, 3000))
    def test_coefficient_sieve_property(n, m_cutoff):
        sieved = sqcount.coefficient_sieve(n, m_cutoff)
        assert sieved.dtype == np.int64
        assert sieved.shape == (m_cutoff + 1,)
        want = [0] + [sqcount.coefficient(m, n) for m in range(1, m_cutoff + 1)]
        assert sieved.tolist() == want

    @given(
        m1=st.integers(1, 200),
        m2=st.integers(1, 200),
        n=st.integers(-(10**6), 10**6),
    )
    def test_count_multiplicative_in_m_property(m1, m2, n):
        # CRT: for coprime moduli the square roots mod m1*m2 pair off with
        # those mod m1 and mod m2, counted exhaustively on every side.
        while math.gcd(m1, m2) > 1:
            m2 //= math.gcd(m1, m2)
        brute = sqcount.count_roots_bruteforce
        assert brute(m1 * m2, n) == brute(m1, n) * brute(m2, n)
        assert sqcount.count_roots(m1 * m2, n) == brute(m1 * m2, n)


def test_coefficient_sieve_n_past_int64():
    # 2n and 4n no longer fit int64 here; residues are then taken in Python.
    for n in (2**61 + 1, 2**70 + 3):
        want = [0] + [sqcount.coefficient(m, n) for m in range(1, 301)]
        assert sqcount.coefficient_sieve(n, 300).tolist() == want, n


def test_coefficient_sieve_dtype_and_bounds():
    arr = np.asarray(sqcount.coefficient_sieve(35, 5000))
    assert arr.shape == (5001,)
    # C(3m, -n) is at most the full divisor-ish bound 2^(omega+1); for
    # m <= 5000 the count never exceeds 96.
    assert int(arr.max()) <= 96
    assert int(arr.min()) >= 0
