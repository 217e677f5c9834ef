"""Square-root counting: formula vs exhaustive search, every branch."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from cubic_mds import arith, lfunc, sqcount
from cubic_mds.arith import kronecker
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


def test_coefficient_sieve_memory_stays_bounded():
    # The result is 9.2 MiB at this cutoff; the multiples of the primes
    # past sqrt(M), about 790,000 indices, are built in blocks, never all
    # at once.  The shared prime table is built before tracing starts.
    arith._prime_array(1_200_000)
    tracemalloc.start()
    try:
        sqcount.coefficient_sieve(5, 1_200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_coefficient_sieve_takes_symbols_from_scalar_kronecker(monkeypatch):
    # The Euler product's Legendre column and the closed form's Jacobi
    # table are never read.  One symbol per unit class of the symbol's
    # period: n for n = 3 (mod 4), 4n otherwise.
    want = {n: sqcount.coefficient_sieve(n, 100_000) for n in (5, 7, 15, 21)}

    def refused(*args, **kwargs):
        raise AssertionError("the sieve read a symbol table")

    monkeypatch.setattr(arith, "legendre_column", refused)
    monkeypatch.setattr(lfunc, "jacobi_table", refused)
    symbols = []

    def counted(a, b):
        symbols.append((a, b))
        return kronecker(a, b)

    monkeypatch.setattr(arith, "kronecker", counted)
    for n, coeffs in want.items():
        assert np.array_equal(sqcount.coefficient_sieve(n, 100_000), coeffs), n
        primes = arith._prime_array(100_000)
        generic = primes[(2 * n % primes != 0) & (primes != 3)]
        symbols.clear()
        sqcount._generic_counts(n, generic)
        period = n if n % 4 == 3 else 4 * n
        units = sum(math.gcd(r, period) == 1 for r in range(period))
        assert len(symbols) == units, n


# ======================================================================
# whole residue tables and level lists
# ======================================================================

SMALL_PRIMES = arith.primes_up_to(60)
# Every prime power p^alpha <= 2500 of a prime p <= 60, up to 2^11.
SMALL_PRIME_POWERS = [
    (p, e) for p in SMALL_PRIMES for e in range(1, 12) if p**e <= 2500
]


def test_table_and_levels_refuse_bad_input():
    for p in (-3, 0, 1, 4, 9, 2**31 - 3):
        with pytest.raises(ValueError, match="prime"):
            sqcount.count_roots_table(p, 1)
        with pytest.raises(ValueError, match="prime"):
            sqcount.count_roots_levels(p, 5, 3)
    for alpha in (0, -1):
        with pytest.raises(ValueError, match="exponent"):
            sqcount.count_roots_table(5, alpha)
    with pytest.raises(ValueError, match="K >= 0"):
        sqcount.count_roots_levels(5, 7, -1)
    # Past 1e7 entries, as the exhaustive table; a vast exponent is
    # refused without forming p^alpha.
    for p, alpha in ((2, 24), (3163, 2), (10007, 2), (2**61 - 1, 1), (2, 10**12)):
        with pytest.raises(OracleScaleError):
            sqcount.count_roots_table(p, alpha)
    assert sqcount.count_roots_levels(5, 7, 0) == [1]


def test_table_and_levels_use_one_symbol_per_class(monkeypatch):
    # The table is the closed formula by Euler's criterion: it reads no
    # Kronecker symbol, no symbol column and no exhaustive count, and
    # still equals the x^2 histogram.  The levels take one symbol.
    powers = [(2, e) for e in range(1, 15)] + [(3, 9), (5, 6), (7, 4), (1999, 1)]
    want = {pe: sqcount.count_roots_residue_table(pe[0] ** pe[1]) for pe in powers}
    cases = [(p, n, K) for p in (2, 3, 5, 53) for n in (0, -7, 12, -p**9 * 6, 2**40)
             for K in (0, 1, 9, 60)]
    levels = {
        c: [sqcount.count_roots_prime_power(c[0], a, c[1]) for a in range(c[2] + 1)]
        for c in cases
    }

    def refused(*args, **kwargs):
        raise AssertionError("the table read a symbol or an exhaustive count")

    for name in ("kronecker", "legendre_column"):
        monkeypatch.setattr(arith, name, refused)
    for name in ("count_roots_residue_table", "count_roots_bruteforce"):
        monkeypatch.setattr(sqcount, name, refused)
    for (p, alpha), table in want.items():
        got = sqcount.count_roots_table(p, alpha)
        assert got.dtype == np.int64
        assert np.array_equal(got, table), (p, alpha)

    symbols = []

    def counted(a, b):
        symbols.append((a, b))
        return kronecker(a, b)

    monkeypatch.setattr(arith, "kronecker", counted)
    for (p, n, K), counts in levels.items():
        symbols.clear()
        assert sqcount.count_roots_levels(p, n, K) == counts, (p, n, K)
        assert len(symbols) <= 1, (p, n, K)


if given is not None:

    @given(pe=st.sampled_from(SMALL_PRIME_POWERS), n=st.integers(-(10**9), 10**9))
    def test_count_roots_table_property(pe, n):
        p, alpha = pe
        table = sqcount.count_roots_table(p, alpha)
        assert table.shape == (p**alpha,)
        want = [sqcount.count_roots_prime_power(p, alpha, r) for r in range(p**alpha)]
        assert table.tolist() == want
        assert table[n % p**alpha] == sqcount.count_roots_prime_power(p, alpha, n)

    # n = u p^k: n = 0 at u = 0, and divisible by p up to p^70.
    @given(
        p=st.sampled_from(SMALL_PRIMES),
        u=st.integers(-500, 500),
        k=st.integers(0, 70),
        K=st.integers(0, 70),
    )
    def test_count_roots_levels_property(p, u, k, K):
        n = u * p**k
        want = [sqcount.count_roots_prime_power(p, a, n) for a in range(K + 1)]
        assert sqcount.count_roots_levels(p, n, K) == want
