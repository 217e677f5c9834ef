"""The three routes of a slice Z_n against their straightforward forms.

`coefficient_sieve`, `Z_n_oracle` and `Z_n_euler_product` skip work
that cannot change their values: the per-level valuation gather, the
multiplier-at-a-time updates of the large primes and the sorted symbol
classes of the sieve, the powers m^(-s) at zero coefficients, and the
per-prime scalar Kronecker symbols of the product.  The straightforward
versions are kept below as oracles, and every value must equal theirs
bit for bit: `repr` for complex values (it tells -0.0 from +0.0), the
exception and its message where one is raised, `array_equal` and dtype
for the sieve.
"""

import math
import random

import numpy as np
import pytest

from cubic_mds import arith, mds, sqcount
from cubic_mds.arith import _finite
from cubic_mds.euler import _local_factor, local_factor_closed
from cubic_mds.sqcount import _residues, count_roots_prime_power

# ======================================================================
# the straightforward routes
# ======================================================================


def plain_generic_counts(n: int, primes: np.ndarray) -> np.ndarray:
    """C(p, -n) for primes p not dividing 6n, one call per class mod 4n,
    the classes found by sorting."""
    period = 4 * n
    # A period past int64 exceeds every prime, which is then its own class.
    classes = primes % period if period < 2**62 else primes
    _, first, where = np.unique(classes, return_index=True, return_inverse=True)
    counts = [count_roots_prime_power(p, 1, -n) for p in primes[first].tolist()]
    return np.array(counts, dtype=np.int64)[where]


def plain_multiples(primes: np.ndarray, limit: int):
    """Index sets covering each multiple k*p <= limit of the primes once:
    a strided slice per prime up to sqrt(limit), then one set k * P over
    the larger primes P <= limit // k for each multiplier k."""
    root = math.isqrt(limit)
    cut = int(np.searchsorted(primes, root, side="right"))
    for p in primes[:cut].tolist():
        yield slice(p, limit + 1, p)
    large = primes[cut:]
    if large.size:
        ks = np.arange(1, limit // (root + 1) + 1)
        counts = np.searchsorted(large, limit // ks, side="right").tolist()
        for k, c in enumerate(counts, start=1):
            if c == 0:
                break
            yield k * large[:c]


def plain_coefficient_sieve(n: int, m_cutoff: int) -> np.ndarray:
    """The sieve with a multiplier at a time for the primes past
    sqrt(m_cutoff), and each prime of 6n applied through an int8
    valuation array and a gather of its local counts."""
    primes = arith._prime_array(m_cutoff)
    special = _residues(2 * n, primes) == 0
    generic = primes[~special & (primes != 3)]
    split = plain_generic_counts(n, generic) == 2
    h = np.ones(m_cutoff + 1, dtype=np.int64)
    for idx in plain_multiples(generic[~split], m_cutoff):
        h[idx] = 0
    cnt = np.zeros(m_cutoff + 1, dtype=np.int8)
    for idx in plain_multiples(generic[split], m_cutoff):
        cnt[idx] += 1
    h <<= cnt
    for p in primes[special & (primes != 3)].tolist() + [3]:
        shift = 1 if p == 3 else 0
        v = np.zeros(m_cutoff + 1, dtype=np.int8)
        q = p
        top = 0
        while q <= m_cutoff:
            v[q::q] += 1
            q *= p
            top += 1
        local = [count_roots_prime_power(p, e + shift, -n) for e in range(top + 1)]
        h *= np.array(local, dtype=np.int64)[v]
    h[0] = 0
    return h


def plain_Z_n_oracle(n: int, s, m_cutoff: int) -> complex:
    """m^(-s) for every m, zero coefficient or not."""
    _finite(s)
    coeffs = np.asarray(sqcount.coefficient_sieve(n, m_cutoff)[1:], dtype=float)
    ks = np.arange(1, m_cutoff + 1, dtype=float)
    powers = np.exp(-complex(s) * np.log(ks))
    return complex(coeffs @ powers)


def plain_Z_n_euler_product(n: int, s, prime_cutoff: int) -> complex:
    """One `_local_factor` per prime, each with its own Kronecker symbol;
    the cutoff, n and s are checked even when no prime is left."""
    if prime_cutoff < 1:
        raise ValueError(f"prime cutoff must be >= 1, got {prime_cutoff}")
    if n < 1:
        raise ValueError(f"slice index must satisfy n >= 1, got {n}")
    _finite(s)
    primes = arith.primes_up_to(prime_cutoff)
    out = 1 + 0j
    if primes:
        out *= local_factor_closed(primes[0], n, s)
    for p in primes[1:]:
        out *= _local_factor(p, n, s)
    return out


def outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:  # the error must match as well
        return f"{type(exc).__name__}: {exc}"


# ======================================================================
# the cases
# ======================================================================

RNG = random.Random(8)
# One cutoff drawn at random next to the fixed ones.
CUTOFFS = (1, 2, 3, 9, 27, 1000, RNG.randrange(28, 5000))
# n <= 400 covers n = 0, 1 and 2 (mod 3), odd and even, squarefree or
# not.  A step prime to 6 thins it out and keeps all of these kinds.
NS = range(1, 401)


def slice_cases(small_step: int):
    """(n, cutoff): every small_step-th n <= 400 at the cutoffs up to 27,
    every seventh at the larger ones."""
    for n in NS:
        for cutoff in CUTOFFS:
            if (n - 1) % (small_step if cutoff <= 27 else 7) == 0:
                yield n, cutoff


# Imaginary part +0.0, -0.0 and nonzero, and an integer s.
POINTS = (
    complex(2.5, 0.0),
    complex(2.5, -0.0),
    complex(2.2, 3.7),
    complex(3.1, -1.3),
    3,
)


def assert_sieve_is_plain(n: int, m_cutoff: int) -> None:
    got = sqcount.coefficient_sieve(n, m_cutoff)
    want = plain_coefficient_sieve(n, m_cutoff)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), (n, m_cutoff)


@pytest.mark.parametrize("m_cutoff", CUTOFFS)
def test_sieve_equals_plain_fill(m_cutoff):
    for n, cutoff in slice_cases(1):
        if cutoff == m_cutoff:
            assert_sieve_is_plain(n, m_cutoff)


def test_sieve_equals_plain_fill_at_full_length():
    # Deep powers of 2 and 3, and primes of n to a square, at the
    # default cutoff of `cubic-mds zn`.
    for n in (1, 5, 9, 27, 50, 75, 96, 243, 245, 392):
        assert_sieve_is_plain(n, 100_000)


@pytest.mark.parametrize("p", (313, 317))
def test_sieve_equals_plain_fill_next_to_a_prime_square(p):
    # At p^2 - 1 the prime p is past sqrt(m_cutoff) and taken in a block;
    # at p^2 and p^2 + 1 it takes a strided slice.
    for m_cutoff in (p * p - 1, p * p, p * p + 1):
        for n in (1, 5, 7, 29, 35, 96, 391):
            assert_sieve_is_plain(n, m_cutoff)


def test_sieve_equals_plain_fill_on_a_block_edge():
    # For n = 5 at this cutoff the split primes past sqrt(m_cutoff) have
    # exactly one block of multiples.
    n, m_cutoff = 5, 200_453
    primes = arith._prime_array(m_cutoff)
    generic = primes[(_residues(2 * n, primes) != 0) & (primes != 3)]
    split = generic[plain_generic_counts(n, generic) == 2]
    large = split[split > math.isqrt(m_cutoff)]
    assert int((m_cutoff // large).sum()) == sqcount._BLOCK
    assert_sieve_is_plain(n, m_cutoff)


def test_sieve_equals_plain_fill_past_a_million():
    # Six blocks for the split and seven for the inert primes past sqrt(M).
    for n in (1, 5, 29):
        assert_sieve_is_plain(n, 1_200_000)


@pytest.mark.parametrize("block", (1, 2, 3, 64, 1000))
def test_sieve_equals_plain_fill_at_any_block_size(monkeypatch, block):
    # Small blocks put a block edge inside or at the end of nearly every
    # prime's run of multiples; a block always holds one prime at least.
    monkeypatch.setattr(sqcount, "_BLOCK", block)
    for m_cutoff in (96, 97, 1000, 20_000):
        for n in (1, 5, 7, 29, 96, 391):
            assert_sieve_is_plain(n, m_cutoff)


@pytest.mark.parametrize("s", POINTS, ids=repr)
def test_oracle_equals_plain_sum(s):
    for n, m_cutoff in slice_cases(5):
        assert outcome(mds.Z_n_oracle, n, s, m_cutoff) == outcome(
            plain_Z_n_oracle, n, s, m_cutoff
        ), (n, s, m_cutoff)


def test_oracle_equals_plain_sum_at_full_length():
    # One n of each class mod 3; n = 1 mod 3 sums zeros only.
    for n in (5, 7, 15, 391):
        for s in POINTS:
            assert repr(mds.Z_n_oracle(n, s, 100_000)) == repr(
                plain_Z_n_oracle(n, s, 100_000)
            ), (n, s)


@pytest.mark.parametrize("s", POINTS, ids=repr)
def test_euler_product_equals_plain_product(s):
    for n, prime_cutoff in slice_cases(5):
        assert outcome(mds.Z_n_euler_product, n, s, prime_cutoff) == outcome(
            plain_Z_n_euler_product, n, s, prime_cutoff
        ), (n, s, prime_cutoff)


def test_euler_product_equals_plain_product_on_errors():
    # Poles of a generic factor (s = 0), of the factors at 2 and 3, a
    # p^-s that overflows, and the checks on n and s.
    cases = [
        (n, s, cutoff)
        for n in (1, 2, 3, 5, 7, 12, 25, 35)
        for s in (0, 0j, 1, complex(0.0, -0.0), complex(-800, 1), float("nan"))
        for cutoff in (2, 3, 27, 1000)
    ] + [(0, 2.5, 100), (-5, 2.5, 100), (0, 2.5, 1), (10**20 + 7, 2.5, 1000)]
    cases += [(5, float("nan"), 1), (5, 2.5, 0), (5, 2.5, -7), (0, 2.5, 0)]
    raised = 0
    for n, s, cutoff in cases:
        want = outcome(plain_Z_n_euler_product, n, s, cutoff)
        assert outcome(mds.Z_n_euler_product, n, s, cutoff) == want, (n, s, cutoff)
        raised += "Error" in want
    assert raised > 50


# ======================================================================
# the Legendre column of the product
# ======================================================================


def test_legendre_column_is_kronecker_for_every_prime_to_1e5():
    primes = arith._prime_array(100_000)
    plist = primes.tolist()
    for n in (1, 2, 3, 4, 5, 7, 8, 15, 24, 97, 400, 9973, 99991, 10**20 + 7):
        got = arith.legendre_column(-n, primes).tolist()
        assert got == [arith.kronecker(-n, p) for p in plist], n


def test_legendre_column_above_euler_criterion_range():
    # Primes from 2^31 up take the scalar symbol.
    big = np.array([2, 3, 2_147_483_659, 2**61 - 1], dtype=np.int64)
    assert all(arith.is_probable_prime(int(p)) for p in big)
    for a in (-5, -7, 10, 2**40 + 1, -(2**70) - 3):
        want = [arith.kronecker(a, int(p)) for p in big]
        assert arith.legendre_column(a, big).tolist() == want, a


def test_prime_array_is_cached_and_read_only():
    first = arith._prime_array(10_000)
    assert not first.flags.writeable
    assert first.tolist() == arith.primes_up_to(10_000)
    with pytest.raises(ValueError):
        first[0] = 4
    # A smaller limit is a prefix of the same sieve.
    assert arith._prime_array(100).tolist() == first[:25].tolist()
    assert arith._prime_array(1).size == 0
