"""The three routes of a slice Z_n, and the coefficient route of the
double series, against their straightforward forms.

`coefficient_sieve`, `Z_n_oracle` and `Z_n_euler_product` skip work
that cannot change their values: the per-level valuation gather, the
multiplier-at-a-time updates of the large primes and the sorted symbol
classes of the sieve; the sieve and the dot product on a vanishing
slice (n = 1 mod 3), the powers m^(-s) at zero coefficients, and fresh
work arrays on each call of the oracle, which keeps two per thread;
and the per-prime scalar Kronecker symbols of the product.  `Z_coeff`
and the left side of `decomposition_check` sum one `Z_n_oracle` per
slice, where a shared vector of all the powers m^(-s1) and one dot per
slice, vanishing or not, did the same.  The straightforward versions
are kept below as oracles, and every value must equal theirs bit for
bit: `repr` for complex values (it tells -0.0 from +0.0), the
exception and its message where one is raised, `array_equal` and
dtype for the sieve.
"""

import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cubic_mds import arith, mds, sqcount
from cubic_mds.arith import _finite, _px, _residues
from cubic_mds.euler import _local_factor, local_factor_closed
from cubic_mds.sqcount import count_roots_prime_power

SRC = Path(__file__).resolve().parents[1] / "src"

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


def plain_coefficient_double_sum(s1, s2, m_cutoff: int, n_cutoff: int,
                                 coprime_six: bool) -> complex:
    """Each slice as one dot of its float coefficients against a shared
    vector of every m^(-s1), vanishing slices included."""
    sqfree = arith.squarefree_mask(n_cutoff)
    ks = np.arange(1, m_cutoff + 1, dtype=float)
    powers = np.exp(-complex(s1) * np.log(ks))
    terms = []
    for n in range(1, n_cutoff + 1, 2):
        if not sqfree[n]:
            continue
        if coprime_six and n % 3 == 0:
            continue
        coeffs = np.asarray(
            sqcount.coefficient_sieve(n, m_cutoff)[1:], dtype=float
        )
        terms.append(complex(coeffs @ powers) * _px(n, s2))
    return mds._fsum(terms)


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


def test_oracle_equals_plain_sum_on_bad_input():
    # The vanishing rule must not answer for a cutoff below 1, n below 1
    # (n = -5 has C(3, -n) = 0) or an s that is not finite.
    for n, s, m_cutoff in ((7, 2.5, 0), (-5, 2.5, 10), (7, float("nan"), 10),
                           (0, 2.5, 10), (5, 2.5, -3)):
        want = outcome(plain_Z_n_oracle, n, s, m_cutoff)
        assert want.startswith("ValueError"), (n, s, m_cutoff)
        assert outcome(mds.Z_n_oracle, n, s, m_cutoff) == want, (n, s, m_cutoff)


# Z_coeff and decomposition_check at zeta2's defaults, a short m-range,
# a complex pair, and criterion 10's decomposition.
DOUBLE_SUM_POINTS = (
    (2, 2, 300, 300),
    (2.5, 2, 300, 50),
    (complex(2.1, 3), complex(1.7, -2), 5000, 200),
)


@pytest.mark.parametrize("point", DOUBLE_SUM_POINTS, ids=repr)
def test_coefficient_route_equals_plain_double_sum(point):
    s1, s2, m_cutoff, n_cutoff = point
    assert repr(mds.Z_coeff(s1, s2, m_cutoff, n_cutoff)) == repr(
        plain_coefficient_double_sum(s1, s2, m_cutoff, n_cutoff,
                                     coprime_six=False)
    )
    lhs = mds.decomposition_check(s1, s2, m_cutoff, n_cutoff, 1e-8).lhs
    assert repr(lhs) == repr(
        plain_coefficient_double_sum(complex(s1), complex(s2), m_cutoff,
                                     n_cutoff, coprime_six=True)
    )


def test_decomposition_lhs_equals_plain_double_sum_at_criterion_10():
    lhs = mds.decomposition_check(2.5, 2.0, 1_200_000, 30, 1e-8).lhs
    want = plain_coefficient_double_sum(2.5 + 0j, 2.0 + 0j, 1_200_000, 30,
                                        coprime_six=True)
    assert repr(lhs) == repr(want)


# n = 1 (mod 3) gives C(3, -n) = 0, so these slices vanish exactly.
VANISHING = [n for n in range(1, 401, 6) if arith.is_squarefree(n)]


@pytest.mark.parametrize("m_cutoff", (1, 2, 3, 1000, 100_000))
def test_vanishing_slices_equal_plain_routes(m_cutoff):
    for n in VANISHING:
        assert_sieve_is_plain(n, m_cutoff)
        for s in POINTS:
            assert repr(mds.Z_n_oracle(n, s, m_cutoff)) == repr(
                plain_Z_n_oracle(n, s, m_cutoff)
            ), (n, s, m_cutoff)


# Mixed classes mod 3, and the cutoff changing every third call, so the
# work arrays are dropped and made again as well as reused.
REUSE_CALLS = [
    (n, s, m_cutoff)
    for m_cutoff, ns in ((100_000, (5, 7, 15)), (300, (391, 5, 9)),
                         (100_000, (29, 13, 5)), (300, (2, 35, 11)))
    for n, s in zip(ns, POINTS)
]


def test_oracle_reusing_its_work_arrays_equals_plain_sum():
    want = [repr(plain_Z_n_oracle(*call)) for call in REUSE_CALLS]
    for _ in range(2):
        assert [repr(mds.Z_n_oracle(*call)) for call in REUSE_CALLS] == want
    # m^400 overflows to inf at most m of n = 5's support; the next
    # call must not meet those powers where its own coefficients are 0.
    with np.errstate(over="ignore", invalid="ignore"):
        mds.Z_n_oracle(5, -400.0, 100_000)
    assert repr(mds.Z_n_oracle(11, 2.5, 100_000)) == repr(
        plain_Z_n_oracle(11, 2.5, 100_000)
    )


def test_oracle_work_arrays_are_not_shared_across_threads():
    # More threads than the two cores of a small machine.  Each walks
    # the calls from its own offset, so the threads sum different slices
    # at one cutoff at once; a short switch interval makes them
    # interleave inside the calls.
    want = [repr(plain_Z_n_oracle(*call)) for call in REUSE_CALLS]
    k = len(REUSE_CALLS)
    got = [[] for _ in range(4)]

    def work(t):
        order = [(t + i) % k for i in range(2 * k)]
        got[t] = [(i, repr(mds.Z_n_oracle(*REUSE_CALLS[i]))) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for results in got:
        assert len(results) == 2 * k
        assert all(value == want[i] for i, value in results)


# A fresh interpreter: the heap of a long test session can hold pages
# mapped by earlier tests, which would hide a call's own faults.
FAULT_SCRIPT = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from cubic_mds import mds
n = int(sys.argv[2])
for _ in range(2):
    mds.Z_n_oracle(n, 2.5, 100_000)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
mds.Z_n_oracle(n, 2.5, 100_000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page faults are counted as on Linux")
def test_warm_oracle_call_faults_in_few_pages():
    # Fresh arrays for the coefficients and powers took about 1,140
    # minor faults per call at this cutoff; the kept ones take none, and
    # the sieve's own arrays about 350.  The vanishing slice n = 7 makes
    # no array at all; a zero array from the sieve took about 160.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    for n, most in ((5, 600), (7, 20)):
        proc = subprocess.run(
            [sys.executable, "-c", FAULT_SCRIPT, str(SRC), str(n)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        faults = int(proc.stdout)
        assert faults <= most, (n, faults)


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
