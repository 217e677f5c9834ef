"""Counting square roots modulo m.

C(m, n) = #{x mod m : x^2 = n (mod m)} is the whole arithmetic engine:
it is multiplicative in m by the Chinese remainder theorem, and on
prime powers it has a short closed form.  The series coefficients are
the specialization  coefficient(m, n) = C(3m, -n).

Two independent routes are kept side by side on purpose: an exhaustive
counter (`count_roots_bruteforce`, plus a whole-residue-table variant)
and the closed formula (`count_roots_prime_power` assembled by
`count_roots`).  Tests pit one against the other.

`coefficient_sieve` gives every coefficient of one n-slice up to a
cutoff M at once, as an int64 numpy array.  It calls
`count_roots_prime_power` once per class of the symbol's period (n when
n = 3 mod 4, else 4n) and once per exponent level of the primes of 6n,
and does the multiplicative fill without a loop over multipliers: a
strided update per prime up to sqrt(M), and one fancy-index update per
block of whole larger primes, about 2^16 multiples each.  Tests check
it against `coefficient` and against the multiplier-at-a-time sieve.
"""

from __future__ import annotations

import math

import numpy as np

from . import arith
from .errors import OracleScaleError

_BRUTEFORCE_LIMIT = 10**7
# Index entries per fancy-index update of the sieve's large primes.
_BLOCK = 2**16


# ======================================================================
# exhaustive oracles
# ======================================================================

def count_roots_bruteforce(m: int, n: int) -> int:
    """#{x in [0, m) : x^2 = n mod m} by direct enumeration (m <= 1e7)."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if m > _BRUTEFORCE_LIMIT:
        raise OracleScaleError(
            f"exhaustive count refused for m = {m} > {_BRUTEFORCE_LIMIT}"
        )
    target = n % m
    return sum(1 for x in range(m) if x * x % m == target)


def count_roots_residue_table(m: int) -> np.ndarray:
    """Exhaustive counts for every residue at once: table[r] = C(m, r).

    One pass over x in [0, m) histogrammed by x^2 mod m; this is the
    oracle the bulk sweeps use (m <= 1e7).
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if m > _BRUTEFORCE_LIMIT:
        raise OracleScaleError(
            f"exhaustive table refused for m = {m} > {_BRUTEFORCE_LIMIT}"
        )
    x = np.arange(m, dtype=np.int64)
    return np.bincount(x * x % m, minlength=m)


# ======================================================================
# closed formula
# ======================================================================

def _unit_count(p: int, alpha: int, u: int) -> int:
    """C(p^alpha, u) for p not dividing u, alpha >= 1."""
    if p == 2:
        if alpha == 1:
            return 1
        if alpha == 2:
            return 2 if u % 4 == 1 else 0
        return 4 if u % 8 == 1 else 0
    return 1 + arith.kronecker(u, p)


def count_roots_prime_power(p: int, alpha: int, n: int) -> int:
    """C(p^alpha, n) in closed form; alpha = 0 gives 1.

    Splitting n = p^r * n0 with p not dividing n0 (n = 0 behaves as
    r = infinity): r >= alpha contributes p^floor(alpha/2); r < alpha
    odd contributes 0; r < alpha even contributes p^(r/2) times the
    unit-square count of n0 modulo p^(alpha-r).
    """
    if alpha < 0:
        raise ValueError(f"exponent must be >= 0, got {alpha}")
    if alpha == 0:
        return 1
    if n % p == 0:
        r = 0
        m = n
        while r < alpha and m % p == 0:
            m //= p
            r += 1
        if r >= alpha:
            return p ** (alpha // 2)
        if r % 2 == 1:
            return 0
        return p ** (r // 2) * _unit_count(p, alpha - r, m)
    return _unit_count(p, alpha, n)


def count_roots(m: int, n: int) -> int:
    """C(m, n) for m >= 1, any integer n, via CRT over factorize(m)."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    out = 1
    for p, e in arith.factorize(m):
        out *= count_roots_prime_power(p, e, n)
        if out == 0:
            return 0
    return out


# ======================================================================
# series coefficients
# ======================================================================

def coefficient(m: int, n: int) -> int:
    """Series coefficient C(3m, -n) for m, n >= 1."""
    if m < 1 or n < 1:
        raise ValueError(f"coefficient requires m, n >= 1, got ({m}, {n})")
    return count_roots(3 * m, -n)


def coefficient_sieve(n: int, m_cutoff: int) -> np.ndarray:
    """[0, C(3*1, -n), ..., C(3*m_cutoff, -n)] as an int64 array, by sieve.

    Index 0 is a placeholder.  Equal, entry for entry, to calling
    coefficient(m, n) for each m.  int64 is exact by a bound, not by an
    observed maximum: C(3m, -n) counts residues mod 3m, so it is at most
    3m <= 3*m_cutoff, and every partial product below is a factor of it.

    The fill rests on one fact: a prime p not dividing 6n contributes
    1 + (-n/p), which is 0 or 2, at every exponent.  (-n/p) depends only
    on p mod n when n = 3 (mod 4), since -n = 1 (mod 4) then, and on
    p mod 4n otherwise, so count_roots_prime_power(p, 1, -n) is called
    once per class of that period that holds a prime <= m_cutoff.  An
    inert prime zeroes its multiples; a split prime adds 1 to an int8
    counter at each multiple, and h <<= counter applies them all.  A
    prime up to sqrt(m_cutoff) does so by one strided update.  A larger
    prime divides each m <= m_cutoff at most once and no m has two, so
    their multiples k*P are all distinct; they are built as index arrays
    in blocks of whole primes, about 2^16 indices each, and each block
    takes one fancy-index update, so no index array is cutoff-sized.

    A prime p dividing 2n, other than 3, gives h its factor C(p^e, -n)
    at e = v_p(m) by one strided in-place multiply per exponent level:
    the multiples of p^e are multiplied by C(p^e, -n) / C(p^(e-1), -n),
    an integer.  The 3-part is left out of h and applied last in the
    same way, at exponent v_3(m) + 1, the 3-exponent of 3m.

    Kernel rule: every symbol here comes from the scalar `arith.kronecker`
    inside count_roots_prime_power, never from `arith.legendre_column`
    (the Euler product's) or `lfunc.jacobi_table` (the closed form's), so
    the oracle built on this sieve stays a separate computation.
    """
    if n < 1 or m_cutoff < 1:
        raise ValueError(
            f"coefficient_sieve requires n, m_cutoff >= 1, got ({n}, {m_cutoff})"
        )
    primes = arith._prime_array(m_cutoff)
    special = _residues(2 * n, primes) == 0
    generic = primes[~special & (primes != 3)]
    split = _generic_counts(n, generic) == 2

    h = np.ones(m_cutoff + 1, dtype=np.int64)
    for idx in _multiple_sets(generic[~split], m_cutoff):
        h[idx] = 0
    cnt = np.zeros(m_cutoff + 1, dtype=np.int8)
    for idx in _multiple_sets(generic[split], m_cutoff):
        cnt[idx] += 1
    h <<= cnt

    for p in primes[special & (primes != 3)].tolist() + [3]:
        shift = 1 if p == 3 else 0
        last = count_roots_prime_power(p, shift, -n)
        if last != 1:
            h *= last
        q = p
        e = 1
        # Level e multiplies the multiples of p^e by the step from the
        # count at exponent e - 1 to the count at e; the steps telescope
        # to C(p^(v+shift), -n) at v = v_p(m).  Each step is an integer:
        # a nonzero count is p^(k/2) times 1, 2 or 4, and it grows by a
        # factor 1, 2, 1 + (-n0/p) or p per level until it drops to 0,
        # where it stays.
        while q <= m_cutoff and last:
            count = count_roots_prime_power(p, e + shift, -n)
            if count != last:
                h[q::q] *= count // last
            last = count
            q *= p
            e += 1
    h[0] = 0
    return h


def _residues(a: int, moduli: np.ndarray) -> np.ndarray:
    """a mod q for each q in moduli, exact for any Python int a >= 0."""
    if a < 2**62:
        return a % moduli
    return np.array([a % q for q in moduli.tolist()], dtype=np.int64)


def _generic_counts(n: int, primes: np.ndarray) -> np.ndarray:
    """C(p, -n) for ascending primes p not dividing 6n, one call per class
    of the symbol's period that holds one of them."""
    if not primes.size:
        return np.zeros(0, dtype=np.int64)
    # -n = 1 (mod 4) makes (-n/.) periodic mod n; 4n is always a period.
    period = n if n % 4 == 3 else 4 * n
    largest = int(primes[-1])
    # A period past the largest prime leaves each prime its own class.
    classes = primes % period if period <= largest else primes
    # Any prime of a class stands for it, as the count is the class's.
    rep = np.full(min(period, largest + 1), -1, dtype=np.int64)
    rep[classes] = np.arange(primes.size)
    present = np.flatnonzero(rep >= 0)
    counts = np.zeros(rep.size, dtype=np.int64)
    counts[present] = [
        count_roots_prime_power(p, 1, -n) for p in primes[rep[present]].tolist()
    ]
    return counts[classes]


def _multiple_sets(primes: np.ndarray, limit: int):
    """Index sets covering each multiple k*p <= limit of the primes once.

    Primes up to sqrt(limit) give one strided slice each, the larger
    ones an index array per block of whole primes with about _BLOCK
    multiples.  No set repeats an index, so fancy-index updates through
    them are exact: a larger prime divides each m <= limit at most once
    and no m has two of them.
    """
    cut = int(np.searchsorted(primes, math.isqrt(limit), side="right"))
    for p in primes[:cut].tolist():
        yield slice(p, limit + 1, p)
    large = primes[cut:]
    if not large.size:
        return
    counts = limit // large
    ends = np.cumsum(counts)
    starts = ends - counts
    a = 0
    while a < large.size:
        # As many whole primes as fit in _BLOCK multiples, at least one.
        b = max(a + 1, int(np.searchsorted(ends, starts[a] + _BLOCK, "right")))
        c = counts[a:b]
        # Entry j of the run of all multiples is k * large[i], where
        # starts[i] <= j < ends[i] and k = j - starts[i] + 1.
        k = np.arange(starts[a] + 1, ends[b - 1] + 1)
        k -= np.repeat(starts[a:b], c)
        idx = np.repeat(large[a:b], c)
        idx *= k
        yield idx
        a = b
