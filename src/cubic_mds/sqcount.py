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
cutoff at once, as an int64 numpy array.  It takes its per-prime values
from `count_roots_prime_power` and does the multiplicative fill with
strided numpy updates; tests check it against `coefficient`.
"""

from __future__ import annotations

import math

import numpy as np

from . import arith
from .errors import OracleScaleError

_BRUTEFORCE_LIMIT = 10**7


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
    on p mod 4n, so count_roots_prime_power(p, 1, -n) is called once per
    residue class that holds a prime <= m_cutoff.  An inert prime zeroes
    its multiples; a split prime adds 1 to an int8 counter at each
    multiple, and h <<= counter applies them all.  A prime p dividing 2n,
    other than 3, gives h its factor C(p^e, -n) at e = v_p(m) by one
    strided in-place multiply per exponent level: the multiples of p^e
    are multiplied by C(p^e, -n) / C(p^(e-1), -n), an integer.  The
    3-part is left out of h and applied last in the same way, at exponent
    v_3(m) + 1, the 3-exponent of 3m.

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
    for idx in _multiples(generic[~split], m_cutoff):
        h[idx] = 0
    cnt = np.zeros(m_cutoff + 1, dtype=np.int8)
    for idx in _multiples(generic[split], m_cutoff):
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
    """C(p, -n) for primes p not dividing 6n, one call per class mod 4n."""
    period = 4 * n
    # A period past int64 exceeds every prime, which is then its own class.
    classes = primes % period if period < 2**62 else primes
    _, first, where = np.unique(classes, return_index=True, return_inverse=True)
    counts = [count_roots_prime_power(p, 1, -n) for p in primes[first].tolist()]
    return np.array(counts, dtype=np.int64)[where]


def _multiples(primes: np.ndarray, limit: int):
    """Index sets covering each multiple k*p <= limit of the primes once.

    No set repeats an index, so fancy-index updates through them are
    exact.  Primes up to sqrt(limit) give one strided slice each; the
    larger ones are taken a multiplier k at a time, as k * P over the
    primes P <= limit // k, so the full list of multiples is never built.
    """
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
