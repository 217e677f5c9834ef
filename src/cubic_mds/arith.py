"""Integer and modular arithmetic primitives.

Everything downstream -- square-root counting, local Euler factors,
character tables, bulk series evaluation -- reduces to a handful of
tools collected here:

* factorization with a 64-bit input contract (trial division by the
  primes up to 37, then Brent's cycle variant of Pollard rho behind a
  Miller-Rabin test),
* the fully extended Kronecker symbol (a/b), defined for every pair of
  integers except (0, 0),
* squarefree detection,
* shared sieves (primes, smallest prime factor, squarefree mask) that
  the series code leans on for multiplicative fills.

All functions are pure.  The sieve caches only ever grow and are safe
to share once built.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import PoleError

_MAX_FACTOR_INPUT = 2**63 - 1

# Trial divisors; a number below 41^2 with none of them as a factor is prime.
# As Miller-Rabin witnesses they prove primality for every n < 3.3e24,
# comfortably past the 63-bit input contract (Sorenson-Webster bases).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# ======================================================================
# primality and factorization
# ======================================================================

def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the 63-bit range.

    Trial division by the primes up to 37 settles n < 41^2; above that
    the same twelve primes are the witnesses.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite odd n via Brent's cycle finder."""
    if n % 2 == 0:
        return 2
    # Deterministic seed schedule keeps runs reproducible.
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, e) with p^e || n, by ascending p, for 1 <= n <= 2^63 - 1.

    n is the product of p^e over the pairs; n = 1 gives the empty tuple.
    """
    if not 1 <= n <= _MAX_FACTOR_INPUT:
        raise ValueError(f"factorize requires 1 <= n <= 2^63-1, got {n}")
    found: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    if m > 1:
        # No prime below the last p tried divides m, so m is prime when
        # p^2 > m and may be composite otherwise: test it, split with rho.
        stack = [m]
        while stack:
            t = stack.pop()
            if is_probable_prime(t):
                found[t] = found.get(t, 0) + 1
                continue
            g = _brent_rho(t)
            stack.append(g)
            stack.append(t // g)
    return tuple(sorted(found.items()))


def valuation(n: int, p: int) -> int:
    """Exponent of p in n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def mobius(n: int) -> int:
    """Moebius function mu(n) for 1 <= n <= 2^63 - 1, from `factorize`."""
    mu = 1
    for _p, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


# ======================================================================
# Kronecker symbol
# ======================================================================

def kronecker(a: int, b: int) -> int:
    """Kronecker symbol (a/b), extended to all integers except (0, 0).

    Agrees with the Jacobi symbol for odd b > 0 and with the Legendre
    symbol for odd prime b.  Conventions at the extended arguments:
    (a/2) is 0 for even a and (-1)^((a^2-1)/8) for odd a; (a/-1) is -1
    exactly when a < 0; (a/0) is 1 for a = +-1 and 0 otherwise.
    """
    if b == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if b < 0:
        b = -b
        if a < 0:
            result = -1
    if b % 2 == 0:
        if a % 2 == 0:
            return 0
        v = 0
        while b % 2 == 0:
            b //= 2
            v += 1
        if v % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= b
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


def _residues(a: int, moduli: np.ndarray) -> np.ndarray:
    """a mod q for each q of the int64 array moduli, exact for any Python
    int a: one int64 operation when |a| < 2^62, else one q at a time."""
    if -(2**62) < a < 2**62:
        return a % moduli
    return np.array([a % q for q in moduli.tolist()], dtype=np.int64)


# Below 2^31 a residue squared fits in int64, so Euler's criterion is exact.
_EULER_CRITERION_LIMIT = 2**31


def legendre_column(a: int, primes: np.ndarray) -> np.ndarray:
    """kronecker(a, p) for each prime p of `primes`, as an int64 array.

    For odd p this is Euler's criterion, a^((p-1)/2) mod p, taken for
    every prime at once by square-and-multiply in int64; at p = 2 it is
    the mod-8 rule of `kronecker`.  Primes from 2^31 up go to the scalar
    `kronecker`.  It uses neither `lfunc.jacobi_table` nor a character
    table, so a route built on it stays apart from the closed forms.
    """
    primes = np.asarray(primes, dtype=np.int64)
    out = np.zeros(primes.shape, dtype=np.int64)
    small = (primes > 2) & (primes < _EULER_CRITERION_LIMIT)
    p = primes[small]
    base = _residues(a, p)
    power = np.ones_like(p)
    exp = (p - 1) >> 1
    while exp.any():
        power = np.where(exp & 1, power * base % p, power)
        base = base * base % p
        exp >>= 1
    out[small] = np.where(power == p - 1, -1, power)
    if a % 2:
        out[primes == 2] = 1 if a % 8 in (1, 7) else -1
    for i in np.flatnonzero(primes >= _EULER_CRITERION_LIMIT).tolist():
        out[i] = kronecker(a, int(primes[i]))
    return out


# ======================================================================
# squarefree structure
# ======================================================================

def is_squarefree(n: int) -> bool:
    """True when no prime square divides n (n >= 1)."""
    if n < 1:
        raise ValueError(f"is_squarefree requires n >= 1, got {n}")
    if n % 4 == 0 or n % 9 == 0 or n % 25 == 0:
        return False
    return all(e == 1 for _, e in factorize(n))


# ======================================================================
# shared sieves
# ======================================================================

_SPF: list[int] = []


def spf_list(limit: int) -> list[int]:
    """Smallest-prime-factor table as a list (index 0..limit).

    spf[1] = 1 and spf[p] = p for primes.  The table is a shared cache
    that only grows; treat the result as read-only.
    """
    global _SPF
    if len(_SPF) <= limit:
        spf = np.arange(limit + 1, dtype=np.int64)
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == p:
                block = spf[p * p :: p]
                np.minimum(block, p, out=block)
        _SPF = spf.tolist()
    return _SPF


_PRIMES = np.zeros(0, dtype=np.int64)
_PRIMES_LIMIT = 1
_PRIMES.setflags(write=False)


def _prime_array(limit: int) -> np.ndarray:
    """Ascending primes p <= limit as a read-only int64 array.

    A view of one shared Eratosthenes sieve, which is rebuilt only when
    a larger limit is asked for.
    """
    global _PRIMES, _PRIMES_LIMIT
    if limit > _PRIMES_LIMIT:
        mask = np.ones(limit + 1, dtype=bool)
        mask[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if mask[p]:
                mask[p * p :: p] = False
        _PRIMES = np.flatnonzero(mask).astype(np.int64)
        _PRIMES.setflags(write=False)
        _PRIMES_LIMIT = limit
    return _PRIMES[: int(np.searchsorted(_PRIMES, limit, side="right"))]


def primes_up_to(limit: int) -> list[int]:
    """Ascending primes p <= limit."""
    return _prime_array(limit).tolist()


def squarefree_mask(limit: int) -> np.ndarray:
    """Boolean array: mask[n] is True iff n is squarefree (mask[0] False)."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for q in range(2, math.isqrt(limit) + 1):
        mask[q * q :: q * q] = False
    return mask


def odd_squarefree(limit: int) -> list[int]:
    """The odd squarefree n <= limit, ascending; empty when limit < 1."""
    if limit < 1:
        return []
    return (2 * np.flatnonzero(squarefree_mask(limit)[1::2]) + 1).tolist()


# ======================================================================
# p^(-s), the finiteness check and the pole guard of the closed forms
# ======================================================================

_POLE_EPS = 1e-13


def _px(p: float, s: complex) -> complex:
    """p^(-s) for real p > 0, via exp so large real parts never overflow."""
    return cmath.exp(-s * math.log(p))


def _finite(s: complex) -> complex:
    """s itself; ValueError when it is nan or infinite."""
    if not cmath.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    return s


def _guard(value: complex, what: str) -> complex:
    """value itself; PoleError when it is within 1e-13 of zero."""
    if abs(value) < _POLE_EPS:
        raise PoleError(f"evaluation within 1e-13 of a pole: {what} vanishes")
    return value
