"""Integer utilities: factorization, Kronecker symbol, squarefree sieves."""

import math
import random

import pytest

from cubic_mds import arith

try:
    from hypothesis import assume, given, strategies as st
except ImportError:  # the property tests are then skipped
    given = None

# ======================================================================
# factorization
# ======================================================================


def trial_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@pytest.mark.parametrize("n", [1, 2, 12, 97, 360, 2**20, 3 * 5 * 7 * 11 * 13])
def test_factorize_matches_trial_division(n):
    assert dict(arith.factorize(n)) == trial_factor(n)


def test_factorize_random_reconstruction():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 10**9)
        fac = arith.factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        for p, e in fac:
            assert e >= 1
            assert arith.is_probable_prime(p)


def test_factorize_large_semiprime():
    p, q = 1000003, 1000033
    assert arith.factorize(p * q) == ((p, 1), (q, 1))
    # No factor up to 37: settled by Miller-Rabin and rho alone.
    assert arith.factorize(2**61 - 1) == ((2**61 - 1, 1),)
    assert arith.factorize(q * q) == ((q, 2),)
    assert arith.factorize(41 * 41 * 43) == ((41, 2), (43, 1))


def test_factorize_matches_spf_to_200k():
    limit = 200_000
    spf = arith.spf_list(limit)
    for n in range(1, limit + 1):
        want: dict[int, int] = {}
        m = n
        while m > 1:
            want[spf[m]] = want.get(spf[m], 0) + 1
            m //= spf[m]
        assert arith.factorize(n) == tuple(sorted(want.items())), n


def test_valuation():
    assert arith.valuation(48, 2) == 4
    assert arith.valuation(48, 3) == 1
    assert arith.valuation(48, 5) == 0


# ======================================================================
# Kronecker symbol
# ======================================================================


def legendre_euler(a: int, p: int) -> int:
    """Independent reference via the Euler criterion (odd prime p)."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def test_kronecker_odd_prime_bottoms():
    for p in [3, 5, 7, 11, 13, 97, 101]:
        for a in range(-20, 21):
            assert arith.kronecker(a, p) == legendre_euler(a, p), (a, p)


def test_kronecker_two_bottom():
    # (a/2) depends on a mod 8: 0 for even a, +1 at 1,7 and -1 at 3,5.
    expected = {1: 1, 3: -1, 5: -1, 7: 1}
    for a in range(-40, 41):
        want = 0 if a % 2 == 0 else expected[a % 8]
        assert arith.kronecker(a, 2) == want, a


def test_kronecker_multiplicative_in_bottom():
    rng = random.Random(12)
    for _ in range(300):
        a = rng.randrange(-50, 51)
        b1 = rng.randrange(1, 60)
        b2 = rng.randrange(1, 60)
        lhs = arith.kronecker(a, b1 * b2)
        rhs = arith.kronecker(a, b1) * arith.kronecker(a, b2)
        assert lhs == rhs, (a, b1, b2)


def test_kronecker_multiplicative_in_top():
    rng = random.Random(13)
    for _ in range(300):
        a1 = rng.randrange(-50, 51)
        a2 = rng.randrange(-50, 51)
        b = rng.randrange(1, 80)
        assert arith.kronecker(a1 * a2, b) == arith.kronecker(
            a1, b
        ) * arith.kronecker(a2, b)


def test_kronecker_periodicity_discriminant_tops():
    # (a/.) is a character mod 4|a| exactly when a = 0, 1 mod 4; a = 3
    # genuinely breaks at even bottoms ((3/2) = -1 but (3/14) = +1).
    for a in [-3, 5, 12, -20, 13]:
        period = 4 * abs(a)
        for b in range(1, 2 * period):
            assert arith.kronecker(a, b) == arith.kronecker(a, b + period)


def test_kronecker_periodicity_odd_bottoms():
    # Restricted to odd bottoms the period 4|a| holds for every top.
    for a in [3, 7, -6, 10]:
        period = 4 * abs(a)
        for b in range(1, 2 * period, 2):
            assert arith.kronecker(a, b) == arith.kronecker(a, b + period)


if given is not None:
    odd_positive = st.integers(0, 10**6).map(lambda k: 2 * k + 1)

    @given(a=odd_positive, b=odd_positive)
    def test_kronecker_reciprocity_property(a, b):
        # (a/b)(b/a) = (-1)^((a-1)/2 (b-1)/2) for coprime odd a, b > 0.
        assume(math.gcd(a, b) == 1)
        sign = -1 if (a - 1) // 2 * ((b - 1) // 2) % 2 else 1
        assert arith.kronecker(a, b) * arith.kronecker(b, a) == sign

    @given(b=odd_positive)
    def test_kronecker_supplementary_laws_property(b):
        assert arith.kronecker(-1, b) == (-1) ** ((b - 1) // 2)
        assert arith.kronecker(2, b) == (-1) ** ((b * b - 1) // 8)


# ======================================================================
# squarefree structure
# ======================================================================


def test_is_squarefree_small():
    flags = [arith.is_squarefree(n) for n in range(1, 21)]
    # 4, 8, 9, 12, 16, 18, 20 contain a square factor.
    assert flags == [
        True, True, True, False, True, True, True, False, False, True,
        True, False, True, True, True, False, True, False, True, False,
    ]


def test_squarefree_mask_matches_pointwise():
    mask = arith.squarefree_mask(2000)
    for n in range(1, 2001):
        assert bool(mask[n]) == arith.is_squarefree(n), n


# ======================================================================
# sieves
# ======================================================================


def test_primes_up_to():
    assert arith.primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    primes = arith.primes_up_to(10**4)
    assert len(primes) == 1229
    assert all(arith.is_probable_prime(p) for p in primes[:100])


def test_spf_list_divides_and_is_minimal():
    spf = arith.spf_list(500)
    for n in range(2, 501):
        p = spf[n]
        assert n % p == 0
        assert all(n % q for q in range(2, p))


def test_is_probable_prime_against_sieve():
    sieve = set(arith.primes_up_to(5000))
    for n in range(2, 5001):
        assert arith.is_probable_prime(n) == (n in sieve), n


def test_is_probable_prime_matches_spf_to_200k():
    limit = 200_000
    spf = arith.spf_list(limit)
    want = [spf[k] == k for k in range(limit + 1)]
    want[:2] = [False, False]
    got = [arith.is_probable_prime(k) for k in range(limit + 1)]
    assert got == want


def test_is_probable_prime_four_witnesses_match_twelve(monkeypatch):
    rng = random.Random(63)
    samples = [rng.randrange(1681, arith._MR_SMALL_LIMIT) for _ in range(3000)]
    samples += [rng.randrange(2**62, 2**63) for _ in range(300)]
    # Strong pseudoprimes to base 2, to bases 2 and 3, and to 2, 3 and 5.
    samples += [2047, 3277, 4033, 4681, 8321, 1373653, 25326001]
    fast = [arith.is_probable_prime(n) for n in samples]
    monkeypatch.setattr(arith, "_MR_SMALL_LIMIT", 0)
    assert [arith.is_probable_prime(n) for n in samples] == fast
    assert sum(fast) > 100


def test_is_probable_prime_rejects_strong_pseudoprimes():
    # Least strong pseudoprimes to the first four, five and six prime bases.
    for n in (3_215_031_751, 2_152_302_898_747, 3_474_749_660_383):
        assert not arith.is_probable_prime(n), n


def test_is_probable_prime_carmichael():
    # Carmichael numbers fool Fermat tests but not Miller-Rabin.
    for n in [561, 1105, 1729, 2465, 2821, 6601, 8911]:
        assert not arith.is_probable_prime(n)
    assert arith.is_probable_prime(2**61 - 1)
