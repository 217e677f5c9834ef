"""Output checks of the benchmark, computed apart from the program.

Every check takes the program's outputs plus the request inputs and
returns None when the outputs are right, or a one-line reason when they
are not.  The expected side is built only from the standard library:
a-priori truncation bounds written out here, closed forms for the
conductor and the Gauss sum, and an Euler product whose character
values come from Euler's criterion.  Nothing here calls into
`cubic_mds`, so a fault in the program cannot hide in its own check.
"""

from __future__ import annotations

import cmath
import math

# Cutoffs the `slices` requests use; they match the defaults of
# `cubic-mds zn` (oracle cutoff 1e5, prime cutoff 1e4).
ORACLE_CUTOFF = 100_000
PRIME_CUTOFF = 10_000

# Prime cutoff of the benchmark's own Euler product for L(2+it, eta_n).
REFERENCE_PRIME_CUTOFF = 100_000


def oracle_tail_bound(m_cutoff: int, sigma: float) -> float:
    """Bound on |sum_{m > M} C(3m, -n) m^(-s)| for squarefree n.

    C(3m, -n) <= 4 d(m) (each odd prime contributes at most 2, the
    primes 2 and 3 at most 4 and 2 once), and
    sum_{m > M} d(m) m^(-sigma) <= M^(1-sigma) (log M/(sigma-1)
    + 1/(sigma-1)^2), the integral of (log x + 2) x^(-sigma) over x > M.
    """
    lg = math.log(m_cutoff)
    return 4.0 * m_cutoff ** (1.0 - sigma) * (
        lg / (sigma - 1.0) + 1.0 / (sigma - 1.0) ** 2
    )


def product_ratio_bound(prime_cutoff: int, sigma: float) -> float:
    """Bound on |closed / product - 1| for the Euler product over p <= P.

    Each dropped factor at an unramified p > P is
    (1 + chi(p) p^-s) / (1 - p^-s), whose logarithm is at most
    2 p^-sigma (1 + P^-sigma) in size; summing over m > P gives
    B = 2.01 P^(1-sigma)/(sigma-1), and |ratio - 1| <= e^B - 1.
    """
    return math.expm1(2.01 * prime_cutoff ** (1.0 - sigma) / (sigma - 1.0))


def check_slice(n: int, s: complex, closed: complex, oracle: complex,
                product: complex) -> str | None:
    """One `slices` request: closed form, 1e5-term sum, Euler product."""
    if n % 3 == 1:
        # C(3, -n) = 1 + (-n/3) = 0, so every coefficient vanishes.
        if closed != 0 or oracle != 0 or product != 0:
            return (f"n={n} = 1 mod 3 must vanish exactly: closed={closed!r}"
                    f" oracle={oracle!r} product={product!r}")
        return None
    sigma = s.real
    gap = abs(closed - oracle)
    bound = oracle_tail_bound(ORACLE_CUTOFF, sigma)
    if not gap <= bound:
        return (f"n={n} s={s}: |closed - oracle| = {gap:.3e} exceeds the"
                f" tail bound {bound:.3e}")
    if product == 0:
        return f"n={n} s={s}: Euler product is 0 on a nonvanishing slice"
    ratio = abs(closed / product - 1)
    rbound = product_ratio_bound(PRIME_CUTOFF, sigma)
    if not ratio <= rbound:
        return (f"n={n} s={s}: |closed/product - 1| = {ratio:.3e} exceeds"
                f" {rbound:.3e}")
    return None


def expected_conductor(n: int) -> int:
    """Conductor of psi_n: |D| for D = -4n (n = 1 mod 4) or -n (n = 3 mod 4)."""
    return 4 * n if n % 4 == 1 else n


def odd_primes_up_to(limit: int) -> list[int]:
    mask = bytearray([1]) * (limit + 1)
    mask[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [p for p in range(3, limit + 1, 2) if mask[p]]


def euler_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def eta_euler_product(n: int, s: complex, primes: list[int]) -> complex:
    """prod over odd primes p of (1 - (-n/p) p^-s)^-1.

    The table of `character_eta(n)` has modulus 4n, so it vanishes on
    even m and the factor at 2 is absent.
    """
    out = 1 + 0j
    for p in primes:
        chi = euler_symbol(-n, p)
        if chi:
            out /= 1 - chi * cmath.exp(-s * math.log(p))
    return out


def eta_product_bound(prime_cutoff: int, sigma: float) -> float:
    """Bound on |L / product - 1| for the product over p <= P.

    |log(L / product)| <= sum_{p > P} sum_k p^(-k sigma)/k
    <= (1 - P^-sigma)^-1 sum_{m > P} m^-sigma
    <= (1 - P^-sigma)^-1 P^(1-sigma)/(sigma - 1) = B, so the ratio is
    within e^B - 1 of 1.  1e-12 covers rounding in either route.
    """
    b = prime_cutoff ** (1.0 - sigma) / (sigma - 1.0)
    b /= 1.0 - prime_cutoff ** (-sigma)
    return math.expm1(b) + 1e-12


def check_lseries(n: int, s: complex, t: float, conductor: int,
                  primitive_modulus: int, tau: complex, lam_s: complex,
                  lam_1ms: complex, l_eta: complex,
                  reference: complex) -> str | None:
    """One `lseries` request.

    `reference` is `eta_euler_product(n, 2+it, primes up to
    REFERENCE_PRIME_CUTOFF)`, made by the caller so it can be reused.
    """
    f = expected_conductor(n)
    if conductor != f or primitive_modulus != f:
        return (f"n={n}: conductor {conductor}, primitive modulus"
                f" {primitive_modulus}, expected {f}")
    root = math.sqrt(f)
    if not abs(tau - 1j * root) <= 1e-9 * root:
        return f"n={n}: Gauss sum {tau!r}, expected i*sqrt({f})"
    if not abs(lam_s - lam_1ms) <= 1e-8 * abs(lam_s):
        return (f"n={n} s={s}: |Lambda(s) - Lambda(1-s)| ="
                f" {abs(lam_s - lam_1ms):.3e} against |Lambda(s)| ="
                f" {abs(lam_s):.3e}")
    bound = eta_product_bound(REFERENCE_PRIME_CUTOFF, 2.0)
    ratio = abs(l_eta / reference - 1)
    if not ratio <= bound:
        return (f"n={n} t={t}: |L(2+it)/product - 1| = {ratio:.3e} exceeds"
                f" {bound:.3e}")
    return None
