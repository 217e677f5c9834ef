"""Assembly of the two-variable series and its verification identities.

The series is evaluated two independent ways (directly over reduced
forms and through the counting coefficients), sliced one inner series
at a time, twisted by the characters mod 24, and checked against the
residue-proof identity, the residue Euler product, and the completed
functional equation.  Every evaluator truncates in a fixed order so a
given call is reproducible bit for bit.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import arith, forms, sqcount
from .afe import _afe_domain, _L23_real_batch
from .arith import _finite, _px
from .errors import PoleError
from .euler import _local_factor, _unit_factor
from .lfunc import (
    _UNITS_MOD24,
    DirichletCharacter,
    A_j,
    L_removed_23,
    character_eta,
    completed_Lambda,
    characters_mod24,
    dirichlet_L,
    jacobi_table,
    principal_character,
    riemann_zeta,
)

# ======================================================================
# truncation plumbing
# ======================================================================


def _check_cutoffs(**cutoffs: int) -> None:
    """ValueError unless every named cutoff is >= 1."""
    for name, value in cutoffs.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _check_tolerance(tolerance: float) -> None:
    """ValueError unless the tolerance is > 0; nan is refused too."""
    if not tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")


def rel_err(a: complex, b: complex) -> float:
    """|a - b| over the larger of |a| and |b|, or over 1e-300 when both are 0."""
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


@dataclass(frozen=True)
class SeriesComparison:
    """Two evaluations of one quantity, their distance, and the relative
    tolerance it is judged against.  The tolerance should be justified
    by the tail bound (see coefficient_tail_bound) at the point of use;
    ValueError unless it is > 0."""

    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tolerance: float

    def __post_init__(self) -> None:
        _check_tolerance(self.tolerance)

    @classmethod
    def compare(
        cls, lhs: complex, rhs: complex, tolerance: float
    ) -> "SeriesComparison":
        lhs = complex(lhs)
        rhs = complex(rhs)
        return cls(lhs=lhs, rhs=rhs, abs_err=abs(lhs - rhs),
                   rel_err=rel_err(lhs, rhs), tolerance=tolerance)

    @property
    def passed(self) -> bool:
        return self.rel_err <= self.tolerance

    def record(self) -> dict:
        """The comparison as a JSON record."""
        return {
            "lhs_re": self.lhs.real,
            "lhs_im": self.lhs.imag,
            "rhs_re": self.rhs.real,
            "rhs_im": self.rhs.imag,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "tolerance": self.tolerance,
        }


def coefficient_tail_bound(m_cutoff: int, sigma: float) -> float:
    """Bound on the dropped inner tail sum_{m > M} C(3m, -n) m^(-sigma).

    For squarefree n the coefficient is at most 4 * d(m) (each odd
    prime contributes a factor <= 2, the primes 2 and 3 at most 4 and 2
    once), and sum_{m > M} d(m) m^(-sigma) is bounded by the integral
    M^(1-sigma) (log M / (sigma - 1) + 1 / (sigma - 1)^2).  Valid for
    sigma > 1.
    """
    if sigma <= 1:
        raise ValueError("tail bound requires sigma > 1")
    lg = math.log(m_cutoff)
    return 4.0 * m_cutoff ** (1.0 - sigma) * (
        lg / (sigma - 1.0) + 1.0 / (sigma - 1.0) ** 2
    )


def _fsum(terms: list[complex]) -> complex:
    """Correctly rounded sum of complex terms, part by part."""
    return complex(
        math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
    )


# ======================================================================
# the double series, two routes
# ======================================================================


def Z_direct(s1: complex, s2: complex, m_cutoff: int, n_cutoff: int) -> complex:
    """Sum of a^(-s1) (3ac - b^2)^(-s2) over reduced representatives
    with a <= m_cutoff and odd squarefree n = 3ac - b^2 <= n_cutoff.

    Terms are generated lexicographically in (a, b, c) and accumulated
    with exact compensated summation, so the value is independent of
    any regrouping.  Meaningful for Re(s1) > 1 and Re(s2) > 1 where the
    truncation tails are controlled.  ValueError when s1 or s2 is not
    finite or a cutoff is below 1.
    """
    _finite(s1)
    _finite(s2)
    return _fsum([
        _px(a, s1) * _px(n, s2)
        for a, _b, _c, n in forms.enumerate_representatives(m_cutoff, n_cutoff)
    ])


def _coefficient_double_sum(ns: list[int], s1: complex, s2: complex,
                            m_cutoff: int) -> complex:
    """Sum of C(3m,-n) m^(-s1) n^(-s2) over the n of `ns` and m <= m_cutoff.

    Each n-slice is `Z_n_oracle`, so a vanishing one (n = 1 mod 3) adds
    an exact 0j; the slices are folded by `_fsum` in the order of `ns`.
    """
    return _fsum([Z_n_oracle(n, s1, m_cutoff) * _px(n, s2) for n in ns])


def Z_coeff(s1: complex, s2: complex, m_cutoff: int, n_cutoff: int) -> complex:
    """Coefficient route: C(3m,-n) m^(-s1) n^(-s2) over m <= m_cutoff
    and odd squarefree n <= n_cutoff.

    Identical term multiset as Z_direct under matched cutoffs, grouped
    by n instead of by form into slices `Z_n_oracle(n, s1, m_cutoff)`.
    ValueError when s1 or s2 is not finite or a cutoff is below 1.
    """
    _finite(s1)
    _finite(s2)
    _check_cutoffs(m_cutoff=m_cutoff, n_cutoff=n_cutoff)
    ns = arith.odd_squarefree(n_cutoff)
    return _coefficient_double_sum(ns, s1, s2, m_cutoff)


def Z_n_oracle(n: int, s: complex, m_cutoff: int) -> complex:
    """Truncated inner series sum_{m <= M} C(3m,-n) m^(-s).

    Brute reference for the closed form and the local-factor product,
    and each slice of `Z_coeff`; meaningful for Re(s) > 1.  ValueError
    when s is not finite, n < 1 or m_cutoff < 1.

    The one place a slice is known to vanish: every coefficient carries
    the 3-part C(3^(v+1), -n), which for 3 not dividing n is 1 + (-n/3)
    at every level, so C(3, -n) = 0 (n = 1 mod 3, by the sieve's scalar
    symbol) returns 0j before the sieve, the value a dot of zeros gives.
    Otherwise m^(-s) is formed only where the coefficient is nonzero
    (about a quarter of the m) and the other entries stay 0.  The dot
    product still runs over all M entries, so its summation order is
    the one a full vector of powers would give, and a zero coefficient
    adds only a signed zero: the value is the same, bit for bit.  Its
    two complex operands are work arrays kept per thread for the last
    cutoff, so a repeated call neither allocates them nor page-faults
    them in again.
    """
    _finite(s)
    # Bad n or m_cutoff goes on to the sieve's ValueError.
    if n >= 1 and m_cutoff >= 1 and sqcount.count_roots_prime_power(3, 1, -n) == 0:
        return 0j
    counts = sqcount.coefficient_sieve(n, m_cutoff)[1:]
    # flatnonzero scans a boolean mask about twice as fast as the int64
    # counts.
    nz = np.flatnonzero(counts != 0)
    coeffs, powers = _oracle_work_arrays(m_cutoff)
    # Exact: a count is at most 3 * m_cutoff, far below 2^53.
    coeffs[:] = counts
    powers.fill(0)
    powers[nz] = np.exp(-complex(s) * np.log(nz + 1.0))
    return complex(coeffs @ powers)


_oracle_work = threading.local()


def _oracle_work_arrays(m_cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two complex128 arrays of length m_cutoff; the arrays
    of an earlier cutoff are dropped."""
    arrays = getattr(_oracle_work, "arrays", None)
    if arrays is None or arrays[0].size != m_cutoff:
        arrays = (np.empty(m_cutoff, dtype=complex),
                  np.empty(m_cutoff, dtype=complex))
        _oracle_work.arrays = arrays
    return arrays


@functools.lru_cache(maxsize=2)
def _prime_logs(prime_cutoff: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The primes up to the cutoff, and math.log of each."""
    primes = tuple(arith.primes_up_to(prime_cutoff))
    return primes, tuple(math.log(p) for p in primes)


def Z_n_euler_product(n: int, s: complex, prime_cutoff: int) -> complex:
    """Product of the closed local factors over primes up to the cutoff.

    n and s are checked once, as `local_factor_closed` checks them, and
    no factor repeats its primality proof, since the sieve made their p.
    The primes 2, 3 and those dividing n take `_local_factor`.  Every other
    p takes the unramified factor (1 + x) / (1 - (-n/p) x), x = p^(-s),
    through the same `_unit_factor` as `unit_factor_generic`, with
    log p cached per cutoff, so the product is the same bit for bit.
    Its symbols (-n/p) come from `arith.legendre_column`, Euler's
    criterion for all primes at once: never from `lfunc.jacobi_table`
    or a character table, on which the closed form is built.

    ValueError when n < 1, s is not finite or prime_cutoff < 1; cutoff 1
    gives the empty product 1.
    """
    if prime_cutoff < 1:
        raise ValueError(f"prime cutoff must be >= 1, got {prime_cutoff}")
    if n < 1:
        raise ValueError(f"slice index must satisfy n >= 1, got {n}")
    _finite(s)
    primes, logs = _prime_logs(prime_cutoff)
    out = 1 + 0j
    eps = arith.legendre_column(-n, arith._prime_array(prime_cutoff)).tolist()
    for p, logp, e in zip(primes, logs, eps):
        if e == 0 or p <= 3:
            out *= _local_factor(p, n, s)
        else:
            out *= _unit_factor(p, cmath.exp(-s * logp), e)
    return out


# ======================================================================
# character-twisted pieces
# ======================================================================

def _L23_eta(n: int, s: complex) -> complex:
    """L_{2,3}(eta_n, s) by the Hurwitz route."""
    return L_removed_23(character_eta(n), s)


def _outer_indices(n_cutoff: int) -> list[int]:
    """The squarefree n <= n_cutoff coprime to 6, ascending."""
    return [n for n in arith.odd_squarefree(n_cutoff) if n % 3]


# The same L-values at one real s for all n up to a cutoff, from one
# approximate-functional-equation batch; the key is (s, n_cutoff).
@functools.lru_cache(maxsize=4)
def _L23_eta_batch(s: float, n_cutoff: int) -> tuple[complex, ...]:
    values = _L23_real_batch(_outer_indices(n_cutoff), s)
    return tuple(complex(v) for v in values.tolist())


def _twisted_sum(
    chi: DirichletCharacter, ns: list[int], lvals, s2: complex
) -> complex:
    """sum of chi(n) L_n n^(-s2) over the n of `ns` and their L-values,
    by `_fsum` in the order given.  chi has modulus 24, so chi(n) = +-1
    on these n."""
    return _fsum([
        complex(chi(n)) * lval * _px(n, s2) for n, lval in zip(ns, lvals)
    ])


def Z_star(
    chi: DirichletCharacter, s1: complex, s2: complex, n_cutoff: int
) -> complex:
    """Twisted outer series over squarefree n coprime to 6.

    sum chi(n) L_{2,3}(eta_n, s1) n^(-s2) truncated at n_cutoff, in
    ascending n order, with one Hurwitz L-value per n per call.  chi
    must have modulus 24.  Meaningful for Re(s1) > 1 and Re(s2) > 1.
    ValueError when s1 or s2 is not finite or n_cutoff < 1.
    """
    if chi.modulus != 24:
        raise ValueError("Z_star expects a character of modulus 24")
    _finite(s1)
    _finite(s2)
    _check_cutoffs(n_cutoff=n_cutoff)
    ns = _outer_indices(n_cutoff)
    return _twisted_sum(chi, ns, [_L23_eta(n, s1) for n in ns], s2)


# ======================================================================
# residue-proof identity and residue product
# ======================================================================


_INNER_TERMS = 20000


def residue_identity_check(
    chi: DirichletCharacter, s1: complex, s2: complex, m_cutoff: int,
    n_cutoff: int, tolerance: float,
) -> SeriesComparison:
    """Check L(2 s2, chi^2) Z*(s1, s2) against its unfolded m-sum.

    The right side is sum over m coprime to 6 of (-1/m) m^(-s1) times
    prod_{p | m} (1 - chi^2(p) p^(-2 s2))^(-1) times the L-value at s2
    of the twist k -> chi(k) (k/m), each inner L truncated at
    _INNER_TERMS.  The left side's twisted series runs to n_cutoff, the
    right side's m-sum to m_cutoff; ValueError when either is below 1,
    and when the tolerance is not > 0, before anything is evaluated.

    At a real s1 of `afe._afe_domain` the left side's L-values
    L_{2,3}(eta_n, s1) come from one approximate-functional-equation
    batch (`afe._L23_real_batch`), kept per (s1, n_cutoff); elsewhere
    the left side is `Z_star`, by the Hurwitz route.  The right side's
    twists read `jacobi_table`, so the two sides share no L-value
    kernel either way.
    """
    if chi.modulus != 24:
        raise ValueError("residue identity expects a character of modulus 24")
    _check_cutoffs(m_cutoff=m_cutoff, n_cutoff=n_cutoff)
    _check_tolerance(tolerance)
    # Every character mod 24 is real, so chi^2 is principal.
    chi_sq = principal_character(24)
    if _afe_domain(s1):
        lvals = _L23_eta_batch(complex(s1).real, n_cutoff)
        zstar = _twisted_sum(chi, _outer_indices(n_cutoff), lvals, s2)
    else:
        zstar = Z_star(chi, s1, s2, n_cutoff)
    lhs = dirichlet_L(chi_sq, 2 * complex(s2)).value * zstar

    kinv = np.exp(
        -complex(s2) * np.log(np.arange(1, _INNER_TERMS + 1, dtype=float))
    )
    ks = np.arange(_INNER_TERMS + 1)
    chi_vec = np.asarray([complex(chi(k)).real for k in range(24)])[ks % 24]
    terms = []
    for m in range(1, m_cutoff + 1):
        if m % 2 == 0 or m % 3 == 0:
            continue
        # (k/m) depends only on k mod m, so one table per m suffices.
        table = jacobi_table(m).astype(float)
        jac = table[ks % m]
        twist = chi_vec * jac
        l_inner = complex(twist[1:] @ kinv)
        pref = arith.kronecker(-1, m) * _px(m, s1)
        for p, _e in arith.factorize(m):
            csq = complex(chi(p)) ** 2
            pref /= 1 - csq * _px(p, 2 * complex(s2))
        terms.append(pref * l_inner)
    return SeriesComparison.compare(lhs, _fsum(terms), tolerance)


def prime_zeta(e: complex) -> complex:
    """sum over primes p of p^(-e) for Re(e) > 1, via log-zeta Moebius.

    ValueError when e is not finite."""
    e = complex(_finite(e))
    if e.real <= 1:
        raise PoleError("prime zeta requires Re(e) > 1")
    total = 0j
    k = 1
    while k * e.real <= 60:
        mu = arith.mobius(k)
        if mu:
            total += mu / k * cmath.log(riemann_zeta(k * e))
        k += 1
    return total


def _prime_zeta_tail(e: complex, primes: list[int]) -> complex:
    """sum_{p > P} p^(-e) with `primes` every prime up to P."""
    ps = np.asarray(primes, dtype=float)
    head = complex(np.exp(-complex(e) * np.log(ps)).sum())
    return prime_zeta(e) - head


def residue_product(
    chi: DirichletCharacter, s1: complex, prime_cutoff: int
) -> complex:
    """Residue constant: (1/3) conductor factor times the p >= 5 product.

    Each factor is
        (1 - chi^2(p)/p^2 + chi^2(p)/p^(2 s1 + 2) - 1/p^(2 s1 + 1))
        / (1 - chi^2(p)/p^2),
    multiplied over 5 <= p <= prime_cutoff in ascending order.  The
    analytically summed log of the dropped p > prime_cutoff factors is
    then added back (prime-zeta expansion), which removes the raw
    ~1/(P log P) drift.  The tail expansion stops at exponent 16, so a
    small cutoff still moves the value: at the principal chi and
    s1 = 1/2, cutoff 3 gives 0.30739296037095 and cutoff 1e4 gives
    0.30739296043599, a gap of 6.5e-11 (2.1e-10 relative), while
    criterion 9's cutoffs 1e4 and 2e4 agree to 4.9e-15.  A cutoff below
    5 leaves the empty product, and the tail then runs over every
    p >= 5, so cutoffs 1 to 4 agree bit for bit.  The
    product diverges when Re(2 s1 + 1) <= 1; that configuration raises
    PoleError rather than returning noise.  ValueError when s1 is not
    finite or prime_cutoff < 1.
    """
    if chi.modulus != 24:
        raise ValueError("residue product expects a character of modulus 24")
    _check_cutoffs(prime_cutoff=prime_cutoff)
    s1 = complex(_finite(s1))
    if 2 * s1.real + 1 <= 1 + 1e-12:
        raise PoleError("residue product diverges for Re(2 s1 + 1) <= 1")
    front = 1 / 3
    for p, _e in arith.factorize(chi.conductor):
        front *= 1 - 1 / p
    # Every prime up to the cutoff, and never fewer than 2 and 3, which
    # the tail must not count; the product skips them.
    primes = arith.primes_up_to(max(prime_cutoff, 3))
    partial = complex(front)
    for p in primes[2:]:
        csq = complex(chi(p)) ** 2
        inv2 = 1.0 / (p * p)
        num = 1 - csq * inv2 + csq * _px(p, 2 * s1 + 2) - _px(p, 2 * s1 + 1)
        den = 1 - csq * inv2
        partial *= num / den
    # log factor = log(1 - w) with w = p^-(2s1+1) / (1 + 1/p); expand in
    # powers of p^-1 and sum each exponent over p > cutoff exactly.
    exponent_cap = 16.0
    tail_log = 0j
    k = 1
    while k * (2 * s1.real + 1) <= exponent_cap:
        j = 0
        while k * (2 * s1.real + 1) + j <= exponent_cap:
            e = k * (2 * s1 + 1) + j
            coeff = -(1.0 / k) * ((-1) ** j) * math.comb(k + j - 1, j)
            tail_log += coeff * _prime_zeta_tail(e, primes)
            j += 1
        k += 1
    return partial * cmath.exp(tail_log)


# ======================================================================
# functional equation checks
# ======================================================================


def functional_equation_check(
    n: int, s_grid: list[complex], tolerance: float = 1e-8
) -> list[SeriesComparison]:
    """Compare the completed L-value at s and 1 - s over a grid.

    n must be odd, squarefree and coprime to 3.  Grid points where a
    Gamma pole makes either side undefined raise PoleError instead of
    being dropped silently.  ValueError when the tolerance is not > 0,
    even for an empty grid.
    """
    _check_tolerance(tolerance)
    out = []
    for s in s_grid:
        s = complex(s)
        lhs = completed_Lambda(n, s)
        rhs = completed_Lambda(n, 1 - s)
        out.append(SeriesComparison.compare(lhs, rhs, tolerance))
    return out


# ======================================================================
# decomposition of the coprime-to-6 slice
# ======================================================================


def decomposition_check(
    s1: complex, s2: complex, m_cutoff: int, n_cutoff: int, tolerance: float
) -> SeriesComparison:
    """Coefficient double sum against the character decomposition.

    Left side: sum over squarefree n coprime to 6 (n <= n_cutoff) of
    n^(-s2) Z_n_oracle(n, s1, m_cutoff), an exact 0j when n = 1 mod 3.
    Right side:

        (1/8) zeta(s1)/zeta(2 s1) (1 - 2^(-s1))^(-1)
            * sum_j sum_chi chi(j) A_j(s1) Z*_chi(s1, s2)

    with j over the units mod 24 and chi over the eight real characters
    mod 24.  Both sides run over one list of n, so the outer truncation
    cancels; each L_{2,3}(eta_n, s1) is taken once (Hurwitz) for all
    eight chi.  The inner m-truncation on the left is the only gap; its
    tail bound at m_cutoff must sit below the tolerance.  ValueError
    when s1 or s2 is not finite, a cutoff is below 1 or the tolerance is
    not > 0, before anything is evaluated.
    """
    s1 = complex(_finite(s1))
    s2 = complex(_finite(s2))
    _check_cutoffs(m_cutoff=m_cutoff, n_cutoff=n_cutoff)
    _check_tolerance(tolerance)
    ns = _outer_indices(n_cutoff)
    lhs = _coefficient_double_sum(ns, s1, s2, m_cutoff)
    lvals = [_L23_eta(n, s1) for n in ns]

    ajs = {j: A_j(j, s1) for j in _UNITS_MOD24}
    total = 0j
    for chi in characters_mod24():
        weight = sum(complex(chi(j)) * ajs[j] for j in _UNITS_MOD24)
        total += weight * _twisted_sum(chi, ns, lvals, s2)
    front = riemann_zeta(s1) / riemann_zeta(2 * s1) / (1 - _px(2, s1))
    rhs = front * total / 8
    return SeriesComparison.compare(lhs, rhs, tolerance)
