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
import json
import math
from dataclasses import dataclass

import numpy as np

from . import arith, forms, sqcount
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
    riemann_zeta,
)

# ======================================================================
# truncation plumbing
# ======================================================================


@dataclass(frozen=True)
class TruncationSpec:
    """Cutoffs and tolerance for one truncated evaluation.

    m_cutoff bounds the inner (form/coefficient) index, n_cutoff the
    outer index, and tolerance the acceptance threshold a comparison is
    judged against.  The tolerance should be justified by the tail
    bound (see coefficient_tail_bound) at the point of use.
    """

    m_cutoff: int
    n_cutoff: int
    tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if self.m_cutoff < 1 or self.n_cutoff < 1:
            raise ValueError("TruncationSpec cutoffs must be positive")
        if not self.tolerance > 0:
            raise ValueError("TruncationSpec tolerance must be positive")


def rel_err(a: complex, b: complex) -> float:
    """|a - b| over the larger of |a| and |b|, or over 1e-300 when both are 0."""
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


@dataclass(frozen=True)
class SeriesComparison:
    """Two truncated evaluations of one quantity, with their distance."""

    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    spec: TruncationSpec

    @classmethod
    def compare(
        cls, lhs: complex, rhs: complex, spec: TruncationSpec
    ) -> "SeriesComparison":
        lhs = complex(lhs)
        rhs = complex(rhs)
        return cls(lhs=lhs, rhs=rhs, abs_err=abs(lhs - rhs),
                   rel_err=rel_err(lhs, rhs), spec=spec)

    @property
    def passed(self) -> bool:
        return self.rel_err <= self.spec.tolerance

    def to_json(self) -> str:
        payload = {
            "lhs_re": self.lhs.real,
            "lhs_im": self.lhs.imag,
            "rhs_re": self.rhs.real,
            "rhs_im": self.rhs.imag,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "spec": {
                "m_cutoff": self.spec.m_cutoff,
                "n_cutoff": self.spec.n_cutoff,
                "tolerance": self.spec.tolerance,
            },
        }
        return json.dumps(payload, sort_keys=True, separators=(", ", ": "))


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


def _inverse_powers(count: int, s: complex) -> np.ndarray:
    """Array [1^(-s), ..., count^(-s)] as complex128."""
    ks = np.arange(1, count + 1, dtype=float)
    return np.exp(-complex(s) * np.log(ks))


# ======================================================================
# the double series, two routes
# ======================================================================


def Z_direct(
    s1: complex,
    s2: complex,
    spec: TruncationSpec,
    require_odd_squarefree: bool = True,
) -> complex:
    """Sum of a^(-s1) (3ac - b^2)^(-s2) over reduced representatives.

    Terms are generated lexicographically in (a, b, c) and accumulated
    with exact compensated summation, so the value is independent of
    any regrouping.  Meaningful for Re(s1) > 1 and Re(s2) > 1 where the
    truncation tails are controlled.
    """
    return _fsum([
        _px(a, s1) * _px(n, s2)
        for a, _b, _c, n in forms.enumerate_representatives(
            spec.m_cutoff, spec.n_cutoff, require_odd_squarefree
        )
    ])


def _coefficient_double_sum(
    s1: complex, s2: complex, spec: TruncationSpec, coprime_six: bool
) -> complex:
    """Sum of C(3m,-n) m^(-s1) n^(-s2), ascending n then ascending m.

    Each n-slice is an independent dot product against one shared
    vector of inverse powers; slices are folded in ascending n order.
    """
    sqfree = arith.squarefree_mask(spec.n_cutoff)
    powers = _inverse_powers(spec.m_cutoff, s1)
    terms = []
    for n in range(1, spec.n_cutoff + 1, 2):
        if not sqfree[n]:
            continue
        if coprime_six and n % 3 == 0:
            continue
        coeffs = np.asarray(
            sqcount.coefficient_sieve(n, spec.m_cutoff)[1:], dtype=float
        )
        terms.append(complex(coeffs @ powers) * _px(n, s2))
    return _fsum(terms)


def Z_coeff(s1: complex, s2: complex, spec: TruncationSpec) -> complex:
    """Coefficient route: C(3m,-n) m^(-s1) n^(-s2) over odd squarefree n.

    Identical term multiset as Z_direct under matched cutoffs, grouped
    by n instead of by form.
    """
    return _coefficient_double_sum(s1, s2, spec, coprime_six=False)


def Z_n_oracle(n: int, s: complex, m_cutoff: int) -> complex:
    """Truncated inner series sum_{m <= M} C(3m,-n) m^(-s).

    Brute reference for the closed form and the local-factor product;
    meaningful for Re(s) > 1.  ValueError when s is not finite.

    m^(-s) is formed only where the coefficient is nonzero (about a
    quarter of the m on a slice that does not vanish, none when n = 1
    mod 3); the other entries stay 0.  The dot product still runs over
    all M entries, so its summation order is the one a full vector of
    powers would give, and a zero coefficient adds only a signed zero:
    the value is the same, bit for bit.
    """
    _finite(s)
    counts = sqcount.coefficient_sieve(n, m_cutoff)[1:]
    coeffs = np.asarray(counts, dtype=float)
    # flatnonzero scans a boolean mask about twice as fast as the int64
    # counts, and several times as fast as the float copy.
    nz = np.flatnonzero(counts != 0)
    powers = np.zeros(m_cutoff, dtype=complex)
    powers[nz] = np.exp(-complex(s) * np.log(nz + 1.0))
    return complex(coeffs @ powers)


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

# Inner L-values are shared across the 8 twists and across repeated
# verification calls at one s; the key is (n, s).
@functools.lru_cache(maxsize=65536)
def _L23_eta(n: int, s: complex) -> complex:
    return L_removed_23(character_eta(n), s)


def Z_star(
    chi: DirichletCharacter, s1: complex, s2: complex, spec: TruncationSpec
) -> complex:
    """Twisted outer series over squarefree n coprime to 6.

    sum chi(n) L_{2,3}(eta_n, s1) n^(-s2) truncated at n_cutoff, in
    ascending n order.  chi must have modulus 24.  Meaningful for
    Re(s1) > 1 and Re(s2) > 1.
    """
    if chi.modulus != 24:
        raise ValueError("Z_star expects a character of modulus 24")
    sqfree = arith.squarefree_mask(spec.n_cutoff)
    terms = []
    for n in range(1, spec.n_cutoff + 1, 2):
        if n % 3 == 0 or not sqfree[n]:
            continue
        cv = complex(chi(n))
        if cv == 0:
            continue
        terms.append(cv * _L23_eta(n, s1) * _px(n, s2))
    return _fsum(terms)


# ======================================================================
# residue-proof identity and residue product
# ======================================================================


def residue_identity_check(
    chi: DirichletCharacter,
    s1: complex,
    s2: complex,
    spec: TruncationSpec,
    inner_terms: int = 20000,
) -> SeriesComparison:
    """Check L(2 s2, chi^2) Z*(s1, s2) against its unfolded m-sum.

    The right side is sum over m coprime to 6 of (-1/m) m^(-s1) times
    prod_{p | m} (1 - chi^2(p) p^(-2 s2))^(-1) times the L-value at s2
    of the twist k -> chi(k) (k/m), each inner L truncated at
    inner_terms.  Both sides use the cutoffs in spec (n_cutoff for the
    twisted series, m_cutoff for the m-sum).
    """
    if chi.modulus != 24:
        raise ValueError("residue identity expects a character of modulus 24")
    # chi^2 as an honest character table (principal on the units).
    chi_sq = DirichletCharacter(24, [chi(k) ** 2 for k in range(24)])
    lhs = dirichlet_L(chi_sq, 2 * complex(s2)).value * Z_star(chi, s1, s2, spec)

    kinv = _inverse_powers(inner_terms, s2)
    ks = np.arange(inner_terms + 1)
    chi_vec = np.asarray([complex(chi(k)).real for k in range(24)])[ks % 24]
    terms = []
    for m in range(1, spec.m_cutoff + 1):
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
    return SeriesComparison.compare(lhs, _fsum(terms), spec)


def prime_zeta(e: complex) -> complex:
    """sum over primes p of p^(-e) for Re(e) > 1, via log-zeta Moebius."""
    e = complex(e)
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
    """sum_{p > P} p^(-e) with P the largest member of the sieve list."""
    ps = np.asarray(primes, dtype=float)
    head = complex(np.exp(-complex(e) * np.log(ps)).sum())
    return prime_zeta(e) - head


def residue_product(
    chi: DirichletCharacter,
    s1: complex,
    prime_cutoff: int,
    compensate_tail: bool = True,
) -> complex:
    """Residue constant: (1/3) conductor factor times the p >= 5 product.

    Each factor is
        (1 - chi^2(p)/p^2 + chi^2(p)/p^(2 s1 + 2) - 1/p^(2 s1 + 1))
        / (1 - chi^2(p)/p^2),
    multiplied over 5 <= p <= prime_cutoff in ascending order.  With
    compensate_tail the analytically summed log of the dropped p >
    prime_cutoff factors is added back (prime-zeta expansion), which is
    what makes successive cutoffs agree to ~1e-12 instead of the raw
    ~1/(P log P) drift.  The product diverges when Re(2 s1 + 1) <= 1;
    that configuration raises PoleError rather than returning noise.
    """
    if chi.modulus != 24:
        raise ValueError("residue product expects a character of modulus 24")
    s1 = complex(s1)
    if compensate_tail and 2 * s1.real + 1 <= 1 + 1e-12:
        raise PoleError("residue product diverges for Re(2 s1 + 1) <= 1")
    front = 1 / 3
    for p, _e in arith.factorize(chi.conductor):
        front *= 1 - 1 / p
    primes = arith.primes_up_to(prime_cutoff)
    partial = complex(front)
    for p in primes:
        if p in (2, 3):
            continue
        csq = complex(chi(p)) ** 2
        inv2 = 1.0 / (p * p)
        num = 1 - csq * inv2 + csq * _px(p, 2 * s1 + 2) - _px(p, 2 * s1 + 1)
        den = 1 - csq * inv2
        partial *= num / den
    if not compensate_tail:
        return partial
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
    being dropped silently.
    """
    spec = TruncationSpec(m_cutoff=1, n_cutoff=1, tolerance=tolerance)
    out = []
    for s in s_grid:
        s = complex(s)
        lhs = completed_Lambda(n, s)
        rhs = completed_Lambda(n, 1 - s)
        out.append(SeriesComparison.compare(lhs, rhs, spec))
    return out


# ======================================================================
# decomposition of the coprime-to-6 slice
# ======================================================================


def decomposition_check(
    s1: complex, s2: complex, spec: TruncationSpec
) -> SeriesComparison:
    """Coefficient double sum against the character decomposition.

    Left side: sum over squarefree n coprime to 6 (n <= n_cutoff) of
    n^(-s2) sum_{m <= m_cutoff} C(3m,-n) m^(-s1).  Right side:

        (1/8) zeta(s1)/zeta(2 s1) (1 - 2^(-s1))^(-1)
            * sum_j sum_chi chi(j) A_j(s1) Z*_chi(s1, s2)

    with j over the units mod 24 and chi over the eight real characters
    mod 24.  The n-cutoffs match on both sides so the outer truncation
    cancels; the inner m-truncation on the left is the only gap, and
    m_cutoff must be chosen so its tail bound sits below the tolerance.
    """
    s1 = complex(s1)
    s2 = complex(s2)
    lhs = _coefficient_double_sum(s1, s2, spec, coprime_six=True)

    ajs = {j: A_j(j, s1) for j in _UNITS_MOD24}
    total = 0j
    for chi in characters_mod24():
        zs = Z_star(chi, s1, s2, spec)
        weight = 0j
        for j in _UNITS_MOD24:
            weight += complex(chi(j)) * ajs[j]
        total += weight * zs
    front = riemann_zeta(s1) / riemann_zeta(2 * s1) / (1 - _px(2, s1))
    rhs = front * total / 8
    return SeriesComparison.compare(lhs, rhs, spec)
