"""Numbered verification suites.

Each suite checks one acceptance property end to end and returns a
CriterionResult.  `_criterion` registers every suite in `SUITES` with
its number, name and budget; that one registry drives the command line
(`verify`) and the acceptance tests, so a pass here is exactly a pass
there.

Budgets are wall-clock seconds calibrated for a 4-core box; on smaller
machines they are scaled up proportionally.  A criterion passes only
if the mathematical check succeeds within its scaled budget.
"""

from __future__ import annotations

import functools
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import arith, forms, mds, sqcount
from .afe import _Lambda_afe
from .euler import local_factor_closed, local_factor_oracle
from .lfunc import (
    A_j,
    DirichletCharacter,
    Z_n_closed,
    _Lambda_hurwitz,
    a_n,
    all_characters_mod,
    characters_mod24,
    dirichlet_L,
    gauss_sum,
    lb_finite_product,
    L_squarefree_restricted_table,
    primitive_part,
    psi_n_character,
    real_primitive_characters,
    twisted_exponential_sum,
)

# ======================================================================
# result plumbing
# ======================================================================


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{self.name}]: {verdict} - {self.detail}"


def scaled_budget(reference_seconds: float) -> float:
    """Reference budgets assume 4 cores; scale up on smaller machines."""
    cores = os.cpu_count() or 1
    return reference_seconds * 4.0 / min(4, cores)


def _worst(errors, where: str) -> tuple[float, str]:
    """The largest error of the (error, fields) pairs `errors`, and
    `where` formatted with the fields of its first occurrence; "" when
    no error exceeds 0."""
    worst, at = 0.0, None
    for err, fields in errors:
        if err > worst:
            worst, at = err, fields
    return worst, "" if at is None else where.format(*at)


SUITES: list[Callable[[], CriterionResult]] = []


def _criterion(number: int, name: str, reference_seconds: float):
    """Register a check returning (ok, detail) as criterion `number`.

    The registered callable times the check, fails it when it overruns
    its scaled budget, and returns the CriterionResult; it carries its
    `number` and `suite_name` for selection by `run_suite`.
    """

    def register(check: Callable[[], tuple[bool, str]]):
        @functools.wraps(check)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            ok, detail = check()
            elapsed = time.perf_counter() - t0
            budget = scaled_budget(reference_seconds)
            if elapsed > budget:
                ok = False
                detail += "; exceeded time budget"
            return CriterionResult(
                number=number,
                name=name,
                passed=ok,
                detail=detail,
                elapsed=elapsed,
                budget=budget,
            )

        run.number = number
        run.suite_name = name
        SUITES.append(run)
        return run

    return register


# ======================================================================
# criterion 1: counting formula vs exhaustive count
# ======================================================================


@_criterion(1, "count-oracle", 60.0)
def criterion_count_oracle() -> tuple[bool, str]:
    """C(m, n) by the multiplicative formula equals the exhaustive count
    for every 1 <= m <= 2000 and -2000 <= n <= 2000, exactly."""
    m_max, n_lim = 2000, 2000
    ns = np.arange(-n_lim, n_lim + 1)

    # Formula route, batched: counts per residue for every prime power,
    # from Euler's criterion over its classes (`count_roots_table`), and
    # assembled multiplicatively per m as count_roots composes them.
    ppc: dict[int, np.ndarray] = {}
    for p in arith.primes_up_to(m_max):
        q = p
        e = 1
        while q <= m_max:
            ppc[q] = sqcount.count_roots_table(p, e)
            q *= p
            e += 1

    mismatches = 0
    first_bad = ""
    for m in range(1, m_max + 1):
        exhaustive = sqcount.count_roots_residue_table(m)[ns % m]
        formula = np.ones(ns.shape, dtype=np.int64)
        for p, e in arith.factorize(m):
            formula *= ppc[p**e][ns % (p**e)]
        bad = formula != exhaustive
        if bad.any():
            mismatches += int(bad.sum())
            if not first_bad:
                i = int(np.argmax(bad))
                first_bad = f"; first at (m={m}, n={int(ns[i])})"

    # Tie the scalar interface to the batched values on a fixed sample.
    rng = random.Random(20260819)
    sample_bad = 0
    for _ in range(2000):
        m = rng.randint(1, m_max)
        n = rng.randint(-n_lim, n_lim)
        if sqcount.count_roots(m, n) != sqcount.count_roots_bruteforce(m, n):
            sample_bad += 1

    ok = mismatches == 0 and sample_bad == 0
    detail = (
        f"{m_max * (2 * n_lim + 1)} (m,n) pairs exact, "
        f"{mismatches} residue mismatches{first_bad}, "
        f"{sample_bad} scalar-route mismatches in 2000 samples"
    )
    return ok, detail


# ======================================================================
# criterion 2: enumerated reduced forms number the counting coefficient
# ======================================================================


@_criterion(2, "form-bijection", 10.0)
def criterion_form_bijection() -> tuple[bool, str]:
    """The reduced forms (a, b, c) with 3ac - b^2 = n, enumerated by
    `enumerate_representatives`, number C(3a, -n) for all a, n <= 300,
    exactly.  The counts come from one `coefficient_sieve` per n; a
    seeded sample ties the scalar `coefficient` to them."""
    size = 300
    sieved = np.zeros((size + 1, size + 1), dtype=np.int64)
    for n in range(1, size + 1):
        sieved[:, n] = sqcount.coefficient_sieve(n, size)
    cells = np.fromiter((
        a * (size + 1) + n
        for a, _b, _c, n in forms.enumerate_representatives(
            size, size, require_odd_squarefree=False)
    ), dtype=np.int64)
    counted = np.bincount(cells, minlength=sieved.size).reshape(sieved.shape)
    # Row-major over (m, n), so the first mismatch is the m-major first.
    bad_at = np.flatnonzero(sieved[1:, 1:] != counted[1:, 1:])
    first_bad = ""
    if bad_at.size:
        m, n = divmod(int(bad_at[0]), size)
        first_bad = f"; first at (m={m + 1}, n={n + 1})"

    rng = random.Random(20261021)
    sample_bad = 0
    for _ in range(2000):
        m = rng.randint(1, size)
        n = rng.randint(1, size)
        if sqcount.coefficient(m, n) != sieved[m, n]:
            sample_bad += 1

    detail = (
        f"90000 pairs exact, {bad_at.size} mismatches{first_bad}, "
        f"{sample_bad} scalar-route mismatches in 2000 samples"
    )
    return bad_at.size == 0 and sample_bad == 0, detail


# ======================================================================
# criterion 3: closed local factors vs truncated local series
# ======================================================================


@_criterion(3, "local-factors", 30.0)
def criterion_local_factors() -> tuple[bool, str]:
    """Closed local factor vs 60-term local series, rel <= 1e-10,
    s = 2, for every prime p <= 53 and every n <= 400."""
    worst, worst_at = _worst((
        (mds.rel_err(local_factor_closed(p, n, 2.0),
                     local_factor_oracle(p, n, 2.0, K=60)), (p, n))
        for p in arith.primes_up_to(53) for n in range(1, 401)
    ), "(p={}, n={})")
    ok = worst <= 1e-10
    detail = f"16 primes x 400 n, worst rel {worst:.3e} at {worst_at}"
    return ok, detail


# ======================================================================
# criterion 4: inner-series closed form vs truncated sum
# ======================================================================


@_criterion(4, "inner-series-closed-form", 120.0)
def criterion_zn_closed() -> tuple[bool, str]:
    """Closed inner series vs 1e5-term truncation at s = 2.5,
    rel <= 1e-4 for every odd squarefree n <= 60, zeros exact."""
    rels = []
    zero_bad = 0
    ns = arith.odd_squarefree(60)
    for n in ns:
        closed = Z_n_closed(n, 2.5)
        oracle = mds.Z_n_oracle(n, 2.5, 100000)
        if n % 3 == 1:
            zero_bad += closed != 0 or oracle != 0
        else:
            rels.append((mds.rel_err(closed, oracle), (n,)))
    worst, worst_at = _worst(rels, "n={}")
    ok = worst <= 1e-4 and zero_bad == 0
    detail = (
        f"{len(ns)} odd squarefree n, worst rel {worst:.3e} at {worst_at}, "
        f"{zero_bad} wrong exact zeros"
    )
    return ok, detail


# ======================================================================
# criterion 5: residue-class decomposition of the branch factor
# ======================================================================


@_criterion(5, "character-decomposition", 5.0)
def criterion_character_decomposition() -> tuple[bool, str]:
    """a_n(s) = A_{n mod 24}(s) to 1e-12 for all n <= 1000 coprime to
    24 at s in {2, 3, 1.5 + 0.7i}."""
    worst = 0.0
    count = 0
    for s in (2.0, 3.0, 1.5 + 0.7j):
        for n in range(1, 1001):
            if math.gcd(n, 24) != 1:
                continue
            count += 1
            diff = abs(a_n(n, s) - A_j(n % 24, s))
            worst = max(worst, diff)
    ok = worst <= 1e-12
    detail = f"{count} (n, s) pairs, worst abs diff {worst:.3e}"
    return ok, detail


# ======================================================================
# criterion 6: Gauss sums
# ======================================================================


@_criterion(6, "gauss-sums", 10.0)
def criterion_gauss_sums() -> tuple[bool, str]:
    """Part 1: tau(chi) in {sqrt(k), i sqrt(k)} to 1e-10 for every real
    primitive chi of modulus <= 200.  Part 2: for n in {1, 5, 7, 11, 13},
    psi_n (mod q = 12n) is induced by chi* = (D/.) with D = -f and
    conductor f = 4n (n = 1 mod 4) or n (n = 3 mod 4), so
    (a) psi_n has conductor f, (b) tau(chi*) = i sqrt(f), and
    (c) the raw mod-q sum is mu(q/f) chi*(q/f) i sqrt(f) (the induced
    Gauss sum relation, Montgomery-Vaughan Thm 9.10), all to 1e-10.

    The expected side of part 2 comes only from closed forms and
    `arith` (mobius, kronecker), never from a character table or a
    Gauss sum.  |tau(psi_n)| is 0 or sqrt(f), so the literal target
    i sqrt(12 n) is unreachable for every n."""
    worst1 = 0.0
    n_chars = 0
    for chi in real_primitive_characters(200):
        n_chars += 1
        tau = gauss_sum(chi)
        root = math.sqrt(chi.modulus)
        diff = min(abs(tau - root), abs(tau - 1j * root))
        worst1 = max(worst1, diff)
    part1_ok = worst1 <= 1e-10

    worst2 = 0.0
    conductors_ok = True
    measured = []
    for n in (1, 5, 7, 11, 13):
        psi = psi_n_character(n)
        f = 4 * n if n % 4 == 1 else n
        k = 12 * n // f
        prim_claim = 1j * math.sqrt(f)
        raw_claim = arith.mobius(k) * arith.kronecker(-f, k) * prim_claim
        conductors_ok = conductors_ok and psi.conductor == f
        tau_prim = gauss_sum(primitive_part(psi))
        tau_raw = twisted_exponential_sum(psi)
        worst2 = max(
            worst2, abs(tau_prim - prim_claim), abs(tau_raw - raw_claim)
        )
        measured.append(
            f"n={n}: f={psi.conductor} vs {f}, tau*={tau_prim:.6f} vs"
            f" {prim_claim:.6f}, tau={tau_raw:.6f} vs {raw_claim:.6f}"
        )
    part2_ok = conductors_ok and worst2 <= 1e-10

    ok = part1_ok and part2_ok
    detail = (
        f"part 1: {n_chars} real primitive chars, worst {worst1:.3e}"
        f" ({'ok' if part1_ok else 'FAIL'}); "
        f"part 2: worst |tau - mu chi*(q/f) i sqrt(f)| = {worst2:.3e}"
        f" ({'ok' if part2_ok else 'FAIL'}: {'; '.join(measured)})"
    )
    return ok, detail


# ======================================================================
# criterion 7: completed functional equation
# ======================================================================


@_criterion(7, "functional-equation", 30.0)
def criterion_functional_equation() -> tuple[bool, str]:
    """|Lambda(1-s) - Lambda(s)| / |Lambda(s)| <= 1e-8 for
    n in {1, 5, 7, 11, 13, 17} at s in {0.3, 0.75, 0.6+2i, 0.5+5i}; and
    at n in {13, 17} and the same s, the AFE route of Lambda
    (`afe._Lambda_afe`) against the Hurwitz route
    (`lfunc._Lambda_hurwitz`) to 1e-8 relative.

    Both sides of the functional equation take one route, so a defect
    that scales Lambda, such as one in `complex_gamma`, shows only in
    the second part, where the routes share no kernel.
    """
    grid = (0.3, 0.75, 0.6 + 2j, 0.5 + 5j)
    worst, worst_at = _worst((
        (c.rel_err, (n, s))
        for n in (1, 5, 7, 11, 13, 17)
        for s, c in zip(grid, mds.functional_equation_check(n, grid))
    ), "(n={}, s={})")
    routes = []
    for n in (13, 17):
        for s in grid:
            want = _Lambda_hurwitz(n, complex(s))
            got = _Lambda_afe(n, s)
            routes.append((abs(got - want) / abs(want), (n, s)))
    afe_worst, afe_at = _worst(routes, "(n={}, s={})")
    ok = worst <= 1e-8 and afe_worst <= 1e-8
    detail = (f"24 grid points, worst rel {worst:.3e} at {worst_at};"
              f" AFE against Hurwitz at 8 points, worst rel"
              f" {afe_worst:.3e} at {afe_at}")
    return ok, detail


# ======================================================================
# criterion 8: squarefree-restricted L identity
# ======================================================================


@_criterion(8, "squarefree-l-identity", 30.0)
def criterion_squarefree_l_identity() -> tuple[bool, str]:
    """L(2w, psi^2) L_b(w, psi) = L(w, psi) prod_{p|b}(1+psi(p)p^-w)^-1
    to 1e-6 at w = 2.5 for every psi of modulus <= 60 and b <= 30.

    Both sides are (psi x b) arrays over the 1,102 characters, one table
    per pass.  By Moebius inversion over the divisors e of rad b, the
    truncated side sums mu(e) times psi's table against the sums of d^-w
    over the squarefree d divisible by e, grouped by d mod q; it reads no
    L-value, and the closed side reads no squarefree sum."""
    w = 2.5
    bs = range(1, 31)
    chars = [psi for q in range(1, 61) for psi in all_characters_mod(q)]
    l1, l2 = [], []
    for psi in chars:
        # psi^2 from the table with the values of Python's complex `**`;
        # numpy's complex product moves last bits.
        re, im = psi.table.real, psi.table.imag
        psi_sq = DirichletCharacter(
            psi.modulus, re * re - im * im + 1j * (re * im + im * re))
        l2.append(dirichlet_L(psi_sq, 2 * w).value)
        l1.append(dirichlet_L(psi, w).value)
    lhs = np.array(l2)[:, None] * L_squarefree_restricted_table(chars, bs, w, 20000)
    rhs = np.array(l1)[:, None] * lb_finite_product(chars, bs, w)
    # One row is listed at a time: listing all 33,060 pairs at once took
    # about 3.5 MB more peak memory in an acceptance run.
    worst, worst_at = _worst((
        (mds.rel_err(x, y), (psi.modulus, b))
        for psi, xs, ys in zip(chars, lhs, rhs)
        for b, x, y in zip(bs, xs.tolist(), ys.tolist())
    ), "(q={}, b={})")
    ok = worst <= 1e-6
    detail = f"{lhs.size} (psi, b) combos, worst rel {worst:.3e} at {worst_at}"
    return ok, detail


# ======================================================================
# criterion 9: residue identity and residue product stability
# ======================================================================


@_criterion(9, "residue-identity", 60.0)
def criterion_residue_identity() -> tuple[bool, str]:
    """The unfolded residue-proof identity to rel 1e-3 at (2.5, 2.0)
    with cutoffs 2000, and the residue product at s1 = 1/2 stable to
    1e-8 between prime cutoffs 1e4 and 2e4."""
    triv = next(c for c in characters_mod24() if c.is_principal)
    cmp1 = mds.residue_identity_check(triv, 2.5, 2.0, 2000, 2000, 1e-3)
    lo = mds.residue_product(triv, 0.5, 10000)
    hi = mds.residue_product(triv, 0.5, 20000)
    gap = abs(hi - lo)
    ok = cmp1.passed and gap <= 1e-8
    detail = (
        f"identity rel {cmp1.rel_err:.3e} (tol 1e-3), "
        f"product gap {gap:.3e} between P=1e4 and 2e4 (tol 1e-8)"
    )
    return ok, detail


# ======================================================================
# criterion 10: regrouping and decomposition
# ======================================================================


@_criterion(10, "global-regrouping", 60.0)
def criterion_global_regrouping() -> tuple[bool, str]:
    """Z_direct = Z_coeff to 1e-13 at cutoffs (300, 300), s = (2, 2);
    the coprime-to-6 decomposition to 1e-8 at (2.5, 2.0)."""
    za = mds.Z_direct(2.0, 2.0, 300, 300)
    zb = mds.Z_coeff(2.0, 2.0, 300, 300)
    diff = abs(za - zb)

    cmp_d = mds.decomposition_check(2.5, 2.0, 1_200_000, 30, 1e-8)

    ok = diff <= 1e-13 and cmp_d.passed
    detail = (
        f"regrouping |diff| {diff:.3e} (tol 1e-13), "
        f"decomposition rel {cmp_d.rel_err:.3e} (tol 1e-8)"
    )
    return ok, detail


def run_suite(selector: str) -> list[CriterionResult]:
    """Run "all", a criterion number ("3"), or a suite name."""
    selector = selector.strip().lower()
    chosen = [
        fn
        for fn in SUITES
        if selector in ("all", fn.suite_name)
        or (selector.isdigit() and int(selector) == fn.number)
    ]
    if not chosen:
        raise ValueError(
            f"unknown suite {selector!r}; use 'all', 1..{len(SUITES)}, or one of "
            + ", ".join(sorted(fn.suite_name for fn in SUITES))
        )
    return [fn() for fn in chosen]
