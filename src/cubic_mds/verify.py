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
from .euler import local_factor_closed, local_factor_oracle
from .lfunc import (
    A_j,
    DirichletCharacter,
    Z_n_closed,
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
    # assembled multiplicatively per m.  This is the same composition
    # count_roots performs, evaluated once per residue class.
    ppc: dict[int, np.ndarray] = {}
    for p in arith.primes_up_to(m_max):
        q = p
        e = 1
        while q <= m_max:
            ppc[q] = np.asarray(
                [sqcount.count_roots_prime_power(p, e, r) for r in range(q)],
                dtype=np.int64,
            )
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
    exactly."""
    size = 300
    counts = [[0] * (size + 1) for _ in range(size + 1)]
    for a, _b, _c, n in forms.enumerate_representatives(
        size, size, require_odd_squarefree=False
    ):
        counts[a][n] += 1
    bad = 0
    first_bad = ""
    for m in range(1, size + 1):
        for n in range(1, size + 1):
            if counts[m][n] != sqcount.coefficient(m, n):
                bad += 1
                if not first_bad:
                    first_bad = f"; first at (m={m}, n={n})"
    detail = f"90000 pairs exact, {bad} mismatches{first_bad}"
    return bad == 0, detail


# ======================================================================
# criterion 3: closed local factors vs truncated local series
# ======================================================================


@_criterion(3, "local-factors", 30.0)
def criterion_local_factors() -> tuple[bool, str]:
    """Closed local factor vs 60-term local series, rel <= 1e-10,
    s = 2, for every prime p <= 53 and every n <= 400."""
    worst = 0.0
    worst_at = ""
    for p in arith.primes_up_to(53):
        for n in range(1, 401):
            closed = local_factor_closed(p, n, 2.0)
            oracle = local_factor_oracle(p, n, 2.0, K=60)
            rel = mds.rel_err(closed, oracle)
            if rel > worst:
                worst = rel
                worst_at = f"(p={p}, n={n})"
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
    worst = 0.0
    worst_at = ""
    zero_bad = 0
    checked = 0
    for n in range(1, 61, 2):
        if not arith.is_squarefree(n):
            continue
        checked += 1
        closed = Z_n_closed(n, 2.5)
        oracle = mds.Z_n_oracle(n, 2.5, 100000)
        if n % 3 == 1:
            if closed != 0 or oracle != 0:
                zero_bad += 1
            continue
        rel = mds.rel_err(closed, oracle)
        if rel > worst:
            worst = rel
            worst_at = f"n={n}"
    ok = worst <= 1e-4 and zero_bad == 0
    detail = (
        f"{checked} odd squarefree n, worst rel {worst:.3e} at {worst_at}, "
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
    n in {1, 5, 7, 11, 13, 17} at s in {0.3, 0.75, 0.6+2i, 0.5+5i}."""
    worst = 0.0
    worst_at = ""
    for n in (1, 5, 7, 11, 13, 17):
        comps = mds.functional_equation_check(n, [0.3, 0.75, 0.6 + 2j, 0.5 + 5j])
        for s, c in zip((0.3, 0.75, 0.6 + 2j, 0.5 + 5j), comps):
            if c.rel_err > worst:
                worst = c.rel_err
                worst_at = f"(n={n}, s={s})"
    ok = worst <= 1e-8
    detail = f"24 grid points, worst rel {worst:.3e} at {worst_at}"
    return ok, detail


# ======================================================================
# criterion 8: squarefree-restricted L identity
# ======================================================================


@_criterion(8, "squarefree-l-identity", 30.0)
def criterion_squarefree_l_identity() -> tuple[bool, str]:
    """L(2w, psi^2) L_b(w, psi) = L(w, psi) prod_{p|b}(1+psi(p)p^-w)^-1
    to 1e-6 at w = 2.5 for every psi of modulus <= 60 and b <= 30.

    The truncated side is one table per psi over all b; the closed side
    is evaluated per (psi, b) on its own."""
    w = 2.5
    terms = 20000
    bs = range(1, 31)
    worst = 0.0
    worst_at = ""
    combos = 0
    for q in range(1, 61):
        for psi in all_characters_mod(q):
            psi_sq = DirichletCharacter(q, [psi(k) ** 2 for k in range(q)])
            l2 = dirichlet_L(psi_sq, 2 * w).value
            l1 = dirichlet_L(psi, w).value
            lbs = L_squarefree_restricted_table(psi, bs, w, terms).tolist()
            for b, lb in zip(bs, lbs):
                lhs = l2 * lb
                rhs = l1 * lb_finite_product(psi, b, w)
                rel = mds.rel_err(lhs, rhs)
                combos += 1
                if rel > worst:
                    worst = rel
                    worst_at = f"(q={q}, b={b})"
    ok = worst <= 1e-6
    detail = f"{combos} (psi, b) combos, worst rel {worst:.3e} at {worst_at}"
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
    spec = mds.TruncationSpec(m_cutoff=2000, n_cutoff=2000, tolerance=1e-3)
    cmp1 = mds.residue_identity_check(triv, 2.5, 2.0, spec)
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
    spec_a = mds.TruncationSpec(m_cutoff=300, n_cutoff=300, tolerance=1e-13)
    za = mds.Z_direct(2.0, 2.0, spec_a)
    zb = mds.Z_coeff(2.0, 2.0, spec_a)
    diff = abs(za - zb)

    spec_b = mds.TruncationSpec(m_cutoff=1_200_000, n_cutoff=30, tolerance=1e-8)
    cmp_d = mds.decomposition_check(2.5, 2.0, spec_b)

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
