"""Acceptance gate: the ten verification criteria, one test each.

Each test runs its criterion end to end (with the documented cutoffs,
tolerances, and time budgets baked into `cubic_mds.verify`), emits the
one-line PASS/FAIL verdict, and asserts it.  The same lines are
available from the command line via `cubic-mds verify all`.

The gauss-sums criterion checks the mod-12n table psi_n against the
induced-character relation tau(psi) = mu(q/f) chi*(q/f) tau(chi*)
(Montgomery-Vaughan, Thm 9.10) for n in {1, 5, 7, 11, 13}: its
conductor f is 4n or n, its primitive part has Gauss sum i sqrt(f),
and its raw sum is 2i, -i sqrt(20), 0, 0, +i sqrt(52).  The expected
values come from closed forms and the Kronecker symbol, never from the
character tables under test.  The table is imprimitive, so
|tau(psi_n)| is 0 or sqrt(f) and never the modulus-sqrt i sqrt(12 n).
"""

import pytest

from cubic_mds import lfunc, sqcount, verify


@pytest.mark.parametrize(
    "suite",
    verify.SUITES,
    ids=[f"{fn.number:02d}-{fn.suite_name}" for fn in verify.SUITES],
)
def test_acceptance_criterion(suite, record_property, monkeypatch):
    spans = []
    threads = lfunc._head_threads
    monkeypatch.setattr(lfunc, "_head_threads",
                        lambda count: spans.append(count) or threads(count))
    result = suite()
    line = result.line()
    print(line)
    # conftest.py echoes this property as a terminal summary so the
    # verdict lines land in piped logs despite output capture.
    record_property("criterion_line", line)
    assert result.passed, line
    # No Hurwitz block of a verification pass is large enough to be
    # shared among threads: the pass starts none.
    assert max(spans, default=0) < lfunc._SHARED_SPANS, (line, max(spans))


def test_functional_equation_sees_a_gamma_defect(monkeypatch):
    # Lambda(s) and Lambda(1 - s) scale alike under a defect of
    # complex_gamma, so only the AFE-against-Hurwitz part sees it.
    gamma = lfunc.complex_gamma
    monkeypatch.setattr(lfunc, "complex_gamma",
                        lambda z: gamma(z) * (1 + 1e-7))
    result = verify.criterion_functional_equation()
    assert not result.passed
    assert "AFE against Hurwitz at 8 points, worst rel 1.000e-07" in result.detail


def test_form_bijection_reports_both_routes(monkeypatch):
    # Two wrong sieve cells: the first named is the first in m-major
    # order, (m=3, n=9), although n = 5 is sieved before n = 9.
    sieve = sqcount.coefficient_sieve
    wrong_m = {5: 7, 9: 3}

    def corrupted(n, m_cutoff):
        h = sieve(n, m_cutoff)
        if n in wrong_m:
            h[wrong_m[n]] += 1
        return h

    monkeypatch.setattr(sqcount, "coefficient_sieve", corrupted)
    result = verify.criterion_form_bijection()
    assert not result.passed
    assert "2 mismatches; first at (m=3, n=9)," in result.detail
    monkeypatch.undo()

    # A fault of the scalar route alone shows in the seeded sample.
    coefficient = sqcount.coefficient
    monkeypatch.setattr(sqcount, "coefficient",
                        lambda m, n: coefficient(m, n) + m % 2)
    result = verify.criterion_form_bijection()
    assert not result.passed
    assert "0 mismatches, " in result.detail
    assert "0 scalar-route" not in result.detail
