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

from cubic_mds import lfunc, verify


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
