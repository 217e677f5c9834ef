"""Self-tests of the benchmark's output checks: each one rejects a wrong value.

    python3 -m pytest bench/test_checks.py -q

Each case feeds a check the program's real outputs for one request,
shows that they pass, then changes one value the way a fault would and
shows that the check rejects it.
"""

from __future__ import annotations

import cmath
import math
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from cubic_mds import verify  # noqa: E402


@pytest.fixture(scope="module")
def slice_out():
    return {req: workloads.SLICES.call(req)
            for req in ((5, 2.5 + 0j), (23, 3.0 + 2.0j), (7, 2.2 + 1.0j))}


@pytest.fixture(scope="module")
def lseries_out():
    req = (505, 0.3 + 2.0j, 3.0)
    return req, workloads.LSERIES.call(req)


def _slice_check(req, out):
    return workloads.SLICES.check(req, out)


@pytest.mark.parametrize("req", [(5, 2.5 + 0j), (23, 3.0 + 2.0j)])
def test_slice_rejects_closed_value_off_by_1e4_relative(slice_out, req):
    closed, oracle, product = slice_out[req]
    assert _slice_check(req, (closed, oracle, product)) is None
    bad = closed * (1 + 1e-4)
    assert _slice_check(req, (bad, oracle, product)) is not None


def test_slice_rejects_product_off_by_1e4_relative(slice_out):
    # closed and oracle stay right, so only the Euler-product check can
    # catch this.
    req = (5, 2.5 + 0j)
    closed, oracle, product = slice_out[req]
    bad = product * (1 + 1e-4)
    reason = _slice_check(req, (closed, oracle, bad))
    assert reason is not None and "product" in reason


def test_slice_tail_bounds_are_the_limit():
    # At Re s = 2 the a-priori bounds are about 5e-4 absolute and 2e-4
    # relative, so a 1e-4 error there would pass; the self-tests above
    # sit where the bounds are tighter.  Documented in README.md.
    assert checks.oracle_tail_bound(checks.ORACLE_CUTOFF, 2.0) > 1e-4
    assert checks.oracle_tail_bound(checks.ORACLE_CUTOFF, 2.5) < 1e-5
    assert checks.product_ratio_bound(checks.PRIME_CUTOFF, 2.5) < 1e-5


def test_slice_rejects_nonzero_on_vanishing_slice(slice_out):
    req = (7, 2.2 + 1.0j)
    closed, oracle, product = slice_out[req]
    assert (closed, oracle, product) == (0, 0, 0)
    assert _slice_check(req, (closed, oracle, product)) is None
    assert _slice_check(req, (1e-12 + 0j, oracle, product)) is not None
    assert _slice_check(req, (closed, 1e-12 + 0j, product)) is not None
    assert _slice_check(req, (closed, oracle, 1e-12 + 0j)) is not None


def _lseries_check(req, out, **change):
    fields = ("conductor", "primitive_modulus", "tau", "lam_s", "lam_1ms",
              "l_eta")
    values = dict(zip(fields, out))
    values.update(change)
    return workloads.LSERIES.check(req, tuple(values[f] for f in fields))


def test_lseries_passes_true_outputs(lseries_out):
    req, out = lseries_out
    assert _lseries_check(req, out) is None


def test_lseries_rejects_wrong_conductor(lseries_out):
    req, out = lseries_out
    n = req[0]
    assert _lseries_check(req, out, conductor=12 * n) is not None
    assert _lseries_check(req, out, primitive_modulus=n) is not None


def test_lseries_rejects_gauss_sum_with_wrong_sign(lseries_out):
    req, out = lseries_out
    assert _lseries_check(req, out, tau=-out[2]) is not None


def test_lseries_rejects_lambda_at_conjugate_point(lseries_out):
    req, out = lseries_out
    n, s, _t = req
    lam_conj = workloads.lfunc.completed_Lambda(n, s.conjugate())
    assert _lseries_check(req, out, lam_1ms=lam_conj) is not None


def test_lseries_rejects_l_value_missing_one_euler_factor(lseries_out):
    req, out = lseries_out
    n, _s, t = req
    s = complex(2.0, t)
    p = 7  # smallest odd prime not dividing n = 505 = 5 * 101
    chi = checks.euler_symbol(-n, p)
    assert chi != 0
    without = out[5] * (1 - chi * cmath.exp(-s * math.log(p)))
    assert _lseries_check(req, out, l_eta=without) is not None


def test_euler_symbol_matches_quadratic_residues():
    for p in checks.odd_primes_up_to(60):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert checks.euler_symbol(a, p) == (1 if a in squares else -1)


def test_acceptance_rejects_failed_criterion():
    ok = verify.CriterionResult(5, "x", True, "fine", 0.1, 10.0)
    bad = verify.CriterionResult(5, "x", False, "worst rel 1e-3", 0.1, 10.0)
    assert workloads.ACCEPTANCE.check((5, None), ok) is None
    assert workloads.ACCEPTANCE.check((5, None), bad) is not None
