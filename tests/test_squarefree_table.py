"""The batched squarefree-restricted sums against one-b tables and a
plain-Python loop."""

import functools
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cubic_mds import arith, lfunc  # noqa: E402
from cubic_mds.lfunc import (  # noqa: E402
    L_squarefree_restricted_table,
    all_characters_mod,
)

CUTOFFS = (1, 2, 3, 4, 20000)
POINTS = (2.5 + 0j, 3.0 + 0j, 2.5 + 3.0j)

moduli = st.integers(min_value=1, max_value=60)
bs = st.lists(
    st.one_of(st.sampled_from((1, 4, 9, 12, 25)), st.integers(1, 60)),
    min_size=1,
    max_size=8,
)


@functools.cache
def _characters(q):
    return all_characters_mod(q)


@functools.cache
def _squarefree_upto(N):
    return [d for d in range(1, N + 1) if arith.is_squarefree(d)]


def _reference(psi, b, w, N):
    total = 0j
    for d in _squarefree_upto(N):
        if math.gcd(d, b) == 1:
            total += complex(psi(d)) * d ** (-w)
    return total


@settings(max_examples=60)
@given(
    q=moduli,
    pick=st.integers(min_value=0),
    bs=bs,
    N=st.sampled_from(CUTOFFS),
    w=st.sampled_from(POINTS),
)
def test_table_matches_scalar_and_reference(q, pick, bs, N, w):
    chars = _characters(q)
    psi = chars[pick % len(chars)]
    table = L_squarefree_restricted_table(psi, bs, w, N)
    assert table.shape == (len(bs),)
    for b, got in zip(bs, table.tolist()):
        assert got == L_squarefree_restricted_table(psi, (b,), w, N)[0], b
        want = _reference(psi, b, w, N)
        assert abs(got - want) <= 1e-13 * abs(want), (b, got, want)


def test_table_rejects_bad_b_and_N():
    psi = all_characters_mod(5)[1]
    for bs, N in (((1, 0), 100), ((3,), 0), ((-2,), 10)):
        with pytest.raises(ValueError):
            L_squarefree_restricted_table(psi, bs, 2.5, N)


def test_cached_arrays_are_read_only():
    L_squarefree_restricted_table(all_characters_mod(7)[2], (1, 6), 2.5, 500)
    dk, dw = lfunc._squarefree_powers(500, 2.5 + 0j)
    idx = lfunc._multiple_index(500, 6)
    sums = lfunc._residue_sums(500, 2.5 + 0j, 7, 6)
    for arr in (dk, dw, idx, sums):
        with pytest.raises(ValueError):
            arr[0] = 0
    for e in (1, 2, 6, 35, 501):
        idx = lfunc._multiple_index(500, e)
        assert dk[idx].tolist() == [d for d in dk.tolist() if d % e == 0], e


# b = 30030 has six primes; 223092870 (nine primes) exceeds N = 20;
# 12 and 50 carry squares and must act as their radicals 6 and 10.
FIXED = [
    (7, 30030, 2.5 + 0j, 20000),
    (11, 223092870, 2.5 + 0j, 20),
    (5, 12, 2.5 + 0j, 20000),
    (5, 50, 2.5 + 0j, 20000),
    (60, 30, 2.5 + 0j, 20000),
    (1, 30, 2.5 + 0j, 20000),
    (13, 30, 2.5 + 3.0j, 20000),
]


@pytest.mark.parametrize("q, b, w, N", FIXED)
def test_fixed_cases_match_reference(q, b, w, N):
    rad = math.prod(p for p, _ in arith.factorize(b))
    for psi in _characters(q):
        got = L_squarefree_restricted_table(psi, (b, rad), w, N).tolist()
        want = _reference(psi, b, w, N)
        assert got[0] == got[1]
        assert abs(got[0] - want) <= 1e-13 * abs(want), (psi, got, want)
