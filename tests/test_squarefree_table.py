"""The squarefree-restricted sums and the finite product of criterion 8,
as (characters x b) arrays, against one-character and one-b calls and a
plain-Python loop."""

import functools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cubic_mds import arith  # noqa: E402
from cubic_mds.lfunc import (  # noqa: E402
    L_squarefree_restricted_table,
    all_characters_mod,
    lb_finite_product,
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


def _product_reference(psi, b, w):
    out = 1 + 0j
    for p, _ in arith.factorize(b):
        out /= 1 + complex(psi(p)) * p ** (-w)
    return out


@settings(max_examples=60)
@given(
    q=moduli,
    other=moduli,
    pick=st.integers(min_value=0),
    bs=bs,
    N=st.sampled_from(CUTOFFS),
    w=st.sampled_from(POINTS),
)
def test_table_matches_scalar_and_reference(q, other, pick, bs, N, w):
    # All characters mod q, then a run of another modulus: a row equals
    # the same character alone and a column the same b alone, bit for bit.
    chars = _characters(q) + _characters(other)
    i = pick % len(_characters(q))
    psi = chars[i]
    for fn, args in ((L_squarefree_restricted_table, (w, N)),
                     (lb_finite_product, (w,))):
        table = fn(chars, bs, *args)
        assert table.shape == (len(chars), len(bs))
        assert np.array_equal(table[i], fn([psi], bs, *args)[0])
        for j, b in enumerate(bs):
            assert np.array_equal(table[:, j], fn(chars, (b,), *args)[:, 0]), b
    row = L_squarefree_restricted_table([psi], bs, w, N)[0].tolist()
    products = lb_finite_product([psi], bs, w)[0].tolist()
    for b, got, prod in zip(bs, row, products):
        want = _reference(psi, b, w, N)
        assert abs(got - want) <= 1e-13 * abs(want), (b, got, want)
        want = _product_reference(psi, b, w)
        assert abs(prod - want) <= 1e-14 * abs(want), (b, prod, want)


def test_table_rejects_bad_b_and_N():
    chars = all_characters_mod(5)
    for bs, N in (((1, 0), 100), ((3,), 0), ((-2,), 10)):
        with pytest.raises(ValueError):
            L_squarefree_restricted_table(chars, bs, 2.5, N)
    with pytest.raises(ValueError):
        lb_finite_product(chars, (1, 0), 2.5)


# b = 30030 has six primes; 223092870 (nine primes, 512 divisors)
# exceeds N = 20; 12 and 50 carry squares and must act as their
# radicals 6 and 10.
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
    chars = _characters(q)
    table = L_squarefree_restricted_table(chars, (b, rad), w, N)
    assert np.array_equal(table[:, 0], table[:, 1])
    for psi, got in zip(chars, table[:, 0].tolist()):
        want = _reference(psi, b, w, N)
        assert abs(got - want) <= 1e-13 * abs(want), (psi, got, want)
