"""Binary cubic forms: invariants, reduction, representative counting."""

import random
from fractions import Fraction

import pytest

from cubic_mds import forms, sqcount
from cubic_mds.forms import BinaryCubicForm

try:
    from hypothesis import given, strategies as st
except ImportError:  # the property tests are then skipped
    given = None


def in_X_plus(f: BinaryCubicForm) -> bool:
    """The paper's X+: a > 0 and r2 = b^2 - 3ac < 0.

    An odd-degree form takes both signs, so this is not positivity of
    the values; it is the convention that the quadratic Hessian
    covariant is definite and the leading coefficient positive.
    """
    return f.a > 0 and forms.invariants(f).r2 < 0


# ======================================================================
# invariants
# ======================================================================


def test_invariants_explicit():
    f = BinaryCubicForm(1, 0, 1, 0)  # x^3 + x y^2
    inv = forms.invariants(f)
    assert (inv.r1, inv.r2, inv.r3, inv.r4) == (1, -3, 0, -4)


def test_syzygy_random():
    rng = random.Random(31)
    for _ in range(300):
        f = BinaryCubicForm(*(rng.randrange(-9, 10) for _ in range(4)))
        inv = forms.invariants(f)
        assert 4 * inv.r2**3 == inv.r3**2 + 27 * inv.r1**2 * inv.r4


def _det_fraction_free(rows: list[list[int]]) -> int:
    """Exact integer determinant (Gaussian elimination over Fractions)."""
    m = [[Fraction(v) for v in row] for row in rows]
    size = len(m)
    sign = 1
    for col in range(size):
        pivot_row = next(
            (r for r in range(col, size) if m[r][col] != 0), None
        )
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        for r in range(col + 1, size):
            factor = m[r][col] / m[col][col]
            for cc in range(col, size):
                m[r][cc] -= factor * m[col][cc]
    det = Fraction(sign)
    for i in range(size):
        det *= m[i][i]
    assert det.denominator == 1
    return det.numerator


def discriminant_resultant(f: BinaryCubicForm) -> int:
    """r4 recomputed as -Res(f, f')/a via an exact Sylvester determinant,
    an oracle for the polynomial expression in `forms.invariants`."""
    a, b, c, d = f.coefficients()
    rows = [
        [a, b, c, d, 0],
        [0, a, b, c, d],
        [3 * a, 2 * b, c, 0, 0],
        [0, 3 * a, 2 * b, c, 0],
        [0, 0, 3 * a, 2 * b, c],
    ]
    quotient, remainder = divmod(-_det_fraction_free(rows), a)
    assert remainder == 0
    return quotient


def test_discriminant_resultant_route():
    rng = random.Random(32)
    for _ in range(200):
        a = rng.randrange(1, 10)
        f = BinaryCubicForm(a, *(rng.randrange(-9, 10) for _ in range(3)))
        assert discriminant_resultant(f) == forms.invariants(f).r4


def test_invariants_translation_invariant():
    rng = random.Random(33)
    for _ in range(200):
        f = BinaryCubicForm(*(rng.randrange(-9, 10) for _ in range(4)))
        k = rng.randrange(-5, 6)
        assert forms.invariants(forms.gamma_shift(f, k)) == forms.invariants(f)


if given is not None:
    coefficient = st.integers(-10**6, 10**6)

    @given(f=st.builds(BinaryCubicForm, coefficient, coefficient,
                       coefficient, coefficient),
           k=st.integers(-10**4, 10**4))
    def test_invariants_property(f, k):
        # r1..r4 are translation invariants and satisfy the syzygy.
        inv = forms.invariants(f)
        assert forms.invariants(forms.gamma_shift(f, k)) == inv
        assert 4 * inv.r2**3 == inv.r3**2 + 27 * inv.r1**2 * inv.r4


def test_positive_definite_examples():
    assert in_X_plus(BinaryCubicForm(1, 0, 1, 0))
    assert in_X_plus(BinaryCubicForm(2, 1, 1, 5))
    # r2 = 9 - 3 > 0: indefinite Hessian.
    assert not in_X_plus(BinaryCubicForm(1, 3, 1, 0))
    assert not in_X_plus(BinaryCubicForm(-1, 0, -1, 0))


# ======================================================================
# reduction
# ======================================================================


def test_reduce_lands_in_window():
    rng = random.Random(34)
    for _ in range(300):
        f = BinaryCubicForm(
            rng.randrange(1, 12),
            rng.randrange(-40, 41),
            rng.randrange(-9, 10),
            rng.randrange(-9, 10),
        )
        g = forms.reduce(f)
        assert 0 <= g.b < 3 * g.a
        assert g.a == f.a
        assert forms.invariants(g).r2 == forms.invariants(f).r2
        # Exactly one representative per orbit: every translate of f
        # reduces to g, and g is its own reduction.
        assert forms.reduce(forms.gamma_shift(f, rng.randrange(-20, 21))) == g
        assert forms.reduce(g) == g


def test_reduce_requires_positive_leading():
    with pytest.raises(ValueError):
        forms.reduce(BinaryCubicForm(0, 1, 1, 1))


def test_gamma_shift_is_group_action():
    f = BinaryCubicForm(2, -5, 3, 1)
    g = forms.gamma_shift(forms.gamma_shift(f, 3), -3)
    assert g == f


# ======================================================================
# counting over (m, n)
# ======================================================================


def test_enumeration_multiplicities():
    # The reduced forms over (a, n) number C(3a, -n), the coefficient.
    rows = list(forms.enumerate_representatives(60, 60, False))
    tally: dict[tuple[int, int], int] = {}
    for a, b, c, n in rows:
        assert 0 <= b < 3 * a
        assert 3 * a * c - b * b == n
        assert 1 <= n <= 60
        tally[(a, n)] = tally.get((a, n), 0) + 1
    for a in range(1, 61):
        for n in range(1, 61):
            assert tally.get((a, n), 0) == sqcount.coefficient(a, n), (a, n)


def test_enumeration_odd_squarefree_filter():
    rows = list(forms.enumerate_representatives(15, 50, True))
    from cubic_mds import arith

    assert rows
    for a, b, c, n in rows:
        assert n % 2 == 1
        assert arith.is_squarefree(n)
    unfiltered = list(forms.enumerate_representatives(15, 50, False))
    kept = [
        r for r in unfiltered
        if r[3] % 2 == 1 and arith.is_squarefree(r[3])
    ]
    assert rows == kept


def test_enumeration_order_is_lex():
    rows = list(forms.enumerate_representatives(10, 30, True))
    assert rows == sorted(rows)


def test_enumeration_rows_have_definite_hessian():
    # n > 0 forces r2 = b^2 - 3ac = -n < 0, so each row extends to a
    # positive-definite cubic (any d leaves r2 unchanged).
    for a, b, c, n in forms.enumerate_representatives(8, 20, True):
        f = BinaryCubicForm(a, b, c, 0)
        assert forms.invariants(f).r2 == -n
        assert in_X_plus(f)


def test_enumeration_yields_reduced_points_of_X_plus():
    # Every row, with any d, is a form in X+ that `reduce` fixes, so it
    # is the reduced representative of its translation orbit in X+.
    rows = list(forms.enumerate_representatives(40, 200, False))
    assert rows
    for a, b, c, _n in rows:
        for d in (-7, 0, 5):
            f = BinaryCubicForm(a, b, c, d)
            assert in_X_plus(f)
            assert forms.reduce(f) == f
