"""Positive-definite integral binary cubic forms.

A form f = (a, b, c, d) stands for a x^3 + b x^2 y + c x y^2 + d y^3.
The translation action (x, y) -> (x + k y, y) fixes a and the quartic
invariant; each orbit of positive-definite forms contains exactly one
representative with 0 <= b < 3a.  Sections of the orbit space by the
invariant pair (a, 3ac - b^2) are what the double series sums over:
the number of reduced (a, b, c, *) with 3ac - b^2 = n equals
C(3a, -n), the coefficient `sqcount.coefficient(a, n)`, which ties the
geometry back to the square-root counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import arith


@dataclass(frozen=True)
class BinaryCubicForm:
    """Integral binary cubic a x^3 + b x^2 y + c x y^2 + d y^3."""

    a: int
    b: int
    c: int
    d: int

    def coefficients(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class InvariantTuple:
    """Translation invariants of a form.

    r1 = a                       (degree 1)
    r2 = b^2 - 3ac               (degree 2, Hessian leading coefficient)
    r3 = 2b^3 + 27a^2 d - 9abc   (degree 3)
    r4 = b^2 c^2 + 18abcd - 4ac^3 - 4b^3 d - 27a^2 d^2   (discriminant)

    They satisfy 4 r2^3 = r3^2 + 27 r1^2 r4.
    """

    r1: int
    r2: int
    r3: int
    r4: int


def invariants(f: BinaryCubicForm) -> InvariantTuple:
    a, b, c, d = f.coefficients()
    r2 = b * b - 3 * a * c
    r3 = 2 * b**3 + 27 * a * a * d - 9 * a * b * c
    r4 = (
        b * b * c * c
        + 18 * a * b * c * d
        - 4 * a * c**3
        - 4 * b**3 * d
        - 27 * a * a * d * d
    )
    return InvariantTuple(r1=a, r2=r2, r3=r3, r4=r4)


def gamma_shift(f: BinaryCubicForm, k: int) -> BinaryCubicForm:
    """Translation action: the form g with g(x, y) = f(x + k y, y)."""
    a, b, c, d = f.coefficients()
    return BinaryCubicForm(
        a=a,
        b=b + 3 * a * k,
        c=3 * a * k * k + 2 * b * k + c,
        d=a * k**3 + b * k * k + c * k + d,
    )


def reduce(f: BinaryCubicForm) -> BinaryCubicForm:
    """Unique translate of f with 0 <= b < 3a (requires a > 0)."""
    if f.a <= 0:
        raise ValueError(f"reduction requires a > 0, got a = {f.a}")
    k = (f.b % (3 * f.a) - f.b) // (3 * f.a)
    return gamma_shift(f, k)


def enumerate_representatives(
    m_cutoff: int,
    n_cutoff: int,
    require_odd_squarefree: bool = True,
) -> Iterator[tuple[int, int, int, int]]:
    """Reduced representatives (a, b, c, n) with n = 3ac - b^2 in range.

    Yields every translation-orbit representative satisfying
    1 <= a <= m_cutoff, 0 <= b < 3a, and 1 <= n <= n_cutoff (n > 0
    forces positive-definiteness of the associated Hessian section).
    With `require_odd_squarefree` only odd squarefree n are kept, which
    is the index set of the double series.  Order is lexicographic in
    (a, b, c).
    """
    if m_cutoff < 1 or n_cutoff < 1:
        raise ValueError("cutoffs must be >= 1")
    sqfree = None
    if require_odd_squarefree:
        sqfree = arith.squarefree_mask(n_cutoff)
    for a in range(1, m_cutoff + 1):
        for b in range(3 * a):
            # n = 3ac - b^2 in [1, n_cutoff] pins c to one short run.
            c_lo = -((-(b * b + 1)) // (3 * a))
            c_hi = (b * b + n_cutoff) // (3 * a)
            for c in range(c_lo, c_hi + 1):
                n = 3 * a * c - b * b
                if n < 1 or n > n_cutoff:
                    continue
                if sqfree is not None and (n % 2 == 0 or not sqfree[n]):
                    continue
                yield (a, b, c, n)

