"""Character tables against scalar oracles.

Every Kronecker-symbol table in `lfunc` comes from
`character_from_symbol`, which fills one period of the symbol with
numpy, by reciprocity from `jacobi_table`, and refuses a modulus that
the period does not divide.  The oracles here are scalar: a
multiplicative fill over the smallest-prime-factor sieve with one
`arith.kronecker` call per prime, the defining formula of psi_n one
entry at a time, the conductor scan that tests every divisor d of q
against every unit = 1 mod d with `math.gcd`, the odometer over dict
discrete logarithms that lists all characters mod q, and
chi(pb) = chi(p) chi(b) over the primes p that generate the units.
"""

import cmath
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cubic_mds import arith  # noqa: E402
from cubic_mds.lfunc import (  # noqa: E402
    DirichletCharacter,
    all_characters_mod,
    character_eta,
    character_from_symbol,
    fundamental_discriminants,
    jacobi_table,
    primitive_part,
    principal_character,
    psi_n_character,
)

_ONE_EPS = 1e-9


# ======================================================================
# scalar oracles
# ======================================================================


def symbol_oracle(top: int, modulus: int) -> list[int]:
    """m -> kronecker(top, m) on the units mod `modulus`, 0 elsewhere."""
    if modulus == 1:
        return [1]
    spf = arith.spf_list(modulus)
    at_prime: dict[int, int] = {}
    vals = [0] * modulus
    vals[1] = 1
    for m in range(2, modulus):
        p = spf[m]
        vp = at_prime.get(p)
        if vp is None:
            vp = 0 if modulus % p == 0 else arith.kronecker(top, p)
            at_prime[p] = vp
        vals[m] = vals[m // p] * vp if vp else 0
    return vals


def psi_oracle(n: int) -> list[int]:
    """chi_4(m) (n/m) on m coprime to 6, 0 elsewhere, mod 12n."""
    vals = [0] * (12 * n)
    for m in range(12 * n):
        if m % 2 and m % 3:
            vals[m] = (1 if m % 4 == 1 else -1) * arith.kronecker(n, m)
    return vals


def is_one(v) -> bool:
    return abs(complex(v) - 1) < _ONE_EPS


def is_principal_oracle(values) -> bool:
    q = len(values)
    return all(is_one(values[a]) for a in range(q) if math.gcd(a, q) == 1)


def conductor_oracle(values) -> int:
    q = len(values)
    if q == 1:
        return 1
    for d in range(1, q + 1):
        if q % d:
            continue
        if all(
            is_one(values[a])
            for a in range(1, q)
            if math.gcd(a, q) == 1 and a % d == 1 % d
        ):
            return d
    return q


def primitive_part_oracle(values, f: int) -> list:
    q = len(values)
    vals: list = [0] * f
    for a in range(f):
        if math.gcd(a, f) != 1:
            continue
        t = a
        while math.gcd(t, q) != 1:
            t += f
        vals[a] = values[t % q]
    return vals


def _primitive_root_oracle(prime_power: int, p: int) -> int:
    phi = prime_power // p * (p - 1)
    prime_divs = [q for q, _ in arith.factorize(phi)]
    for g in range(2, prime_power):
        if math.gcd(g, prime_power) != 1:
            continue
        if all(pow(g, phi // q, prime_power) != 1 for q in prime_divs):
            return g
    raise ArithmeticError(f"no primitive root mod {prime_power}")


def odometer_characters(q: int) -> list[DirichletCharacter]:
    """Every character mod q, the first cyclic factor's exponent fastest."""
    if q == 1:
        return [DirichletCharacter(1, (1,))]
    # components: (prime power P, dlog table over (Z/P)^x, cyclic order)
    comps: list[tuple[int, dict[int, int], int]] = []
    for p, e in arith.factorize(q):
        P = p**e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                comps.append((P, {1: 0, 3: 1}, 2))
            else:
                half = 2 ** (e - 2)
                dlog_sign: dict[int, int] = {}
                dlog_five: dict[int, int] = {}
                u = 1
                for k in range(half):
                    dlog_sign[u] = 0
                    dlog_five[u] = k
                    dlog_sign[(-u) % P] = 1
                    dlog_five[(-u) % P] = k
                    u = u * 5 % P
                comps.append((P, dlog_sign, 2))
                comps.append((P, dlog_five, half))
        else:
            g = _primitive_root_oracle(P, p)
            order = P // p * (p - 1)
            dlog: dict[int, int] = {}
            u = 1
            for k in range(order):
                dlog[u] = k
                u = u * g % P
            comps.append((P, dlog, order))
    orders = [d for _, _, d in comps]
    out: list[DirichletCharacter] = []
    index = [0] * len(comps)
    while True:
        vals: list = [0] * q
        for m in range(q):
            if math.gcd(m, q) != 1:
                continue
            angle = 0.0
            for (P, dlog, d), k in zip(comps, index):
                angle += k * dlog[m % P] / d
            z = cmath.exp(2j * math.pi * angle)
            if abs(z.imag) < 1e-12:
                vals[m] = int(round(z.real))
            else:
                vals[m] = z
        out.append(DirichletCharacter(q, vals))
        pos = 0
        while pos < len(index):
            index[pos] += 1
            if index[pos] < orders[pos]:
                break
            index[pos] = 0
            pos += 1
        else:
            break
    return out


def admissible_n(n: int) -> bool:
    return n % 2 == 1 and n % 3 != 0 and arith.is_squarefree(n)


# ======================================================================
# the Jacobi kernel
# ======================================================================


@given(st.integers(min_value=0, max_value=1499).map(lambda j: 2 * j + 1))
def test_jacobi_table_matches_kronecker(k):
    table = jacobi_table(k)
    assert table.dtype == np.int8
    assert table.shape == (k,)
    assert table.tolist() == [arith.kronecker(r, k) for r in range(k)]


def symbol_period(top: int) -> int:
    """The period of m -> kronecker(top, m): |top| or 4|top|."""
    return abs(top) if top % 4 in (0, 1) else 4 * abs(top)


def assert_multiplicative(chi: DirichletCharacter) -> None:
    """chi(pb) = chi(p) chi(b) for every prime p < q not dividing q and
    every unit b mod q.  Those primes generate the units, so the table
    is a homomorphism on them."""
    q = chi.modulus
    table = chi.table
    units = np.flatnonzero(table)
    for p in arith.primes_up_to(q - 1):
        if q % p:
            assert np.array_equal(table[p * units % q], table[p] * table[units]), p


def test_jacobi_table_prime_powers_and_bad_input():
    for k in (1, 3, 9, 27, 25, 125, 3 * 3 * 5, 7 * 7 * 11 * 11, 3**7):
        assert jacobi_table(k).tolist() == [arith.kronecker(r, k) for r in range(k)]
    for k in (0, -3, 2, 12):
        with pytest.raises(ValueError):
            jacobi_table(k)


# ======================================================================
# builders against the scalar oracles
# ======================================================================


@given(st.integers(min_value=1, max_value=2000).filter(admissible_n))
def test_psi_n_matches_oracle(n):
    psi = psi_n_character(n)
    assert psi.table.dtype == np.int8
    assert list(psi.values) == psi_oracle(n)


@given(st.integers(min_value=1, max_value=2000))
def test_eta_matches_oracle(n):
    eta = character_eta(n)
    assert eta.table.dtype == np.int8
    assert list(eta.values) == symbol_oracle(-n, 4 * n)


def test_fundamental_symbols_match_oracle():
    for d in fundamental_discriminants(2000):
        chi = character_from_symbol(d, abs(d))
        assert list(chi.values) == symbol_oracle(d, abs(d)), d
        assert chi.conductor == conductor_oracle(chi.values) == abs(d), d


@st.composite
def symbol_on_its_period(draw) -> tuple[int, int]:
    # A modulus P k <= 4000 bounds |top| <= P by 4000 as well.
    top = draw(
        st.integers(min_value=-4000, max_value=4000).filter(
            lambda t: t and symbol_period(t) <= 4000
        )
    )
    k = draw(st.integers(min_value=1, max_value=4000 // symbol_period(top)))
    return top, symbol_period(top) * k


@given(symbol_on_its_period())
def test_character_from_symbol_matches_oracle(pair):
    top, modulus = pair
    chi = character_from_symbol(top, modulus)
    assert chi.table.dtype == np.int8
    assert chi.table.tolist() == symbol_oracle(top, modulus)
    assert_multiplicative(chi)


def test_symbol_off_its_period_is_refused():
    # On the units mod 5, (37/m) and (-1/m) have chi(2) chi(3) = -1 but
    # chi(6) = chi(1) = 1: no character.  (3/m) has period 12 and (5/m)
    # period 5, and top = 0 has none.
    for top, modulus in ((37, 5), (-1, 5), (3, 3), (5, 1), (0, 7)):
        with pytest.raises(ValueError):
            character_from_symbol(top, modulus)


@given(st.integers(min_value=1, max_value=2000).filter(admissible_n))
def test_lambda_character_is_primitive_part_of_psi(n):
    # completed_Lambda builds (-n/.) at its own period f; the conductor
    # scan of psi_n must reach the same table.
    f = n if n % 4 == 3 else 4 * n
    got = character_from_symbol(-n, f)
    want = primitive_part(psi_n_character(n))
    assert got.modulus == want.modulus == f
    assert got.table.dtype == want.table.dtype
    assert got.table.tobytes() == want.table.tobytes()


def test_symbol_that_vanishes_at_a_unit_is_refused():
    # (3/m) vanishes at the unit 3 mod 5, and (-8/m) at every even unit
    # mod 23: neither table is a character, and neither is built.
    with pytest.raises(ValueError):
        character_from_symbol(3, 5)
    with pytest.raises(ValueError):
        character_from_symbol(-8, 23)
    with pytest.raises(ValueError):
        DirichletCharacter(5, [0, 1, -1, 0, 1])
    # Nonzero off the units is refused too.
    with pytest.raises(ValueError):
        DirichletCharacter(4, [1, 1, 0, -1])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: a table is checked "
                   "for its support and chi(-1), not for being a "
                   "homomorphism")
def test_table_that_is_no_homomorphism_is_refused():
    # 2 * 3 = 1 mod 5, but chi(2) chi(3) = -1 against chi(1) = 1.
    with pytest.raises(ValueError):
        DirichletCharacter(5, [0, 1, -1, 1, 1])


def test_all_characters_mod_matches_odometer():
    # Same characters in the same order, down to the bytes: criterion 8
    # names the first character with the worst error.
    for q in range(1, 61):
        got = all_characters_mod(q)
        want = odometer_characters(q)
        assert len(got) == len(want), q
        for chi, ref in zip(got, want):
            assert chi.table.dtype == ref.table.dtype, q
            assert chi.table.tobytes() == ref.table.tobytes(), q


def test_principal_character_matches_oracle():
    for q in range(1, 200):
        chi = principal_character(q)
        assert list(chi.values) == [int(math.gcd(m, q) == 1) for m in range(q)]
        assert chi.is_principal and chi.conductor == 1


# ======================================================================
# conductor, primitive part and principality against the oracle scan
# ======================================================================


def _check_derived(chi: DirichletCharacter) -> None:
    values = chi.values
    f = conductor_oracle(values)
    assert chi.conductor == f
    assert chi.is_principal == is_principal_oracle(values)
    prim = primitive_part(chi)
    assert prim.modulus == f
    assert prim.values == tuple(primitive_part_oracle(values, f))


@given(st.integers(min_value=1, max_value=2000).filter(admissible_n))
def test_psi_n_derived_match_oracle(n):
    _check_derived(psi_n_character(n))


@given(st.integers(min_value=1, max_value=2000))
def test_eta_derived_match_oracle(n):
    _check_derived(character_eta(n))


def test_all_characters_mod_derived_match_oracle():
    complex_seen = 0
    for q in range(1, 61):
        for chi in all_characters_mod(q):
            complex_seen += chi.table.dtype == complex
            real = all(abs(complex(v).imag) < 1e-12 for v in chi.values)
            assert chi.table.dtype == (np.int8 if real else complex)
            _check_derived(chi)
    assert complex_seen > 900


def test_derived_of_a_table_that_is_no_character():
    # The scan's definition holds for any table: the least divisor d of
    # q with chi = 1 on every unit = 1 mod d, q itself when none is.
    chi = DirichletCharacter(8, (0, 1, 0, 1, 0, -1, 0, 1))
    _check_derived(chi)
    assert chi.conductor == 8


# ======================================================================
# the array and the tuple
# ======================================================================


def test_table_is_read_only_and_matches_values():
    for chi in (psi_n_character(5), character_eta(7), all_characters_mod(5)[1]):
        assert isinstance(chi.values, tuple)
        assert chi.table.tolist() == list(chi.values)
        with pytest.raises(ValueError):
            chi.table[1] = 0


def test_values_tuple_serves_nonzero_count():
    # `len(values) - values.count(0)` counts the points of a table; it
    # must keep working on every builder's output, complex tables too.
    chars = [psi_n_character(35), character_eta(12)] + all_characters_mod(15)
    assert any(chi.table.dtype == complex for chi in chars)
    for chi in chars:
        nonzero = len(chi.values) - chi.values.count(0)
        assert nonzero == np.count_nonzero(chi.table)
        q = chi.modulus
        assert nonzero == sum(1 for m in range(q) if math.gcd(m, q) == 1)
        rebuilt = DirichletCharacter(chi.modulus, chi.values)
        assert rebuilt == chi
        assert hash(rebuilt) == hash(chi)
        assert len({chi, rebuilt}) == 1
        assert all(type(chi(m)) in (int, complex) for m in range(chi.modulus))
