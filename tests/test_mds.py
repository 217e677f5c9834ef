"""Double series assembly, regrouping, residue identities."""

import math
from fractions import Fraction

import mpmath
import pytest

from cubic_mds import afe, arith, euler, forms, lfunc, mds, sqcount
from cubic_mds.arith import _px
from cubic_mds.errors import PoleError
from cubic_mds.lfunc import characters_mod24, principal_character

mpmath.mp.dps = 30

# ======================================================================
# configuration objects
# ======================================================================


def test_evaluators_refuse_cutoffs_below_one():
    chi = characters_mod24()[0]
    for m_cutoff, n_cutoff in ((0, 10), (10, 0), (-3, 10)):
        with pytest.raises(ValueError, match="cutoff"):
            mds.Z_direct(2.0, 2.0, m_cutoff, n_cutoff)
        with pytest.raises(ValueError, match="cutoff"):
            mds.Z_coeff(2.0, 2.0, m_cutoff, n_cutoff)
        with pytest.raises(ValueError, match="cutoff"):
            mds.residue_identity_check(chi, 2.5, 2.0, m_cutoff, n_cutoff, 1.0)
        with pytest.raises(ValueError, match="cutoff"):
            mds.decomposition_check(2.5, 2.0, m_cutoff, n_cutoff, 1.0)
    with pytest.raises(ValueError, match="n_cutoff"):
        mds.Z_star(chi, 2.5, 2.0, 0)


def test_series_comparison_refuses_tolerance_not_positive():
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="tolerance must be > 0"):
            mds.SeriesComparison.compare(1.0, 1.0, tol)


def test_checks_refuse_tolerance_before_evaluating(monkeypatch):
    def evaluated(*args):
        raise AssertionError("evaluated before the tolerance was checked")

    monkeypatch.setattr(mds, "dirichlet_L", evaluated)
    monkeypatch.setattr(mds, "_coefficient_double_sum", evaluated)
    monkeypatch.setattr(mds, "completed_Lambda", evaluated)
    chi = characters_mod24()[0]
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="tolerance must be > 0"):
            mds.residue_identity_check(chi, 2.5, 2.0, 10, 10, tol)
        with pytest.raises(ValueError, match="tolerance must be > 0"):
            mds.decomposition_check(2.5, 2.0, 10, 10, tol)
        for grid in ([], [0.3]):
            with pytest.raises(ValueError, match="tolerance must be > 0"):
                mds.functional_equation_check(5, grid, tol)


def test_series_comparison_record():
    c = mds.SeriesComparison.compare(1.0 + 2.0j, 1.0 + 2.0000001j, 1e-6)
    assert c.passed
    assert c.record() == {
        "lhs_re": 1.0,
        "lhs_im": 2.0,
        "rhs_re": 1.0,
        "rhs_im": 2.0000001,
        "abs_err": c.abs_err,
        "rel_err": c.rel_err,
        "tolerance": 1e-6,
    }


def test_series_comparison_relative_error():
    c = mds.SeriesComparison.compare(100.0 + 0j, 100.2 + 0j, 1e-3)
    assert abs(c.rel_err - 0.2 / 100.2) < 1e-12
    assert not c.passed


def test_coefficient_tail_bound_behaviour():
    # Decreasing in the cutoff, and an actual bound on the dropped mass
    # for a checkable slice.
    b1 = mds.coefficient_tail_bound(100, 2.0)
    b2 = mds.coefficient_tail_bound(1000, 2.0)
    assert 0 < b2 < b1
    coeffs = sqcount.coefficient_sieve(23, 40000)
    dropped = sum(c * m**-2.0 for m, c in enumerate(coeffs) if m > 100 and c)
    assert dropped < b1
    with pytest.raises(ValueError):
        mds.coefficient_tail_bound(100, 1.0)


# ======================================================================
# the two double-sum routes
# ======================================================================


def test_routes_agree_exactly():
    for s1, s2 in [(2.0, 2.0), (2.5, 1.5), (2.0 + 1j, 2.0 - 0.5j)]:
        zd = mds.Z_direct(complex(s1), complex(s2), 80, 80)
        zc = mds.Z_coeff(complex(s1), complex(s2), 80, 80)
        assert abs(zd - zc) < 1e-13, (s1, s2)


def test_single_cell_value():
    # m_cutoff = n_cutoff = 3: rows are exactly the (a, n) = (1, 3) and
    # (2, 3), (3, 3) families; check one tiny case by hand instead:
    # with cutoffs (1, 3) the only reduced forms are (1, 0, 1) with
    # n = 3, so Z = 1^-s1 * 3^-s2.
    got = mds.Z_direct(2.0 + 0j, 2.0 + 0j, 1, 3)
    assert abs(got - 3.0**-2.0) < 1e-15


def test_direct_route_keeps_only_odd_squarefree_n():
    # The unfiltered enumeration also yields even and square-divisible n;
    # Z_direct is the sum over its odd squarefree part alone.
    rows = list(forms.enumerate_representatives(6, 12, require_odd_squarefree=False))

    def direct_sum(keep):
        return mds._fsum([_px(a, 2.0) * _px(n, 2.0) for a, _b, _c, n in rows
                          if keep(n)])

    with_filter = mds.Z_direct(2.0, 2.0, 6, 12)
    assert with_filter == direct_sum(lambda n: n % 2 and arith.is_squarefree(n))
    assert direct_sum(lambda n: True).real > with_filter.real


def test_zn_oracle_matches_sieve_sum():
    n, s, cutoff = 5, 2.5, 5000
    coeffs = sqcount.coefficient_sieve(n, cutoff)
    want = sum(c * m**-s for m, c in enumerate(coeffs) if m and c)
    assert abs(mds.Z_n_oracle(n, s, cutoff) - want) < 1e-12


def test_zn_oracle_rejects_non_finite_s_before_sieving(monkeypatch):
    def no_sieve(*args):
        raise AssertionError("sieve built before the check on s")

    monkeypatch.setattr(mds.sqcount, "coefficient_sieve", no_sieve)
    for s in (float("nan"), float("inf"), complex(1.0, float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            mds.Z_n_oracle(5, s, 100)


def test_zn_euler_product_converges_to_oracle():
    for n in [3, 5, 23]:
        prod = mds.Z_n_euler_product(n, 2.5, 20000)
        direct = mds.Z_n_oracle(n, 2.5, 200000)
        assert abs(prod - direct) <= 1e-6 * max(1.0, abs(direct)), n


def test_zn_euler_product_proves_no_sieved_prime(monkeypatch):
    # The product equals the checked local factors multiplied in order,
    # bit for bit, but proves no prime: they come from the sieve.
    for n, s in [(5, 2.5), (7, 2.5), (45, 2.2 + 3j), (1, 3.0)]:
        want = 1 + 0j
        for p in arith.primes_up_to(3000):
            want *= euler.local_factor_closed(p, n, s)
        proofs = []
        real_proof = arith.is_probable_prime
        monkeypatch.setattr(
            arith, "is_probable_prime", lambda p: proofs.append(p) or real_proof(p)
        )
        assert mds.Z_n_euler_product(n, s, 3000) == want, n
        monkeypatch.undo()
        assert proofs == []


def test_zn_euler_product_checks_inputs_without_primes():
    # n, s and the cutoff are checked before the empty product returns.
    for cutoff in (1, 100):
        with pytest.raises(ValueError, match="n >= 1"):
            mds.Z_n_euler_product(0, 2.5, cutoff)
        with pytest.raises(ValueError, match="n >= 1"):
            mds.Z_n_euler_product(-4, 2.0, cutoff)
        with pytest.raises(ValueError, match="finite"):
            mds.Z_n_euler_product(5, float("nan"), cutoff)
        with pytest.raises(ValueError):
            mds.Z_n_euler_product(0, complex("nan"), cutoff)
    for cutoff in (0, -7):
        with pytest.raises(ValueError, match="prime cutoff"):
            mds.Z_n_euler_product(5, 2.5, cutoff)
    assert mds.Z_n_euler_product(5, 2.5, 1) == 1


# ======================================================================
# grouped series and decomposition
# ======================================================================


def test_Z_star_requires_mod24():
    with pytest.raises(ValueError):
        mds.Z_star(principal_character(8), 2.5, 2.0, 10)


def test_Z_star_leading_term():
    # n = 5 is the first index (n = 1 lies in the vanishing slice but
    # the sum starts at n = 5 only after chi and L weights; check the
    # n_cutoff = 5 partial equals the explicit two-term sum).
    chi = characters_mod24()[0]
    got = mds.Z_star(chi, 2.5, 2.0, 5)
    from cubic_mds.lfunc import L_removed_23, character_eta

    want = 0j
    for n in (1, 5):
        want += chi(n) * L_removed_23(character_eta(n), 2.5) * n**-2.0
    assert abs(got - want) < 1e-12


def test_decomposition_identity_small():
    c = mds.decomposition_check(2.5, 2.0, 40000, 25, 3e-4)
    assert c.passed, (c.rel_err, c.tolerance)


def test_decomposition_takes_each_inner_L_value_once(monkeypatch):
    # One Hurwitz L-value per outer n, twisted by all eight characters.
    calls = []
    plain = mds._L23_eta

    def counted(n, s):
        calls.append(n)
        return plain(n, s)

    monkeypatch.setattr(mds, "_L23_eta", counted)
    mds.decomposition_check(2.5, 2.0, 100, 60, 1.0)
    assert calls == mds._outer_indices(60)


def test_decomposition_and_Z_star_stay_on_hurwitz(monkeypatch):
    # 2.5 lies in the AFE's domain, yet neither reads the AFE batch.
    def refused(*args):
        raise AssertionError("AFE batch read outside residue_identity_check")

    monkeypatch.setattr(afe, "_L23_real_batch", refused)
    monkeypatch.setattr(mds, "_L23_real_batch", refused)
    mds._L23_eta_batch.cache_clear()
    ns = mds._outer_indices(60)
    lvals = [lfunc.L_removed_23(lfunc.character_eta(n), 2.5) for n in ns]
    for chi in characters_mod24():
        want = mds._fsum([chi(n) * lv * n**-2.0 for n, lv in zip(ns, lvals)])
        assert mds.Z_star(chi, 2.5, 2.0, 60) == want
    assert mds.decomposition_check(2.5, 2.0, 100, 60, 1.0).rel_err < 1e-3


# ======================================================================
# residue identities and the compensated product
# ======================================================================


def test_prime_zeta_against_mpmath():
    for e in [2.0, 3.0, 2.0 + 1.0j, 1.5]:
        want = complex(mpmath.primezeta(mpmath.mpc(e)))
        got = mds.prime_zeta(complex(e))
        assert abs(got - want) < 1e-12, e
    with pytest.raises(PoleError):
        mds.prime_zeta(1.0)


def test_residue_identity_trivial_character():
    chi = characters_mod24()[0]
    c = mds.residue_identity_check(chi, 2.5, 2.0, 600, 600, 5e-3)
    assert c.passed, c.rel_err


def test_L23_batch_matches_hurwitz():
    # Criterion 9's batch, all 609 n <= 2000 at s = 2.5; at s = 1.6 and
    # 3.3 every tenth n and the ten largest.
    ns = mds._outer_indices(2000)
    assert len(ns) == 609
    cases = [(2.5, ns, mds._L23_eta_batch(2.5, 2000))]
    few = sorted(set(ns[::10] + ns[-10:]))
    for s in (1.6, 3.3):
        cases.append((s, few, afe._L23_real_batch(few, s).tolist()))
    for s, group, got in cases:
        for n, v in zip(group, got):
            want = mds._L23_eta(n, complex(s))
            assert abs(v - want) <= 1e-13 * abs(want), (s, n)


def test_residue_identity_routes(monkeypatch):
    # Outside the AFE's real domain the left side is Z_star's, bit for
    # bit; inside it no Hurwitz L-value is taken.
    chi = characters_mod24()[3]
    l2 = lfunc.dirichlet_L(principal_character(24), 4.0).value
    for s1 in (2.0, 2.5 + 0.5j, 4.0):
        c = mds.residue_identity_check(chi, s1, 2.0, 50, 300, 1.0)
        assert c.lhs == l2 * mds.Z_star(chi, s1, 2.0, 300), s1
    hurwitz = l2 * mds.Z_star(chi, 2.5, 2.0, 300)

    def refused(*args):
        raise AssertionError("Hurwitz L-value inside the AFE's domain")

    monkeypatch.setattr(mds, "_L23_eta", refused)
    c = mds.residue_identity_check(chi, 2.5, 2.0, 50, 300, 1.0)
    assert abs(c.lhs - hurwitz) <= 1e-13 * abs(hurwitz)


def test_residue_identity_nontrivial_even_character():
    chi = characters_mod24()[3]
    assert chi.parity == 0
    c = mds.residue_identity_check(chi, 2.5, 2.0, 600, 600, 1e-4)
    assert c.passed, c.rel_err


def plain_residue_product(chi, s1, prime_cutoff: int) -> complex:
    """The residue product without its tail: the constant front times
    the factors at 5 <= p <= prime_cutoff, in ascending order."""
    s1 = complex(s1)
    front = 1 / 3
    for p, _e in arith.factorize(chi.conductor):
        front *= 1 - 1 / p
    partial = complex(front)
    for p in arith.primes_up_to(prime_cutoff):
        if p in (2, 3):
            continue
        csq = complex(chi(p)) ** 2
        inv2 = 1.0 / (p * p)
        num = 1 - csq * inv2 + csq * _px(p, 2 * s1 + 2) - _px(p, 2 * s1 + 1)
        den = 1 - csq * inv2
        partial *= num / den
    return partial


def test_residue_product_small_prime_cutoff_exact():
    # No primes >= 5 below the cutoff: only the constant front remains,
    # (1/3) for the trivial character (conductor 1).
    chi = characters_mod24()[0]
    got = plain_residue_product(chi, 0.5, 4)
    assert abs(got - 1.0 / 3.0) < 1e-15


def test_residue_product_head_is_the_plain_product(monkeypatch):
    # With every prime-zeta tail read as 0 the added log is 0, and what
    # is left is the product over the primes up to the cutoff.
    monkeypatch.setattr(mds, "_prime_zeta_tail", lambda e, primes: 0j)
    for chi in characters_mod24()[:4]:
        for cutoff in (4, 5, 100, 4000):
            for s1 in (0.5, complex(1.5, 2.0)):
                want = plain_residue_product(chi, s1, cutoff)
                assert mds.residue_product(chi, s1, cutoff) == want


def test_residue_product_tail_compensation():
    chi = characters_mod24()[0]
    gap_raw = abs(
        plain_residue_product(chi, 0.5, 8000)
        - plain_residue_product(chi, 0.5, 4000)
    )
    gap_comp = abs(
        mds.residue_product(chi, 0.5, 8000)
        - mds.residue_product(chi, 0.5, 4000)
    )
    assert gap_comp < 1e-10
    assert gap_comp < gap_raw / 100


def test_residue_product_cutoffs_below_five_agree():
    # Below 5 no factor is multiplied, and the tail runs over every
    # p >= 5: the primes 2 and 3 the product skips are never added back.
    for chi in (characters_mod24()[0], characters_mod24()[3]):
        want = mds.residue_product(chi, 0.5, 3)
        for cutoff in (1, 2, 4):
            assert mds.residue_product(chi, 0.5, cutoff) == want, cutoff
        far = mds.residue_product(chi, 0.5, 10000)
        assert abs(want - far) <= 1e-9 * abs(far)
        for cutoff in (0, -5):
            with pytest.raises(ValueError, match="prime_cutoff"):
                mds.residue_product(chi, 0.5, cutoff)


def _log_series(f, order):
    """Taylor coefficients 0..order of log f, for a polynomial f with
    f[0] = 1, exactly: e g_e = e f_e - sum_{0<j<e} j g_j f_{e-j}."""
    f = f + [0] * (order + 1 - len(f))
    g = [Fraction(0)] * (order + 1)
    for e in range(1, order + 1):
        g[e] = f[e] - sum(Fraction(j, e) * g[j] * f[e - j] for j in range(1, e))
    return g


def test_residue_product_matches_prime_zeta_reference():
    # Principal chi mod 24 at s1 = 1/2: each p >= 5 contributes
    # f(1/p) = (1 - 2x^2 + x^3) / (1 - x^2), so the product is
    # (1/3) exp(sum_e c_e (P(e) - 2^-e - 3^-e)) with c_e the Taylor
    # coefficients of log f and P the prime zeta function.  c_e grows
    # like phi^e / e, so the terms past e = 60 are below 1e-29.
    c = [a - b for a, b in zip(_log_series([1, 0, -2, 1], 60),
                               _log_series([1, 0, -1], 60))]
    log_sum = mpmath.fsum(
        mpmath.mpf(c[e].numerator) / c[e].denominator
        * (mpmath.primezeta(e) - mpmath.mpf(2) ** -e - mpmath.mpf(3) ** -e)
        for e in range(2, 61) if c[e]
    )
    want = complex(mpmath.exp(log_sum) / 3)
    assert abs(want - 0.307392960435999531) < 1e-17
    chi = next(ch for ch in characters_mod24() if ch.is_principal)
    for cutoff in (10000, 20000):
        got = mds.residue_product(chi, 0.5, cutoff)
        # A priori: each prime's factor and its product with the partial
        # product are each rounded to within 2^-53 relative, so the
        # product is off by at most pi(P) 2^-52 relative to first order.
        # The prime-zeta tail past the cutoff adds far less.
        bound = len(arith.primes_up_to(cutoff)) * 2.0**-52
        assert abs(got - want) <= bound * abs(want), cutoff


def test_residue_product_pole_guard():
    chi = characters_mod24()[0]
    with pytest.raises(PoleError):
        mds.residue_product(chi, 0.0, 100)


_CHI = characters_mod24()[3]

# Each call takes one point s from its argument, at positions where a
# nan once gave nan or a wrong number instead of an error.
NON_FINITE_CALLS = {
    "prime_zeta": mds.prime_zeta,
    "residue_product": lambda s: mds.residue_product(_CHI, s, 100),
    "local_factor_oracle": lambda s: euler.local_factor_oracle(5, 7, s),
    "dirichlet_L_direct": lambda s: lfunc.dirichlet_L_direct(_CHI, s, 100),
    "Z_direct s1": lambda s: mds.Z_direct(s, 2.0, 10, 10),
    "Z_direct s2": lambda s: mds.Z_direct(2.0, s, 10, 10),
    "Z_coeff s2": lambda s: mds.Z_coeff(2.0, s, 10, 10),
    "Z_star s2": lambda s: mds.Z_star(_CHI, 2.5, s, 10),
    "decomposition_check s2":
        lambda s: mds.decomposition_check(2.5, s, 10, 10, 1.0),
}


@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(),
                         ids=NON_FINITE_CALLS.keys())
def test_non_finite_points_are_refused(call):
    for s in (float("nan"), float("inf"), complex(2.0, float("nan")),
              complex(float("-inf"), 0.0)):
        with pytest.raises(ValueError, match="finite"):
            call(s)


# ======================================================================
# functional equation drivers
# ======================================================================


def test_functional_equation_check_batches():
    comps = mds.functional_equation_check(5, [0.3, 0.75, 0.6 + 2j])
    assert len(comps) == 3
    assert all(c.passed for c in comps)
