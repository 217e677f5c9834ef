"""Double series assembly, regrouping, residue identities."""

import json
import math

import mpmath
import pytest

from cubic_mds import arith, euler, mds, sqcount
from cubic_mds.errors import PoleError
from cubic_mds.lfunc import characters_mod24, principal_character

mpmath.mp.dps = 30

# ======================================================================
# configuration objects
# ======================================================================


def test_truncation_spec_validation():
    with pytest.raises(ValueError):
        mds.TruncationSpec(m_cutoff=0, n_cutoff=10)
    with pytest.raises(ValueError):
        mds.TruncationSpec(m_cutoff=10, n_cutoff=10, tolerance=-1.0)


def test_series_comparison_roundtrip():
    spec = mds.TruncationSpec(m_cutoff=50, n_cutoff=20, tolerance=1e-6)
    c = mds.SeriesComparison.compare(1.0 + 2.0j, 1.0 + 2.0000001j, spec)
    assert c.passed
    assert json.loads(c.to_json()) == {
        "lhs_re": 1.0,
        "lhs_im": 2.0,
        "rhs_re": 1.0,
        "rhs_im": 2.0000001,
        "abs_err": c.abs_err,
        "rel_err": c.rel_err,
        "spec": {"m_cutoff": 50, "n_cutoff": 20, "tolerance": 1e-6},
    }


def test_series_comparison_relative_error():
    spec = mds.TruncationSpec(m_cutoff=1, n_cutoff=1, tolerance=1e-3)
    c = mds.SeriesComparison.compare(100.0 + 0j, 100.2 + 0j, spec)
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
    spec = mds.TruncationSpec(m_cutoff=80, n_cutoff=80, tolerance=1e-13)
    for s1, s2 in [(2.0, 2.0), (2.5, 1.5), (2.0 + 1j, 2.0 - 0.5j)]:
        zd = mds.Z_direct(complex(s1), complex(s2), spec)
        zc = mds.Z_coeff(complex(s1), complex(s2), spec)
        assert abs(zd - zc) < 1e-13, (s1, s2)


def test_single_cell_value():
    # m_cutoff = n_cutoff = 3: rows are exactly the (a, n) = (1, 3) and
    # (2, 3), (3, 3) families; check one tiny case by hand instead:
    # with cutoffs (1, 3) the only reduced forms are (1, 0, 1) with
    # n = 3, so Z = 1^-s1 * 3^-s2.
    spec = mds.TruncationSpec(m_cutoff=1, n_cutoff=3, tolerance=1e-13)
    got = mds.Z_direct(2.0 + 0j, 2.0 + 0j, spec)
    assert abs(got - 3.0**-2.0) < 1e-15


def test_direct_route_flag_off_includes_even_n():
    spec = mds.TruncationSpec(m_cutoff=6, n_cutoff=12, tolerance=1e-13)
    with_filter = mds.Z_direct(2.0, 2.0, spec, require_odd_squarefree=True)
    without = mds.Z_direct(2.0, 2.0, spec, require_odd_squarefree=False)
    assert without.real > with_filter.real


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
        mds.Z_star(principal_character(8), 2.5, 2.0,
                   mds.TruncationSpec(10, 10))


def test_Z_star_leading_term():
    # n = 5 is the first index (n = 1 lies in the vanishing slice but
    # the sum starts at n = 5 only after chi and L weights; check the
    # n_cutoff = 5 partial equals the explicit two-term sum).
    chi = characters_mod24()[0]
    spec = mds.TruncationSpec(m_cutoff=1, n_cutoff=5, tolerance=1e-12)
    got = mds.Z_star(chi, 2.5, 2.0, spec)
    from cubic_mds.lfunc import L_removed_23, character_eta

    want = 0j
    for n in (1, 5):
        want += chi(n) * L_removed_23(character_eta(n), 2.5) * n**-2.0
    assert abs(got - want) < 1e-12


def test_decomposition_identity_small():
    spec = mds.TruncationSpec(m_cutoff=40000, n_cutoff=25, tolerance=3e-4)
    c = mds.decomposition_check(2.5, 2.0, spec)
    assert c.passed, (c.rel_err, c.spec.tolerance)


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
    spec = mds.TruncationSpec(m_cutoff=600, n_cutoff=600, tolerance=5e-3)
    c = mds.residue_identity_check(chi, 2.5, 2.0, spec, inner_terms=8000)
    assert c.passed, c.rel_err


def test_residue_identity_nontrivial_even_character():
    chi = characters_mod24()[3]
    assert chi.parity == 0
    spec = mds.TruncationSpec(m_cutoff=600, n_cutoff=600, tolerance=1e-4)
    c = mds.residue_identity_check(chi, 2.5, 2.0, spec, inner_terms=8000)
    assert c.passed, c.rel_err


def test_residue_product_small_prime_cutoff_exact():
    # No primes >= 5 below the cutoff: only the constant front remains,
    # (1/3) for the trivial character (conductor 1).
    chi = characters_mod24()[0]
    got = mds.residue_product(chi, 0.5, 4, compensate_tail=False)
    assert abs(got - 1.0 / 3.0) < 1e-15


def test_residue_product_tail_compensation():
    chi = characters_mod24()[0]
    gap_raw = abs(
        mds.residue_product(chi, 0.5, 8000, compensate_tail=False)
        - mds.residue_product(chi, 0.5, 4000, compensate_tail=False)
    )
    gap_comp = abs(
        mds.residue_product(chi, 0.5, 8000)
        - mds.residue_product(chi, 0.5, 4000)
    )
    assert gap_comp < 1e-10
    assert gap_comp < gap_raw / 100


def test_residue_product_pole_guard():
    chi = characters_mod24()[0]
    with pytest.raises(PoleError):
        mds.residue_product(chi, 0.0, 100)


# ======================================================================
# functional equation drivers
# ======================================================================


def test_functional_equation_check_batches():
    comps = mds.functional_equation_check(5, [0.3, 0.75, 0.6 + 2j])
    assert len(comps) == 3
    assert all(c.passed for c in comps)
