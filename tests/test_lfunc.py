"""Characters, Gauss sums, Hurwitz/L evaluation, slice closed forms."""

import cmath
import math

import mpmath
import numpy as np
import pytest

try:
    from hypothesis import assume, given, strategies as st
except ImportError:  # the property tests are then skipped
    given = None

from cubic_mds import afe, arith, lfunc
from cubic_mds.errors import PoleError
from cubic_mds.lfunc import (
    DirichletCharacter,
    A_j,
    L_removed_23,
    L_squarefree_restricted_table,
    Z_n_closed,
    a_n,
    all_characters_mod,
    character_eta,
    characters_mod24,
    completed_Lambda,
    complex_gamma,
    dirichlet_L,
    dirichlet_L_direct,
    gauss_sum,
    hurwitz_zeta,
    lb_finite_product,
    primitive_part,
    principal_character,
    psi_n_character,
    real_primitive_characters,
    riemann_zeta,
    twisted_exponential_sum,
)

mpmath.mp.dps = 30


def mp_hurwitz(s: complex, x: float) -> complex:
    return complex(mpmath.zeta(mpmath.mpc(s), mpmath.mpf(x)))


# ======================================================================
# gamma and Hurwitz zeta
# ======================================================================


def test_gamma_against_mpmath():
    pts = [0.5, 1.0, 3.7, -0.5 + 0.0j, 2.5 + 6j, -1.5 + 3j, 0.25 - 20j]
    for z in pts:
        want = complex(mpmath.gamma(mpmath.mpc(z)))
        got = complex_gamma(complex(z))
        assert abs(got - want) <= 1e-11 * abs(want), z


def test_gamma_pole():
    for z in [0.0, -1.0, -7.0]:
        with pytest.raises(PoleError):
            complex_gamma(z)


def test_hurwitz_clean_region_absolute_1e10():
    # Documented guarantee: abs error < 1e-10 for Re(s) >= 0, x >= 0.05.
    worst = 0.0
    for s in [0.0 + 0j, 0.5 + 0j, 2.0 + 0j, 0.25 + 5j, 2.0 + 30j, 1.5 - 50j]:
        for x in [0.05, 1 / 12.0, 0.25, 0.5, 23 / 24.0, 1.0]:
            got = hurwitz_zeta(s, x)
            want = mp_hurwitz(s, x)
            worst = max(worst, abs(got - want))
    assert worst < 1e-10


def test_hurwitz_error_estimate_honest_on_corners():
    # Outside the clean region the returned estimate must still bound
    # the actual error against a 30-digit reference.
    from cubic_mds.lfunc import _hurwitz_block

    for s in [-2.0 + 50j, -1.5 + 35j, 2.5 + 0j, 1.0001 + 0j, 2.0 + 50j]:
        for x in [0.007, 0.05, 0.4, 1.0]:
            values, est = _hurwitz_block(complex(s), np.array([x]), False)
            actual = abs(complex(values[0]) - mp_hurwitz(s, x))
            assert actual <= est, (s, x, actual, est)


def test_hurwitz_deflated_at_one_is_minus_digamma():
    from cubic_mds.lfunc import _hurwitz_block

    for x in [0.1, 0.3, 0.5, 5 / 7.0, 1.0]:
        values, _ = _hurwitz_block(1.0 + 0j, np.array([x]), True)
        want = -complex(mpmath.digamma(mpmath.mpf(x)))
        assert abs(complex(values[0]) - want) < 1e-12, x


def test_hurwitz_guards():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 1.5)
    for s in (float("nan"), float("inf"), complex(1.0, float("nan")),
              complex(2.0, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            hurwitz_zeta(s, 0.5)


def test_riemann_zeta_against_mpmath():
    for s in [2.0, 3.0, 0.5 + 14.1347j, -1.5 + 2j, 2.5 + 40j]:
        want = complex(mpmath.zeta(mpmath.mpc(s)))
        got = riemann_zeta(complex(s))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), s


def test_hurwitz_refuses_large_blocks_before_allocating(monkeypatch):
    # (-25000/.) has 40,000 residues; at Im s = 5000 its block would have
    # 8,010 rows of them, 320 million complex powers.
    chi = character_eta(25000)

    def no_block(*args):
        raise AssertionError("Hurwitz block computed before the size check")

    monkeypatch.setattr(lfunc, "_hurwitz_sum", no_block)
    for s in (0.5 + 5000j, 0.5 - 500j):
        with pytest.raises(ValueError, match=r"\|Im s\| = \d+ needs"):
            dirichlet_L(chi, s)
    with pytest.raises(ValueError, match=r"\|Im s\|"):
        hurwitz_zeta(2.0 + 1.1e7j, 0.5)
    # The CLI's largest block, this character at |Im s| = 50, passes.
    monkeypatch.setattr(lfunc, "_hurwitz_sum", lambda s, xs, d: (xs * 0j, 0.0))
    assert dirichlet_L(chi, 0.5 + 50j).value == 0
    monkeypatch.undo()
    # One point far up the line is a small block: zeta(2s) for s at the
    # edge of the envelope, and the prime-zeta tail of the residue product
    # at a complex s1, which asks for zeta(k e) up to |Im| = 160 here.
    for s in (5 + 100j, 10 + 160j):
        want = complex(mpmath.zeta(mpmath.mpc(s)))
        assert abs(riemann_zeta(s) - want) <= 1e-12, s
    assert cmath.isfinite(Z_n_closed(5, 2.5 + 50j))


def test_dirichlet_L_refuses_a_value_past_the_double_range():
    # q^(-s) = 99996^50 and the Hurwitz sum are finite, their product is
    # not; |L(-50, chi)| is about 1e276 by the functional equation.
    chi = character_eta(24999)
    for s in (-50.0, -50 + 50j):
        with pytest.raises(ValueError, match="not finite"):
            dirichlet_L(chi, s)
    assert cmath.isfinite(dirichlet_L(character_eta(5), -50.0).value)


def test_slice_values_refuse_large_n_before_building_tables(monkeypatch):
    # At s = 2 and s = 0.3 a block has 30 rows, so 2^24 entries allow
    # 559,240 points: phi(4n) = 2 phi(n) for Z_n, and phi(f) for the
    # conductor f of psi_n (4n when n = 1 mod 4, n when n = 3 mod 4).
    # completed_Lambda is asked at s = 2, outside the strip where large
    # conductors take the AFE, which builds no table.
    class Reached(Exception):
        pass

    def sentinel(*args):
        raise Reached(args)

    # Z_n_closed reaches it through character_eta, completed_Lambda directly.
    monkeypatch.setattr(lfunc, "character_from_symbol", sentinel)
    cases = [  # (function, s, largest prime inside, least prime past)
        (Z_n_closed, 2.0, 279593, 279641),  # primes = 2 mod 3
        (completed_Lambda, 2.0, 559231, 559243),  # primes = 3 mod 4
        (completed_Lambda, 2.0, 279613, 279637),  # primes = 1 mod 4
    ]
    for fn, s, inside, past in cases:
        with pytest.raises(Reached):
            fn(inside, s)
        with pytest.raises(ValueError, match=f"at n = {past} needs"):
            fn(past, s)
    # Inside the strip the block limit still refuses first.
    with pytest.raises(ValueError, match="at n = 559243 needs"):
        completed_Lambda(559243, 0.3)
    with pytest.raises(ValueError, match="at n = 10000019 needs"):
        Z_n_closed(10000019, 2.0)


def test_hurwitz_memo_is_small_read_only_and_exact():
    # Every character mod 15 shares one set of units, so criterion 8's
    # pattern asks for the same block again and again.
    w = 2.5
    chars = all_characters_mod(15)
    lfunc._hurwitz_memo.cache_clear()
    memoised = [repr(dirichlet_L(chi, w).value) for chi in chars]
    # One block for the principal character, one for all the others.
    assert lfunc._hurwitz_memo.cache_info().misses == 2
    fresh = []
    for chi in chars:
        lfunc._hurwitz_memo.cache_clear()
        fresh.append(repr(dirichlet_L(chi, w).value))
    assert fresh == memoised
    # The kept values are read-only, and +0.0 and -0.0 in Im s are
    # different keys.
    xs = np.array([0.25, 0.5, 1.0])
    a, _ = lfunc._hurwitz_block(complex(2.5, 0.0), xs, deflate=False)
    b, _ = lfunc._hurwitz_block(complex(2.5, -0.0), xs, deflate=False)
    assert not a.flags.writeable
    assert a is not b
    assert lfunc._hurwitz_block(complex(2.5, 0.0), xs, deflate=False)[0] is a
    # A block past the point limit is not kept.
    lfunc._hurwitz_memo.cache_clear()
    many = np.linspace(0.001, 1.0, lfunc._MEMO_MAX_POINTS + 1)
    lfunc._hurwitz_block(2.5, many, deflate=True)
    assert lfunc._hurwitz_memo.cache_info().currsize == 0


def full_block_hurwitz(s: complex, xs: np.ndarray, deflate: bool):
    """The Hurwitz kernel as it was before its head was summed in spans of
    columns: the whole rows x points head at once."""
    shift = lfunc._em_shift(s)
    base = np.arange(shift, dtype=float)[:, None] + xs[None, :]
    head_terms = np.power(base, -s)
    head = head_terms.sum(axis=0)
    mass = float(np.max(np.abs(head_terms).sum(axis=0)))
    w = shift + xs
    logw = np.log(w)
    if deflate:
        tail1 = -logw * lfunc._expm1_over((1 - s) * logw)
    else:
        tail1 = np.exp((1 - s) * logw) / (s - 1)
    wms = np.exp(-s * logw)
    total = head + tail1 + 0.5 * wms
    mass += float(np.max(np.abs(tail1))) + 0.5 * float(np.max(np.abs(wms)))
    power = wms / w
    winv2 = 1.0 / (w * w)
    rising = s
    last = 0.0
    for j, coeff in enumerate(lfunc._EM_COEFF, start=1):
        term = coeff * rising * power
        total = total + term
        last = float(np.max(np.abs(term)))
        rising = rising * (s + 2 * j - 1) * (s + 2 * j)
        power = power * winv2
    amp = abs(s) * max(math.log(shift + 1.0), -math.log(float(xs.min())))
    rounding = 2.5e-16 * (1.0 + amp) * (mass + shift)
    return total, 2.0 * last + rounding


def test_hurwitz_spans_match_the_full_block_bit_for_bit():
    # Span widths of 1,092 (30 rows), 1,024 (32 rows) and 442 (74 rows)
    # columns, point counts on both sides of a span edge, a tall block of
    # 9,610 rows in spans of three columns, and one whose 19,210 rows
    # alone pass the span budget.
    cases = []
    for s in (0.3 + 2j, 0.5 + 14j, -1.5 + 40j):
        width = lfunc._HEAD_ENTRIES // lfunc._em_shift(s)
        cases += [(s, n) for k in (1, 2) for n in (width * k - 1, width * k,
                                                   width * k + 1)]
    cases += [(s, n) for s in (0.5 + 6000j, 0.5 + 12000j)
              for n in (1, 2, 3, 5)]
    for s, n in cases:
        xs = np.arange(1, n + 1) / n
        for deflate in (False, True):
            got, err = lfunc._hurwitz_sum(s, xs, deflate)
            want, want_err = full_block_hurwitz(s, xs, deflate)
            assert got.tobytes() == want.tobytes(), (s, n, deflate)
            assert err == want_err, (s, n, deflate)


def test_column_spans_cover_the_points_and_never_split_one_off():
    for rows in (30, 74, 4096, 9610):
        for points in range(1, 12):
            spans = lfunc._column_spans(points, rows)
            assert spans[0][0] == 0 and spans[-1][1] == points
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            assert all(hi - lo >= 2 for lo, hi in spans) or points == 1


def test_hurwitz_memory_is_bounded_by_the_span_budget():
    # 200,002 points of 30 rows: the whole head at once peaked near 200 MB.
    import tracemalloc

    tracemalloc.start()
    try:
        completed_Lambda(200003, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


@pytest.fixture
def head_cpus(monkeypatch):
    """Set the CPUs a Hurwitz head is shared among: 1 sums every span on
    the caller.  A count above 1 gets a pool of its own, shut down after
    the test; each block's `_sum_spans` calls are recorded, one per
    thread that shared it."""
    monkeypatch.setattr(lfunc, "_head_pool", None)
    calls = []
    real = lfunc._sum_spans
    monkeypatch.setattr(lfunc, "_sum_spans",
                        lambda *share: calls.append(share[3]) or real(*share))

    def set_cpus(cpus):
        if lfunc._head_pool is not None:
            lfunc._head_pool.shutdown()
        monkeypatch.setattr(lfunc, "_head_pool", None)
        monkeypatch.setattr(lfunc, "_usable_cpus", lambda: cpus)
        calls.clear()
        return calls

    yield set_cpus
    if lfunc._head_pool is not None:
        lfunc._head_pool.shutdown()


def test_threaded_head_matches_serial_bit_for_bit(head_cpus):
    # 8, 9, 40 and 184 spans of 1,092 columns (30 rows), one with a lone
    # column joined to its last span; the 200,002 points of
    # completed_Lambda(200003, s); and tall blocks of 9,610 and 19,210
    # rows, in 8 spans of 3 or 4 and of 2 or 3 columns.
    cases = [(2.5 + 0j, 8736), (0.4 + 6j, 8737), (-1.5 + 3j, 9828),
             (0.5 + 0j, 40 * 1092), (2.0 + 0j, 200002), (0.5 + 6000j, 25),
             (0.5 + 12000j, 17)]
    for s, n in cases:
        xs = np.arange(1, n + 1) / n
        spans = len(lfunc._column_spans(n, lfunc._em_shift(s)))
        assert spans in (8, 9, 40, 184)
        for deflate in (False, True):
            head_cpus(1)
            want, want_err = lfunc._hurwitz_sum(s, xs, deflate)
            for cpus in (2, 3):
                calls = head_cpus(cpus)
                got, err = lfunc._hurwitz_sum(s, xs, deflate)
                assert len(calls) == min(cpus, spans // 2), (s, n, cpus)
                assert got.tobytes() == want.tobytes(), (s, n, deflate, cpus)
                assert err == want_err, (s, n, deflate, cpus)


def test_small_blocks_and_one_cpu_start_no_thread(head_cpus):
    # Under eight spans, or with one CPU, the caller sums alone.
    head_cpus(2)
    assert lfunc._head_threads(7) == (1, None)
    assert lfunc._head_threads(8)[0] == 2
    head_cpus(1)
    assert lfunc._head_threads(733) == (1, None)
    assert lfunc._head_pool is None


def test_caller_does_not_wait_for_a_thread_that_never_started(head_cpus):
    # The pool's one thread is held busy, so the share submitted for the
    # block cannot start: the caller sums every span, drops that share
    # and returns with the serial bits instead of waiting for the thread.
    import threading
    import time

    xs = np.arange(1, 9001) / 9000  # 9 spans
    head_cpus(1)
    want, want_err = lfunc._hurwitz_sum(0.4 + 6j, xs, True)
    calls = head_cpus(2)
    assert lfunc._head_threads(9)[0] == 2
    gate = threading.Event()
    busy = lfunc._head_pool.submit(gate.wait, 60)
    try:
        start = time.monotonic()
        got, err = lfunc._hurwitz_sum(0.4 + 6j, xs, True)
        elapsed = time.monotonic() - start
    finally:
        gate.set()
    assert busy.result(timeout=60)
    assert elapsed < 30, elapsed
    assert len(calls) == 1
    assert got.tobytes() == want.tobytes() and err == want_err


def test_threaded_head_keeps_the_callers_error_state(head_cpus):
    # (k + x)^400 overflows for k >= 6.  The 21,840 points make 20 spans,
    # so the pool thread sums some of them, and a pool thread that kept
    # numpy's default state would warn where the caller ignores.
    import warnings

    xs = np.arange(1, 21841) / 21840
    for cpus in (1, 2):
        calls = head_cpus(cpus)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                lfunc._hurwitz_sum(-400.0 + 0j, xs, False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(all="ignore"):
                values, _ = lfunc._hurwitz_sum(-400.0 + 0j, xs, False)
        assert not caught, [str(w.message) for w in caught]
        assert len(calls) == 2 * cpus
        assert not np.isfinite(values).any()


def test_slices_round_starts_no_thread(monkeypatch):
    # Every block of a `slices` round of the benchmark (`zn` at its
    # default cutoffs, odd squarefree n < 400) stays under four spans.
    import random
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    spans = []
    threads = lfunc._head_threads
    monkeypatch.setattr(lfunc, "_head_threads",
                        lambda count: spans.append(count) or threads(count))
    slices = workloads.WORKLOADS["slices"]
    lfunc._hurwitz_memo.cache_clear()
    for request in slices.rounds(random.Random(7)):
        slices.call(request)
    assert spans and max(spans) < lfunc._SHARED_SPANS, spans


def _child_block(queue):
    xs = np.arange(1, 9001) / 9000
    queue.put(lfunc._hurwitz_sum(0.4 + 6j, xs, True)[0].tobytes())


def test_forked_children_evaluate_after_a_threaded_block(head_cpus):
    import multiprocessing
    import os
    import time

    xs = np.arange(1, 9001) / 9000  # 9 spans
    head_cpus(2)
    want = lfunc._hurwitz_sum(0.4 + 6j, xs, True)[0].tobytes()
    assert lfunc._head_pool is not None
    # A child that multiprocessing forks makes a pool of its own, and
    # returns the same bits.
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_child_block, args=(queue,))
    child.start()
    try:
        got = queue.get(timeout=60)
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert not child.is_alive() and child.exitcode == 0
    assert got == want
    # A plain fork drops the pool, whose threads it lacks, and returns.
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            got = lfunc._hurwitz_sum(0.4 + 6j, xs, True)[0].tobytes()
            code = 0 if got == want else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not return")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(done[1]) == 0


# ======================================================================
# characters
# ======================================================================


def test_character_validation():
    with pytest.raises(ValueError):
        DirichletCharacter(3, (1, 1))  # wrong table length
    with pytest.raises(ValueError):
        DirichletCharacter(5, (0, 1, 2, 3, 4))  # chi(-1) not +-1


def test_principal_character():
    chi = principal_character(12)
    assert [chi(k) for k in range(12)] == [
        0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1
    ]
    assert chi.is_principal
    assert chi.conductor == 1


def test_characters_mod24_structure():
    chars = characters_mod24()
    assert len(chars) == 8
    assert chars[0].is_principal
    for j, chi in enumerate(chars):
        assert chi(5) == (-1 if j & 1 else 1)
        assert chi(7) == (-1 if j & 2 else 1)
        assert chi(13) == (-1 if j & 4 else 1)
        assert chi.table.dtype == np.int8
        # real 2-torsion group: chi * chi = principal
        for u in (1, 5, 7, 11, 13, 17, 19, 23):
            assert chi(u) in (1, -1)
            assert chi(u) * chi(u) == 1


def test_characters_mod24_orthogonality():
    chars = characters_mod24()
    units = (1, 5, 7, 11, 13, 17, 19, 23)
    for i, chi in enumerate(chars):
        for k, psi in enumerate(chars):
            inner = sum(chi(u) * psi(u) for u in units)
            assert inner == (8 if i == k else 0)


def test_all_characters_mod_counts_and_orthogonality():
    for q in [1, 2, 3, 8, 12, 15, 24, 40]:
        chars = all_characters_mod(q)
        phi = sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)
        assert len(chars) == phi
        tables = {tuple(np.round(np.asarray(c.values, complex), 9).tolist())
                  for c in chars}
        assert len(tables) == phi
        for chi in chars:
            total = sum(complex(chi(a)) for a in range(q))
            want = phi if chi.is_principal else 0.0
            assert abs(total - want) < 1e-9, q
            # multiplicativity on a few pairs
            for a in range(1, q):
                for b in (2, 5):
                    assert abs(
                        complex(chi(a * b)) - complex(chi(a)) * complex(chi(b))
                    ) < 1e-12


def test_character_eta_matches_symbol():
    for n in [1, 5, 7, 15, 33]:
        chi = character_eta(n)
        assert chi.modulus == 4 * n
        for m in range(1, 60):
            if math.gcd(m, 4 * n) == 1:
                assert chi(m) == arith.kronecker(-n, m), (n, m)


def test_psi_n_conductors_frozen():
    # conductor 4n for n = 1 mod 4, n for n = 3 mod 4; never 12n since
    # the mod-3 indicator window is principal.
    expected = {1: 4, 5: 20, 7: 7, 11: 11, 13: 52, 17: 68, 19: 19, 23: 23}
    for n, cond in expected.items():
        psi = psi_n_character(n)
        assert psi.modulus == 12 * n
        assert psi.conductor == cond, n
        assert psi.parity == 1


def test_psi_n_rejects_bad_input():
    for n in [2, 9, 12, 45]:
        with pytest.raises(ValueError):
            psi_n_character(n)


def test_primitive_part_properties():
    for n in [1, 5, 7, 13, 23]:
        psi = psi_n_character(n)
        prim = primitive_part(psi)
        assert prim.modulus == psi.conductor
        assert prim.is_primitive
        # agreement on residues coprime to the big modulus
        for m in range(1, 12 * n):
            if math.gcd(m, 12 * n) == 1:
                assert prim(m) == psi(m), (n, m)


# ======================================================================
# Gauss sums
# ======================================================================


def test_gauss_sums_real_primitive_sqrt_axis():
    chars = real_primitive_characters(60)
    assert chars
    for chi in chars:
        tau = gauss_sum(chi)
        root = math.sqrt(chi.modulus)
        if chi.parity == 0:
            assert abs(tau - root) < 1e-10, chi.modulus
        else:
            assert abs(tau - 1j * root) < 1e-10, chi.modulus


def test_gauss_sum_rejects_imprimitive():
    with pytest.raises(ValueError):
        gauss_sum(psi_n_character(5))
    with pytest.raises(ValueError):
        gauss_sum(principal_character(8))


def test_twisted_sum_matches_definition():
    for chi in [psi_n_character(5), character_eta(7), characters_mod24()[3]]:
        q = chi.modulus
        want = sum(
            complex(chi(l)) * cmath.exp(2j * math.pi * l / q)
            for l in range(q)
        )
        assert abs(twisted_exponential_sum(chi) - want) < 1e-9


def test_twisted_sums_of_psi_frozen():
    # Raw imprimitive sums: tau(psi_1) = 2i, tau(psi_5) = -i sqrt(20),
    # tau(psi_7) = tau(psi_11) = 0, tau(psi_13) = +i sqrt(52), as the
    # induced-character relation tau(psi) = mu(q/f) chi*(q/f) tau(chi*)
    # gives for q = 12n and conductor f = 4n or n.  |tau| is 0 or
    # sqrt(f), so none equals i sqrt(12 n).
    frozen = {
        1: 2j,
        5: -1j * math.sqrt(20),
        7: 0j,
        11: 0j,
        13: 1j * math.sqrt(52),
    }
    for n, want in frozen.items():
        got = twisted_exponential_sum(psi_n_character(n))
        assert abs(got - want) < 1e-9, n
        assert abs(got - 1j * math.sqrt(12 * n)) > 1.0, n


def test_gauss_sum_of_primitive_part_of_psi():
    for n in [1, 5, 7, 11, 13]:
        prim = primitive_part(psi_n_character(n))
        tau = gauss_sum(prim)
        assert abs(tau - 1j * math.sqrt(prim.modulus)) < 1e-10, n


def scalar_twisted_sum(chi) -> complex:
    """The loop `twisted_exponential_sum` replaced, term by term."""
    q = chi.modulus
    support = np.flatnonzero(chi.table)
    total = 0j
    for l, v in zip(support.tolist(), chi.table[support].tolist()):
        total += complex(v) * cmath.exp(2j * math.pi * l / q)
    return total


def test_twisted_sum_keeps_the_bits_of_the_scalar_loop():
    # Every real primitive character of modulus <= 200; the primitive
    # parts of psi_n at conductors of the `lseries` benchmark (both
    # shapes, up to 23,996); raw psi_n tables; and complex characters.
    chars = real_primitive_characters(200)
    chars += [primitive_part(psi_n_character(n))
              for n in (505, 863, 1999, 2005, 3001, 5609, 5909, 5999)]
    chars += [psi_n_character(n) for n in (5, 13, 505)]
    chars += all_characters_mod(49)[:12] + all_characters_mod(60)[:8]
    for chi in chars:
        got, want = twisted_exponential_sum(chi), scalar_twisted_sum(chi)
        assert repr(got) == repr(want), chi


# ======================================================================
# L values
# ======================================================================


def test_dirichlet_L_matches_direct_sum():
    for chi in [character_eta(5), psi_n_character(7), characters_mod24()[6]]:
        for s in [2.5 + 0j, 3.0 + 1.0j]:
            a = dirichlet_L(chi, s)
            b = dirichlet_L_direct(chi, s, 200000)
            assert abs(a.value - b.value) <= (
                a.error_estimate + b.error_estimate
            ), (chi.modulus, s)


def test_dirichlet_L_direct_refuses_fewer_than_one_term():
    # 0 terms once divided by zero, and -5 gave 0j with a negative
    # error estimate.
    for chi in (principal_character(3), character_eta(5)):
        for terms in (0, -5):
            with pytest.raises(ValueError, match="terms must be >= 1"):
                dirichlet_L_direct(chi, 2.5, terms)


def test_dirichlet_L_error_estimate_vs_mpmath():
    # Independent 30-digit reference: q^-s sum of Hurwitz values away
    # from s = 1, and -(1/q) sum chi(a) digamma(a/q) exactly at s = 1
    # (the per-term zeta poles cancel for non-principal chi).
    for chi in [character_eta(5), characters_mod24()[1]]:
        q = chi.modulus
        for s in [0.5 + 0j, 1.0 + 0j, 0.3 + 5j, 2.0 + 0j]:
            ref = mpmath.mpc(0)
            for a in range(1, q + 1):
                v = chi(a)
                if not v:
                    continue
                if s == 1:
                    ref -= v * mpmath.digamma(mpmath.mpf(a) / q) / q
                else:
                    ref += v * mpmath.zeta(mpmath.mpc(s), mpmath.mpf(a) / q)
            if s != 1:
                ref *= mpmath.power(q, -mpmath.mpc(s))
            got = dirichlet_L(chi, complex(s))
            assert abs(got.value - complex(ref)) <= got.error_estimate, (q, s)


def test_dirichlet_L_principal_pole():
    with pytest.raises(PoleError):
        dirichlet_L(principal_character(6), 1.0)


def test_dirichlet_L_nonprincipal_finite_at_one():
    # L(1, chi_-4) = pi/4.
    chi = primitive_part(character_eta(1))
    got = dirichlet_L(chi, 1.0).value
    assert abs(got - math.pi / 4) < 1e-12


def test_euler_product_spot_check():
    chi = character_eta(5)
    s = 3.0 + 0j
    prod = 1.0 + 0j
    for p in arith.primes_up_to(100000):
        v = chi(p)
        if v:
            prod /= 1 - v * p**-3.0
    assert abs(dirichlet_L(chi, s).value - prod) < 1e-9


def test_L_removed_23_is_coprime6_sum():
    for n in [5, 7, 11]:
        chi = character_eta(n)
        s = 2.5
        want = sum(
            chi(m) * m**-s
            for m in range(1, 20001)
            if m % 2 and m % 3
        )
        assert abs(L_removed_23(chi, s) - want) < 1e-8, n


def test_squarefree_restricted_identity_small():
    # L(2w, psi^2) * Sum_{d squarefree, (d,b)=1} psi(d) d^-w equals
    # L(w, psi) * prod_{p|b} (1 + psi(p) p^-w)^(-1).
    w = 2.5
    bs = (1, 6, 10)
    for q in [5, 8, 12]:
        chars = all_characters_mod(q)
        sums = L_squarefree_restricted_table(chars, bs, w, 20000)
        products = lb_finite_product(chars, bs, w)
        for psi, sum_row, product_row in zip(chars, sums, products):
            psi_sq = DirichletCharacter(
                q, [complex(v) ** 2 for v in psi.values]
            )
            l2 = dirichlet_L(psi_sq, 2 * w).value
            l1 = dirichlet_L(psi, w).value
            for b, lb, product in zip(bs, sum_row, product_row):
                lhs, rhs = l2 * complex(lb), l1 * complex(product)
                assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs)), (q, b)


def test_finite_product_pole_guard():
    # 2^-w = -1 at w = i pi / ln 2, so 1 + psi(2) 2^-w vanishes for the
    # character mod 1 at b = 2.
    w = 1j * math.pi / math.log(2)
    assert abs(1 + cmath.exp(-w * math.log(2))) < 1e-13
    with pytest.raises(PoleError, match="p=2"):
        lb_finite_product([principal_character(1)], (3, 2), w)


# ======================================================================
# approximate functional equation at real s
# ======================================================================


def test_gamma_upper_against_mpmath():
    # a spans both arguments of the AFE on its domain, (s+1)/2 in (1, 2.45)
    # and (2-s)/2 in (-0.95, 0.5); x straddles the splits at 1 and 3.
    x = np.array([3e-4, 0.01, 0.3, 0.9999, 1.0, 1.0001, 1.5, 2.9999, 3.0,
                  3.0001, 7.0, 20.0, 45.0])
    for a in (1.0001, 1.3, 1.75, 2.15, 2.4499,
              0.4999, 0.2, 0.05, -0.05, -0.25, -0.65, -0.9499):
        got = afe._gamma_upper(a, x)
        want = np.array([float(mpmath.gammainc(a, xi)) for xi in x])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), a


def test_afe_domain_edges():
    inside = (1.0001, 1.6, 1.9, 2.1, 2.5, 3.3, 3.8999, 2.5 + 0j, 3)
    outside = (1.0, 0.5, 1.95, 2.0, 2.05, 3.9, 4.0, 2.5 + 1e-9j, math.nan,
               math.inf)
    assert all(afe._afe_domain(s) for s in inside)
    assert not any(afe._afe_domain(s) for s in outside)
    for s in (2.0, 2.5 + 1j):
        with pytest.raises(ValueError, match="real-s L batch"):
            afe._L23_real_batch([5, 7], s)


def test_L23_real_batch_reads_no_hurwitz_gamma_or_table(monkeypatch):
    ns = [1, 5, 7, 11, 13, 1997]
    want = afe._L23_real_batch(ns, 2.5)

    def refused(*args, **kwargs):
        raise AssertionError("the AFE batch read another route's kernel")

    for name in ("complex_gamma", "_hurwitz_sum", "_hurwitz_block",
                 "jacobi_table", "_symbol_row", "character_from_symbol",
                 "dirichlet_L"):
        monkeypatch.setattr(lfunc, name, refused)
    monkeypatch.setattr(lfunc, "DirichletCharacter", refused)
    got = afe._L23_real_batch(ns, 2.5)
    assert np.array_equal(got, want)
    monkeypatch.undo()
    for n, v in zip(ns, got.tolist()):
        ref = L_removed_23(character_eta(n), 2.5)
        assert abs(v - ref) <= 1e-13 * abs(ref), n


# ======================================================================
# approximate functional equation at complex s
# ======================================================================


def test_complex_gamma_split_against_mpmath():
    # Gamma(a) from the incomplete gamma pieces alone, over the
    # arguments (s+1)/2 and (2-s)/2 of s in the strip D.
    for re in np.linspace(0.25, 1.25, 5):
        for im in np.linspace(-10.0, 10.0, 21):
            a = complex(re, im)
            _, got = afe._gamma_upper_complex(a, np.empty(0))
            want = complex(mpmath.gamma(mpmath.mpc(re, im)))
            assert abs(got - want) <= 1e-13 * abs(want), a


def test_gamma_upper_complex_against_mpmath():
    # x straddles the split at max(4, |a|) and reaches lambda * 50.
    x = np.array([1e-4, 0.01, 0.3, 1.0, 3.9, 4.0, 4.1, 7.0, 9.9, 10.1,
                  20.0, 45.0, 62.5])
    for a in (0.25 + 0j, 0.6 - 10j, 0.6 + 0.7j, 1.0 - 3j, 1.25 + 5j,
              0.25 + 10j, 1.25 - 0.5j):
        got, _ = afe._gamma_upper_complex(a, x)
        want = [complex(mpmath.gammainc(mpmath.mpc(a.real, a.imag), xi))
                for xi in x]
        for xi, g, w in zip(x, got.tolist(), want):
            assert abs(g - w) <= 1e-12 * abs(w), (a, xi)


def test_afe_strip_edges():
    inside = (-0.5, 1.5, 0.3 + 20j, 0.3 - 20j, -0.5 - 20j, 0.5 + 0j)
    outside = (-0.5000001, 1.5000001, 0.3 + 20.0001j, 2.0, -1.0, 0.5 - 21j)
    assert all(afe._afe_strip(complex(s)) for s in inside)
    assert not any(afe._afe_strip(complex(s)) for s in outside)
    for s in inside:
        assert afe._afe_strip(1 - complex(s))
    for s in outside:
        with pytest.raises(ValueError, match="complex-s AFE"):
            afe._Lambda_afe(2005, s)


def test_afe_reads_no_hurwitz_gamma_or_table(monkeypatch):
    want = afe._Lambda_afe(2005, 0.3 + 4j)
    via_route = completed_Lambda(2005, 0.3 + 4j)

    def refused(*args, **kwargs):
        raise AssertionError("the AFE read another route's kernel")

    for name in ("_hurwitz_sum", "complex_gamma", "jacobi_table",
                 "character_from_symbol"):
        monkeypatch.setattr(lfunc, name, refused)
    assert afe._Lambda_afe(2005, 0.3 + 4j) == want
    assert afe._Lambda_afe(13, 0.6 + 2j) != 0
    assert completed_Lambda(2005, 0.3 + 4j) == via_route == want


def test_completed_Lambda_keeps_hurwitz_outside_the_afe_route():
    # repr of completed_Lambda before the AFE route existed: below the
    # conductor threshold, or outside the strip D (Re s past -0.5 or
    # 1.5, |Im s| past 20).
    recorded = [
        (5, 0.3 + 2j, "(1.1994670245905197-0.8055105273766268j)"),
        (13, 0.5 + 5j, "(0.3374657359063541-1.0269562977782698e-15j)"),
        (505, 0.4 + 6j, "(2.0186802522729725-2.0534759668077163j)"),
        (863, 0.4 + 6j, "(3.4123821714865405+1.3282860527124989j)"),
        (1999, 0.25 + 9j, "(2.8370567482435916-0.23983086910734802j)"),
        (5, -0.5, "(11.269778989757498+0j)"),
        (2005, 1.6, "(22194.49024195683+0j)"),
        (2005, 0.3 + 21j, "(-8.714559390756032e-05-0.00011516536482945389j)"),
        (2005, -0.6 + 3j, "(8986.01876973424+6501.041382813766j)"),
        (5609, 2.5, "(5513609.077759646+0j)"),
        (5609, -1.5, "(5513609.077408599+0j)"),
        (5609, 0.4 + 20.5j, "(-0.0008007627506652105+0.000472669483086601j)"),
        (5909, 1.51 + 2j, "(-25470.985768020437+22263.101830462707j)"),
    ]
    for n, s, want in recorded:
        assert repr(completed_Lambda(n, s)) == want, (n, s)
    # Above the threshold and inside D the AFE answers.
    assert completed_Lambda(2005, 0.3 + 4j) == afe._Lambda_afe(2005, 0.3 + 4j)
    assert afe._lambda_conductor(505) < lfunc._AFE_MIN_CONDUCTOR
    assert afe._lambda_conductor(2005) >= lfunc._AFE_MIN_CONDUCTOR


def test_afe_functional_equation_is_not_by_construction():
    # With lambda != 1 the sums for s and 1 - s hold different terms;
    # they agree only as far as the kernel is right.
    assert afe._AFE_LAMBDA != 1
    for n, s in ((2005, 0.3 + 4j), (5909, 0.4 + 6j), (863, 0.9 - 9j)):
        a, b = afe._Lambda_afe(n, s), afe._Lambda_afe(n, 1 - s)
        assert 0 < abs(a - b) <= 1e-8 * abs(a), (n, s)


if given is not None:
    # Conductors from 4 to 11,996, on both sides of the threshold.
    AFE_N = [n for n in range(1, 3000, 2) if n % 3 and arith.is_squarefree(n)]

    @given(
        n=st.sampled_from(AFE_N),
        s=st.builds(complex, st.floats(-0.5, 1.5), st.floats(-20.0, 20.0)),
    )
    def test_afe_matches_hurwitz_in_the_strip(n, s):
        # Lambda has zeros on the critical line, so the gap is measured
        # against the sum of the absolute terms, the scale of the
        # rounding in the AFE; it was at most 1.4e-13 of it over 400
        # random points.
        terms = afe._afe_terms(afe._lambda_conductor(n), s)
        got = complex(np.sum(terms))
        assert got == afe._Lambda_afe(n, s)
        want = lfunc._Lambda_hurwitz(n, s)
        assert abs(got - want) <= 1e-11 * float(np.abs(terms).sum()), (n, s)


# ======================================================================
# branch factors and slice closed forms
# ======================================================================


def test_A_j_vanishes_on_1_mod_3():
    for j in (1, 7, 13, 19):
        assert A_j(j, 2.0) == 0
        assert A_j(j, 1.5 + 0.7j) == 0


def test_A_j_rejects_non_finite_s():
    for s in (float("nan"), float("inf"), complex(1.0, float("nan"))):
        for j in (1, 5):
            with pytest.raises(ValueError, match="finite"):
                A_j(j, s)


def test_A_j_explicit_at_s2():
    # x2 = 1/4, x3 = 1/9.  j = 5 mod 12: (1 - x2) * 2 / (1 - x3^2).
    want = (1 - 0.25) * 2 / (1 - 1 / 81.0)
    assert abs(A_j(5, 2.0) - want) < 1e-15
    # j = 0 mod 6: 1 / (1 + x3).
    assert abs(A_j(6, 2.0) - 1 / (1 + 1 / 9.0)) < 1e-15


def test_a_n_reproduces_branch_factor():
    for s in [2.0 + 0j, 1.5 + 0.7j]:
        for n in range(1, 200):
            if math.gcd(n, 24) != 1:
                continue
            assert abs(a_n(n, s) - A_j(n % 24, s)) < 1e-12, (n, s)
    with pytest.raises(ValueError):
        a_n(6, 2.0)


def test_Z_n_closed_zero_slices():
    for n in [1, 7, 13, 19, 25, 31]:
        if arith.is_squarefree(n):
            assert Z_n_closed(n, 2.5) == 0, n


def test_Z_n_closed_vs_partial_sum():
    from cubic_mds import sqcount

    for n in [3, 5, 11, 15, 23, 35]:
        s = 2.5
        coeffs = sqcount.coefficient_sieve(n, 30000)
        partial = sum(c * m**-s for m, c in enumerate(coeffs) if m and c)
        got = Z_n_closed(n, s)
        assert abs(got - partial) <= 2e-5 * max(1.0, abs(got)), n


def test_Z_n_closed_at_one_half_is_its_limit_zero():
    # 1/zeta(2s) vanishes at s = 1/2; zeta(2s) itself has its pole there.
    # One n of each branch of A_j that n odd and prime to 2 reach.
    for n in (3, 5, 11, 15, 17, 21, 23):
        assert Z_n_closed(n, 0.5) == 0j, n
        assert Z_n_closed(n, complex(0.5, -0.0)) == 0j, n
        for d in (1e-6, 1e-9j, -1e-9 + 1e-9j):
            assert abs(Z_n_closed(n, 0.5 + d)) < 100 * abs(d), (n, d)
    with pytest.raises(PoleError):
        Z_n_closed(5, 1.0)


def test_Z_n_closed_rejects_non_finite_s():
    # n = 7 is a zero slice: s is checked before that early return.
    for s in (float("nan"), float("inf"), complex(1.0, float("nan"))):
        for n in (7, 5):
            with pytest.raises(ValueError, match="finite"):
                Z_n_closed(n, s)


def test_Z_n_closed_rejects_bad_n():
    for n in [2, 9, 45]:
        with pytest.raises(ValueError):
            Z_n_closed(n, 2.5)


# ======================================================================
# completed values and self-duality
# ======================================================================


def test_completed_Lambda_self_dual():
    for n in [1, 5, 7, 11, 13]:
        for s in [0.3 + 0j, 0.75 + 0j, 0.6 + 2j, 0.5 + 5j]:
            a = completed_Lambda(n, s)
            b = completed_Lambda(n, 1 - s)
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b)), (n, s)


if given is not None:
    # The slice indices of psi_n below 3000: odd, squarefree, prime to 3.
    PSI_N = [n for n in range(1, 3000, 2) if n % 3 and arith.is_squarefree(n)]

    @given(
        n=st.sampled_from(PSI_N),
        s=st.builds(complex, st.floats(-1.0, 2.0), st.floats(-20.0, 20.0)),
    )
    def test_completed_Lambda_self_dual_property(n, s):
        # At s = -1 (and 1 - s = -1) the pole of Gamma((s+1)/2) meets
        # the trivial zero of L(s, chi), and the Hurwitz route loses
        # about log10(1/|s+1|) digits to the cancellation (rel 1.7e-9
        # at distance 1e-3); the identity is asked for outside those
        # two discs of radius 0.01.
        assume(abs(s + 1) >= 0.01 and abs(s - 2) >= 0.01)
        a = completed_Lambda(n, s)
        b = completed_Lambda(n, 1 - s)
        assert abs(a - b) <= 1e-8 * max(abs(a), abs(b)), (n, s)


def test_completed_Lambda_gamma_pole():
    with pytest.raises(PoleError):
        completed_Lambda(5, -1.0)
