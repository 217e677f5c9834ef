"""Dirichlet characters, Gauss sums, and L-function evaluation.

Characters are dense value tables on their modulus (the moduli here
stay in the thousands, so no label machinery is needed).  Each keeps
one table, a read-only numpy array (`table`: int8 for real characters,
complex128 otherwise), which the builders fill and the conductor scan,
primitive part, L-sums, equality and `chi(m)` read without per-entry
Python; the tuple `values` is derived from it on each access, for
readers outside the package.  Every Kronecker-symbol table (psi_n,
eta_n, the primitive character of Lambda, the mod-24 characters) comes
from `character_from_symbol`, which fills one period of the symbol by
reciprocity from `jacobi_table` (the Jacobi symbol as a product of
Legendre tables) and tiles it to the modulus.  L-functions are
evaluated two independent ways: a truncated Dirichlet sum, honest only
well right of the convergence line, and a Hurwitz-zeta route

    L(s, chi) = q^(-s) sum_{a=1..q} chi(a) zeta(s, a/q)

with the Hurwitz values continued by Euler-Maclaurin, which reaches
into the critical strip.  For non-principal characters the pole of each
Hurwitz term at s = 1 is removed before summing (the chi-weighted poles
cancel exactly), so values like L(1, chi_4) = pi/4 are directly
computable.  A third route, for the odd real primitive characters, is
the smoothed approximate functional equation of the module `afe`,
which reads none of this module's kernels; `completed_Lambda` takes it
at large conductors inside the strip.

On top of that sit the closed forms of the slice series: the nine-branch
rational factor A_j keyed by a residue class mod 24, its character-
average a_n, and Z_n_closed, which evaluates the full slice series over
m through a quadratic L-value.  The completed Lambda used by the
functional-equation checks is built from the primitive character
underlying psi_n, the symbol (-n/.) at its own period, which is its
true conductor; the raw mod-12n table is imprimitive (its conductor is
n or 4n, never 12n), and only the primitive completion is self-dual
under s -> 1-s.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import os
import struct
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import arith
from .afe import _Lambda_afe, _afe_strip, _lambda_conductor
from .arith import _POLE_EPS, _finite, _guard, _px
from .errors import PoleError

_ONE_EPS = 1e-9


# ======================================================================
# complex gamma (Lanczos, g = 7, 9 coefficients)
# ======================================================================

_LANCZOS_COEFF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def complex_gamma(z: complex) -> complex:
    """Gamma(z) accurate to ~1e-12 relative for |Im z| <= 50.

    Reflection formula left of Re z = 1/2; PoleError at the poles
    z = 0, -1, -2, ...
    """
    z = complex(z)
    if z.real < 0.5:
        nearest = round(z.real)
        if nearest <= 0 and abs(z - nearest) < _POLE_EPS:
            raise PoleError(f"gamma pole at z = {nearest}")
        sine = cmath.sin(cmath.pi * z)
        if abs(sine) < 1e-290:
            raise PoleError("gamma reflection hit sin(pi z) = 0")
        return cmath.pi / (sine * complex_gamma(1 - z))
    w = z - 1
    acc = _LANCZOS_COEFF[0]
    for i in range(1, len(_LANCZOS_COEFF)):
        acc += _LANCZOS_COEFF[i] / (w + i)
    t = w + 7.5
    return math.sqrt(2 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * acc


# ======================================================================
# Hurwitz zeta via Euler-Maclaurin
# ======================================================================

# Base of 30 summed terms, Bernoulli corrections through B_30.  The
# shift grows with |Im s| (Euler-Maclaurin needs the cutoff past the
# oscillation scale) to keep the asymptotic remainder under 1e-13 on
# the whole envelope Re(s) >= -2, |Im s| <= 50.  Growing it further
# buys nothing: for Re(s) < 0 the summed head terms exceed 1 in
# magnitude and double-precision rounding, not the remainder, sets the
# floor.  The returned error estimate accounts for both parts.
_EM_SHIFT = 30


def _em_shift(s: complex) -> int:
    return max(_EM_SHIFT, int(1.6 * abs(s.imag)) + 10)


_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
    Fraction(8553103, 6),
    Fraction(-23749461029, 870),
    Fraction(8615841276005, 14322),
)
_EM_COEFF = tuple(
    float(b / math.factorial(2 * j)) for j, b in enumerate(_BERNOULLI, start=1)
)


def _expm1_over(u: np.ndarray) -> np.ndarray:
    """(e^u - 1)/u elementwise, stable near u = 0."""
    u = np.asarray(u, dtype=complex)
    out = np.empty_like(u)
    small = np.abs(u) < 1e-4
    us = u[small]
    out[small] = 1 + us / 2 + us * us / 6 + us**3 / 24
    ub = u[~small]
    out[~small] = (np.exp(ub) - 1) / ub
    return out


# A block holds _em_shift(s) rows, about 1.6 |Im s|, of one column per
# point.  Its head is summed a few columns at a time (_HEAD_ENTRIES), so
# the limit bounds the work of a block, not its memory.  Past 2^24
# entries it is refused before anything is computed; `Z_n_closed` and
# `completed_Lambda` count their points from n and refuse before they
# build a table.  A bound on |Im s| alone would refuse the one-point
# zeta(ke) far up the line that the prime-zeta tail of
# `mds.residue_product` evaluates.
_MAX_BLOCK = 2**24

# Entries of the head summed at once.  Each column is a sequential sum
# down its rows, so splitting the block between columns changes no bit;
# rows are never split, which would change the order of the sums.  A
# span fills work arrays that its thread keeps (`_head_work_arrays`), so
# its size costs no page faults, only 24 bytes an entry per thread.  Each
# span takes and drops the interpreter lock five times: at 2^13 the two
# threads of a shared block spent 8-24 % more CPU time on its head than
# one thread alone, at 2^15 within 6 % of it (5,996 points at
# s = 0.4 + 6i, two CPUs).
_HEAD_ENTRIES = 2**15

# A block of this many spans or more shares them between the caller and
# a thread pool (`_head_threads`); numpy releases the interpreter lock
# inside the power, sum and abs of a span.  No block of a verification
# pass, nor of `zn` at n below 400, has that many.  Two threads gain
# least on blocks of four to seven spans, which split into few shares,
# and there they cost the most steadiness: with sharing from four spans
# on, eight 20 s `lseries` runs on two CPUs spread over an interquartile
# range of 5.6 ops/s and 7.7 ms of p90 latency; from eight on, over
# 2.8 ops/s and 3.1 ms, at a median p90 of 47 ms against 46.
_SHARED_SPANS = 8

# Criterion 8 asks for the same block (same s, points and deflation)
# once per character mod q, since the characters share their units.
# The last few small blocks are kept; the memo stays too small to carry
# one verification pass into the next.
_MEMO_MAX_POINTS = 1024


def _check_block(s: complex, points: int, what: str) -> None:
    """ValueError naming `what` when `points` Hurwitz columns at finite s
    would pass _MAX_BLOCK entries."""
    rows = _em_shift(s)
    if rows * points > _MAX_BLOCK:
        raise ValueError(f"{what} needs {rows} Hurwitz rows for {points} points,"
                         f" past the limit of {_MAX_BLOCK} entries")


def _column_spans(points: int, rows: int) -> list[tuple[int, int]]:
    """Spans [lo, hi) of whole columns, about _HEAD_ENTRIES entries each.

    A span has at least two columns unless there is one point: numpy
    sums a lone column pairwise, not down the rows, which would change
    its last bits.  So a tall block (rows past the budget) takes two
    columns at a time, and a single column left over joins the span
    before it.  Each span writes only its own columns, so the spans give
    the same bits in any order and on any thread.
    """
    width = max(2, _HEAD_ENTRIES // rows)
    edges = [*range(0, max(points - 1, 1), width), points]
    return list(zip(edges, edges[1:]))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or the CPU
    count where the platform has no mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The pool of threads that takes all but the caller's share of a head:
# made on the first block of _SHARED_SPANS spans or more, and dropped in
# a forked child, which has none of its parent's threads.
_head_lock = threading.Lock()
_head_pool = None


def _forget_head_pool() -> None:
    global _head_lock, _head_pool
    _head_lock = threading.Lock()
    _head_pool = None


os.register_at_fork(after_in_child=_forget_head_pool)


def _head_threads(spans: int):
    """(threads, pool): how many threads share `spans` spans of a head,
    the caller included, and the pool that runs the others (None when
    the caller sums alone).

    Every CPU this process may run on (`_usable_cpus`), at most one per
    two spans; one thread for fewer than _SHARED_SPANS spans.
    """
    global _head_pool
    if spans < _SHARED_SPANS:
        return 1, None
    cpus = _usable_cpus()
    threads = min(cpus, spans // 2)
    if threads < 2:
        return 1, None
    with _head_lock:
        if _head_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _head_pool = ThreadPoolExecutor(
                cpus - 1, thread_name_prefix="hurwitz-head")
        return threads, _head_pool


_head_work = threading.local()


def _head_work_arrays(entries: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's float and complex work arrays of at least `entries`
    entries.  They grow to the largest span the thread has summed, up to
    2 * _HEAD_ENTRIES; a larger span, which only a tall block far up the
    line has, gets arrays that are not kept."""
    arrays = getattr(_head_work, "arrays", None)
    if arrays is None or arrays[0].size < entries:
        arrays = np.empty(entries), np.empty(entries, dtype=complex)
        if entries <= 2 * _HEAD_ENTRIES:
            _head_work.arrays = arrays
    return arrays


def _sum_spans(s: complex, xs: np.ndarray, rows: int, spans, head: np.ndarray,
               column_mass: np.ndarray, errors: dict) -> None:
    """Sum the spans this thread takes from the iterator `spans`, which
    the threads of a block share, into `head` and `column_mass`: the
    terms (k + x)^(-s) over k < rows, and their absolute values, down
    each column.  The numpy error state is `errors`, the caller's, which
    a pool thread does not inherit.  next() on a list iterator holds the
    interpreter lock, so no span is taken twice."""
    ks = np.arange(rows, dtype=float)[:, None]
    with np.errstate(**errors):
        for lo, hi in spans:
            entries = rows * (hi - lo)
            floats, terms = _head_work_arrays(entries)
            base = floats[:entries].reshape(rows, hi - lo)
            terms = terms[:entries].reshape(rows, hi - lo)
            np.add(ks, xs[None, lo:hi], out=base)
            np.power(base, -s, out=terms)
            np.sum(terms, axis=0, out=head[lo:hi])
            np.abs(terms, out=base)
            np.sum(base, axis=0, out=column_mass[lo:hi])


def _hurwitz_block(
    s: complex, xs: np.ndarray, deflate: bool
) -> tuple[np.ndarray, float]:
    """Euler-Maclaurin Hurwitz values for an array of x in (0, 1].

    With deflate=True returns zeta(s, x) - 1/(s-1), finite at s = 1.
    Second result is a per-point error estimate.  The values are a
    read-only array.  ValueError when s is not finite, or when |Im s|
    makes the block larger than 2^24 entries, a bound on its work: the
    head is summed in spans of columns, so memory stays near one span of
    _HEAD_ENTRIES entries per thread plus a few arrays of one entry per
    point.  A block of _SHARED_SPANS spans or more shares its spans
    among the CPUs (`_head_threads`), with the same bits.
    """
    s = _finite(complex(s))
    xs = np.asarray(xs, dtype=float)
    _check_block(s, xs.size, f"|Im s| = {abs(s.imag):g}")
    if xs.size > _MEMO_MAX_POINTS:
        return _hurwitz_sum(s, xs, deflate)
    # The bytes of s tell +0.0 from -0.0, which complex equality does not.
    return _hurwitz_memo(struct.pack("2d", s.real, s.imag), xs.tobytes(), deflate)


@functools.lru_cache(maxsize=8)
def _hurwitz_memo(
    s_bytes: bytes, xs_bytes: bytes, deflate: bool
) -> tuple[np.ndarray, float]:
    """`_hurwitz_sum` keyed by the bytes of s and of the points."""
    s = complex(*struct.unpack("2d", s_bytes))
    return _hurwitz_sum(s, np.frombuffer(xs_bytes), deflate)


def _hurwitz_sum(
    s: complex, xs: np.ndarray, deflate: bool
) -> tuple[np.ndarray, float]:
    """The work of `_hurwitz_block`, once s is finite and the block fits."""
    if np.any(xs <= 0) or np.any(xs > 1):
        raise ValueError("hurwitz_zeta requires x in (0, 1]")
    if not deflate and abs(s - 1) < _POLE_EPS:
        raise PoleError("hurwitz zeta pole at s = 1")
    shift = _em_shift(s)
    head = np.empty(xs.size, dtype=complex)
    column_mass = np.empty(xs.size)
    spans = _column_spans(xs.size, shift)
    threads, pool = _head_threads(len(spans))
    shared = iter(spans)
    share = (s, xs, shift, shared, head, column_mass, np.geterr())
    others = [pool.submit(_sum_spans, *share) for _ in range(threads - 1)]
    try:
        _sum_spans(*share)
    finally:
        for _ in shared:  # after a failure the others stop after one span
            pass
        # A thread that has not started, its CPU busy elsewhere, is
        # dropped; one that has may be writing into head, and is waited
        # for.
        started = [other for other in others if not other.cancel()]
        for other in started:
            other.exception()
    for other in started:
        other.result()
    mass = float(np.max(column_mass))
    w = shift + xs
    logw = np.log(w)
    if deflate:
        # (w^(1-s) - 1)/(s-1) = -log(w) * (e^u - 1)/u,  u = (1-s) log w
        tail1 = -logw * _expm1_over((1 - s) * logw)
    else:
        tail1 = np.exp((1 - s) * logw) / (s - 1)
    wms = np.exp(-s * logw)
    total = head + tail1 + 0.5 * wms
    mass += float(np.max(np.abs(tail1))) + 0.5 * float(np.max(np.abs(wms)))
    power = wms / w
    winv2 = 1.0 / (w * w)
    rising = s
    last = 0.0
    for j, coeff in enumerate(_EM_COEFF, start=1):
        term = coeff * rising * power
        total = total + term
        last = float(np.max(np.abs(term)))
        rising = rising * (s + 2 * j - 1) * (s + 2 * j)
        power = power * winv2
    # Rounding floor: (k+x)^(-s) = exp(-s log(k+x)) turns a one-ulp
    # error in the exponent into a relative error of about
    # ulp * |s| * |log(k+x)|, so the stacked absolute mass times that
    # amplification bounds the accumulated noise.
    amp = abs(s) * max(math.log(shift + 1.0), -math.log(float(xs.min())))
    rounding = 2.5e-16 * (1.0 + amp) * (mass + shift)
    err = 2.0 * last + rounding
    total.setflags(write=False)
    return total, err


def hurwitz_zeta(s: complex, x: float) -> complex:
    """zeta(s, x) = sum (k+x)^(-s) continued past the abscissa.

    Documented accuracy envelope: Re(s) >= -2, |Im s| <= 50, x in
    (0, 1].  For Re(s) >= 0 and x >= 0.05 the absolute error stays
    below 1e-10.  Outside that region the value itself can be large
    (x^{-Re s} or the near-pole 1/(s-1)) and the floor is a few ulp of
    the largest intermediate magnitude, phase-amplified; the internal
    estimate tracks it and the tests check both against a
    multiprecision reference.  PoleError at s = 1; ValueError past
    |Im s| of about 1e7, where the kernel's block limit stops it.
    """
    values, _ = _hurwitz_block(s, np.array([float(x)]), deflate=False)
    return complex(values[0])


# ======================================================================
# characters
# ======================================================================

@functools.lru_cache(maxsize=4)
def _unit_mask(q: int) -> np.ndarray:
    """Read-only boolean array over 0..q-1, True on the units mod q."""
    mask = np.ones(q, dtype=bool)
    for p, _ in arith.factorize(q):
        mask[::p] = False
    mask.setflags(write=False)
    return mask


def _divisors(q: int) -> list[int]:
    """The divisors of q in ascending order."""
    divs = [1]
    for p, e in arith.factorize(q):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def jacobi_table(k: int) -> np.ndarray:
    """int8 array r -> (r/k) over r = 0..k-1, for odd k >= 1.

    The Jacobi symbol is the product of the Legendre symbols (r/p)^e
    over p^e || k.  Each Legendre table is +1 on the squares mod p,
    found as (1..(p-1)/2)^2 mod p, -1 on the other units and 0 at 0; an
    even power keeps only the zero.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"jacobi_table requires odd k >= 1, got {k}")
    table = np.ones(k, dtype=np.int8)
    for p, e in arith.factorize(k):
        legendre = np.full(p, -1, dtype=np.int8)
        legendre[0] = 0
        half = np.arange(1, (p + 1) // 2, dtype=np.int64)
        legendre[half * half % p] = 1
        if e % 2 == 0:
            legendre *= legendre
        table *= np.tile(legendre, k // p)
    return table


def _symbol_row(top: int, period: int) -> np.ndarray:
    """int8 array m -> kronecker(top, m) over one period m = 0..P-1, top != 0.

    For top = 1 mod 4, (top/m) = (m/|top|) for every m >= 1.  Otherwise
    P is even, so the units mod any multiple of P are odd, and even m
    get 0.  With top = +-2^w t (t odd, t > 0), reciprocity gives for odd m

        (top/m) = (-1/m)^[top < 0] (2/m)^w (m/t) (-1)^((t-1)/2 (m-1)/2)

    where the sign depends on m mod 8 only.
    """
    if top % 4 == 1:
        return jacobi_table(abs(top))
    w = arith.valuation(abs(top), 2)
    t = abs(top) >> w
    a = int(top < 0) + (t - 1) // 2
    sign8 = np.zeros(8, dtype=np.int8)
    for r in (1, 3, 5, 7):
        sign8[r] = (-1) ** (a * (r // 2) + w * (r * r - 1) // 8)
    signs = np.tile(sign8, period // 8 + 1)[:period]
    return signs * np.tile(jacobi_table(t), period // t)


class DirichletCharacter:
    """Dense-table character mod q.

    `table` is a read-only numpy array of chi(m) over m = 0..q-1: int8
    when every value is -1, 0 or 1 (the real characters), complex128
    otherwise.  It is the only stored form: equality and `__call__` read
    it, and `values` derives a tuple of Python scalars from it on each
    access.  The table must be nonzero exactly on the units mod q
    (ValueError otherwise).  parity is 0 when chi(-1) = 1, 1 when
    chi(-1) = -1.  Principality and the conductor (minimal inducing
    modulus) are computed on first access and cached; construction
    itself stays cheap so bulk sweeps can build thousands of tables.
    """

    __slots__ = ("modulus", "table", "parity", "_conductor", "_principal")

    def __init__(self, modulus: int, values) -> None:
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        if not isinstance(values, np.ndarray):
            values = list(values)
        table = np.array(values)
        if table.ndim != 1 or len(table) != modulus:
            raise ValueError("values table must have exactly `modulus` entries")
        if table.dtype.kind in "biu":
            unit_range = bool(np.all((table >= -1) & (table <= 1)))
        else:
            table = table.astype(complex)
            unit_range = bool(
                np.all((table.imag == 0) & np.isin(table.real, (-1, 0, 1)))
            )
            if unit_range:
                table = table.real
        table = table.astype(np.int8 if unit_range else complex)
        if not np.array_equal(table != 0, _unit_mask(modulus)):
            raise ValueError(
                f"values table must be nonzero exactly on the units mod {modulus}"
            )
        table.setflags(write=False)
        self.modulus = modulus
        self.table = table
        if modulus == 1:
            self.parity = 0
        else:
            v = complex(table[modulus - 1])
            if abs(v - 1) < _ONE_EPS:
                self.parity = 0
            elif abs(v + 1) < _ONE_EPS:
                self.parity = 1
            else:
                raise ValueError(f"chi(-1) = {v} is not +-1")
        self._conductor: int | None = None
        self._principal: bool | None = None

    @property
    def values(self) -> tuple:
        """chi(0..q-1) as Python scalars, derived from `table` on each access."""
        return tuple(self.table.tolist())

    def __call__(self, m: int):
        return self.table.item(m % self.modulus)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self) -> int:
        return hash((self.modulus, tuple(self.table.tolist())))

    def __repr__(self) -> str:
        kind = "real" if self.table.dtype == np.int8 else "complex"
        return f"DirichletCharacter(mod {self.modulus}, {kind})"

    def _off_one(self) -> np.ndarray:
        """Boolean array over 0..q-1: the units where chi is not 1."""
        return _unit_mask(self.modulus) & (np.abs(self.table - 1) >= _ONE_EPS)

    @property
    def is_principal(self) -> bool:
        if self._principal is None:
            self._principal = not self._off_one().any()
        return self._principal

    @property
    def conductor(self) -> int:
        """The least divisor d of q with chi = 1 on the units = 1 mod d."""
        if self._conductor is None:
            q = self.modulus
            off = self._off_one()
            # The residues in 1..q-1 that are 1 mod d form the slice [1::d].
            self._conductor = next(
                (d for d in _divisors(q) if not off[1::d].any()), q
            )
        return self._conductor

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus


def principal_character(q: int) -> DirichletCharacter:
    """The principal character mod q."""
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    return DirichletCharacter(q, _unit_mask(q))


def character_from_symbol(top: int, modulus: int) -> DirichletCharacter:
    """The character m -> kronecker(top, m) mod `modulus`.

    The symbol has period P = |top| when top = 0, 1 mod 4 and 4|top|
    otherwise.  ValueError unless top != 0 and P divides the modulus;
    under that contract the table is always a character.  One period is
    tabulated (`_symbol_row`), tiled to the modulus and zeroed off the
    units.  psi_n, eta_n, Lambda's primitive character and the mod-24
    characters all come from here.
    """
    period = abs(top) if top % 4 in (0, 1) else 4 * abs(top)
    if top == 0 or modulus < 1 or modulus % period:
        raise ValueError(
            f"character_from_symbol requires top != 0 and the period {period}"
            f" of (top/.) to divide the modulus, got ({top}, {modulus})"
        )
    row = _symbol_row(top, period)
    return DirichletCharacter(
        modulus, np.tile(row, modulus // period) * _unit_mask(modulus)
    )


def character_eta(n: int) -> DirichletCharacter:
    """Quadratic character m -> (-n/m), tabulated mod 4n.

    4n is a multiple of the symbol's period (n or 4n); the actual
    conductor (|disc| of the right quadratic field) divides it and is
    exposed through `.conductor`.
    """
    if n < 1:
        raise ValueError(f"character_eta requires n >= 1, got {n}")
    return character_from_symbol(-n, 4 * n)


def _psi_n_points(n: int) -> int:
    """phi(f) for the conductor f of psi_n: where its primitive part is
    nonzero.  ValueError unless n is odd, squarefree and coprime to 3."""
    factors = arith.factorize(n) if n >= 1 else ()
    if n < 1 or n % 6 not in (1, 5) or any(e > 1 for _, e in factors):
        raise ValueError(f"psi_n requires odd squarefree n coprime to 3, got {n}")
    return math.prod(p - 1 for p, _ in factors) * (2 if n % 4 == 1 else 1)


def psi_n_character(n: int) -> DirichletCharacter:
    """The odd real character m -> chi_4(m) (n/m) 1_3(m), mod 12n.

    Requires n odd, squarefree, coprime to 3.  On the units mod 12n,
    chi_4(m) (n/m) = (-n/m), so the table is that symbol's.  It is
    always an odd character (checked), but never primitive: its
    conductor is 4n when n = 1 mod 4 and n when n = 3 mod 4.
    """
    _psi_n_points(n)  # checks n
    chi = character_from_symbol(-n, 12 * n)
    if chi.parity != 1:
        raise AssertionError(f"psi_{n} failed the odd-parity check")
    return chi


_UNITS_MOD24 = (1, 5, 7, 11, 13, 17, 19, 23)


@functools.cache
def characters_mod24() -> tuple[DirichletCharacter, ...]:
    """All 8 characters of (Z/24)^x, indexed by sign pattern.

    The group is (Z/2)^3 on the generators 5, 7, 13.  Index j in 0..7
    maps bit 0 to the sign at 5, bit 1 to the sign at 7, bit 2 to the
    sign at 13 (set bit = value -1); index 0 is the principal character.
    They are the symbols (d/.) for the d | 24 listed in that order.  The
    eight tables are built once and shared by every call.
    """
    return tuple(
        character_from_symbol(d, 24) for d in (1, -3, -4, 12, -24, 8, 24, -8)
    )


def primitive_part(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character inducing chi, tabulated on the conductor.

    Each unit a mod f takes chi at its least lift a + kf that is a unit
    mod q; all units are lifted at once.
    """
    f = chi.conductor
    q = chi.modulus
    if f == q:
        return chi
    units = np.flatnonzero(_unit_mask(f))
    unit_q = _unit_mask(q)
    lift = units.copy()
    pending = np.flatnonzero(~unit_q[lift])
    while len(pending):
        lift[pending] += f
        pending = pending[~unit_q[lift[pending]]]
    vals = np.zeros(f, dtype=chi.table.dtype)
    vals[units] = chi.table[lift]
    return DirichletCharacter(f, vals)


def _primitive_root(P: int, p: int) -> int:
    """The least generator of the cyclic group (Z/P)^x, P = p^e with p odd."""
    phi = P // p * (p - 1)
    divs = [r for r, _ in arith.factorize(phi)]
    return next(g for g in range(2, P)
                if g % p and all(pow(g, phi // r, P) != 1 for r in divs))


def _dlog(P: int, g: int, order: int) -> list[int]:
    """List over the residues mod P: k at g^k for 0 <= k < order, else 0."""
    dlog = [0] * P
    u = 1
    for k in range(order):
        dlog[u] = k
        u = u * g % P
    return dlog


def all_characters_mod(q: int) -> list[DirichletCharacter]:
    """Every Dirichlet character mod q (complex-valued in general).

    Built from the cyclic decomposition of the unit group; intended for
    exhaustive sweeps at small moduli, not for bulk arithmetic.  The
    exponent on the first cyclic factor runs fastest.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    if q == 1:
        return [principal_character(1)]
    # components: (prime power P, dlog list over residues mod P, cyclic order)
    comps: list[tuple[int, list[int], int]] = []
    for p, e in arith.factorize(q):
        P = p**e
        if p > 2:
            order = P // p * (p - 1)
            comps.append((P, _dlog(P, _primitive_root(P, p), order), order))
        elif P > 2:
            # (Z/2^e)^x is {+-1} x <5>, and 5 has order 2^(e-2)
            comps.append((P, [int(m % 4 == 3) for m in range(P)], 2))
            if P > 4:
                five = _dlog(P, 5, P // 4)
                comps.append((P, [five[m] + five[-m % P] for m in range(P)], P // 4))
    units = np.flatnonzero(_unit_mask(q)).tolist()
    out: list[DirichletCharacter] = []
    for index in itertools.product(*(range(d) for _, _, d in reversed(comps))):
        vals: list = [0] * q
        for m in units:
            angle = 0.0
            for (P, dlog, d), k in zip(comps, reversed(index)):
                angle += k * dlog[m % P] / d
            z = cmath.exp(2j * math.pi * angle)
            # snap the exact rational points so real characters stay integer
            vals[m] = int(round(z.real)) if abs(z.imag) < 1e-12 else z
        out.append(DirichletCharacter(q, vals))
    return out


def fundamental_discriminants(bound: int) -> list[int]:
    """All fundamental discriminants d with |d| <= bound, 1 included.

    d = 1 mod 4 squarefree, or d = 4m with m = 2, 3 mod 4 squarefree.
    Sorted by (|d|, d).
    """
    found = [
        d for d in range(-bound, bound + 1) if d and (
            d % 4 == 1 and arith.is_squarefree(abs(d))
            or d % 4 == 0 and d // 4 % 4 in (2, 3) and arith.is_squarefree(abs(d // 4))
        )
    ]
    return sorted(found, key=lambda d: (abs(d), d))


def real_primitive_characters(max_modulus: int) -> list[DirichletCharacter]:
    """Every real primitive character of modulus <= max_modulus.

    These are exactly the Kronecker symbols (d/.) of fundamental
    discriminants d with |d| <= max_modulus, tabulated mod |d|.
    """
    return [
        character_from_symbol(d, abs(d))
        for d in fundamental_discriminants(max_modulus)
    ]


# ======================================================================
# Gauss sums
# ======================================================================

def twisted_exponential_sum(chi: DirichletCharacter) -> complex:
    """Raw sum over l mod q of chi(l) e^(2 pi i l / q), no primitivity gate.

    One pass over the support in arrays, with the bits of the scalar loop
    `total += complex(chi(l)) * cmath.exp(2j * math.pi * l / q)`: the
    angle is (2 pi l) / q, the exponential numpy's of 0 + iy, each
    product is spelt out in real operations as Python's complex product
    forms it, and each part is summed in order by `np.add.accumulate`
    from 0.0.
    """
    q = chi.modulus
    support = np.flatnonzero(chi.table)
    values = chi.table[support].astype(complex)
    y = (2 * math.pi * support.astype(float)) / q
    e = np.exp(y * 1j)
    er, ei = e.real, e.imag
    vr, vi = values.real, values.imag
    re = vr * er - vi * ei
    im = vr * ei + vi * er
    total_re = np.add.accumulate(np.concatenate(([0.0], re)))[-1]
    total_im = np.add.accumulate(np.concatenate(([0.0], im)))[-1]
    return complex(total_re, total_im)


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) for primitive chi; equals sqrt(q) or i sqrt(q) when real.

    Raises ValueError on imprimitive input: the defining sum still
    exists but loses the modulus-sqrt normalization, so callers must
    reduce to the primitive part first (see `primitive_part`).
    """
    if not chi.is_primitive:
        raise ValueError(
            f"gauss_sum requires a primitive character; this one has "
            f"conductor {chi.conductor} < modulus {chi.modulus}"
        )
    return twisted_exponential_sum(chi)


# ======================================================================
# L-series evaluation
# ======================================================================

@dataclass(frozen=True)
class LSeriesValue:
    """One L-evaluation: the point, the value, how, and an error bound."""

    s: complex
    value: complex
    method: str
    error_estimate: float


def dirichlet_L(chi: DirichletCharacter, s: complex) -> LSeriesValue:
    """L(s, chi) by the Hurwitz route, valid through the critical strip.

    For non-principal chi the per-term Hurwitz pole at s = 1 is removed
    before summing (the removed poles cancel against Sum chi(a) = 0), so
    the value is finite and correct at s = 1 as well.  Principal chi at
    s = 1 raises PoleError.  ValueError when the Hurwitz block, about
    1.6 |Im s| rows by one column per residue, would pass 2^24 entries,
    and when the value or its error estimate is not finite: q^(-s) and
    the Hurwitz sum can each fit in a double while their product does
    not, as for the conductor 99,996 at s = -50.
    """
    s = complex(s)
    q = chi.modulus
    principal = chi.is_principal
    if principal and abs(s - 1) < _POLE_EPS:
        raise PoleError("L(s, principal chi) has its pole at s = 1")
    table = chi.table
    # a runs over 1..q, so residue 0 comes last, as a = q.
    residues = np.flatnonzero(table[1:]) + 1
    if table[0]:
        residues = np.append(residues, q)
    weights = table[residues % q].astype(complex)
    xs = residues / q
    hur, point_err = _hurwitz_block(s, xs, deflate=not principal)
    scale = _px(q, s) if q > 1 else 1.0
    # In Python complex arithmetic, the same bits as numpy's, a product
    # past the double range is inf without a warning; it is refused here.
    value = scale * complex(np.sum(weights * hur))
    err = abs(scale) * len(residues) * (point_err + 1e-15)
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise ValueError(f"L(s, chi) mod {q} at s = {s} is not finite in"
                         " double precision")
    return LSeriesValue(
        s=s, value=value, method="hurwitz_euler_maclaurin", error_estimate=err
    )


def dirichlet_L_direct(
    chi: DirichletCharacter, s: complex, terms: int = 200000
) -> LSeriesValue:
    """Truncated Dirichlet sum Sum_{m<=terms} chi(m) m^(-s).

    Useful only for Re(s) comfortably > 1.  The error estimate is the
    Abel-summation tail bound (character partial sums bounded by q) for
    non-principal chi, and the integral tail of zeta for principal chi.
    ValueError when s is not finite or terms < 1.
    """
    s = _finite(complex(s))
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    q = chi.modulus
    sigma = s.real
    vals = chi.table.astype(complex)[np.arange(1, terms + 1) % q]
    m = np.arange(1, terms + 1, dtype=float)
    total = complex(np.sum(vals * np.power(m, -s)))
    if chi.is_principal:
        if sigma <= 1:
            err = math.inf
        else:
            err = terms ** (1 - sigma) / (sigma - 1)
    else:
        if sigma <= 0:
            err = math.inf
        else:
            err = q * terms ** (-sigma) * (1 + abs(s) / sigma)
    return LSeriesValue(
        s=s, value=total, method="truncated_sum", error_estimate=err
    )


_PRINCIPAL_MOD1 = principal_character(1)


def riemann_zeta(s: complex) -> complex:
    """zeta(s) as the modulus-1 case of dirichlet_L; PoleError at s = 1."""
    return dirichlet_L(_PRINCIPAL_MOD1, s).value


def L_removed_23(chi: DirichletCharacter, s: complex) -> complex:
    """L(s, chi) with the Euler factors at 2 and 3 removed.

    Equals the restricted sum over m coprime to 6 of chi(m) m^(-s).
    """
    s = complex(s)
    base = dirichlet_L(chi, s).value
    f2 = 1 - complex(chi(2)) * _px(2, s)
    f3 = 1 - complex(chi(3)) * _px(3, s)
    return base * f2 * f3


def _signed_divisors(b: int) -> list[tuple[int, int]]:
    """The pairs (e, mu(e)) for the divisors e of rad b, ascending in e."""
    out = [(1, 1)]
    for p, _ in arith.factorize(b):
        out += [(e * p, -mu) for e, mu in out]
    return sorted(out)


def L_squarefree_restricted_table(chars, bs, w: complex, N: int) -> np.ndarray:
    """Truncated sums over squarefree d <= N coprime to b of psi(d) d^(-w):
    one row per character psi in the sequence `chars`, one column per b
    in the sequence `bs`.

    By Moebius inversion over the divisors e of rad b, each entry is
    sum_e mu(e) U_e in ascending e, where U_e sums psi(d) d^(-w) over the
    squarefree d <= N divisible by e.  For each run of characters of one
    modulus q, U_e is the row sum of their tables times the sums of
    d^(-w) by residue of d mod q, so a character costs one product of
    length q per e, whatever N is.  A row sum, unlike a matrix product,
    keeps the bits of each entry whatever else shares the call: an entry
    depends only on (psi, b, w, N).
    """
    if N < 1 or any(b < 1 for b in bs):
        raise ValueError("b and N must be >= 1")
    w = complex(w)
    dk = np.flatnonzero(arith.squarefree_mask(N)[1:]) + 1
    dw = np.power(dk.astype(float), -w)
    divisors = [_signed_divisors(b) for b in bs]
    multiples = {e: np.flatnonzero(dk % e == 0)
                 for e in {e for divs in divisors for e, _ in divs}}
    out = np.empty((len(chars), len(bs)), dtype=complex)
    start = 0
    for q, run in itertools.groupby(chars, key=lambda chi: chi.modulus):
        tables = np.array([chi.table for chi in run], dtype=complex)
        rows = slice(start, start + len(tables))
        start = rows.stop
        U = {}
        for e, idx in multiples.items():
            r, terms = dk[idx] % q, dw[idx]
            sums = np.bincount(r, terms.real, q) + 1j * np.bincount(r, terms.imag, q)
            U[e] = (tables * sums).sum(axis=1)
        for j, divs in enumerate(divisors):
            out[rows, j] = sum(mu * U[e] for e, mu in divs)
    return out


def lb_finite_product(chars, bs, w: complex) -> np.ndarray:
    """Product over p | b of (1 + psi(p) p^(-w))^(-1): one row per
    character psi in the sequence `chars`, one column per b in `bs`.

    This is the factor by which restricting the squarefree sum to
    gcd(d, b) = 1 divides it: each stripped prime removes one binomial
    Euler factor (1 + psi(p) p^(-w)).  Equivalently, the product of
    (1 - psi(p) p^(-w)) / (1 - psi(p)^2 p^(-2w)) over p | b.  Each column
    divides by the factors at the primes of b in ascending order;
    PoleError when a factor is within 1e-13 of 0.
    """
    w = complex(w)
    prime_lists = [[p for p, _ in arith.factorize(b)] for b in bs]
    out = np.ones((len(chars), len(prime_lists)), dtype=complex)
    for p in sorted({p for ps in prime_lists for p in ps}):
        factor = 1 + np.array([chi(p) for chi in chars], dtype=complex) * _px(p, w)
        _guard(min(factor.tolist(), key=abs, default=1.0), f"1 + psi(p) p^-w at p={p}")
        for j, ps in enumerate(prime_lists):
            if p in ps:
                out[:, j] /= factor
    return out


# ======================================================================
# closed forms of the slice series
# ======================================================================

def A_j(j: int, s: complex) -> complex:
    """Nine-branch rational factor in 2^(-s), 3^(-s), keyed by j mod 24.

    Branch selection narrows by residue: first mod 3, then mod 6,
    mod 12, and finally mod 24.  ValueError when s is not finite.
    """
    s = _finite(complex(s))
    x2 = _px(2, s)
    x3 = _px(3, s)
    if j % 3 == 1:
        return 0j
    if j % 6 == 0:
        return 1 / _guard(1 + x3, "1 + 3^-s")
    if j % 6 == 2:
        return 2 / _guard(1 - x3 * x3, "1 - 3^-2s")
    r12 = j % 12
    if r12 == 5:
        return (1 - x2) * 2 / _guard(1 - x3 * x3, "1 - 3^-2s")
    if r12 == 9:
        return (1 - x2) / _guard(1 + x3, "1 + 3^-s")
    r24 = j % 24
    deep2 = (1 - x2) / _guard(1 + x2, "1 + 2^-s") * (1 + x2 + 2 * x2 * x2)
    if r24 == 3:
        return deep2 / _guard(1 + x3, "1 + 3^-s")
    if r24 == 11:
        return deep2 * 2 / _guard(1 - x3 * x3, "1 - 3^-2s")
    shallow2 = 1 - x2 + 2 * x2 * x2
    if r24 == 15:
        return shallow2 / _guard(1 + x3, "1 + 3^-s")
    if r24 == 23:
        return shallow2 * 2 / _guard(1 - x3 * x3, "1 - 3^-2s")
    raise AssertionError(f"unreachable branch for j = {j}")


def a_n(n: int, s: complex) -> complex:
    """Character-averaged branch factor: (1/8) sum over j, chi of
    chi(j)^(-1) A_j(s) chi(n).

    Defined for n coprime to 24; must reproduce A_{n mod 24}(s) exactly,
    which is the orthogonality check the tests enforce.
    """
    if gcd(n, 24) != 1:
        raise ValueError(f"a_n requires gcd(n, 24) = 1, got n = {n}")
    s = complex(s)
    tables = [chi.table.tolist() for chi in characters_mod24()]
    total = 0j
    for j in _UNITS_MOD24:
        aj = A_j(j, s)
        if aj == 0:
            continue
        for vals in tables:
            # real characters: chi(j)^(-1) = chi(j)
            total += vals[j] * aj * vals[n % 24]
    return total / 8


def Z_n_closed(n: int, s: complex) -> complex:
    """Closed form of the slice series Sum_m C(3m, -n) m^(-s), n odd squarefree.

    The value is  zeta(s)/zeta(2s) * A_{n mod 24}(s) * (1 - 2^-s)^(-1)
    * L_{2,3}(s, (-n/.)),  where L_{2,3} is the quadratic L-series with
    its Euler factors at 2 and 3 removed.  The explicit geometric factor
    at 2 compensates the removed factor there: the branch table A_j
    carries the true 2-adic unit contribution, so only the trivial
    (1 - 2^-s)^(-1) from zeta remains to be restored.  Identically zero
    when n = 1 mod 3, and 0 at s = 1/2, the limit there.  ValueError
    when s is not finite, for every n.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"Z_n_closed requires odd positive n, got {n}")
    factors = arith.factorize(n)
    if any(e > 1 for _, e in factors):
        raise ValueError(f"Z_n_closed requires squarefree n, got {n}")
    s = _finite(complex(s))
    j = n % 24
    if j % 3 == 1:
        return 0j
    if abs(2 * s - 1) < _POLE_EPS:
        # 1/zeta(2s) vanishes at s = 1/2, and every other factor is
        # finite there: the guards 1 + 3^-s, 1 - 3^-2s, 1 + 2^-s and
        # 1 - 2^-s are nonzero, and L_{2,3} has no pole.
        return 0j
    branch = A_j(j, s)
    z1 = riemann_zeta(s)
    z2 = _guard(riemann_zeta(2 * s), "zeta(2s)")
    points = 2 * math.prod(p - 1 for p, _ in factors)  # phi(4n): (-n/.) is nonzero
    _check_block(s, points, f"Z_n_closed at n = {n}")
    lval = L_removed_23(character_eta(n), s)
    x2 = _px(2, s)
    return z1 / z2 * branch * lval / _guard(1 - x2, "1 - 2^-s")


def _Lambda_hurwitz(n: int, s: complex) -> complex:
    """Lambda(s) of `completed_Lambda` by the Hurwitz route, with
    `complex_gamma`, for n odd, squarefree and prime to 3 and s finite."""
    f = _lambda_conductor(n)
    prim = character_from_symbol(-n, f)
    front = _px(math.pi / f, (s + 1) / 2)
    gam = complex_gamma((s + 1) / 2)
    lval = dirichlet_L(prim, s).value
    return front * gam * lval


# From this conductor on, `completed_Lambda` takes the AFE inside D.
# Rows of `python3 tools/lambda_routes.py` (seed 29, 8 points s per
# conductor as the `lseries` benchmark draws them, medians; two CPUs,
# Python 3.11.7, numpy 2.4.6):
#
#   conductor      n hurwitz_ms  afe_ms afe/hurwitz worst_rel
#        1003   1003       2.09    1.90        0.91   4.2e-14
#        1012    253       1.14    1.79        1.56   1.1e-14
#        2003   2003       4.08    2.19        0.54   1.5e-14
#        2020    505       1.83    1.89        1.03   6.7e-15
#        2503   2503       5.35    2.30        0.43   1.4e-14
#        2516    629       2.62    2.00        0.76   7.6e-15
#        8020   2005       6.47    2.32        0.36   1.1e-14
#       24004   6001      13.54    2.98        0.22   5.0e-14
#
# Above 2,500 the AFE is the faster route at both shapes of the
# conductor; the Hurwitz block of f = 4n has only phi(f) = f/2 points,
# so that shape breaks even later.
_AFE_MIN_CONDUCTOR = 2500


def completed_Lambda(n: int, s: complex) -> complex:
    """Completed L-value (pi/f)^(-(s+1)/2) Gamma((s+1)/2) L(s, chi_f).

    chi_f is the primitive character underlying psi_n and f its
    conductor (4n for n = 1 mod 4, n for n = 3 mod 4).  With the true
    conductor the function is exactly self-dual: Lambda(1-s) =
    Lambda(s), which the functional-equation suite checks.  The raw
    mod-12n table cannot be used here: it is imprimitive, and a
    completed L built on the modulus 12n is not self-dual.

    Two routes.  For f >= _AFE_MIN_CONDUCTOR and s in D = {-0.5 <= Re s
    <= 1.5, |Im s| <= 20} it is the smoothed approximate functional
    equation (`_Lambda_afe`), which builds no character table.
    Everywhere else chi_f is the symbol (-n/.) at its own period, built
    for each call, and L comes from the Hurwitz route
    (`_Lambda_hurwitz`).  D is symmetric under s -> 1 - s, so both sides
    of a functional-equation check take one route.  Either way, n whose
    Hurwitz block would pass the limit are refused first (ValueError).
    """
    points = _psi_n_points(n)
    s = _finite(complex(s))
    _check_block(s, points, f"completed_Lambda at n = {n}")
    if _lambda_conductor(n) >= _AFE_MIN_CONDUCTOR and _afe_strip(s):
        return _Lambda_afe(n, s)
    return _Lambda_hurwitz(n, s)
