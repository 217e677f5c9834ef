"""The smoothed approximate functional equation (AFE) for the odd real
primitive characters chi* = (-f/.), f the conductor of psi_n (n or 4n).

chi* has root number 1, so with a = (s+1)/2, b = (2-s)/2, x = pi m^2 / f
and any split lambda > 0 of the theta integral (M. Rubinstein, LMS
Lecture Notes 322, 2005)

    Lambda(s) = (f/pi)^a Gamma(a) L(s, chi*)
              = sum_m chi*(m) m [x^-a Gamma(a, lambda x)
                                 + x^-b Gamma(b, x / lambda)].

At real s, `_L23_real_batch` evaluates L_{2,3}(eta_n, s) for many n at
once (lambda = 1), for criterion 9's left side; at complex s,
`_Lambda_afe` gives Lambda itself (lambda = 1.25), which
`lfunc.completed_Lambda` takes at large conductors inside a strip.

The module imports only `arith`: chi* is filled from the scalar
`arith.kronecker`, and the incomplete gamma function, and Gamma(a) at
complex a, come from its own power series and continued fraction.  So
the AFE reads no character table, no Hurwitz sum and no
`complex_gamma`, and stays apart from the routes of `lfunc`.
"""

from __future__ import annotations

import math

import numpy as np

from . import arith


# ======================================================================
# the incomplete gamma function
# ======================================================================

# Terms of the series or the continued fraction after which
# `_gamma_upper` and `_gamma_upper_complex` give up.  On the domains of
# the two AFEs both stop within 50 terms, except the fraction at real a
# near 0 (s near 2), which takes up to 150.
_GAMMA_MAX_TERMS = 400
_GAMMA_EPS = 2.0**-53
_LENTZ_TINY = 1e-300


def _gamma_lower_series(a, x: np.ndarray) -> np.ndarray:
    """gamma(a, x) = x^a e^-x sum_k x^k / (a (a+1) ... (a+k)) for each
    x >= 0, a real or complex and not 0, -1, -2, ...; ArithmeticError
    if the series has not settled after _GAMMA_MAX_TERMS terms."""
    term = np.full(x.shape, 1.0 / a)
    total = term
    for k in range(1, _GAMMA_MAX_TERMS):
        term = term * x / (a + k)
        total = total + term
        if np.all(np.abs(term) <= _GAMMA_EPS * np.abs(total)):
            break
    else:
        raise ArithmeticError(f"gamma(a, x) series did not settle at a = {a}")
    return np.exp(a * np.log(x) - x) * total


def _gamma_upper_fraction(a, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) by the Legendre continued fraction for each x > 0,

        Gamma(a, x) = x^a e^-x / (x + 1 - a - 1 (1 - a) / (x + 3 - a
                      - 2 (2 - a) / (x + 5 - a - ...)))

    by the modified Lentz method (I. J. Thompson and A. R. Barnett,
    J. Comput. Phys. 64 (1986)); a point leaves the loop once its
    convergent has settled.  ArithmeticError if a point has not settled
    after _GAMMA_MAX_TERMS terms."""
    out = np.empty(x.shape, dtype=np.result_type(x, a))
    idx = np.arange(x.size)
    xh = x
    b = xh + 1 - a
    c = np.full(xh.shape, 1 / _LENTZ_TINY)
    d = 1 / b
    h = d
    for i in range(1, _GAMMA_MAX_TERMS):
        if not idx.size:
            break
        an = -i * (i - a)
        b = b + 2
        d = an * d + b
        d[np.abs(d) < _LENTZ_TINY] = _LENTZ_TINY
        c = b + an / c
        c[np.abs(c) < _LENTZ_TINY] = _LENTZ_TINY
        d = 1 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1) <= _GAMMA_EPS
        if done.any():
            xd = xh[done]
            out[idx[done]] = np.exp(a * np.log(xd) - xd) * h[done]
            keep = ~done
            idx, xh = idx[keep], xh[keep]
            b, c, d, h = b[keep], c[keep], d[keep], h[keep]
    if idx.size:
        raise ArithmeticError(f"Gamma(a, x) fraction did not settle at a = {a}")
    return out


def _gamma_upper_complex(a: complex,
                         x: np.ndarray) -> tuple[np.ndarray, complex]:
    """(Gamma(a, x) for each x > 0, Gamma(a)) at complex a with
    0.25 <= Re a <= 1.25 and |Im a| <= 10, the arguments of `_Lambda_afe`.

    Below X = max(4, |a|) it is Gamma(a) - gamma(a, x), the lower
    function by its power series; from X on, the continued fraction,
    which settles there within 100 terms.  Gamma(a) itself is
    gamma(a, X) + Gamma(a, X), X taken as one more point of each part,
    so it reads neither `complex_gamma` nor `math.gamma`; it is within
    1e-13 relative of an mpmath reference on that range.
    """
    x = np.asarray(x, dtype=float)
    split = max(4.0, abs(a))
    low = x < split
    lower = _gamma_lower_series(a, np.append(x[low], split))
    upper = _gamma_upper_fraction(a, np.append(x[~low], split))
    gamma_a = lower[-1] + upper[-1]
    out = np.empty(x.shape, dtype=complex)
    out[low] = gamma_a - lower[:-1]
    out[~low] = upper[:-1]
    return out, complex(gamma_a)


def _gamma_upper(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) for real a, not 0, -1, -2, ..., and each x > 0.

    Below x = 3 (x = 1 when a <= 1) it is Gamma(a) - gamma(a, x), the
    lower function by its power series (`_gamma_lower_series`) and
    Gamma(a) by `math.gamma`; above, the continued fraction
    (`_gamma_upper_fraction`).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    # Gamma(a) - gamma(a, x) loses the digits of Gamma(a) / Gamma(a, x),
    # which grow with x and as a nears a pole: at a = 0.05 a split at
    # x = 3 left 1.3e-12 relative, at x = 1 it leaves 4e-14.
    low = x < (3.0 if a > 1 else 1.0)
    out[low] = math.gamma(a) - _gamma_lower_series(a, x[low])
    out[~low] = _gamma_upper_fraction(a, x[~low])
    return out


# ======================================================================
# real s, many n
# ======================================================================

def _afe_domain(s: complex) -> bool:
    """True at the real s where `_L23_real_batch` is evaluated: 1 < s < 3.9
    and |s - 2| >= 0.1, so (s+1)/2 > 1 and (2-s)/2 stays at least 0.05
    from the poles of Gamma at 0 and -1."""
    s = complex(s)
    return s.imag == 0 and 1 < s.real < 3.9 and abs(s.real - 2) >= 0.1


def _afe_characters(f: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Float array chi[i, m] = (-f_i/m) for m = 0..count_i, one row per
    conductor f_i; the entries past count_i are never read and may be 0.

    The rows are filled multiplicatively from (-f_i/p), p prime, by the
    scalar `arith.kronecker`, at every power of p up to the largest
    count: no character table is built.  A prime where every row needs
    the symbol and every symbol is 1 changes nothing and is skipped.
    """
    top = int(count.max())
    chi = np.ones((f.size, top + 1))
    chi[:, 0] = 0
    for p in arith.primes_up_to(top):
        need = np.flatnonzero(count >= p)
        symbols = [arith.kronecker(-d, p) for d in f[need].tolist()]
        if need.size == f.size and min(symbols) == 1:
            continue
        at_p = np.zeros((f.size, 1))
        at_p[need, 0] = symbols
        pk = p
        while pk <= top:
            chi[:, pk::pk] *= at_p
            pk *= p
    return chi


def _L23_real_batch(ns, s: float) -> np.ndarray:
    """L_{2,3}(eta_n, s) for every n of `ns` (odd, squarefree, coprime to
    3) at one real s of `_afe_domain`, as a float array; ValueError at
    any other s.

    On the odd m, eta_n = (-n/.) is the odd primitive character
    chi* = (D/.) with D = -4n for n = 1 mod 4 and D = -n otherwise, of
    conductor f = |D|.  Its root number is 1, so with a = (s+1)/2,
    b = (2-s)/2 and x = pi m^2 / f the smoothed approximate functional
    equation (M. Rubinstein, LMS Lecture Notes 322, 2005) reads

        (f/pi)^a Gamma(a) L(s, chi*)
            = sum_m chi*(m) m [x^-a Gamma(a, x) + x^-b Gamma(b, x)].

    The sum stops at m = ceil(sqrt(40 f / pi)) + 1, past x = 40, where a
    term is below e^-40.  All n share one array of points, summed per n
    by `np.bincount`; the Euler factors of chi* at 2 and 3 are then
    taken out.  chi*(m) is filled multiplicatively from (D/p), p prime,
    by the scalar `arith.kronecker`: the batch reads no character table,
    no Hurwitz sum and no `complex_gamma`.
    """
    if not _afe_domain(s):
        raise ValueError(
            f"the real-s L batch needs 1 < s < 3.9 and |s - 2| >= 0.1, got {s}"
        )
    s = complex(s).real
    ns = np.asarray(ns, dtype=np.int64)
    f = np.where(ns % 4 == 1, 4 * ns, ns)
    count = np.ceil(np.sqrt(40 * f / math.pi)).astype(np.int64) + 1
    chi = _afe_characters(f, count)
    rows = np.repeat(np.arange(ns.size), count)
    m = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count) + 1
    x = math.pi * m.astype(float) ** 2 / f[rows]
    a, b = (s + 1) / 2, (2 - s) / 2
    terms = x**-a * _gamma_upper(a, x) + x**-b * _gamma_upper(b, x)
    lam = np.bincount(rows, weights=chi[rows, m] * m * terms, minlength=ns.size)
    lval = lam / ((f / math.pi) ** a * math.gamma(a))
    return lval * (1 - chi[:, 2] * 2.0**-s) * (1 - chi[:, 3] * 3.0**-s)


# ======================================================================
# approximate functional equation at complex s
# ======================================================================

# The split of the theta integral at t = lambda.  At lambda = 1 the sums
# for Lambda(s) and Lambda(1 - s) hold the same terms, and the
# functional equation would hold by construction; at lambda != 1 they
# are different sums, equal only if the kernel is right.
_AFE_LAMBDA = 1.25
# The sum stops where the smaller argument x / lambda passes this, so
# the last terms are below e^-40.
_AFE_X_MAX = 40.0


def _afe_strip(s: complex) -> bool:
    """True on D = {-0.5 <= Re s <= 1.5, |Im s| <= 20}, where
    `_Lambda_afe` is evaluated.  D is symmetric under s -> 1 - s.

    There a = (s+1)/2 and b = (2-s)/2 have 0.25 <= Re <= 1.25 and
    |Im| <= 10.  The AFE loses about pi |Im s| / (4 ln 10) digits to
    cancellation: against the Hurwitz route it was at most 6.5e-11
    relative off at |Im s| = 20 and 1.9e-7 at 30 (21 points each), so D
    stops at 20.
    """
    return -0.5 <= s.real <= 1.5 and abs(s.imag) <= 20


def _afe_terms(f: int, s: complex) -> np.ndarray:
    """The nonzero terms of the smoothed approximate functional equation
    for Lambda(s) of the odd real primitive character chi* = (-f/.) of
    conductor f, at s in D (`_afe_strip`); ValueError elsewhere.

    chi* has root number 1, so with a = (s+1)/2, b = (2-s)/2 and
    x = pi m^2 / f (M. Rubinstein, LMS Lecture Notes 322, 2005)

        Lambda(s) = sum_m chi*(m) m [x^-a Gamma(a, lambda x)
                                     + x^-b Gamma(b, x / lambda)],

    one term per m with chi*(m) != 0, up to x / lambda = 40.  chi* comes
    from `_afe_characters`, Gamma(a, .) and Gamma(b, .) from
    `_gamma_upper_complex`: no Hurwitz sum, character table or
    `complex_gamma` is read.
    """
    s = complex(s)
    if not _afe_strip(s):
        raise ValueError(f"the complex-s AFE needs -0.5 <= Re s <= 1.5 and"
                         f" |Im s| <= 20, got {s}")
    count = math.ceil(math.sqrt(_AFE_X_MAX * _AFE_LAMBDA * f / math.pi)) + 1
    chi = _afe_characters(np.array([f]), np.array([count]))[0]
    m = np.flatnonzero(chi)
    x = math.pi * m.astype(float) ** 2 / f
    a, b = (s + 1) / 2, (2 - s) / 2
    upper_a, _ = _gamma_upper_complex(a, _AFE_LAMBDA * x)
    upper_b, _ = _gamma_upper_complex(b, x / _AFE_LAMBDA)
    return chi[m] * m * (x**-a * upper_a + x**-b * upper_b)


def _lambda_conductor(n: int) -> int:
    """The conductor of psi_n: 4n for n = 1 mod 4, n for n = 3 mod 4."""
    return n if n % 4 == 3 else 4 * n


def _Lambda_afe(n: int, s: complex) -> complex:
    """Lambda(s) of `lfunc.completed_Lambda` by the approximate functional
    equation (`_afe_terms`), for n odd, squarefree and prime to 3 and s
    in D (`_afe_strip`)."""
    return complex(np.sum(_afe_terms(_lambda_conductor(n), s)))
