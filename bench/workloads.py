"""The benchmark's workloads: seeded inputs, the program calls, the checks.

Each workload is a `Workload` with a fixed warm-up request, a
generator of request rounds drawn from the seed, a `call` that makes
the program calls of one request and returns their outputs, and a
`check` that judges those outputs with `checks`.  Rounds are stratified,
so every round asks for the same kinds of request and two seeds load
the program alike; a run repeats whole rounds.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable

import checks
from cubic_mds import arith, lfunc, mds, verify


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: Callable[[], object]
    rounds: Callable[[random.Random], list]
    call: Callable[[object], object]
    check: Callable[[object, object], str | None]
    label: Callable[[object], str]
    # True where a user waits for a whole round, not for one operation:
    # the percentiles are then taken over round times.
    round_is_request: bool = False


def _squarefree(n: int) -> bool:
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


# ----------------------------------------------------------------------
# acceptance: the ten criteria, in registry order, one pass per round
# ----------------------------------------------------------------------


def _acceptance_rounds(rng: random.Random) -> list:
    # The criteria take no input; the seed does not change them.
    return list(enumerate(verify.SUITES, start=1))


def _acceptance_check(request, result) -> str | None:
    if result.passed:
        return None
    return f"criterion {request[0]} failed: {result.detail}"


ACCEPTANCE = Workload(
    name="acceptance",
    # Criterion 5 fills none of the caches the pass fills (the SPF
    # sieve, `_L23_CACHE`): a user of `cubic-mds verify all` pays those
    # inside the pass, so the benchmark does too.
    warmup=verify.criterion_character_decomposition,
    rounds=_acceptance_rounds,
    call=lambda request: request[1](),
    check=_acceptance_check,
    label=lambda request: f"criterion_{request[0]:02d}",
    # `cubic-mds verify all` answers once, after the tenth criterion.
    round_is_request=True,
)


# ----------------------------------------------------------------------
# slices: what `cubic-mds zn N --s S` computes, at its default cutoffs
# ----------------------------------------------------------------------

SLICE_N = [n for n in range(1, 401, 2) if _squarefree(n)]
# One request per (n mod 3, real or complex s) in every round.
SLICE_CLASSES = [(r, cx) for r in (0, 1, 2) for cx in (False, True)]


def _slice_rounds(rng: random.Random) -> list:
    out = []
    for residue, is_complex in SLICE_CLASSES:
        n = rng.choice([n for n in SLICE_N if n % 3 == residue])
        t = rng.uniform(-5.0, 5.0) if is_complex else 0.0
        out.append((n, complex(rng.uniform(2.0, 3.0), t)))
    rng.shuffle(out)
    return out


def _slice_call(request) -> tuple:
    n, s = request
    return (
        lfunc.Z_n_closed(n, s),
        mds.Z_n_oracle(n, s, checks.ORACLE_CUTOFF),
        mds.Z_n_euler_product(n, s, checks.PRIME_CUTOFF),
    )


SLICES = Workload(
    name="slices",
    warmup=lambda: _slice_call((5, 2.5 + 0j)),
    rounds=_slice_rounds,
    call=_slice_call,
    check=lambda request, out: checks.check_slice(*request, *out),
    label=lambda request: f"n={request[0]} s={request[1]}",
)


# ----------------------------------------------------------------------
# lseries: completed quadratic L-values at conductors up to 24 000
# ----------------------------------------------------------------------

LSERIES_N = [
    n for n in range(501, 6000, 2) if n % 3 and _squarefree(n)
]
# Six equal bands of n times the two conductor shapes (4n for
# n = 1 mod 4, n for n = 3 mod 4): twelve requests per round.  A
# request's cost grows with n and with the shape, so one request per
# cell keeps a run's median and 90th percentile inside narrow cells.
LSERIES_BANDS = [(500 + 5500 * k // 6, 500 + 5500 * (k + 1) // 6) for k in range(6)]


def _lseries_request(rng: random.Random, n: int) -> tuple:
    s = complex(rng.uniform(0.05, 0.95), rng.uniform(-10.0, 10.0))
    return (n, s, rng.uniform(-10.0, 10.0))


def _lseries_rounds(rng: random.Random) -> list:
    out = []
    for lo, hi in LSERIES_BANDS:
        for shape in (1, 3):
            n = rng.choice([n for n in LSERIES_N if lo <= n < hi and n % 4 == shape])
            out.append(_lseries_request(rng, n))
    rng.shuffle(out)
    return out


def _lseries_call(request) -> tuple:
    n, s, t = request
    psi = lfunc.psi_n_character(n)
    prim = lfunc.primitive_part(psi)
    return (
        psi.conductor,
        prim.modulus,
        lfunc.gauss_sum(prim),
        lfunc.completed_Lambda(n, s),
        lfunc.completed_Lambda(n, 1 - s),
        lfunc.dirichlet_L(lfunc.character_eta(n), complex(2.0, t)).value,
    )


@functools.cache
def _reference_primes() -> list[int]:
    return checks.odd_primes_up_to(checks.REFERENCE_PRIME_CUTOFF)


def _lseries_check(request, out) -> str | None:
    n, s, t = request
    reference = checks.eta_euler_product(n, complex(2.0, t), _reference_primes())
    return checks.check_lseries(n, s, t, *out, reference)


def _lseries_warmup() -> None:
    # The smallest n of the range keeps the start-ups cheap; the SPF
    # table is then grown to the largest modulus, 4n < 24 000, which
    # takes a few ms.
    _lseries_call((505, 0.3 + 2j, 1.0))
    arith.spf_list(4 * LSERIES_N[-1])


LSERIES = Workload(
    name="lseries",
    warmup=_lseries_warmup,
    rounds=_lseries_rounds,
    call=_lseries_call,
    check=_lseries_check,
    label=lambda request: f"n={request[0]} s={request[1]} t={request[2]:.4f}",
)


WORKLOADS = {w.name: w for w in (ACCEPTANCE, SLICES, LSERIES)}
