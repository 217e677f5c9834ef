"""Command-line front end.

Single-shot computations, verification suites, and table emission.
stdout carries data and is byte-identical across runs for identical
arguments; timings and diagnostics go to stderr.  Exit codes: 0 on
success, 1 when a verification comparison fails, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from multiprocessing import Pool

from . import arith, forms, lfunc, mds, sqcount, verify
from .errors import OracleScaleError, PoleError
from .euler import local_factor_closed, local_factor_oracle
from .lfunc import (
    DirichletCharacter,
    Z_n_closed,
    character_eta,
    characters_mod24,
    dirichlet_L,
    dirichlet_L_direct,
    psi_n_character,
)

# ======================================================================
# formatting and parsing helpers
# ======================================================================


def _g(x: float) -> str:
    """17 significant digits: loses nothing on a double round trip."""
    return format(float(x), ".17g")


def _cx(z: complex) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_g(z.real)}{sign}{_g(abs(z.imag))}j"


# The accuracy envelope of the Hurwitz kernel is |Im s| <= 50, and its
# arrays grow with |Im s|, so no command takes a point beyond it.  Past
# |Re s| = 50 the powers (k + x)^(-s) and n^(-s) leave the double range
# (at Re s = 800 they overflow to nan), so no command takes those either.
_MAX_IM = 50.0
_MAX_RE = 50.0


def parse_complex(text: str) -> complex:
    """"RE,IM" or "RE" (imaginary part zero); both parts finite,
    |RE| <= 50 and |IM| <= 50, the documented envelope."""
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ValueError(f"cannot parse complex number from {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise ValueError(f"cannot parse complex number from {text!r}") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(f"complex number {text!r} is not finite")
    if abs(re) > _MAX_RE:
        raise ValueError(
            f"complex number {text!r} is outside the envelope |Re s| <= {_MAX_RE:g}"
        )
    if abs(im) > _MAX_IM:
        raise ValueError(
            f"complex number {text!r} is outside the envelope |Im s| <= {_MAX_IM:g}"
        )
    return complex(re, im)


# Largest character table `lfun` builds: eta:-N tabulates 4N entries
# and psi:N 12N, so N <= 25000 and N <= 8333.  At the ceiling `lfun`
# takes about a second and under 200 MB, |Im s| <= 50 included.
_MAX_TABLE = 100_000

# Largest series cutoff of `zn` and `table zn` (criterion 10 sums its
# slices to 1.2e6): at 2e6 `zn` takes 0.2 s and 128 MB.  Largest prime
# cutoff of `zn`: at 1e7 it takes 0.9 s and 133 MB.  Largest `zeta2`
# cutoffs: the form route loops over 1.5 mmax^2 pairs (a, b) and keeps
# about 0.35 mmax * nmax terms, and at both ceilings takes 15 s and 172 MB.
_MAX_CUTOFF = 2_000_000
_MAX_PRIME_CUTOFF = 10_000_000
_MAX_ZETA2_M, _MAX_ZETA2_N = 4_000, 2_500
# Largest `euler --k`: the oracle takes one symbol and about 0.5 us a
# term, so 1e6 terms take 0.6 s at p = 2^31 - 1 and 39 MB.  Largest
# `forms` cutoffs: every form is kept as a row, about 0.95 mmax * nmax of
# them, and at both ceilings (475k rows) it takes 1.6 s and 178 MB, 200 MB
# as JSON.
# Largest `table --nmax` and `table coeffs --mmax`: at both ceilings
# `table coeffs` keeps 405k rows (1.2 s and 180 MB as JSON), and
# `table zn --cutoff 2000000` takes 15 s on two workers of 131 MB each.
_MAX_EULER_K = 1_000_000
_MAX_FORMS_M, _MAX_FORMS_N = 1_000, 500
_MAX_TABLE_N, _MAX_TABLE_M = 1_000, 1_000


def _record(name: str, z: complex, **extra) -> dict:
    """A complex result as a JSON record: its name, re, im and `extra`."""
    return {"name": name, "re": z.real, "im": z.imag, **extra}


def _point_help(flag: str) -> str:
    """Help for an option that takes a point s.  argparse reads a value
    that starts with "-" and holds a comma as an option, so a negative
    complex point is attached with "="."""
    return (f'complex "RE,IM" or "RE", |RE| <= 50 and |IM| <= 50; attach a'
            f" negative one with =, as {flag}=-1.5,0")


_FE_GRID = ("0.3", "0.75", "0.6,2", "0.5,5")


def _ceiling(name: str, value: int, top: int) -> None:
    """ValueError unless 1 <= value <= top."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    if value > top:
        raise ValueError(f"{name} must be <= {top}, got {value}")


def parse_character(spec: str) -> DirichletCharacter:
    """Character SPEC: 'eta:-N' (the symbol (-N/.), N <= 25000),
    'mod24:J' with J a 3-bit index giving the values at 5, 7, 13 (set
    bit = -1), or 'psi:N' (the completed twist attached to N, N <= 8333).
    The ceilings keep a table to _MAX_TABLE entries."""
    kind, _, arg = spec.partition(":")
    if not arg:
        raise ValueError(f"character spec {spec!r} needs KIND:ARG")
    if kind == "eta":
        t = int(arg)
        if t >= 0:
            raise ValueError("eta takes a negative top, e.g. eta:-5")
        _ceiling("eta:-N", -t, _MAX_TABLE // 4)
        return character_eta(-t)
    if kind == "mod24":
        j = int(arg)
        if not 0 <= j <= 7:
            raise ValueError("mod24 index must be 0..7")
        return characters_mod24()[j]
    if kind == "psi":
        n = int(arg)
        _ceiling("psi:N", n, _MAX_TABLE // 12)
        return psi_n_character(n)
    raise ValueError(f"unknown character kind {kind!r}; use eta, mod24, psi")


def _report(
    args,
    lines: list[str],
    results: list,
    comparisons: list[mds.SeriesComparison] = (),
    passed: list[bool] | None = None,
    status_line: bool = True,
) -> int:
    """Print one command's record and return its exit code.

    The status is "pass" when every verdict in `passed` holds (by
    default the comparisons' verdicts; none counts as pass), "fail"
    when none does and "partial" otherwise; only "pass" exits 0.  Text
    mode prints `lines`, then the status unless `status_line` is off;
    JSON mode prints the {command, parameters, results, comparisons,
    status} record, its parameters being the command's own arguments.
    """
    if passed is None:
        passed = [c.passed for c in comparisons]
    status = "pass" if all(passed) else ("partial" if any(passed) else "fail")
    if args.format == "json":
        parameters = {
            k: v for k, v in vars(args).items()
            if k not in ("command", "format", "fn")
        }
        record = {
            "command": args.command,
            "parameters": parameters,
            "results": results,
            "comparisons": [c.record() for c in comparisons],
            "status": status,
        }
        print(json.dumps(record, sort_keys=True))
    else:
        for ln in lines:
            print(ln)
        if status_line:
            print(f"status: {status}")
    return 0 if status == "pass" else 1


# ======================================================================
# subcommands
# ======================================================================


def _cmd_count(args) -> int:
    m, n = args.m, args.n
    fast = sqcount.count_roots(m, n)
    lines = [f"C({m}, {n}) = {fast} (formula)"]
    results = [{"name": "formula", "value": fast}]
    comparisons: list[mds.SeriesComparison] = []
    try:
        brute = sqcount.count_roots_bruteforce(m, n)
    except OracleScaleError as e:
        print(f"exhaustive oracle skipped: {e}", file=sys.stderr)
    else:
        lines.append(f"C({m}, {n}) = {brute} (exhaustive)")
        results.append({"name": "exhaustive", "value": brute})
        comparisons.append(
            mds.SeriesComparison.compare(complex(fast), complex(brute), 1e-15)
        )
    return _report(args, lines, results, comparisons)


def _cmd_forms(args) -> int:
    _ceiling("--mmax", args.mmax, _MAX_FORMS_M)
    _ceiling("--nmax", args.nmax, _MAX_FORMS_N)
    rows = list(
        forms.enumerate_representatives(args.mmax, args.nmax, args.odd_squarefree)
    )
    lines = ["a,b,c,n"] + [f"{a},{b},{c},{n}" for a, b, c, n in rows]
    return _report(args, lines, [list(r) for r in rows], status_line=False)


def _cmd_euler(args) -> int:
    _ceiling("--k", args.k, _MAX_EULER_K)
    mds._check_tolerance(args.tol)
    s = parse_complex(args.s)
    closed = local_factor_closed(args.p, args.n, s)
    oracle = local_factor_oracle(args.p, args.n, s, args.k)
    cmp0 = mds.SeriesComparison.compare(closed, oracle, args.tol)
    lines = [
        f"closed  = {_cx(closed)}",
        f"oracle  = {_cx(oracle)} (K={args.k})",
        f"rel_err = {_g(cmp0.rel_err)}",
    ]
    results = [_record("closed", closed), _record("oracle", oracle)]
    return _report(args, lines, results, [cmp0])


def _cmd_zn(args) -> int:
    _ceiling("--cutoff", args.cutoff, _MAX_CUTOFF)
    _ceiling("--prime-cutoff", args.prime_cutoff, _MAX_PRIME_CUTOFF)
    mds._check_tolerance(args.tol)
    s = parse_complex(args.s)
    closed = Z_n_closed(args.n, s)
    if s.real <= 1:
        # Both truncations diverge here; only the closed form continues.
        print("comparisons skipped: the series and the product need Re(s) > 1",
              file=sys.stderr)
        return _report(args, [f"closed  = {_cx(closed)}"],
                       [_record("closed", closed)])
    oracle = mds.Z_n_oracle(args.n, s, args.cutoff)
    product = mds.Z_n_euler_product(args.n, s, args.prime_cutoff)
    cmp_oracle = mds.SeriesComparison.compare(closed, oracle, args.tol)
    cmp_product = mds.SeriesComparison.compare(closed, product, args.tol)
    lines = [
        f"closed  = {_cx(closed)}",
        f"oracle  = {_cx(oracle)} (cutoff={args.cutoff})",
        f"product = {_cx(product)} (primes<={args.prime_cutoff})",
        f"rel_err closed/oracle  = {_g(cmp_oracle.rel_err)}",
        f"rel_err closed/product = {_g(cmp_product.rel_err)}",
    ]
    results = [_record("closed", closed), _record("oracle", oracle),
               _record("product", product)]
    return _report(args, lines, results, [cmp_oracle, cmp_product])


def _cmd_lfun(args) -> int:
    s = parse_complex(args.s)
    chi = parse_character(args.char)
    val = dirichlet_L(chi, s)
    results = [
        _record("hurwitz", val.value, error_estimate=val.error_estimate)]
    lines = [
        f"L(s, chi) = {_cx(val.value)} (modulus {chi.modulus}, "
        f"conductor {chi.conductor})",
        f"method: {val.method}, error_estimate {_g(val.error_estimate)}",
    ]
    comparisons: list[mds.SeriesComparison] = []
    if s.real > 1.5:
        terms = 200000
        direct = dirichlet_L_direct(chi, s, terms)
        cmp0 = mds.SeriesComparison.compare(val.value, direct.value, 1e-8)
        comparisons.append(cmp0)
        results.append(_record("direct", direct.value,
                               error_estimate=direct.error_estimate,
                               terms=terms))
        lines.append(f"direct    = {_cx(direct.value)} ({terms} terms)")
        lines.append(f"rel_err   = {_g(cmp0.rel_err)}")
    return _report(args, lines, results, comparisons)


def _cmd_zeta2(args) -> int:
    _ceiling("--mmax", args.mmax, _MAX_ZETA2_M)
    _ceiling("--nmax", args.nmax, _MAX_ZETA2_N)
    s1 = parse_complex(args.s1)
    s2 = parse_complex(args.s2)
    zd = mds.Z_direct(s1, s2, args.mmax, args.nmax)
    zc = mds.Z_coeff(s1, s2, args.mmax, args.nmax)
    cmp_routes = mds.SeriesComparison.compare(zd, zc, 1e-13)
    comparisons = [cmp_routes]
    lines = [
        f"Z_direct = {_cx(zd)}",
        f"Z_coeff  = {_cx(zc)}",
        f"rel_err  = {_g(cmp_routes.rel_err)} (tol 1e-13)",
    ]
    results = [_record("Z_direct", zd), _record("Z_coeff", zc)]
    if s1.real > 1.5:
        # Tolerance for the decomposition follows the inner tail bound.
        tol = max(1e-8, 10.0 * mds.coefficient_tail_bound(args.mmax, s1.real))
        cmp_dec = mds.decomposition_check(s1, s2, args.mmax, args.nmax, tol)
        comparisons.append(cmp_dec)
        results += [_record("decomposition_lhs", cmp_dec.lhs),
                    _record("decomposition_rhs", cmp_dec.rhs)]
        lines.append(
            f"decomposition rel_err = {_g(cmp_dec.rel_err)} (tol {_g(tol)})"
        )
    else:
        print("decomposition skipped: needs Re(s1) > 1.5", file=sys.stderr)
    return _report(args, lines, results, comparisons)


def _cmd_fe(args) -> int:
    args.grid = args.grid or list(_FE_GRID)
    grid = [parse_complex(t) for t in args.grid]
    comps = mds.functional_equation_check(args.n, grid, tolerance=args.tol)
    lines = ["s_re,s_im,rel_err,passed"]
    for s, c in zip(grid, comps):
        lines.append(f"{_g(s.real)},{_g(s.imag)},{_g(c.rel_err)},{c.passed}")
    results = [
        {"s_re": s.real, "s_im": s.imag, "rel_err": c.rel_err,
         "passed": c.passed}
        for s, c in zip(grid, comps)
    ]
    return _report(args, lines, results, comps)


def _cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    lines = [r.line() for r in results]
    passed = [r.passed for r in results]
    lines.append(f"verified {sum(passed)}/{len(results)} criteria")
    for r in results:
        print(
            f"criterion {r.number}: {r.elapsed:.1f}s (budget {r.budget:.0f}s)",
            file=sys.stderr,
        )
    records = [
        {"number": r.number, "name": r.name, "passed": r.passed,
         "detail": r.detail}
        for r in results
    ]
    return _report(args, lines, records, passed=passed, status_line=False)


def _zn_row(task) -> tuple:
    n, s, cutoff = task
    closed = Z_n_closed(n, s)
    oracle = mds.Z_n_oracle(n, s, cutoff)
    return (n, closed, oracle, mds.rel_err(closed, oracle))


def _cmd_table(args) -> int:
    _ceiling("--cutoff", args.cutoff, _MAX_CUTOFF)
    _ceiling("--nmax", args.nmax, _MAX_TABLE_N)
    if args.kind == "coeffs":
        _ceiling("--mmax", args.mmax, _MAX_TABLE_M)
    s = parse_complex(args.s)
    if args.kind == "zn":
        tasks = [(n, s, args.cutoff) for n in arith.odd_squarefree(args.nmax)]
        # Rows are independent; one worker per CPU this process may run
        # on, assembled in order.
        workers = min(lfunc._usable_cpus(), len(tasks))
        if workers <= 1:
            rows = [_zn_row(t) for t in tasks]
        else:
            with Pool(workers) as pool:
                rows = pool.map(_zn_row, tasks)
        lines = ["n,closed_re,closed_im,oracle_re,oracle_im,rel_err"]
        for n, closed, oracle, rel in rows:
            lines.append(
                f"{n},{_g(closed.real)},{_g(closed.imag)},"
                f"{_g(oracle.real)},{_g(oracle.imag)},{_g(rel)}"
            )
        results = [
            {"n": n, "closed_re": c.real, "closed_im": c.imag,
             "oracle_re": o.real, "oracle_im": o.imag, "rel_err": rel}
            for n, c, o, rel in rows
        ]
    else:
        lines = ["m,n,coefficient"]
        results = []
        for n in arith.odd_squarefree(args.nmax):
            coeffs = sqcount.coefficient_sieve(n, args.mmax).tolist()
            for m in range(1, args.mmax + 1):
                lines.append(f"{m},{n},{coeffs[m]}")
                results.append({"m": m, "n": n, "coefficient": coeffs[m]})
    return _report(args, lines, results, status_line=False)


# ======================================================================
# argument wiring
# ======================================================================


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A usage error is one `error: ...` line on stderr, exit 2."""
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cubic-mds",
        description="Verifiable evaluators for the cubic-form double series.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format for stdout (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="square-root count, formula vs exhaustive")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("forms", help="stream reduced representatives as CSV")
    p.add_argument("--mmax", type=int, required=True, help=f"1..{_MAX_FORMS_M}")
    p.add_argument("--nmax", type=int, required=True, help=f"1..{_MAX_FORMS_N}")
    p.add_argument("--odd-squarefree", action="store_true",
                   help="keep only odd squarefree n")
    p.set_defaults(fn=_cmd_forms)

    p = sub.add_parser("euler", help="local factor, closed vs truncated series")
    p.add_argument("p", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--s", required=True, help=_point_help("--s"))
    p.add_argument("--k", type=int, default=60,
                   help=f"series terms, 1..{_MAX_EULER_K} (default 60)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=_cmd_euler)

    p = sub.add_parser("zn", help="inner series: closed vs sum vs product")
    p.add_argument("n", type=int)
    p.add_argument("--s", required=True, help=_point_help("--s"))
    p.add_argument("--cutoff", type=int, default=100000,
                   help=f"series cutoff, 1..{_MAX_CUTOFF}")
    p.add_argument("--prime-cutoff", type=int, default=10000,
                   help=f"prime cutoff, 1..{_MAX_PRIME_CUTOFF}")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(fn=_cmd_zn)

    p = sub.add_parser("lfun", help="Dirichlet L value")
    p.add_argument("--char", required=True,
                   help="eta:-N (N <= 25000) | mod24:J | psi:N (N <= 8333)")
    p.add_argument("--s", required=True, help=_point_help("--s"))
    p.set_defaults(fn=_cmd_lfun)

    p = sub.add_parser("zeta2", help="double series: two routes + decomposition")
    p.add_argument("--s1", required=True, help=_point_help("--s1"))
    p.add_argument("--s2", required=True, help=_point_help("--s2"))
    p.add_argument("--mmax", type=int, default=300, help=f"1..{_MAX_ZETA2_M}")
    p.add_argument("--nmax", type=int, default=300, help=f"1..{_MAX_ZETA2_N}")
    p.set_defaults(fn=_cmd_zeta2)

    p = sub.add_parser("fe", help="completed functional equation residuals")
    p.add_argument("n", type=int)
    p.add_argument("--grid", nargs="+", action="extend",
                   help=f"points s (default {' '.join(_FE_GRID)}), the flag"
                        " repeatable; attach a negative one with =, as"
                        " --grid=-1.5,0.5")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=_cmd_fe)

    p = sub.add_parser("verify", help="run acceptance suites")
    p.add_argument("suite", nargs="?", default="all",
                   help="'all', a number 1..10, or a suite name")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("table", help="emit CSV/JSON tables")
    p.add_argument("kind", choices=("zn", "coeffs"))
    p.add_argument("--s", default="2.5",
                   help="s for zn tables; " + _point_help("--s"))
    p.add_argument("--nmax", type=int, default=30, help=f"1..{_MAX_TABLE_N}")
    p.add_argument("--mmax", type=int, default=50,
                   help=f"coefficients per n for coeffs tables, 1..{_MAX_TABLE_M}")
    p.add_argument("--cutoff", type=int, default=100000,
                   help=f"series cutoff for zn tables, 1..{_MAX_CUTOFF}")
    p.set_defaults(fn=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    # OverflowError: a point s so far out that a power or Gamma overflows.
    except (ValueError, OverflowError, PoleError, OracleScaleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
