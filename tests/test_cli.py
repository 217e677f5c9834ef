"""Command-line interface: exit codes, determinism, output schema."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import cubic_mds
from cubic_mds import cli, lfunc, sqcount, verify

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # the contract test below is then not collected
    given = None

# ======================================================================
# parsing helpers
# ======================================================================


def test_parse_complex():
    assert cli.parse_complex("2.5") == 2.5 + 0j
    assert cli.parse_complex("2,0") == 2.0 + 0j
    assert cli.parse_complex("-0.5,3.25") == -0.5 + 3.25j
    for bad in ["", "a", "1,2,3", "1;2", "nan", "inf", "1,nan"]:
        with pytest.raises(ValueError):
            cli.parse_complex(bad)
    # |Im s| <= 50 is the documented envelope; its edges are inside.
    assert cli.parse_complex("0.5,50") == 0.5 + 50j
    assert cli.parse_complex("0.5,-50") == 0.5 - 50j
    for bad in ["0.5,50.001", "2,-51", "0.5,5000"]:
        with pytest.raises(ValueError, match=r"\|Im s\| <= 50"):
            cli.parse_complex(bad)


def test_parse_character():
    chi = cli.parse_character("eta:-5")
    assert chi.modulus == 20
    chi = cli.parse_character("mod24:3")
    assert (chi(5), chi(7), chi(13)) == (-1, -1, 1)
    chi = cli.parse_character("psi:7")
    assert chi.modulus == 84
    for bad in ["eta:5", "mod24:9", "psi:2", "weird:1", "eta"]:
        with pytest.raises(ValueError):
            cli.parse_character(bad)


def test_parse_character_table_ceiling(monkeypatch):
    # At the ceiling a table has at most 100000 entries; one past it is
    # refused before any table is built.
    assert cli.parse_character("eta:-25000").modulus == 100000
    assert cli.parse_character("psi:8333").modulus == 99996

    def no_table(n):
        raise AssertionError("table built before the ceiling check")

    monkeypatch.setattr(cli, "character_eta", no_table)
    monkeypatch.setattr(cli, "psi_n_character", no_table)
    for bad in ["eta:-25001", "psi:8335"]:
        with pytest.raises(ValueError, match="N must be <="):
            cli.parse_character(bad)


# ======================================================================
# single-shot commands
# ======================================================================


def test_count_command(capsys):
    assert cli.main(["count", "45", "19"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "C(45, 19) = 4 (formula)\n"
        "C(45, 19) = 4 (exhaustive)\n"
        "status: pass\n"
    )


def test_count_command_json(capsys):
    assert cli.main(["--format", "json", "count", "45", "19"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == "count"
    assert record["status"] == "pass"
    assert {r["name"]: r["value"] for r in record["results"]} == {
        "formula": 4, "exhaustive": 4
    }
    assert record["comparisons"][0]["rel_err"] == 0.0


def test_euler_command_zero_slice(capsys):
    assert cli.main(["euler", "3", "7", "--s", "2,0", "--k", "40"]) == 0
    out = capsys.readouterr().out
    assert "closed  = 0+0j" in out
    assert "oracle  = 0+0j" in out
    assert out.endswith("status: pass\n")


def test_zn_command(capsys):
    code = cli.main(["zn", "5", "--s", "2.5", "--cutoff", "20000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "status: pass" in out


def test_zn_left_of_one_reports_the_closed_value_only(capsys, monkeypatch):
    # Both truncations diverge at Re s <= 1: at 0.5+3i they gave rel_err
    # 0.988 and 1.357 and a failure on a correct closed value.
    def diverges(*args):
        raise AssertionError("truncated route computed at Re s <= 1")

    monkeypatch.setattr(cli.mds, "Z_n_oracle", diverges)
    monkeypatch.setattr(cli.mds, "Z_n_euler_product", diverges)
    assert cli.main(["zn", "5609", "--s", "0.5,3"]) == 0
    captured = capsys.readouterr()
    closed = lfunc.Z_n_closed(5609, 0.5 + 3j)
    assert captured.out == f"closed  = {cli._cx(closed)}\nstatus: pass\n"
    assert captured.err == (
        "comparisons skipped: the series and the product need Re(s) > 1\n")
    assert cli.main(["zn", "7", "--s", "1", "--cutoff", "0"]) == 2


def test_zn_at_one_half_prints_the_limit_zero(capsys):
    # Z_n is analytic at s = 1/2, where zeta(2s) has its pole.
    assert cli.main(["zn", "5", "--s", "0.5"]) == 0
    assert capsys.readouterr().out == "closed  = 0+0j\nstatus: pass\n"


def test_fe_command(capsys):
    assert cli.main(["fe", "5", "--grid", "0.3", "0.6,2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "s_re,s_im,rel_err,passed"
    assert len(out) == 4


def test_fe_grid_flags_add_up(capsys):
    # Each --grid adds its points; a negative complex point is attached
    # with =, and a later flag no longer replaces it.
    assert cli.main(["fe", "5", "--grid=-1.5,0.5", "--grid", "0.3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "s_re,s_im,rel_err,passed"
    assert [ln.split(",")[:2] for ln in out[1:3]] == [
        ["-1.5", "0.5"], ["0.29999999999999999", "0"]]
    assert out[3:] == ["status: pass"]


def test_forms_command_csv(capsys):
    assert cli.main(["forms", "--mmax", "2", "--nmax", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a,b,c,n"
    assert "1,0,1,3" in lines
    assert "1,1,2,5" in lines


def test_lfun_command(capsys):
    assert cli.main(["lfun", "--char", "eta:-5", "--s", "2,0"]) == 0
    out = capsys.readouterr().out
    assert "modulus 20" in out
    assert "status: pass" in out


def test_zeta2_command(capsys):
    code = cli.main(
        ["zeta2", "--s1", "2,0", "--s2", "2,0", "--mmax", "60", "--nmax", "60"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Z_direct" in out and "Z_coeff" in out


# ======================================================================
# determinism and tables
# ======================================================================


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the pools `table zn` starts."""
    started = []
    real = cli.Pool
    monkeypatch.setattr(cli, "Pool",
                        lambda workers: started.append(workers) or real(workers))
    return started


TABLE_ZN = ["table", "zn", "--s", "2.5", "--nmax", "9", "--cutoff", "4000"]


def test_table_zn_deterministic_across_jobs(capsys, monkeypatch, pools):
    # The pool is sized from the CPUs: 1 runs serially, 3 starts three
    # workers for the four rows (n = 1, 3, 5, 7).
    monkeypatch.setattr(lfunc, "_usable_cpus", lambda: 1)
    assert cli.main(TABLE_ZN) == 0
    first = capsys.readouterr().out
    monkeypatch.setattr(lfunc, "_usable_cpus", lambda: 3)
    assert cli.main(TABLE_ZN) == 0
    second = capsys.readouterr().out
    assert pools == [3]
    assert first == second
    assert first.splitlines()[0] == (
        "n,closed_re,closed_im,oracle_re,oracle_im,rel_err"
    )


def test_table_zn_workers_follow_the_affinity_mask(capsys, monkeypatch, pools):
    # A process pinned to one CPU of a large host runs its rows serially,
    # not on one worker per host CPU, and prints the same rows.
    assert cli.main(TABLE_ZN) == 0
    want = capsys.readouterr().out
    pools.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli.main(TABLE_ZN) == 0
    assert capsys.readouterr().out == want
    assert pools == []


def test_table_zn_blocks_are_never_shared(capsys, monkeypatch):
    # A `table zn` row is summed by its worker alone: at the ceilings
    # (phi(4 * 997) = 1,992 points, |Im s| = 50) its block has 6 spans,
    # under the 8 from which a head is shared among threads.
    assert len(lfunc._column_spans(1992, lfunc._em_shift(50j))) == 6
    spans = []
    threads = lfunc._head_threads
    monkeypatch.setattr(lfunc, "_head_threads",
                        lambda count: spans.append(count) or threads(count))
    monkeypatch.setattr(lfunc, "_usable_cpus", lambda: 1)  # rows in this process
    args = ["table", "zn", "--s", "0.5,50", "--nmax", "15", "--cutoff", "100"]
    assert cli.main(args) == 0
    # The largest block of any table: Z_983 on phi(4 * 983) = 1,964
    # points (Z_997 is 0, since 997 = 1 mod 3).
    cli._zn_row((983, 0.5 + 50j, 100))
    assert max(spans) == 6, spans


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_stdout_does_not_depend_on_blas_threads(tmp_path):
    # A threaded BLAS would split the 1e5-term oracle dot product by its
    # thread count and move the last printed digits; the command pins
    # one thread, whether it runs as `cubic-mds` or with -m.
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(Path(cubic_mds.__file__).resolve().parent.parent)
    script = tmp_path / "cubic-mds"
    script.write_text("import sys\nfrom cubic_mds.cli import main\nsys.exit(main())\n")
    args = ["zn", "5", "--s", "2.5,1.3"]
    runs = [
        ([sys.executable, "-m", "cubic_mds.cli"], None),
        ([sys.executable, "-m", "cubic_mds.cli"], "1"),
        ([sys.executable, "-m", "cubic_mds.cli"], "4"),
        ([sys.executable, str(script)], None),
    ]
    outs = []
    for command, threads in runs:
        run_env = dict(env)
        if threads is not None:
            run_env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run(
            command + args, env=run_env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0].startswith("closed  = ")
    assert outs.count(outs[0]) == len(outs)


def test_table_coeffs(capsys):
    assert cli.main(["table", "coeffs", "--nmax", "5", "--mmax", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m,n,coefficient"
    # n = 3 row: C(3, -3) = 1 at m = 1.
    assert "1,3,1" in lines


def test_json_round_trip_table(capsys):
    assert cli.main(
        ["--format", "json", "table", "coeffs", "--nmax", "3", "--mmax", "2"]
    ) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "pass"
    assert all(set(r) == {"m", "n", "coefficient"} for r in record["results"])


# ======================================================================
# verification driver and exit codes
# ======================================================================


def test_verify_single_fast_suite(capsys):
    assert cli.main(["verify", "5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("criterion  5 [character-decomposition]: PASS")
    assert "verified 1/1 criteria" in out


def test_verify_json_schema(capsys):
    assert cli.main(["--format", "json", "verify", "2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["results"][0]["number"] == 2
    assert record["results"][0]["passed"] is True


def test_cutoff_ceilings(monkeypatch, capsys):
    # Past a ceiling, or below 1, a command exits 2 with one line on
    # stderr before it computes anything; the ceilings are admitted.
    def refused(*args):
        raise AssertionError("computed past a cutoff ceiling")

    for name in ("Z_n_oracle", "Z_n_euler_product", "Z_direct", "Z_coeff"):
        monkeypatch.setattr(cli.mds, name, refused)
    for name in ("Z_n_closed", "_zn_row", "local_factor_closed",
                 "local_factor_oracle"):
        monkeypatch.setattr(cli, name, refused)
    monkeypatch.setattr(cli.forms, "enumerate_representatives", refused)
    monkeypatch.setattr(cli.sqcount, "coefficient_sieve", refused)
    # `table zn` starts no pool of workers.
    monkeypatch.setattr(lfunc, "_usable_cpus", lambda: 1)
    for argv in (
        ["zn", "5", "--s", "2", "--cutoff", "10000000000"],
        ["zn", "5", "--s", "2", "--prime-cutoff", "10000000000"],
        ["zn", "5", "--s", "2", "--cutoff", "2000001"],
        ["zn", "5", "--s", "0.5", "--cutoff", "0"],
        ["table", "zn", "--cutoff", "2000001"],
        ["zeta2", "--s1", "2.5", "--s2", "2", "--mmax", "4001"],
        ["zeta2", "--s1", "2.5", "--s2", "2", "--nmax", "2501"],
        ["zeta2", "--s1", "2.5", "--s2", "2", "--nmax", "0"],
        ["euler", "5", "7", "--s", "2", "--k", "1000001"],
        ["forms", "--mmax", "1001", "--nmax", "5"],
        ["forms", "--mmax", "5", "--nmax", "501"],
        ["table", "zn", "--nmax", "1001"],
        ["table", "coeffs", "--nmax", "1001"],
        ["table", "coeffs", "--mmax", "1001"],
        ["table", "coeffs", "--nmax", "0"],
    ):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: ") and captured.err.count(
            "\n") == 1, argv

    monkeypatch.setattr(cli, "Z_n_closed", lambda n, s: 1.0)
    for name in ("Z_n_oracle", "Z_n_euler_product"):
        monkeypatch.setattr(cli.mds, name, lambda n, s, cutoff: 1.0)
    argv = ["zn", "5", "--s", "2", "--cutoff", "2000000",
            "--prime-cutoff", "10000000"]
    assert cli.main(argv) == 0
    assert "(cutoff=2000000)" in capsys.readouterr().out

    for name in ("local_factor_closed", "local_factor_oracle"):
        monkeypatch.setattr(cli, name, lambda p, n, s, k=60: 1.0)
    monkeypatch.setattr(cli.forms, "enumerate_representatives",
                        lambda mmax, nmax, odd: iter(()))
    monkeypatch.setattr(cli, "_zn_row", lambda task: (task[0], 1j, 1j, 0.0))
    for argv in (
        ["euler", "5", "7", "--s", "2", "--k", "1000000"],
        ["forms", "--mmax", "1000", "--nmax", "500"],
        ["table", "zn", "--nmax", "1000"],
        # The --mmax of a zn table is not read, so it has no ceiling.
        ["table", "zn", "--nmax", "3", "--mmax", "1001"],
    ):
        assert cli.main(argv) == 0, argv
    assert "\n997,0,1,0,1,0\n" in capsys.readouterr().out


def test_exit_code_on_malformed_input(capsys):
    assert cli.main(["euler", "3", "7", "--s", "junk"]) == 2
    assert cli.main(["lfun", "--char", "nope:1", "--s", "2"]) == 2
    assert cli.main(["zn", "4", "--s", "2.5"]) == 2
    assert cli.main(["zn", "5", "--s", "nan"]) == 2
    assert cli.main(["zn", "5", "--s", "2.5", "--prime-cutoff", "0"]) == 2
    assert cli.main(["zn", "5", "--s", "2.5", "--prime-cutoff", "-7"]) == 2
    assert cli.main(["euler", "5", "7", "--s", "2", "--k", "0"]) == 2
    assert cli.main(["euler", "5", "7", "--s", "2", "--k", "-1"]) == 2
    assert cli.main(["lfun", "--char", "eta:-5", "--s", "nan"]) == 2
    assert cli.main(["lfun", "--char", "eta:-25001", "--s", "2"]) == 2
    assert cli.main(["lfun", "--char", "psi:8335", "--s", "2"]) == 2
    assert cli.main(["zn", "10000019", "--s", "2"]) == 2
    assert cli.main(["fe", "1000003", "--grid", "0.3"]) == 2
    assert cli.main(["verify", "nope"]) == 2
    assert cli.main(["verify", "11"]) == 2
    assert cli.main(["count", "45"]) == 2  # argparse usage error
    capsys.readouterr()


def test_imaginary_part_beyond_envelope_exits_2(capsys, monkeypatch):
    # Refused with one line before any table or sieve is built: the
    # Hurwitz arrays grow with |Im s|, and eta:-25000 at Im s = 5000
    # would ask for gigabytes.
    def no_table(*args):
        raise AssertionError("table built before |Im s| was checked")

    monkeypatch.setattr(cli, "character_eta", no_table)
    monkeypatch.setattr(cli, "psi_n_character", no_table)
    monkeypatch.setattr(cli, "Z_n_closed", no_table)
    monkeypatch.setattr(lfunc, "character_eta", no_table)
    monkeypatch.setattr(sqcount, "coefficient_sieve", no_table)
    for argv in (
        ["lfun", "--char", "eta:-25000", "--s", "0.5,5000"],
        ["lfun", "--char", "psi:8333", "--s", "0.5,-51"],
        ["zn", "5", "--s", "2,51"],
    ):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "|Im s| <= 50" in captured.err


def test_tolerance_not_positive_exits_2(capsys):
    for tol in ("nan", "0", "-1"):
        assert cli.main(["zn", "5", "--s", "2", "--cutoff", "100",
                         "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tolerance must be > 0, got {float(tol)}\n"


def test_tolerance_refused_before_any_evaluation(monkeypatch, capsys):
    def evaluated(*args):
        raise AssertionError("evaluated before the tolerance was checked")

    monkeypatch.setattr(cli, "Z_n_closed", evaluated)
    monkeypatch.setattr(cli, "local_factor_closed", evaluated)
    monkeypatch.setattr(cli.mds, "completed_Lambda", evaluated)
    for argv in (["zn", "5", "--s", "2"], ["zn", "5", "--s", "0.5"],
                 ["euler", "3", "7", "--s", "2,0"], ["fe", "5"]):
        assert cli.main(argv + ["--tol", "nan"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tolerance must be > 0, got nan\n"


def test_json_comparisons_carry_their_tolerance(capsys):
    # The cutoffs are in the parameters; a comparison adds only its
    # tolerance, and lfun's fixed 200000 direct terms sit on its record.
    assert cli.main(["--format", "json", "lfun", "--char", "mod24:5",
                     "--s", "2.5"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert [c["tolerance"] for c in record["comparisons"]] == [1e-8]
    assert all("spec" not in c for c in record["comparisons"])
    assert record["results"][1]["name"] == "direct"
    assert record["results"][1]["terms"] == 200000


# Open defects, each pinned by the behaviour it should have.


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the error "
                   "1.567e-4 lies inside the oracle's a-priori bound, so "
                   "the verdict should be inconclusive, exit 0")
def test_zn_error_inside_the_oracle_bound_does_not_fail(capsys):
    assert cli.main(["zn", "5", "--s", "1.7"]) == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: both double sums "
                   "diverge at Re s1 <= 1, yet agree with each other")
def test_zeta2_divergent_series_is_not_a_pass(capsys):
    cli.main(["zeta2", "--s1", "0.75,0", "--s2", "2.5,0", "--nmax", "50",
              "--mmax", "200"])
    assert "status: pass" not in capsys.readouterr().out


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: Lambda is entire, "
                   "but its Gamma factor has a pole at s = 2")
def test_fe_at_two_is_evaluated(capsys):
    assert cli.main(["fe", "5", "--grid", "2"]) == 0


def test_exit_code_on_verification_failure(capsys, monkeypatch):
    # A 10-term oracle and a 10-prime product both miss the closed Z_5
    # by more than the default 1e-4 (rel 7.4e-3 and 2.0e-3), so the
    # comparison genuinely fails and the command exits 1.
    args = ["zn", "5", "--s", "2.5", "--cutoff", "10", "--prime-cutoff", "10"]
    assert cli.main(args) == 1
    out = capsys.readouterr().out
    assert out.endswith("status: fail\n")

    # The verify driver maps a FAIL verdict to exit 1.
    failing = verify.CriterionResult(
        number=1, name="count-oracle", passed=False, detail="forced",
        elapsed=0.0, budget=1.0,
    )
    monkeypatch.setattr(verify, "run_suite", lambda selector: [failing])
    assert cli.main(["verify", "count-oracle"]) == 1
    out = capsys.readouterr().out
    assert "criterion  1 [count-oracle]: FAIL - forced" in out
    assert "verified 0/1 criteria" in out


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


# ======================================================================
# the contract over every subcommand
# ======================================================================

if given is not None:
    # A point that parses: near the poles and zeros, and at the edges
    # |Re s| = 50 and |Im s| = 50 of the envelope.
    _GOOD_POINTS = ("0.3", "0.5", "1", "2", "2.5", "3.3", "0", "-1",
                    "-1.5,0.5", "2.5,1.3", "0.5,49.9", "2,-50", "50",
                    "-50,50")
    # Far out, where powers and Gamma values overflow: a command given
    # one of these exits 2.
    _FAR_POINTS = ("800", "-800", "1e300", "-1e300,3", "50.1")
    _BAD_POINTS = ("nan", "inf", "-inf,0", "2,50.1", "2,nan", "", "junk",
                   "1,2,3", ",", *_FAR_POINTS)
    _POINT_FLAGS = ("--s", "--s1", "--s2", "--grid")

    def _tokens(flag, values):
        """[flag, value] for each of the values."""
        return st.sampled_from([[flag, str(v)] for v in values])

    def _point(flag, values=_GOOD_POINTS):
        """A point attached with =, or as the next token, which argparse
        takes for an option when it starts with "-"."""
        return st.sampled_from(values).flatmap(lambda v: st.sampled_from(
            [[f"{flag}={v}"], [flag, v]]))

    def _ints(flag, good, *ceilings):
        """A good value; or 0, -1, each ceiling + 1, far beyond, or a
        token that is no integer."""
        bad = (0, -1, *(c + 1 for c in ceilings), 10**30, "x")
        return _tokens(flag, good), _tokens(flag, bad)

    def _positional(good, bad):
        return (st.sampled_from([[str(v)] for v in good]),
                st.sampled_from([[str(v)] for v in bad]))

    def _optional(field):
        """The option at its default, or drawn; a bad draw is unchanged."""
        good, bad = field
        return st.one_of(st.just([]), good), bad

    @st.composite
    def _command(draw, name, *fields):
        """argv of one subcommand: every field from its good values,
        except, half the time, one field from its bad values."""
        n = len(fields)
        bad = draw(st.sampled_from([None] * n + list(range(n))))
        argv = [name]
        for i, (good, worse) in enumerate(fields):
            argv += draw(worse if i == bad else good)
        return argv

    _S = _point("--s"), _point("--s", _BAD_POINTS)
    _TOL = _optional((_tokens("--tol", ("1e-8", "inf")),
                      _tokens("--tol", ("0", "-1", "nan", "x"))))
    _GRID = (
        st.lists(_point("--grid"), min_size=1, max_size=3).map(
            lambda xs: [t for x in xs for t in x]) | st.just([]),
        _point("--grid", _BAD_POINTS) | st.just(["--grid"]),
    )
    _ARGV = st.one_of(
        _command("count", _positional((1, 7, 45, 120), (0, -1, 10**30, "x")),
                 _positional((19, -7, 0, 10**30), ("x", "1.5"))),
        _command("forms", _ints("--mmax", (1, 3), cli._MAX_FORMS_M),
                 _ints("--nmax", (1, 5), cli._MAX_FORMS_N),
                 (st.sampled_from([[], ["--odd-squarefree"]]),
                  st.just(["--odd-squarefree=1"]))),
        _command("euler", _positional((2, 3, 5, 7), (1, 4, 0, 10**30, "x")),
                 _positional((1, 7, 35, 10**30), (0, -7, "x")), _S,
                 _optional(_ints("--k", (1, 60), cli._MAX_EULER_K)), _TOL),
        _command("zn", _positional((1, 5, 7, 35),
                                   (4, 0, -5, 10000019, 10**30, "x")), _S,
                 _optional(_ints("--cutoff", (1, 50, 1000), cli._MAX_CUTOFF)),
                 _optional(_ints("--prime-cutoff", (1, 50),
                                 cli._MAX_PRIME_CUTOFF)), _TOL),
        _command("lfun", (
            _tokens("--char", ("eta:-1", "eta:-5", "eta:-8", "eta:-24",
                               "psi:1", "psi:5", "psi:7", "mod24:0",
                               "mod24:5", "mod24:7")),
            _tokens("--char", ("eta:0", "eta:-25001", f"eta:-{10**30}",
                               "eta:x", "psi:2", "psi:0", "psi:8334",
                               "mod24:8", "mod24:-1", "eta", ":", "chi:5")),
        ), _S),
        _command("zeta2", (_point("--s1"), _point("--s1", _BAD_POINTS)),
                 (_point("--s2"), _point("--s2", _BAD_POINTS)),
                 _ints("--mmax", (1, 3, 20), cli._MAX_ZETA2_M),
                 _ints("--nmax", (1, 5, 30), cli._MAX_ZETA2_N)),
        _command("fe", _positional((1, 5, 7, 13),
                                   (3, 0, -5, 1000003, 10**30, "x")),
                 _GRID, _TOL),
        _command("verify", _positional(
            ("5", "character-decomposition"), ("0", "11", "-1", "x", ""))),
        _command("table", _positional(("zn", "coeffs"), ("nope",)),
                 _optional(_S), _ints("--nmax", (1, 3, 5), cli._MAX_TABLE_N),
                 _optional(_ints("--mmax", (1, 50), cli._MAX_TABLE_M)),
                 _optional(_ints("--cutoff", (1, 20, 1000), cli._MAX_CUTOFF))),
        st.lists(st.sampled_from(("--bogus", "nope", "-x", "--format", "xml",
                                  "count")), max_size=3),
    )

    def _point_values(argv):
        """The values given to the point options of argv."""
        values = []
        for i, token in enumerate(argv):
            flag, eq, value = token.partition("=")
            if flag in _POINT_FLAGS:
                values.append(value if eq else "".join(argv[i + 1:i + 2]))
        return values

    @settings(max_examples=300)
    @given(prefix=st.sampled_from(([], ["--format", "json"])), argv=_ARGV)
    # q^(-s) and the Hurwitz sum fit in a double, their product does not.
    @example(prefix=[], argv=["lfun", "--char", "eta:-24999", "--s=-50"])
    @example(prefix=[], argv=["lfun", "--char", "eta:-24999", "--s=-50,50"])
    @example(prefix=[], argv=["zn", "5", "--s", "800"])
    @example(prefix=[], argv=["lfun", "--char", "eta:-5", "--s", "800"])
    @example(prefix=[], argv=["zeta2", "--s1=800", "--s2=2", "--mmax", "3",
                              "--nmax", "5"])
    def test_cli_contract(prefix, argv):
        # Every command exits 0, 1 or 2 without a traceback or a numpy
        # warning, and exit 2 comes with exactly one line on stderr.  A
        # point past the envelope exits 2.
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            # `table zn` starts no pool of workers.
            mp.setattr(lfunc, "_usable_cpus", lambda: 1)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(prefix + argv)
        stderr = err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in stderr, argv
        numpy_warnings = [str(w.message) for w in caught
                          if issubclass(w.category, RuntimeWarning)]
        assert not numpy_warnings, (argv, numpy_warnings)
        if set(_point_values(argv)) & set(_FAR_POINTS):
            assert code == 2, (argv, code)
        if code == 2:
            assert stderr.count("\n") == 1 and stderr.endswith("\n"), (
                argv, stderr)
