"""Command-line interface: exit codes, determinism, output schema."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubic_mds
from cubic_mds import cli, lfunc, sqcount, verify

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


def test_table_zn_deterministic_across_jobs(capsys, monkeypatch):
    # The pool is sized from the core count: 1 runs serially, 3 starts
    # three workers for the four rows (n = 1, 3, 5, 7).
    args = ["table", "zn", "--s", "2.5", "--nmax", "9", "--cutoff", "4000"]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == (
        "n,closed_re,closed_im,oracle_re,oracle_im,rel_err"
    )


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
