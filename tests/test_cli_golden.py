"""Text stdout and exit codes of the CLI against recorded output.

The CLI promises byte-identical stdout for identical arguments.  The
expected output in `cli_golden.json` was recorded once with BLAS on one
thread; each change must reproduce it byte for byte.  The commands run
through `cli.main` in one subprocess with BLAS pinned the same way, as
`test_bench_smoke.py` does.  To record the file anew after a deliberate
change of output:

    OPENBLAS_NUM_THREADS=1 python tests/test_cli_golden.py > tests/cli_golden.json
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("cli_golden.json")

# The README examples (without `verify`, and `zeta2` at a smaller
# --mmax), a complex and a mod-24 character, a complex slice point, one
# JSON record, and a quadratic character of each symbol shape: a top
# with an odd power of 2, -n = 3 mod 4 under psi_n and Lambda, and a
# mod-24 twist in JSON.
COMMANDS = [
    ["count", "45", "19"],
    ["euler", "3", "7", "--s", "2,0", "--k", "40"],
    ["zn", "5", "--s", "2.5"],
    ["lfun", "--char", "eta:-5", "--s", "0.5,3"],
    ["zeta2", "--s1", "2.5,0", "--s2", "2,0", "--mmax", "300", "--nmax", "50"],
    ["fe", "5", "--grid", "0.3", "0.75", "0.6,2", "0.5,5"],
    ["table", "zn", "--s", "2.5", "--nmax", "30"],
    ["table", "coeffs", "--nmax", "15", "--mmax", "50"],
    ["lfun", "--char", "psi:7", "--s", "0.3,2"],
    ["lfun", "--char", "mod24:5", "--s", "2.5"],
    ["zn", "35", "--s", "2.5,1.3"],
    ["--format", "json", "zn", "7", "--s", "2.5"],
    ["lfun", "--char", "eta:-8", "--s", "2.5"],
    ["lfun", "--char", "psi:13", "--s", "0.3,2"],
    ["fe", "13", "--grid", "0.3", "0.5,5"],
    ["--format", "json", "lfun", "--char", "mod24:6", "--s", "0.5,3"],
    ["verify", "2"],
    ["verify", "8"],
    ["verify", "9"],
    ["zeta2", "--s1", "3.3,0", "--s2", "2,0", "--mmax", "300", "--nmax", "200"],
    ["zeta2", "--s1", "1.6,0", "--s2", "2,0", "--mmax", "300", "--nmax", "200"],
    ["verify", "10"],
    ["zeta2", "--s1", "2.5,0.5", "--s2", "2,0", "--mmax", "300", "--nmax", "100"],
    ["--format", "json", "fe", "5"],
    # Blocks of many spans, which the CPUs share: 40,000 residues, and
    # the conductor 22,436 of an `lseries`-sized psi_n.
    ["lfun", "--char", "eta:-24999", "--s", "0.5,3"],
    ["fe", "5609", "--grid", "0.4,6", "2.5"],
    ["zn", "5609", "--s", "2.5,7"],
    # The JSON records of count, euler, zeta2 and lfun's direct route.
    ["--format", "json", "count", "45", "19"],
    ["--format", "json", "euler", "3", "7", "--s", "2,0", "--k", "40"],
    ["--format", "json", "zeta2", "--s1", "2.5,0", "--s2", "2,0",
     "--mmax", "300", "--nmax", "50"],
    ["--format", "json", "lfun", "--char", "mod24:5", "--s", "2.5"],
    # The JSON record of criterion 8.
    ["--format", "json", "verify", "8"],
    # The counting criteria, and local factors at deep 2-adic levels,
    # even ramification at 5 and criterion 3's worst point.
    ["verify", "1"],
    ["verify", "3"],
    ["--format", "json", "verify", "3"],
    ["euler", "2", "28", "--s", "2,0", "--k", "60"],
    ["euler", "5", "50", "--s", "2.5,1", "--k", "60"],
    ["euler", "3", "162", "--s", "2,0", "--k", "60"],
    # A completed L-value at the conductor 8,020, inside the strip.
    ["fe", "2005", "--grid", "0.3,4"],
]

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from cubic_mds import cli
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
print(json.dumps(runs, indent=1))
"""


def run_commands() -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), json.dumps(COMMANDS)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return proc.stdout


def test_cli_stdout_matches_recorded_output():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(run_commands())
    assert [r["argv"] for r in got] == [r["argv"] for r in want]
    for g, w in zip(got, want):
        assert g["exit"] == w["exit"], g["argv"]
        assert g["stdout"] == w["stdout"], g["argv"]


if __name__ == "__main__":
    sys.stdout.write(run_commands())
