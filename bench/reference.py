"""Reference figures: repeated runs of bench/run.py, summarised.

    python3 bench/reference.py [--workload NAME ...] [--first-seed N]

For each workload, runs SETS sets of RUNS untraced runs,
interleaved (run i of every set before run i+1 of any), each with its
own seed.  Prints, per set and end-to-end metric, the median, the
quartiles as `statistics.quantiles(values, n=4)` gives them, and their
spread (Q3 - Q1) / median next to the metric's bound, and the ratio of
each later set's median to the first set's.  Also prints the failed
share of every set.  Writes the raw results to
`.bench_out/reference.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    raw: dict[str, list[list[dict]]] = {}
    seed = args.first_seed
    for workload in args.workload or names:
        sets: list[list[dict]] = [[] for _ in range(SETS)]
        for _ in range(RUNS):
            for runs in sets:
                runs.append(_run(workload, seed, spec["run_seconds"]))
                seed += 1
        raw[workload] = sets
        _summarise(workload, sets, spec["end_to_end"])

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "reference.json").write_text(json.dumps(raw, indent=1))
    return 0


def _summarise(workload: str, sets: list[list[dict]], metrics: list[dict]) -> None:
    print(f"== {workload}")
    for k, runs in enumerate(sets):
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"set {k + 1}: {len(runs)} runs, correct={correct},"
              f" failed {failed}/{attempted}")
    for m in metrics:
        name = m["name"]
        medians = []
        for k, runs in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            medians.append(q2)
            print(f"  {name:14s} set {k + 1}: median {q2:.6g} {m['unit']},"
                  f" Q1 {q1:.6g}, Q3 {q3:.6g}, spread {(q3 - q1) / q2:.4f}"
                  f" (bound {m['bound']})")
        for k in range(1, len(medians)):
            print(f"  {name:14s} set {k + 1} / set 1 median:"
                  f" {medians[k] / medians[0]:.4f}")


if __name__ == "__main__":
    sys.exit(main())
