"""Interleaved parent/change pairs of bench/run.py, summarised.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pr N \\
        --first-seed S [--pairs 10] [--workload W ...] [--claim W:METRIC]

DIR is a full source checkout (a `git archive` of a commit will do).
Each pair runs `python3 bench/run.py --workload W --seed S --seconds T
--trace 0` once from each checkout, one after the other, with T the
`run_seconds` of BENCHMARK.json; the change runs first on odd seeds and
the parent on even ones, so a drift of the machine's speed does not
favour one side.  Seeds count up from --first-seed across workloads.

Writes BENCH_<N>.json into the change checkout: per workload and
end-to-end metric, each side's median and quartiles
(`statistics.quantiles`, n=4), `change_wins` (pairs in which the change
reads better) and `change_worse_by` (relative change of the median,
signed so that positive is worse), and each pair's figures.  On
`acceptance` a pair also records `first_pass_s`, the summed elapsed
time of the criteria of the run's first pass, read from the lines
run.py prints to stderr, and `first_pass_criteria_s`, each criterion's
share of it; the block gives each side's median per criterion.  The raw
records go to `.bench_out/pairs-<N>.json` after every pair;
`--from-raw FILE` summarises such a file without running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

# Figures copied into per_pair, next to first_pass_s on acceptance.
PAIR_FIGURES = ("ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb",
                "setup_s")
CRITERION_LINE = re.compile(r"^criterion_(\d+): ([0-9.]+) s of ")
PROTOCOL = (
    "python3 bench/run.py --workload W --seed S --seconds {seconds} "
    "--trace 0, parent and change each from its own full checkout, one "
    "after the other in every pair, the change first on odd seeds; "
    "medians and quartiles (statistics.quantiles, n=4) over each side's "
    "runs; change_wins counts the pairs in which the change reads "
    "better; change_worse_by is the relative change of the median, "
    "signed so that positive is worse; per_pair lists each pair's "
    "figures and which side ran first (tools/bench_pairs.py)"
)


def first_pass_criteria(stderr: str) -> dict[str, float]:
    """Elapsed time of each criterion of the first pass, by its number:
    the lines up to the first repeat of a criterion number."""
    times: dict[str, float] = {}
    for line in stderr.splitlines():
        match = CRITERION_LINE.match(line)
        if not match:
            continue
        if match.group(1) in times:
            break
        times[match.group(1)] = float(match.group(2))
    return times


def first_pass_s(stderr: str) -> float | None:
    """Summed elapsed time of the criteria of the first pass."""
    times = first_pass_criteria(stderr)
    return round(sum(times.values()), 3) if times else None


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced bench/run.py run from `checkout`, as a flat record."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(checkout), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{checkout}: {workload} seed {seed} exited {proc.returncode}: "
            f"{proc.stderr.strip().splitlines()[-1:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }
    if workload == "acceptance":
        record["first_pass_s"] = first_pass_s(proc.stderr)
        record["first_pass_criteria_s"] = first_pass_criteria(proc.stderr)
    return record


def run_pair(parent: Path, change: Path, workload: str, seed: int,
             seconds: float) -> dict:
    first = "change" if seed % 2 else "parent"
    sides = {"parent": parent, "change": change}
    order = (first, "parent" if first == "change" else "change")
    pair = {"seed": seed, "first": first}
    for side in order:
        pair[side] = run_once(sides[side], workload, seed, seconds)
    return pair


def _side_stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": round(statistics.median(values), 6),
            "q1": round(q1, 6), "q3": round(q3, 6)}


def _worse_by(parent: float, change: float, better: str) -> float:
    delta = (change - parent) if better == "lower" else (parent - change)
    return round(delta / parent, 4)


def summarise(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """One workload's block of BENCH_<N>.json from its pair records."""
    seeds = [p["seed"] for p in pairs]
    block = {"seeds": f"{min(seeds)}-{max(seeds)}", "pairs": len(pairs),
             "metrics": {}}
    for spec in end_to_end:
        name, better = spec["name"], spec["better"]
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(par, chg))
        parent_stats, change_stats = _side_stats(par), _side_stats(chg)
        block["metrics"][name] = {
            "unit": spec["unit"], "better": better, "bound": spec["bound"],
            "parent": parent_stats, "change": change_stats,
            "change_wins": f"{wins} of {len(pairs)}",
            "change_worse_by": _worse_by(parent_stats["median"],
                                         change_stats["median"], better),
        }
    for side in ("parent", "change"):
        block[f"{side}_attempted"] = sum(p[side]["attempted"] for p in pairs)
        block[f"{side}_failed"] = sum(p[side]["failed"] for p in pairs)
        block[f"{side}_correct"] = all(p[side]["correct"] for p in pairs)
    block["per_pair"] = {}
    for p in pairs:
        entry = {"first": p["first"]}
        for side in ("parent", "change"):
            figures = {k: round(p[side]["metrics"][k], 4)
                       for k in PAIR_FIGURES}
            if p[side].get("first_pass_s") is not None:
                figures["first_pass_s"] = p[side]["first_pass_s"]
            if p[side].get("first_pass_criteria_s"):
                figures["first_pass_criteria_s"] = p[side][
                    "first_pass_criteria_s"]
            entry[side] = figures
        block["per_pair"][str(p["seed"])] = entry
    criteria = {}
    for side in ("parent", "change"):
        runs = [p[side]["first_pass_criteria_s"] for p in pairs
                if p[side].get("first_pass_criteria_s")]
        if runs:
            criteria[side] = {
                k: round(statistics.median(r[k] for r in runs if k in r), 3)
                for k in sorted({k for r in runs for k in r})}
    if criteria:
        block["first_pass_criteria_s_median"] = criteria
    return block


def claim(block: dict, workload: str, metric: str) -> dict:
    """Is `metric` better on at least nine in ten pairs, and in the
    median by more than the parent's interquartile range?"""
    m = block["metrics"][metric]
    parent, change = m["parent"]["median"], m["change"]["median"]
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    wins = int(m["change_wins"].split()[0])
    gain = (change - parent) if m["better"] == "higher" else (parent - change)
    return {
        "metric": f"{workload} {metric}",
        "parent_median": parent, "change_median": change,
        "parent_iqr": round(iqr, 6), "change_wins": m["change_wins"],
        "ratio": round(change / parent, 4),
        "met": wins * 10 >= 9 * block["pairs"] and gain > iqr,
    }


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="parent checkout")
    ap.add_argument("--change", type=Path, default=Path("."),
                    help="change checkout; BENCH_<N>.json is written here")
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--parent-commit", default="",
                    help="short hash of the parent, for the record")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC",
                    help="the one end-to-end figure the change claims")
    ap.add_argument("--from-raw", type=Path,
                    help="summarise this pairs file instead of running")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    change = args.change.resolve()
    spec = json.loads((change / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    if args.from_raw:
        raw = json.loads(args.from_raw.read_text())
    else:
        if args.parent is None:
            raise SystemExit("--parent is required unless --from-raw")
        raw = {}
        raw_path = change / ".bench_out" / f"pairs-{args.pr}.json"
        raw_path.parent.mkdir(exist_ok=True)
        seed = args.first_seed
        for workload in names:
            raw[workload] = []
            for _ in range(args.pairs):
                pair = run_pair(args.parent.resolve(), change, workload, seed,
                                spec["run_seconds"])
                raw[workload].append(pair)
                raw_path.write_text(json.dumps(raw, indent=1))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['ops_per_s']:.4g} ops/s"
                    for side in ("parent", "change")), file=sys.stderr)
                seed += 1

    doc = {
        "parent_commit": args.parent_commit,
        "machine": {"os_cpu_count": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": version("numpy")},
        "protocol": PROTOCOL.format(seconds=spec["run_seconds"]),
        "workloads": {w: summarise(raw[w], spec["end_to_end"])
                      for w in names if raw.get(w)},
        "claim": None,
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        doc["claim"] = claim(doc["workloads"][workload], workload, metric)
    out = change / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
