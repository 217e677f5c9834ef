"""Benchmark of cubic-mds: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {acceptance,slices,lseries} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
its `src/`.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  The traced
run also writes its spans to `.bench_out/`.  See bench/README.md.

This process only starts others and collects their figures.  Each set
up is a fresh worker process, timed from its start until it reports
that `cubic_mds` is imported and the workload's warm-up request is
done; the median of SETUPS such start-ups, half before and half after
the measured phase, is `setup_s`.  The middle worker goes on to the
measured phase: whole rounds of requests until `--seconds` have
passed, then the checks.  Workers pin BLAS and OpenMP to one thread
before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("acceptance", "slices", "lseries")
SETUPS = 7
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
READY = "ready"


def _pin_threads(env) -> None:
    for var in THREAD_VARS:
        env[var] = "1"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("parent", "setup", "measure"),
                    default="parent", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ======================================================================
# worker side
# ======================================================================


def _import_program():
    """Import cubic_mds from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import cubic_mds

    origin = Path(cubic_mds.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"cubic_mds imported from {origin}, not from {src}")


def _cpu_seconds() -> float:
    import resource

    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


def _peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _worker(args) -> int:
    _pin_threads(os.environ)
    _import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workload.warmup()
    print(READY, flush=True)
    if args.role == "setup":
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    layer = "verify" if args.workload == "acceptance" else "bench"
    rng = random.Random(args.seed)
    requests, outputs, errors, op_s, round_s = [], [], [], [], []
    clock = time.perf_counter
    cpu0 = _cpu_seconds()
    t_start = clock()
    while clock() - t_start < args.seconds:
        t_round = clock()
        for request in workload.rounds(rng):
            label = workload.label(request)
            t0 = clock()
            try:
                if tracer is None:
                    out = workload.call(request)
                else:
                    out = tracer.operation(label, layer,
                                           lambda: workload.call(request))
            except Exception as exc:  # an operation that raises has failed
                out = None
                errors.append(f"{label}: {type(exc).__name__}: {exc}")
            op_s.append(clock() - t0)
            if args.workload == "acceptance" and out is not None:
                print(f"{label}: {out.elapsed:.3f} s of {out.budget:.0f} s"
                      f" budget, {'PASS' if out.passed else 'FAIL'}",
                      file=sys.stderr)
            requests.append(request)
            outputs.append(out)
        round_s.append(clock() - t_round)
    wall = clock() - t_start
    cpu = _cpu_seconds() - cpu0

    failed = 0
    rejected = 0
    for request, out in zip(requests, outputs):
        if out is None:
            failed += 1
            continue
        reason = workload.check(request, out)
        if reason is None:
            continue
        if tracer is not None and args.workload == "acceptance":
            # Tracing slows criteria towards their wall-clock budgets,
            # so a traced verdict does not count.
            print(f"traced run, not counted: {reason}", file=sys.stderr)
            continue
        failed += 1
        rejected += 1
        print(f"check failed: {reason}", file=sys.stderr)
    for line in errors:
        print(f"operation raised: {line}", file=sys.stderr)

    record = {"attempted": len(requests), "failed": failed,
              "correct": rejected == 0}
    if tracer is None:
        verified = len(requests) - failed
        waits = round_s if workload.round_is_request else op_s
        record["metrics"] = {
            "peak_rss_mb": _peak_rss_mb(),
            "ops_per_s": verified / wall,
            "ops_per_cpu_s": verified / cpu,
            "op_p50_ms": 1e3 * statistics.median(waits),
            "op_p90_ms": 1e3 * (statistics.quantiles(waits, n=10)[-1]
                                if len(waits) > 1 else waits[0]),
        }
    else:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json")
        record["metrics"] = tracing.per_layer_metrics(
            tracer, [workload.label(r) for r in requests], op_s)
    print(json.dumps(record), flush=True)
    return 0


# ======================================================================
# parent side
# ======================================================================


def _start(args, role: str) -> tuple[subprocess.Popen, float]:
    env = dict(os.environ)
    _pin_threads(env)
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=str(ROOT))
    return proc, t0


def _setup_time(proc: subprocess.Popen, t0: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != READY:
        raise RuntimeError(f"worker did not get ready (read {line!r})")
    return time.perf_counter() - t0


def _setup_only(args, procs: list, deadline: float) -> float:
    proc, t0 = _start(args, "setup")
    procs.append(proc)
    took = _setup_time(proc, t0)
    if proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
        raise RuntimeError("set-up worker failed")
    return took


def _parent(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    procs = []
    # The traced run reports no setup_s, so it starts one worker.  The
    # untraced run sets up half the time before the measured phase and
    # half after it: the machine's speed drifts in phases of seconds,
    # and two windows far apart sample more than one phase.
    extra = 0 if args.trace else SETUPS - 1
    try:
        for _ in range(extra // 2):
            setups.append(_setup_only(args, procs, deadline))
        proc, t0 = _start(args, "measure")
        procs.append(proc)
        setups.append(_setup_time(proc, t0))
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"workload worker exited {proc.returncode}")
        for _ in range(extra - extra // 2):
            setups.append(_setup_only(args, procs, deadline))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()

    record = json.loads(rest.strip().splitlines()[-1])
    if not args.trace:
        record["metrics"]["setup_s"] = statistics.median(setups)
    units = _units("per_layer" if args.trace else "end_to_end")
    if set(record["metrics"]) != set(units):
        print("benchmark failed: metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    record["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in sorted(record["metrics"].items())
    }
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def _units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role == "parent":
        return _parent(args)
    return _worker(args)


if __name__ == "__main__":
    sys.exit(main())
