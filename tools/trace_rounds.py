"""Per-layer metrics of a fixed number of traced request rounds.

    python3 tools/trace_rounds.py --checkout DIR --workload W --seed S \\
        --rounds R

`bench/run.py --trace 1` runs for a set time, so its counts grow with the
speed of the checkout.  This runs exactly R rounds of the seeded workload
in one process instead, so the counts of two checkouts (Hurwitz points,
L-value calls, characters built) must repeat exactly, and their self
times compare over the same requests.  It imports the program, the
tracer and the workloads of DIR, runs the warm-up untraced, then the R
rounds under the tracer, checks every output, and prints one JSON
object: the requests, the failed checks, the summed time of the
requests (checks excluded) and every per-layer metric of
`bench/tracer.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, default=Path("."))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workload.warmup()
    tracer = tracing.Tracer()
    tracer.install()
    rng = random.Random(args.seed)
    labels, op_s, failed = [], [], 0
    for _ in range(args.rounds):
        for request in workload.rounds(rng):
            label = workload.label(request)
            start = time.perf_counter()
            out = tracer.operation(label, "bench",
                                   lambda: workload.call(request))
            op_s.append(time.perf_counter() - start)
            failed += workload.check(request, out) is not None
            labels.append(label)
    print(json.dumps({
        "requests": len(labels), "failed": failed,
        "requests_s": round(sum(op_s), 4),
        "metrics": tracing.per_layer_metrics(tracer, labels, op_s),
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
