"""Time the two routes of `completed_Lambda` per conductor.

    python3 tools/lambda_routes.py [--checkout DIR] [--seed 29] [--reps 8]

For each conductor of a fixed ladder, and each shape of psi_n's conductor
(n for n = 3 mod 4, 4n for n = 1 mod 4), takes the least admissible n
(odd, squarefree, prime to 3) whose conductor reaches it, and evaluates
Lambda at `--reps` seeded points s, drawn as the `lseries` benchmark
draws them (0.05 <= Re s <= 0.95, |Im s| <= 10).  Each point is timed
once by the Hurwitz route (`lfunc._Lambda_hurwitz`, its block memo
cleared first, so no evaluation reuses another's) and once by the
approximate functional equation (`afe._Lambda_afe`).  Prints one row
per conductor: the median of each route in ms, their ratio, and the
worst relative gap between the routes.  `lfunc._AFE_MIN_CONDUCTOR`
quotes this table.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time
from pathlib import Path

LADDER = (500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 5000, 6000,
          8000, 12000, 16000, 24000)


def least_n(conductor: int, shape: int, arith) -> int:
    """The least n = shape mod 4, odd, squarefree and prime to 3, whose
    conductor (n or 4n) is at least `conductor`."""
    n = conductor if shape == 3 else -(-conductor // 4)
    while n % 4 != shape or n % 3 == 0 or not arith.is_squarefree(n):
        n += 1
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, default=Path("."))
    ap.add_argument("--seed", type=int, default=29)
    ap.add_argument("--reps", type=int, default=8)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from cubic_mds import afe, arith, lfunc

    rng = random.Random(args.seed)
    afe._Lambda_afe(5, 0.3 + 2j)  # warm the imports and caches
    lfunc._Lambda_hurwitz(5, 0.3 + 2j)
    print(f"{'conductor':>9} {'n':>6} {'hurwitz_ms':>10} {'afe_ms':>7}"
          f" {'afe/hurwitz':>11} {'worst_rel':>9}")
    for target in LADDER:
        for shape in (3, 1):
            n = least_n(target, shape, arith)
            hurwitz_s, afe_s, worst = [], [], 0.0
            for _ in range(args.reps):
                s = complex(rng.uniform(0.05, 0.95), rng.uniform(-10.0, 10.0))
                lfunc._hurwitz_memo.cache_clear()
                start = time.perf_counter()
                want = lfunc._Lambda_hurwitz(n, s)
                hurwitz_s.append(time.perf_counter() - start)
                start = time.perf_counter()
                got = afe._Lambda_afe(n, s)
                afe_s.append(time.perf_counter() - start)
                worst = max(worst, abs(got - want) / abs(want))
            h, a = statistics.median(hurwitz_s), statistics.median(afe_s)
            print(f"{afe._lambda_conductor(n):>9} {n:>6} {h * 1e3:>10.2f}"
                  f" {a * 1e3:>7.2f} {a / h:>11.2f} {worst:>9.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
