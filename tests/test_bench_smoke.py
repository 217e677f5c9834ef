"""The benchmark harness in bench/ against this program.

One short traced pass of what `bench/run.py` does: install the tracer,
warm every workload up, run the first request of `slices` and of
`lseries`, check their outputs and take the per-layer metrics.  It runs
in a subprocess, so the tracer's patching of `cubic_mds` cannot leak
into the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, random, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer, workloads

t = tracer.Tracer()
t.install()
for workload in workloads.WORKLOADS.values():
    workload.warmup()
labels, verdicts = [], {}
for name in ("slices", "lseries"):
    workload = workloads.WORKLOADS[name]
    request = workload.rounds(random.Random(0))[0]
    label = workload.label(request)
    out = t.operation(label, "bench", lambda: workload.call(request))
    verdicts[name] = workload.check(request, out)
    labels.append(label)
metrics = tracer.per_layer_metrics(t, labels, [0.0] * len(labels))
print(json.dumps({"verdicts": verdicts, "metrics": sorted(metrics)}))
"""


def test_bench_harness_runs_traced_requests():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["verdicts"] == {"slices": None, "lseries": None}
    assert len(record["metrics"]) == 34
