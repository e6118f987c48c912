"""Run every workload several times and write one BENCH_*.json file:

    python3 perfbench/collect.py --out perfbench/BENCH_baseline.json

Each run is a fresh ``run.py`` process with its own seed (1, 2, ...),
measuring for BENCHMARK.json's ``run_seconds``.
Untraced runs give each end-to-end metric's values, median and spread:
the interquartile range over the median.  One traced run per workload,
at the default seed, gives the per-layer metrics.  A change that claims a
gain writes its own file the same way on the same host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import DEFAULT_SEED, ROOT, SPEC, WORKLOADS

RUNS = 10


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = SPEC["run_seconds"]
    out: dict = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in range(1, RUNS + 1):
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['metrics'])}", flush=True)
        traced = run_once(workload, DEFAULT_SEED, seconds, 1)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": first["unit"], "median": statistics.median(values),
                             "spread": spread(values), "values": values}
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "failed_op_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_report": [ln for ln in traced["report"] if ln.startswith("note ")],
            "env": runs[0]["report"][1],
        }
    out["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
