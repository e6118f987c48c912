"""Benchmark entry point; run it from the root of a checkout:

    python3 perfbench/run.py --workload rat-single --seed 2024 --seconds 32 --trace 0

Prints a text report, then one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Exits 2 when the checkout has no
qroutesim sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 2024
# one process, one thread: pinned before numpy is first imported
BLAS_THREADS = "1"


def prepare() -> bool:
    """Pin BLAS threads and put the checkout's sources first on sys.path.

    Returns False when the checkout has no qroutesim sources."""
    if not (ROOT / "src" / "qroutesim" / "__init__.py").is_file():
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("QROUTESIM_OUTDIR", None)  # the CLI would let it override --out-dir
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare():
        print(f"perfbench: no qroutesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
