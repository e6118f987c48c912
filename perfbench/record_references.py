"""Record the outputs the benchmark's reference checks compare with:

    python3 perfbench/record_references.py

Runs one pass of every workload for each shipped seed and writes
``references.json``: values of seeded ops under their seed, all others
under ``"any"``.  Re-record only for a change that is meant to alter
outputs, and say so in the change.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import DEFAULT_SEED, ROOT, prepare

HELD_OUT_SEED = 1


def main() -> int:
    if not prepare():
        print("no qroutesim sources", file=sys.stderr)
        return 2
    from perfbench import harness, workloads

    data: dict[str, dict] = {"any": {}}
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        seeded = data.setdefault(str(seed), {})
        for name, workload in workloads.WORKLOADS.items():
            out_dir = tempfile.mkdtemp(dir=scratch)
            try:
                ops = workload.build(seed, Path(out_dir))
                p = harness.run_pass(ops, None)
                failures = harness.check_pass(ops, p.outputs, {}, {})
                if failures:
                    print(f"{name} seed {seed}: {failures}", file=sys.stderr)
                    return 1
                for op, out in zip(ops, p.outputs):
                    if op.ref is None:
                        continue
                    values = op.ref(out)
                    if not op.seeded and data["any"].setdefault(op.name, values) != values:
                        print(f"{op.name} depends on the seed but is not marked seeded",
                              file=sys.stderr)
                        return 1
                    if op.seeded:
                        seeded[op.name] = values
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            print(f"recorded {name} seed {seed}", flush=True)
    with contextlib.suppress(OSError):  # another run may still use it
        scratch.rmdir()
    harness.REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
