"""Run one workload: set-up probes, timed passes, output checks, metrics.

A run repeats the workload's op list (a *pass*) until the next pass would
end after ``seconds``.  With ``trace`` off every pass is timed and the
end-to-end metrics are reported.  With ``trace`` on, untraced and traced
passes alternate (untraced first) and the per-layer metrics are reported;
the difference between their median walls is the tracing overhead.

Run times are host-normalised.  Other tenants of a shared host slow this
process by up to a factor of two for minutes at a time.  So between ops
the harness times a fixed kernel (`HostSpeed`) that does not touch
qroutesim, and scales every time in a pass by the kernel's baseline time
over its median time during that pass.  Set-up time is normalised the
same way, by a reference process that imports numpy and scipy but not
qroutesim.  The raw times and the factors are printed in the text report.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from perfbench import tracing
from perfbench.workloads import REF_TOL, WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"
SETUP_PROBES = 12
KERNEL_EVERY_S = 0.25
PROBE_TIMEOUT_S = 120
PROBE = ("import sys; sys.path[:0] = ['src', '.']; from perfbench import workloads; "
         "workloads.WORKLOADS[sys.argv[1]].setup()")
# the third-party imports qroutesim makes; its median time on the baseline host
REFERENCE_PROBE = "import numpy, scipy.linalg, scipy.optimize"
REFERENCE_PROBE_S = 0.79

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in SPEC[section]}


@dataclass
class OpFailure:
    text: str


@dataclass
class Pass:
    traced: bool
    wall: float
    op_times: list[float]
    outputs: list
    factor: float = 1.0  # multiply raw seconds by this to get host-normalised seconds
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)


class HostSpeed:
    """Times a fixed numpy kernel to track how fast the host runs right now.

    The kernel contracts a 9x9 map into the qutrit axes of a four-site
    density tensor: the small-array work of a single-router simulation.
    It lives here, so no change to qroutesim moves it."""

    REFERENCE_S = 0.009  # the kernel's median time on the baseline host

    def __init__(self):
        rng = np.random.default_rng(0)
        self._state = rng.standard_normal((2, 3, 2, 2) * 2) + 0j
        self._gate = rng.standard_normal((3, 3, 3, 3)) + 0j
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(300):
            t = np.tensordot(self._gate, self._state, axes=([2, 3], [1, 5]))
            t = np.moveaxis(t, 0, 3).copy()
            t *= 0.5
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= KERNEL_EVERY_S:
            self.sample()

    def factor(self, since: int) -> float:
        """Host-normalising factor from the samples taken since sample ``since``."""
        return self.REFERENCE_S / statistics.median(self.samples[since:])


def environment() -> dict:
    """Versions and thread settings recorded beside the results."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "machine": platform.machine(),
    }


def time_process(*args: str) -> float:
    """Wall seconds of a fresh ``python3 args...`` run from the checkout root.

    The wait has no timeout, so it blocks in waitpid: with a timeout,
    CPython polls with sleeps of up to 50 ms, which would round the time up.
    A timer kills a process that hangs instead."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, stdout=subprocess.DEVNULL)
    killer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def probe_setup(workload: str) -> tuple[float, float]:
    """(set-up probe, reference probe) wall seconds, run back to back.

    The probe imports qroutesim and makes the workload's first calls; the
    reference makes only its third-party imports.  Other tenants slow both
    alike, so their ratio is steadier than either time."""
    return time_process("-c", PROBE, workload), time_process("-c", REFERENCE_PROBE)


def run_pass(ops: list[Op], tracer: tracing.Tracer | None, host: HostSpeed | None = None) -> Pass:
    """Run every op once; the pass wall is the sum of the op times.

    A full collection first gives every pass the same garbage-collector
    state, so collections land on the same ops in every pass.  The host
    kernel runs at the start of the pass and between ops, untimed."""
    gc.collect()
    outputs, times = [], []
    if host is not None:
        first_sample = len(host.samples)
        host.sample()
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if host is not None:
                host.sample_if_due()
            if tracer is not None:
                tracer.op_id = i
            start = time.perf_counter()
            try:
                out = op.call()
            except Exception:  # an op that raises is a failed op, not a failed run
                out = OpFailure(traceback.format_exc(limit=3))
            times.append(time.perf_counter() - start)
            outputs.append(out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = Pass(tracer is not None, sum(times), times, outputs,
                  1.0 if host is None else host.factor(first_sample))
    if tracer is not None:
        result.spans, result.counts = tracer.take()
    return result


def _close(got: list, want: list) -> bool:
    return len(got) == len(want) and all(abs(g - w) <= REF_TOL for g, w in zip(got, want))


def load_references(seed: int) -> dict[str, list]:
    """Seed-independent references plus those recorded for ``seed``."""
    data = json.loads(REFERENCES.read_text())
    return {**data.get("any", {}), **data.get(str(seed), {})}


def check_pass(ops: list[Op], outputs: list, refs: dict, first: dict) -> list[tuple[str, str]]:
    """(op name, problem) for every failed op; ``first`` holds pass-0 values."""
    failed = []
    for op, out in zip(ops, outputs):
        if isinstance(out, OpFailure):
            failed.append((op.name, out.text.strip().splitlines()[-1]))
            continue
        try:
            problems = op.check(out)
            if op.ref is not None:
                values = op.ref(out)
                want = refs.get(op.name)
                if want is not None and not _close(values, want):
                    problems.append("differs from the recorded reference")
                if first.setdefault(op.name, values) != values:
                    problems.append("differs from the first pass")
        except Exception as exc:  # a check that cannot read the output fails the op
            problems = [f"check raised {exc!r}"]
        failed += [(op.name, p) for p in problems]
    return failed


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it; the maximum when there are fewer than 11 samples."""
    ordered = sorted(times)
    idx = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


@dataclass
class RunResult:
    passes: list[Pass]
    failures: list[tuple[str, str]]
    attempted: int
    failed_ops: int
    sim_passes: int
    missing_targets: list[str]
    setup_times: list[tuple[float, float]]


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
                 tiny: bool = False, refs: dict | None = None,
                 setup_probes: int = 0) -> RunResult:
    """Build the op list from the seed, warm up, then run passes for ``seconds``.

    ``setup_probes`` set-up probes run one after each pass, and any left
    over after the last pass, so that they sample the host over the whole
    run.  Their time does not count towards ``seconds``."""
    workload = WORKLOADS[name]
    host = HostSpeed()
    ops = workload.build(seed, out_dir, tiny=tiny)
    refs = load_references(seed) if refs is None else refs
    workload.setup()
    tracer = tracing.Tracer() if trace else None
    passes: list[Pass] = []
    failures: list[tuple[str, str]] = []
    failed_ops = 0
    first: dict = {}
    setup_times: list[tuple[float, float]] = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        p = run_pass(ops, tracer if traced else None, host)
        passes.append(p)
        bad = check_pass(ops, p.outputs, refs, first)
        failures += bad
        failed_ops += len({op_name for op_name, _ in bad})
        p.outputs = []  # checked; keep only timings and spans
        if len(setup_times) < setup_probes:
            setup_times.append(probe_setup(name))
        elapsed = time.perf_counter() - begin - sum(map(sum, setup_times))
        enough = len(passes) >= (2 if trace else 1)
        if enough and elapsed + statistics.median(q.wall for q in passes) > seconds:
            break
    while len(setup_times) < setup_probes:
        setup_times.append(probe_setup(name))
    return RunResult(passes, failures, len(ops) * len(passes), failed_ops,
                     sum(op.sim_passes for op in ops),
                     tracer.missing if tracer is not None else [], setup_times)


def end_to_end_metrics(run: RunResult) -> tuple[dict, dict]:
    """End-to-end metrics, plus notes for the text report.

    `setup_s` is the median ratio of set-up probe to reference probe, in
    seconds of the reference on the baseline host.
    The per-call times in the notes use each op's median over the passes;
    they spread too widely between runs on a shared host to carry a bound."""
    timed = [p for p in run.passes if not p.traced]
    per_op = [statistics.median(t * p.factor for t, p in zip(times, timed))
              for times in zip(*(p.op_times for p in timed))]
    tail_value, tail_pct = tail(per_op)
    metrics = {
        "setup_s": statistics.median(p / r for p, r in run.setup_times) * REFERENCE_PROBE_S,
        "wall_s": statistics.median(p.wall * p.factor for p in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "host_factors": [p.factor for p in timed],
        "raw_wall_s": statistics.median(p.wall for p in timed),
        "passes": len(timed),
        "raw_pass_walls_s": [p.wall for p in timed],
        "ops_per_pass": len(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": tail_value,
        "op_tail_percentile": round(tail_pct, 1),
        "sim_passes_per_s": run.sim_passes / metrics["wall_s"],
        "failed_op_ratio": run.failed_ops / run.attempted,
        "setup_probes_s": [p for p, _ in run.setup_times],
        "reference_probes_s": [r for _, r in run.setup_times],
    }
    return {name: metrics[name] for name in units("end_to_end")}, notes


def per_layer_metrics(run: RunResult) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes, plus notes for the report.

    Counts are per pass (every traced pass does the same work); self times
    are host-normalised seconds per traced pass."""
    traced = [p for p in run.passes if p.traced]
    untraced = [p for p in run.passes if not p.traced]
    per_pass = [tracing.totals(p.spans) for p in traced]
    first, counts = per_pass[0], traced[0].counts
    repeat = all(t.calls == first.calls for t in per_pass) and all(
        p.counts == counts for p in traced)
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for p, t in zip(traced, per_pass):
        self_s.update({k: v * p.factor for k, v in t.self_s.items()})
        total_s.update({k: v * p.factor for k, v in t.total_s.items()})

    calls = Counter(first.calls)
    calls["engine.run_circuit"] = calls["engine.run_circuit.pure"] + calls["engine.run_circuit.mixed"]
    self_s["engine.run_circuit"] = self_s["engine.run_circuit.pure"] + self_s["engine.run_circuit.mixed"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for metric in units("per_layer"):
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            m[metric] = calls[span]
        elif kind == "self_s":
            m[metric] = self_s[span] / len(traced)
    m["engine.calls_per_sim_pass"] = ratio(calls["engine.run_circuit"], run.sim_passes)
    m["gates.gate_matrix.per_run"] = ratio(calls["gates.gate_matrix"], calls["engine.run_circuit"])
    m["gates.serialize.bytes"] = counts["gates.serialize.bytes"]
    hits, misses = counts["noise.transfer_cache.hits"], counts["noise.transfer_cache.misses"]
    m["noise.transfer_cache.hit_ratio"] = ratio(hits, hits + misses)
    m["protocols.nelder_mead.iterations"] = counts["protocols.nelder_mead.iterations"]
    m["fitting.nfev"] = counts["fitting.nfev"]
    m["fitting.converged_ratio"] = ratio(counts["fitting.converged"], calls["fitting.least_squares"])
    m["network.gates_compiled"] = counts["network.gates_compiled"]
    m["network.compile_query.gates_per_s"] = ratio(
        counts["network.gates_compiled"] * len(traced), total_s["network.compile_query"])
    m["layout.exhausted_ratio"] = ratio(counts["layout.exhausted"], calls["layout.best_layout"])
    m["cli.bytes_written"] = counts["cli.bytes_written"]
    m["sim_passes"] = run.sim_passes
    m["failed_op_ratio"] = run.failed_ops / run.attempted
    m["trace.spans"] = len(traced[0].spans)
    traced_median = statistics.median(p.wall * p.factor for p in traced)
    m["trace.wall_s"] = traced_median
    m["trace.overhead_s"] = traced_median - statistics.median(p.wall * p.factor for p in untraced)
    notes = {
        "host_factors": [p.factor for p in run.passes],
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "counts_repeat_across_traced_passes": repeat,
        "missing_targets": run.missing_targets,
    }
    if not hits + misses:
        notes["noise.transfer_cache"] = "no lookups seen (or qroutesim.noise._transfer_cached is gone)"
    return {name: m[name] for name in units("per_layer")}, notes


def main(args) -> int:
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_dir,
                           setup_probes=0 if args.trace else SETUP_PROBES)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            scratch.rmdir()
    for op_name, problem in run.failures[:20]:
        print(f"FAILED {op_name}: {problem}")
    if args.trace:
        metrics, notes = per_layer_metrics(run)
        unit = units("per_layer")
    else:
        metrics, notes = end_to_end_metrics(run)
        unit = units("end_to_end")
    for key, value in notes.items():
        print(f"note {key} = {json.dumps(value) if not isinstance(value, str) else value}")
    for key, value in metrics.items():
        print(f"metric {key} = {value:.6g} {unit[key]}")
    result = {
        "correct": run.failed_ops == 0,
        "attempted": run.attempted,
        "failed": run.failed_ops,
        "metrics": {k: {"value": float(v) if not isinstance(v, int) else v, "unit": unit[k]}
                    for k, v in metrics.items()},
    }
    if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
        print("perfbench: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0
