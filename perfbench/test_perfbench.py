"""Self-tests of the benchmark, at tiny sizes:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, run, workloads  # noqa: E402

COUNT_UNITS = {"count", "bytes", "ratio", "calls/pass", "calls/run"}


@pytest.fixture
def out_dir():
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=scratch))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _ref_values(ops, outputs):
    return {op.name: op.ref(out) for op, out in zip(ops, outputs) if op.ref is not None}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_passes_its_checks(name, out_dir):
    result = harness.run_workload(name, 3, 0.0, False, out_dir, tiny=True, refs={},
                                  setup_probes=2)
    assert result.failures == []
    assert result.attempted >= 1 and result.failed_ops == 0
    assert len(result.setup_times) == 2
    metrics, _ = harness.end_to_end_metrics(result)
    assert set(metrics) == set(harness.units("end_to_end"))
    assert all(v > 0 for v in metrics.values())


def test_corrupted_outputs_count_as_failed_ops(out_dir):
    ops = [op for op in workloads.build_sweeps(3, out_dir, tiny=True)
           if op.name.startswith("router_counts/")]
    p = harness.run_pass(ops, None)
    assert harness.check_pass(ops, p.outputs, {}, {}) == []
    p.outputs[0] = (0, 0, 0)
    failed = harness.check_pass(ops, p.outputs, {}, {})
    assert [name for name, _ in failed] == [ops[0].name]

    ops = workloads.build_rat_single(3, out_dir, tiny=True)[:1]
    p = harness.run_pass(ops, None)
    refs = _ref_values(ops, p.outputs)
    assert harness.check_pass(ops, p.outputs, refs, {}) == []
    p.outputs[0].m_values[1] += 1e-6  # still a valid M, but not the recorded one
    failed = harness.check_pass(ops, p.outputs, refs, {})
    assert failed == [(ops[0].name, "differs from the recorded reference")]


def test_raising_op_counts_as_failed():
    def boom():
        raise ValueError("broken")

    ops = [workloads.Op("boom", boom, lambda out: [])]
    p = harness.run_pass(ops, None)
    failed = harness.check_pass(ops, p.outputs, {}, {})
    assert failed == [("boom", "ValueError: broken")]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_and_untraced_outputs_identical(name, out_dir):
    ops = workloads.WORKLOADS[name].build(5, out_dir, tiny=True)
    plain = _ref_values(ops, harness.run_pass(ops, None).outputs)
    tracer = harness.tracing.Tracer()
    traced = harness.run_pass(ops, tracer)
    assert _ref_values(ops, traced.outputs) == plain
    assert traced.spans and tracer.missing == []


def test_tracer_restores_originals():
    from qroutesim import engine, gates, rat

    before = (rat.run_circuit, engine.gate_matrix, gates.gate_matrix)
    tracer = harness.tracing.Tracer()
    tracer.install()
    assert rat.run_circuit is not before[0] and engine.gate_matrix is not before[1]
    tracer.uninstall()
    assert (rat.run_circuit, engine.gate_matrix, gates.gate_matrix) == before


@pytest.mark.parametrize("name", ["rat-single", "sweeps"])
def test_per_layer_counts_repeat(name, out_dir):
    def counts():
        result = harness.run_workload(name, 7, 0.0, True, out_dir, tiny=True, refs={})
        metrics, notes = harness.per_layer_metrics(result)
        assert notes["counts_repeat_across_traced_passes"]
        unit = harness.units("per_layer")
        return {k: v for k, v in metrics.items() if unit[k] in COUNT_UNITS}

    first = counts()
    assert set(first) >= {"engine.run_circuit.calls", "gates.gate_matrix.calls"}
    assert counts() == first


def test_self_times_subtract_children():
    spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("b", 5.0, 6.0, 0, 0),
             ("c", 2.0, 3.0, 1, 0)]
    t = harness.tracing.totals(spans)
    assert t.self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert t.calls == {"a": 1, "b": 2, "c": 1}


def test_tail_has_ten_samples_beyond():
    times = [float(i) for i in range(100)]
    assert harness.tail(times) == (89.0, 90.0)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_refuses_a_checkout_without_sources(out_dir):
    shutil.copy(ROOT / "BENCHMARK.json", out_dir)
    shutil.copytree(ROOT / "perfbench", out_dir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweeps",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=out_dir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
