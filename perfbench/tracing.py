"""Spans around the public functions of each `qroutesim` layer.

`Tracer.install` wraps each target both where it is defined and under every
name another `qroutesim` module imported it as (for example
``qroutesim.rat.run_circuit``), so calls between layers are seen too.
`Tracer.uninstall` puts the originals back, which lets one process
alternate traced and untraced passes.

Every call records a span ``(name, start, end, parent, op)`` in memory.
A span's self time is its duration minus that of its direct children.
Hooks read counts from arguments and results at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


def _run_circuit_span(args, kwargs) -> str:
    state = args[0] if args else kwargs["state"]
    noise = args[2] if len(args) > 2 else kwargs.get("noise")
    return "engine.run_circuit.pure" if noise is None and state.is_pure else "engine.run_circuit.mixed"


def _count_dumps(counts, args, kwargs, result) -> None:
    counts["gates.serialize.bytes"] += len(result)


def _count_loads(counts, args, kwargs, result) -> None:
    counts["gates.serialize.bytes"] += len(args[0] if args else kwargs["text"])


def _count_fit(counts, args, kwargs, result) -> None:
    counts["fitting.nfev"] += result.iterations
    counts["fitting.converged"] += int(result.converged)


def _count_nelder_mead(counts, args, kwargs, result) -> None:
    counts["protocols.nelder_mead.iterations"] += result.iterations


def _count_compile(counts, args, kwargs, result) -> None:
    counts["network.gates_compiled"] += len(result.circuit.gates())


def _count_best_layout(counts, args, kwargs, result) -> None:
    counts["layout.exhausted"] += int(result[2].get("reason") == "search exhausted")


def _count_cli_bytes(counts, args, kwargs, result) -> None:
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out-dir" in argv:
        out = Path(argv[argv.index("--out-dir") + 1])
        counts["cli.bytes_written"] += sum(p.stat().st_size for p in out.iterdir() if p.is_file())


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    span: str | Callable[[tuple, dict], str]
    hook: Callable[[Counter, tuple, dict, Any], None] | None = None


TARGETS = [
    *(Target("qudit", f, f"qudit.{f}")
      for f in ("apply_gate", "apply_channel", "postselect", "partial_trace", "populations")),
    Target("gates", "gate_matrix", "gates.gate_matrix"),
    *(Target("gates", f, "gates.build")
      for f in ("qrouter_circuit", "sp_qrouter_circuit", "clifford_qrouter_circuit",
                "cswap_sequence", "sp_cswap_sequence", "circuit_unitary")),
    Target("gates", "dumps_circuit", "gates.serialize", _count_dumps),
    Target("gates", "loads_circuit", "gates.serialize", _count_loads),
    *(Target("noise", f, "noise.channel")
      for f in ("qutrit_channel", "qubit_transfer", "apply_noise_step")),
    Target("engine", "run_circuit", _run_circuit_span),
    *(Target("protocols", f, f"protocols.{f}")
      for f in ("theta_scan", "phi_scan", "qst", "floquet_cost")),
    Target("protocols", "nelder_mead", "protocols.nelder_mead", _count_nelder_mead),
    *(Target("rat", f, f"rat.{f}") for f in ("rat_single", "fit_rat")),
    Target("fitting", "least_squares", "fitting.least_squares", _count_fit),
    Target("network", "compile_query", "network.compile_query", _count_compile),
    Target("network", "two_layer_landscape", "network.two_layer_landscape"),
    Target("layout", "best_layout", "layout.best_layout", _count_best_layout),
    Target("layout", "grow_layout", "layout.grow_layout"),
    Target("cli", "main", "cli.main", _count_cli_bytes),
]


def _transfer_cache_info():
    """`cache_info()` of the noise transfer-matrix cache, or None if gone."""
    noise = importlib.import_module("qroutesim.noise")
    info = getattr(getattr(noise, "_transfer_cached", None), "cache_info", None)
    return info() if info else None


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._cache_before = None

    def _wrap(self, fn, target: Target):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        span, hook = target.span, target.hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span if isinstance(span, str) else span(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qroutesim" or name.startswith("qroutesim."))]
        self.missing = []
        for target in TARGETS:
            home = importlib.import_module(f"qroutesim.{target.module}")
            original = getattr(home, target.attr, None)
            if original is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(original, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        self._cache_before = _transfer_cache_info()

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        before, after = self._cache_before, _transfer_cache_info()
        if before is not None and after is not None:
            self.counts["noise.transfer_cache.hits"] += after.hits - before.hits
            self.counts["noise.transfer_cache.misses"] += after.misses - before.misses

    def take(self) -> tuple[list[tuple], Counter]:
        """Hand over and forget the spans and counts recorded so far.

        Parent indices point into the returned list."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


@dataclass
class SpanTotals:
    calls: Counter
    self_s: dict[str, float]
    total_s: dict[str, float]


def totals(spans: list[tuple]) -> SpanTotals:
    """Calls, self seconds and inclusive seconds per span name."""
    child = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = SpanTotals(Counter(), defaultdict(float), defaultdict(float))
    for idx, (name, start, end, _, _) in enumerate(spans):
        out.calls[name] += 1
        out.self_s[name] += end - start - child[idx]
        out.total_s[name] += end - start
    return out
