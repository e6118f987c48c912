"""The benchmark's trace targets name functions that exist.

`perfbench/tracing.py` wraps each `TARGETS` entry by name; a renamed or
deleted function would only show up as `tracer.missing` in the benchmark's
own suite.  This check resolves every entry with `getattr` instead.
"""

import importlib
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(_ROOT))
    targets = importlib.import_module("perfbench.tracing").TARGETS
    assert targets
    missing = []
    for t in targets:
        module = importlib.import_module(f"qroutesim.{t.module}")
        if not callable(getattr(module, t.attr, None)):
            missing.append(f"{t.module}.{t.attr}")
    assert missing == []

