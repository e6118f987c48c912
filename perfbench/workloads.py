"""The benchmark's workloads, built from a seed as fixed lists of ops.

An op is one public `qroutesim` call plus the checks on its output.  A
workload's op list is one *pass*; the harness repeats the pass for the
run's duration, so every pass does identical work on identical inputs.

Every generated input comes from the workload seed: RAT per-call seeds,
QST angles and shot seed, landscape angles, the Floquet optimiser's start,
compile data bits and lattice defect sets.  Nothing here reads the clock.

Checks come in two kinds.  Law checks hold for any seed (routing laws,
exact-QST fidelity, router tallies, round trips, layout validity).
Reference checks compare seeded outputs with values recorded in
``references.json`` for the shipped seeds, to ``REF_TOL``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qroutesim import cli, gates, layout, network, protocols, rat
from qroutesim.errors import IncompatibleMode
from qroutesim.noise import LeakageSpec, NoiseModel, reference_rates

REF_TOL = 1e-9
LAW_TOL = 1e-9


@dataclass
class Op:
    """One timed public call.

    ``check`` returns a list of problems (empty when the output is right);
    ``ref`` reduces the output to the numbers compared against the recorded
    references and between passes; ``seeded`` says whether those numbers
    depend on the workload seed; ``sim_passes`` counts modelled router
    passes, from the inputs.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    ref: Callable[[Any], list] | None = None
    seeded: bool = False
    sim_passes: int = 0


@dataclass
class Workload:
    name: str
    why: str
    build: Callable[..., list[Op]]
    setup: Callable[[], None]


def _problems(cond: bool, text: str) -> list[str]:
    return [] if cond else [text]


def _in_unit_interval(values, what: str) -> list[str]:
    arr = np.asarray(values, dtype=float)
    ok = arr.size > 0 and np.all(np.isfinite(arr)) and arr.min() >= -LAW_TOL and arr.max() <= 1 + LAW_TOL
    return _problems(bool(ok), f"{what} outside [0, 1]")


# --- rat-single ---------------------------------------------------------------


def _rat_checks(depths: int):
    def check(r) -> list[str]:
        out = _problems(len(r.m_values) == depths, f"{len(r.m_values)} depths, want {depths}")
        out += _in_unit_interval(r.m_values, "M")
        out += _in_unit_interval([r.fit[2]], "F_RAT")
        return out

    return check


def _rat_ref(r) -> list:
    return [*map(float, r.m_values), *map(float, r.fit)]


def _seed_stream(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def build_rat_single(seed: int, out_dir: Path, tiny: bool = False) -> list[Op]:
    n_max = 3 if tiny else 30
    configs = [(scheme, leak) for scheme in ("eraser", "non-eraser")
               for leak in (0.0, rat.REFERENCE_LEAK_DELTA_THETA)]
    calls_per_config = 1 if tiny else 2
    seeds = _seed_stream(seed, len(configs) * calls_per_config)
    ops = []
    for k, call_seed in enumerate(seeds):
        scheme, leak = configs[k % len(configs)]
        noise = NoiseModel(reference_rates(), LeakageSpec(leak))
        ops.append(Op(
            name=f"rat_single/{scheme}/dtheta={leak}/{k // len(configs)}",
            call=lambda s=scheme, nm=noise, cs=call_seed: rat.rat_single(
                n_max, s, nm, trials=1, seed=cs),
            check=_rat_checks(n_max + 1),
            ref=_rat_ref,
            seeded=True,
            sim_passes=(n_max + 1) ** 2,
        ))
    return ops


def setup_rat_single() -> None:
    rat.rat_single(2, "eraser", NoiseModel(reference_rates()), trials=1, seed=0)


# --- sweeps -------------------------------------------------------------------


def _cli_call(argv: list[str], out_dir: Path):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out-dir", str(out_dir)])
        return code, out.getvalue(), out_dir

    return call


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    return {h: body[:, i] for i, h in enumerate(header)}


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _cli_ok(result) -> list[str]:
    code, _, _ = result
    return _problems(code == 0, f"exit code {code}")


def _theta_check(noisy: bool):
    def check(result) -> list[str]:
        out = _cli_ok(result)
        if out:
            return out
        t = _read_csv(result[2] / "theta_scan.csv")
        out += _in_unit_interval(np.concatenate([t["p_left"], t["p_right"], t["p_input"]]),
                                 "theta-scan populations")
        total = t["p_left"] + t["p_right"] + t["p_input"]
        out += _problems(bool(np.all(total <= 1 + LAW_TOL)), "path populations exceed 1")
        if not noisy:
            dev = np.abs(t["p_left"] - np.sin(t["theta"]) ** 2).max()
            out += _problems(dev < LAW_TOL, f"P_L deviates from sin^2(theta) by {dev:.3g}")
        return out

    return check


def _phi_check(noisy: bool):
    def check(result) -> list[str]:
        out = _cli_ok(result)
        if out:
            return out
        t = _read_csv(result[2] / "phi_scan.csv")
        out += _in_unit_interval(np.concatenate([t["p_odd"], t["p_even"]]), "parities")
        if not noisy:
            phi0 = _read_json(result[2] / "phi_scan.json")["phi0"]
            law = (1 - np.sin(t["phi"] + phi0)) / 2
            dev = np.abs(t["p_odd"] - law).max()
            out += _problems(dev < LAW_TOL, f"P_odd deviates from the phi law by {dev:.3g}")
        return out

    return check


def _csv_sums(name: str):
    """Column sums of a CLI table: a compact fingerprint for the references."""

    def ref(result) -> list:
        return [float(v.sum()) for v in _read_csv(result[2] / name).values()]

    return ref


def _qst_check(method: str):
    def check(result) -> list[str]:
        out = _cli_ok(result)
        if out:
            return out
        fid = _read_json(result[2] / "qst.json")["fidelity"]
        if method == "exact":
            return _problems(abs(fid - 1.0) < LAW_TOL, f"exact QST fidelity {fid!r}")
        t = _read_csv(result[2] / "qst.csv")
        n = int(t["row"].max()) + 1
        rho = (t["re"] + 1j * t["im"]).reshape(n, n)
        out += _problems(np.abs(rho - rho.conj().T).max() < LAW_TOL, "estimate not Hermitian")
        out += _problems(abs(np.trace(rho) - 1) < LAW_TOL, "estimate trace is not 1")
        if method == "mle":
            out += _problems(np.linalg.eigvalsh(rho).min() > -LAW_TOL, "MLE estimate not PSD")
            out += _in_unit_interval([fid], "MLE fidelity")
        return out

    return check


def _json_ref(name: str, *keys: str):
    def ref(result) -> list:
        data = _read_json(result[2] / name)
        return [float(data[k]) for k in keys]

    return ref


def _floquet_check(noisy: bool):
    def check(result) -> list[str]:
        out = _cli_ok(result)
        if out:
            return out
        cost = _read_json(result[2] / "floquet.json")["cost"]
        if noisy:
            return _problems(0.0 < cost < 1.0, f"noisy Floquet cost {cost!r}")
        return _problems(abs(cost - 1.0) < LAW_TOL, f"noiseless Floquet cost {cost!r}")

    return check


def _noise_curves_check(result) -> list[str]:
    out = _cli_ok(result)
    if out:
        return out
    t = _read_csv(result[2] / "noise_curves.csv")
    law = np.exp(-2.0 * reference_rates().gamma10 * t["t_us"])
    dev = np.abs(t["a110"] - law).max()
    return _problems(dev < LAW_TOL, f"a110 deviates from exp(-2 G10 t) by {dev:.3g}")


def _floquet_neg_cost(x) -> float:
    theta = min(max(x[0], 0.5 * math.pi), 1.5 * math.pi)
    return -protocols.floquet_cost(protocols.FloquetParams(theta), m=6).value


def _landscape_check(t1s, t2s):
    s1, s2 = np.sin(t1s)[:, None] ** 2, np.sin(t2s)[None, :] ** 2
    law = np.stack([s1 * s2, s1 * (1 - s2), (1 - s1) * s2, (1 - s1) * (1 - s2)], axis=-1)

    def check(surf) -> list[str]:
        dev = np.abs(surf - law).max()
        return _problems(dev < LAW_TOL, f"landscape deviates from the product law by {dev:.3g}")

    return check


def build_sweeps(seed: int, out_dir: Path, tiny: bool = False) -> list[Op]:
    """README experiments through the CLI, plus the Floquet optimiser and a
    landscape.  Each CLI op writes into its own subdirectory of ``out_dir``."""
    rng = np.random.default_rng(seed)
    grid = ["--grid-points", "11" if tiny else "101"]
    ops: list[Op] = []

    def cli_op(name, argv, check, ref=None, seeded=False, sim_passes=0):
        ops.append(Op(name, _cli_call(argv, out_dir / f"op{len(ops):02d}"), check, ref,
                      seeded, sim_passes))

    points = int(grid[1])
    for scheme in ("eraser", "non-eraser"):
        for noisy in (False, True):
            flag = ["--noisy"] if noisy else []
            cli_op(f"theta-scan/{scheme}/noisy={noisy}",
                   ["theta-scan", "--scheme", scheme, *grid, *flag],
                   _theta_check(noisy), _csv_sums("theta_scan.csv"), sim_passes=points)
            cli_op(f"phi-scan/{scheme}/noisy={noisy}",
                   ["phi-scan", "--scheme", scheme, *grid, *flag],
                   _phi_check(noisy), _csv_sums("phi_scan.csv"), sim_passes=points)
    theta, phi = float(rng.uniform(0.0, math.pi / 2)), float(rng.uniform(0.0, 2 * math.pi))
    shot_seed = int(rng.integers(0, 2**31))
    for method, extra in (("exact", []),
                          ("linear-inversion", ["--shots", "2000", "--seed", str(shot_seed)])):
        cli_op(f"qst/{method}",
               ["qst", "--theta", repr(theta), "--phi", repr(phi), "--method", method, *extra],
               _qst_check(method), _json_ref("qst.json", "fidelity"), seeded=True, sim_passes=1)
    if not tiny:
        # MLE on noisy exact probabilities at the README's angle: on pure or
        # sampled inputs it stops with "did not converge" (see README.md),
        # and its iteration count, so its cost, moves with the angle
        cli_op("qst/mle", ["qst", "--theta", "0.785398", "--method", "mle", "--noisy"],
               _qst_check("mle"), _json_ref("qst.json", "fidelity"), sim_passes=1)
    for noisy in (False, True):
        cli_op(f"floquet/noisy={noisy}", ["floquet", *(["--noisy"] if noisy else [])],
               _floquet_check(noisy), _json_ref("floquet.json", "cost"))
    cli_op("noise-curves", ["noise-curves", *grid], _noise_curves_check,
           _json_ref("noise_curves.json", "balance_point_us"))

    start = float(rng.uniform(0.9, 0.98)) * math.pi
    ops.append(Op(
        "nelder_mead/floquet-theta",
        lambda: protocols.nelder_mead(_floquet_neg_cost, [start], step=0.02,
                                      max_iter=300, tol=1e-14),
        lambda r: _problems(abs(r.x[0] - math.pi) < 1e-3, f"recovered theta {r.x[0]!r}"),
        lambda r: [float(r.x[0]), float(r.value), int(r.iterations)],
        seeded=True,
    ))

    size = (2, 2) if tiny else (3, 3)
    t1s = np.sort(rng.uniform(0.0, math.pi / 2, size[0]))
    t2s = np.sort(rng.uniform(0.0, math.pi / 2, size[1]))
    ops.append(Op(
        "two_layer_landscape",
        lambda: network.two_layer_landscape(t1s, t2s, "eraser"),
        _landscape_check(t1s, t2s),
        lambda surf: [float(v) for v in surf.ravel()],
        seeded=True,
        sim_passes=3 * t1s.size * t2s.size,
    ))
    return ops + _network_ops(rng, tiny)


def setup_sweeps() -> None:
    protocols.theta_scan([0.3], "eraser", NoiseModel(reference_rates()))
    protocols.qst(protocols.AddressState(math.pi / 4, 0.0, "02"), "eraser",
                  method="linear-inversion", shots=10, seed=0)
    cli.build_parser()
    q = network.compile_query(network.build_tree(2), "full", "tcg-eraser")
    gates.loads_circuit(gates.dumps_circuit(q.circuit))
    layout.best_layout(layout.GridSpec(12, 6), 3)


# --- sweeps: compilation and layout -------------------------------------------

ROUTER_TALLIES = {"clifford": (20, 16, 30), "tcg-non-eraser": (2, 6, 8), "tcg-eraser": (6, 6, 12)}


def _compile_check(tree, mode: str, scheme: str, bits: list[int]):
    def check(q) -> list[str]:
        if scheme == "sp-tcg" and mode == "full":
            return _problems(isinstance(q, IncompatibleMode), f"sp-tcg full gave {q!r}")
        out = _problems(tuple(q.counts) == network.gate_counts(q.circuit), "counts disagree")
        out += _problems(network.dependency_depth(q.circuit) <= q.counts[2],
                         "depth below the dependency bound")
        leaf_bits = {g.sites[0]: g.param("bit") for g in q.circuit.gates() if g.name == "cls_x"}
        want = {leaf: float(b) for leaf, b in zip(tree.leaf_sites, bits)}
        out += _problems(leaf_bits == want, "data bits not compiled as given")
        return out

    return check


def _compile_ref(q) -> list:
    if isinstance(q, IncompatibleMode):
        return []
    return [*q.counts, len(q.schedule)]


def _compile_call(tree, mode, scheme, bits, circuits, key):
    def call():
        try:
            q = network.compile_query(tree, mode, scheme, bits)
        except IncompatibleMode as exc:
            return exc
        circuits[key] = q.circuit
        return q

    return call


def _roundtrip_check(circuits, key):
    def check(result) -> list[str]:
        text, back = result
        original = circuits[key]
        out = _problems(back.site_dims == original.site_dims, "site dims changed")
        out += _problems(back.ops == original.ops, "ops changed")
        out += _problems(gates.dumps_circuit(back) == text, "text form not stable")
        return out

    return check


def _roundtrip_call(circuits, key):
    def call():
        text = gates.dumps_circuit(circuits[key])
        return text, gates.loads_circuit(text)

    return call


def _layout_check(grid, layers: int, must_fit: bool):
    def check(result) -> list[str]:
        _, lay, diag = result
        if lay is None:
            return _problems(not must_fit and diag.get("reason") == "search exhausted",
                             f"no {layers}-layer layout: {diag}")
        report = layout.check_layout(grid, lay)
        return _problems(report.valid, f"invalid layout: {report.violations[:3]}")

    return check


def _layout_ref(result) -> list:
    seed, lay, _ = result
    if lay is None:
        return [-1]
    anchor = list(seed.anchor) if seed is not None else []
    return [len(lay.triangles), *anchor]


def _network_ops(rng, tiny: bool) -> list[Op]:
    """Router tallies, queries compiled with seeded data bits and their text
    round trips, and the layout ladder on clean and defective lattices."""
    ops: list[Op] = []
    circuits: dict[tuple, Any] = {}
    for scheme, tally in ROUTER_TALLIES.items():
        ops.append(Op(f"router_counts/{scheme}", lambda s=scheme: network.router_counts(s),
                      lambda r, t=tally: _problems(tuple(r) == t, f"tally {r}, want {t}")))
    for layers in range(2, 4 if tiny else 6):
        tree = network.build_tree(layers)
        for mode in network.MODES:
            for scheme in network.SCHEMES:
                key = (layers, mode, scheme)
                bits = [int(b) for b in rng.integers(0, 2, size=len(tree.leaf_sites))]
                ops.append(Op(f"compile_query/L{layers}/{mode}/{scheme}",
                              _compile_call(tree, mode, scheme, bits, circuits, key),
                              _compile_check(tree, mode, scheme, bits), _compile_ref))
                if scheme == "sp-tcg" and mode == "full":
                    continue
                ops.append(Op(f"roundtrip/L{layers}/{mode}/{scheme}",
                              _roundtrip_call(circuits, key), _roundtrip_check(circuits, key)))
    clean = layout.GridSpec(12, 6)
    for layers in range(1, 5 if tiny else 6):
        ops.append(Op(f"best_layout/12x6/L{layers}",
                      lambda n=layers: layout.best_layout(clean, n),
                      _layout_check(clean, layers, True), _layout_ref))
    for k in range(2):
        cells = rng.choice(clean.rows * clean.cols, size=2, replace=False)
        defects = frozenset((int(c) // clean.cols, int(c) % clean.cols) for c in cells)
        grid = layout.GridSpec(clean.rows, clean.cols, defects)
        for layers in (4, 5):
            ops.append(Op(f"best_layout/12x6-defects{k}/L{layers}",
                          lambda g=grid, n=layers: layout.best_layout(g, n),
                          _layout_check(grid, layers, False), _layout_ref, seeded=True))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rat-single",
                 "paper-depth single-router RAT: the hot path that re-simulates one router block",
                 build_rat_single, setup_rat_single),
        Workload("sweeps",
                 "cheap README experiments (CLI scans, QST, Floquet, landscape, compile, layout):"
                 " fresh runs, no reuse, file I/O",
                 build_sweeps, setup_sweeps),
    )
}
