"""Command-line front end: config parsing, experiment drivers, file output.

Every run writes a CSV (one grid point or depth per row, schema-stamped)
plus a JSON summary echoing the full configuration and seed, so any output
file can regenerate its run byte-for-byte (timestamps live only in the
JSON metadata field).

Config files are INI-style key/value sections (see `example_config`); all
values can also be given as flags, which win over the file.  The only
environment variable honored is QROUTESIM_OUTDIR (output directory
override).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CapacityError, IncompatibleMode, QRouteSimError
from .gates import dumps_circuit
from .layout import GridSpec, TriangleLayout, best_layout, check_layout
from .network import build_tree, compile_query, gate_counts, router_counts
from .noise import DecayRates, LeakageSpec, NoiseModel, amplitude_a110, amplitude_a120, balance_point
from .protocols import FloquetParams, floquet_cost, floquet_populations, phi_scan, qst, theta_scan
from .protocols import AddressState
from .rat import rat_single, rat_two_layer

SCHEMA = "# qroutesim-schema v1"

SUBCOMMANDS = (
    "theta-scan", "phi-scan", "qst", "rat", "rat2", "floquet",
    "compile", "counts", "layout", "noise-curves",
)


@dataclass
class RunConfig:
    """Everything a run needs; echoed verbatim into every output file."""

    experiment: str = ""
    seed: int = 2024
    out_dir: str = "results"
    scheme: str = "eraser"
    noisy: bool = False
    # noise block (rates 1/μs, durations ns)
    gamma10: float = 1.0 / 15.0
    gamma21: float = 1.0 / 12.0
    gamma2: float = 1.0 / 2.5
    gamma3: float = 1.0 / 2.5
    gamma4: float = 1.0 / 2.5
    delta_theta: float = 0.0
    sqrt_cz_ns: float = 25.0
    single_ns: float = 30.0
    block_overhead_ns: float = 1200.0
    # protocol parameters
    grid_points: int = 101
    n_max: int = 30
    trials: int = 30
    shots: int = 0
    theta: float = 0.0
    phi: float = 0.0
    layers: int = 2
    mode: str = "full"
    rows: int = 12
    cols: int = 6
    defects: str = ""  # "r,c;r,c" disabled qubits
    method: str = "exact"
    m_repeats: int = 15

    def rates(self) -> DecayRates:
        return DecayRates(self.gamma10, self.gamma21, self.gamma2, self.gamma3, self.gamma4)

    def noise_model(self) -> NoiseModel | None:
        if not self.noisy:
            return None
        return NoiseModel(self.rates(), LeakageSpec(self.delta_theta))


class ConfigError(QRouteSimError):
    """A config file or flag value the run cannot use (exit code 2)."""


def _check(cfg: RunConfig) -> None:
    """Reject values no run can use, before any runner starts."""
    try:
        cfg.rates()
        LeakageSpec(cfg.delta_theta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key in ("grid_points", "trials", "m_repeats"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1, got {getattr(cfg, key)}")
    if cfg.shots < 0:
        raise ConfigError(f"shots must be >= 0, got {cfg.shots}")


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then the config file, then flags and QROUTESIM_OUTDIR;
    raises ConfigError on a missing file, an unknown key or a bad value."""
    cfg = RunConfig()
    if path:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file {path!r} not found")
        for section in parser.sections():
            for key, raw in parser.items(section):
                if not hasattr(cfg, key):
                    raise ConfigError(f"[{section}] {key}: unknown field")
                cur = getattr(cfg, key)
                try:
                    if isinstance(cur, bool):
                        value = parser.getboolean(section, key)
                    elif isinstance(cur, int):
                        value = int(raw)
                    elif isinstance(cur, float):
                        value = float(raw)
                    else:
                        value = raw
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key}={raw!r}: {exc}") from exc
                setattr(cfg, key, value)
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    if env := os.environ.get("QROUTESIM_OUTDIR"):
        cfg.out_dir = env
    _check(cfg)
    return cfg


def _write(cfg: RunConfig, name: str, header: list[str], rows: list[list],
           summary: dict, counters: dict | None = None) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    lines = [SCHEMA, ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    csv_path.write_text("\n".join(lines) + "\n")
    summary = dict(summary)
    summary["config"] = asdict(cfg)
    summary["metadata"] = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                           "version": __version__}
    if counters is not None:
        summary["metadata"]["counters"] = counters
    (out / f"{name}.json").write_text(json.dumps(summary, indent=2, default=_json_default) + "\n")
    return csv_path


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(type(o).__name__)


# --- subcommand runners ---------------------------------------------------------


def run_theta_scan(cfg: RunConfig) -> int:
    thetas = np.linspace(0.0, math.pi / 2, cfg.grid_points)
    r = theta_scan(thetas, cfg.scheme, cfg.noise_model(), phi=cfg.phi)
    rows = [[t, pl, pr, pi] for t, pl, pr, pi in zip(r.thetas, r.p_left, r.p_right, r.p_input)]
    dev = float(np.abs(r.p_left - np.sin(r.thetas) ** 2).max())
    _write(cfg, "theta_scan", ["theta", "p_left", "p_right", "p_input"], rows,
           {"scheme": cfg.scheme, "max_dev_from_sin2": dev,
            "max_residual_input": float(r.p_input.max())}, counters=r.counters)
    return 0


def run_phi_scan(cfg: RunConfig) -> int:
    phis = np.linspace(0.0, 2 * math.pi, cfg.grid_points)
    r = phi_scan(phis, cfg.scheme, cfg.noise_model())
    rows = [[p, po, pe, *pops] for p, po, pe, pops in
            zip(r.phis, r.p_odd, r.p_even, r.state_pops)]
    header = ["phi", "p_odd", "p_even"] + [f"p_{k:03b}" for k in range(8)]
    _write(cfg, "phi_scan", header, rows, {"scheme": cfg.scheme, "phi0": r.phi0},
           counters=r.counters)
    return 0


def run_qst(cfg: RunConfig) -> int:
    addr = AddressState(cfg.theta, cfg.phi, "02" if cfg.scheme == "eraser" else "01")
    r = qst(addr, cfg.scheme, method=cfg.method, shots=cfg.shots, seed=cfg.seed,
            noise=cfg.noise_model())
    rows = [[i, j, r.rho[i, j].real, r.rho[i, j].imag]
            for i in range(r.rho.shape[0]) for j in range(r.rho.shape[1])]
    _write(cfg, "qst", ["row", "col", "re", "im"], rows,
           {"scheme": cfg.scheme, "method": r.method, "fidelity": r.fidelity,
            "mle_iterations": r.iterations,
            "reference_hardware_fidelities": {"addr0": 0.9566, "addr_plus": 0.9336}})
    return 0


def run_rat(cfg: RunConfig) -> int:
    r = rat_single(cfg.n_max, cfg.scheme, cfg.noise_model(), cfg.trials, cfg.shots,
                   cfg.seed, cfg.sqrt_cz_ns, cfg.single_ns, cfg.block_overhead_ns)
    rows = [[int(n), m] for n, m in zip(r.depths, r.m_values)]
    _write(cfg, "rat", ["depth", "m_rat"], rows,
           {"scheme": cfg.scheme, "fit_l1": r.fit[0], "fit_l2": r.fit[1],
            "fit_f_rat": r.fit[2], "residual_rms": r.residual_rms,
            "fit_converged": r.fit_converged, "fit_iterations": r.fit_iterations,
            "postselection_kept": r.kept.tolist(), "seed": r.seed, "trials": r.trials,
            "address_policy": "redrawn per trial (SplitMix64 stream per (seed, trial))",
            "reference_hardware_f_rat": {"eraser": 0.9574, "non-eraser": 0.8748}})
    return 0


def run_rat2(cfg: RunConfig) -> int:
    # The depth cap stays: each depth of a trial advances the run by one
    # paired block, which runs the root router twice on the 384-dimensional
    # register (C1 stays live across its leaf stage), so `rat2 --noisy
    # --n-max 6 --trials 30` already takes about 46 s on 2 cores.
    cfg = replace(cfg, n_max=min(cfg.n_max, 6))  # echo the depth actually run
    r = rat_two_layer(cfg.n_max, cfg.scheme, cfg.noise_model(), cfg.trials,
                      cfg.seed, cfg.sqrt_cz_ns, cfg.single_ns, cfg.block_overhead_ns)
    rows = [[int(n), m] for n, m in zip(r.depths, r.m_values)]
    _write(cfg, "rat2", ["depth", "m_rat"], rows,
           {"scheme": cfg.scheme, "fit_l1": r.fit[0], "fit_l2": r.fit[1],
            "fit_f_rat": r.fit[2], "residual_rms": r.residual_rms,
            "fit_converged": r.fit_converged, "fit_iterations": r.fit_iterations,
            "postselection_kept": r.kept.tolist(), "seed": r.seed, "trials": r.trials,
            "reference_hardware_f_rat": {"eraser": 0.8240, "non-eraser": 0.8190},
            "reference_hardware_m0": {"eraser": 0.9002, "non-eraser": 0.7850}},
           counters=r.counters)
    return 0


def run_floquet(cfg: RunConfig) -> int:
    params = FloquetParams(math.pi - cfg.delta_theta)
    rows = []
    for n in range(0, 2 * cfg.m_repeats + 1):
        p11, p02 = floquet_populations(params.theta, params.eta, params.zeta, n)
        rows.append([n, p11, p02])
    cost = floquet_cost(params, cfg.m_repeats, cfg.noise_model(), cfg.sqrt_cz_ns)
    _write(cfg, "floquet", ["n", "p11", "p02"], rows,
           {"theta": params.theta, "cost_m": cost.m, "cost": cost.value})
    return 0


def run_compile(cfg: RunConfig) -> int:
    tree = build_tree(cfg.layers)
    scheme = {"eraser": "tcg-eraser", "non-eraser": "tcg-non-eraser"}.get(cfg.scheme, cfg.scheme)
    q = compile_query(tree, cfg.mode, scheme)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "compiled_circuit.txt").write_text(dumps_circuit(q.circuit))
    report = {
        "mode": q.mode, "scheme": q.scheme,
        "N1q": q.counts[0], "N2q": q.counts[1], "depth": q.counts[2],
        "groups": [
            {"stage": g.stage, "level": g.level, "parity": g.parity,
             "gates": g.gate_count, "sites": list(g.sites)}
            for g in q.schedule
        ],
        "stage_moments": q.stage_moments,
    }
    (out / "compile_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"{q.counts[0]} {q.counts[1]} {q.counts[2]}")
    return 0


def run_counts(cfg: RunConfig) -> int:
    scheme = {"eraser": "tcg-eraser", "non-eraser": "tcg-non-eraser"}.get(cfg.scheme, cfg.scheme)
    n1, n2, depth = router_counts(scheme)
    print(f"{n1} {n2} {depth}")
    return 0


def _parse_defects(text: str) -> frozenset:
    out = set()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        r, _, c = chunk.partition(",")
        out.add((int(r), int(c)))
    return frozenset(out)


def run_layout(cfg: RunConfig) -> int:
    try:
        grid = GridSpec(cfg.rows, cfg.cols, _parse_defects(cfg.defects))
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    seed, layout, diag = best_layout(grid, cfg.layers)
    if layout is None:
        print(f"no {cfg.layers}-layer layout fits {cfg.rows}x{cfg.cols}: {diag}", file=sys.stderr)
        return 3
    report = check_layout(grid, layout)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "layout.json").write_text(layout.to_json())
    (out / "layout_coords.csv").write_text(layout.to_coordinate_csv())
    summary = {"layers": cfg.layers, "triangles": len(layout.triangles),
               "valid": report.valid, "diagnostics": diag}
    (out / "layout_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"layout: {len(layout.triangles)} triangles, valid={report.valid}")
    return 0


def run_noise_curves(cfg: RunConfig) -> int:
    rates = cfg.rates()
    ts = np.linspace(0.0, 40.0, cfg.grid_points)
    rows = []
    for t in ts:
        raw, ps = amplitude_a120(rates, t)
        rows.append([t, raw, ps, amplitude_a110(rates, t)])
    bp = balance_point(rates)
    _write(cfg, "noise_curves", ["t_us", "a120_raw", "a120_postselected", "a110"], rows,
           {"balance_point_us": bp})
    if bp is not None:
        print(f"balance point: {bp:.6f} us")
    return 0


RUNNERS = {
    "theta-scan": run_theta_scan,
    "phi-scan": run_phi_scan,
    "qst": run_qst,
    "rat": run_rat,
    "rat2": run_rat2,
    "floquet": run_floquet,
    "compile": run_compile,
    "counts": run_counts,
    "layout": run_layout,
    "noise-curves": run_noise_curves,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qroutesim",
                                description="quantum-router / QRAM simulator toolkit")
    p.add_argument("--version", action="version", version=f"qroutesim {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="INI config file")
        sp.add_argument("--out-dir", dest="out_dir", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--scheme", default=None,
                        choices=["eraser", "non-eraser", "clifford", "tcg-eraser",
                                 "tcg-non-eraser", "sp-tcg"])
        sp.add_argument("--noisy", action="store_const", const=True, default=None)
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--shots", type=int, default=None)
        sp.add_argument("--n-max", dest="n_max", type=int, default=None)
        sp.add_argument("--grid-points", dest="grid_points", type=int, default=None)
        sp.add_argument("--layers", type=int, default=None)
        sp.add_argument("--mode", default=None, choices=list(("full", "read-only", "write-only")))
        sp.add_argument("--grid", default=None, help="layout lattice, e.g. 12x6")
        sp.add_argument("--theta", type=float, default=None)
        sp.add_argument("--phi", type=float, default=None)
        sp.add_argument("--method", default=None,
                        choices=["exact", "linear-inversion", "mle"])
        sp.add_argument("--delta-theta", dest="delta_theta", type=float, default=None)
        sp.add_argument("--defects", default=None, help="disabled qubits, e.g. 0,0;5,3")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config", "grid")}
    if getattr(args, "grid", None):
        try:
            rows, _, cols = args.grid.partition("x")
            overrides["rows"], overrides["cols"] = int(rows), int(cols)
        except ValueError:
            print(f"bad --grid {args.grid!r}: want ROWSxCOLS", file=sys.stderr)
            return 2
    try:
        cfg = load_config(args.config, overrides)
        cfg.experiment = args.command
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return RUNNERS[args.command](cfg)
    except (CapacityError, IncompatibleMode) as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except QRouteSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def example_config() -> str:
    """The documented config grammar (INI sections of key = value)."""
    return """\
[run]
experiment = rat
seed = 2024
out_dir = results
scheme = eraser
noisy = true

[noise]
gamma10 = 0.0666666667
gamma21 = 0.0833333333
gamma2 = 0.4
gamma3 = 0.4
gamma4 = 0.4
delta_theta = 0.0
sqrt_cz_ns = 25
single_ns = 30
block_overhead_ns = 1200

[protocol]
n_max = 30
trials = 100
shots = 0
grid_points = 101
"""


if __name__ == "__main__":
    raise SystemExit(main())
