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
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CapacityError, IncompatibleMode, QRouteSimError
from .gates import dumps_circuit
from .layout import GridSpec, best_layout, check_layout
from .network import MODES, SCHEMES, build_tree, compile_query, router_counts
from .noise import DecayRates, LeakageSpec, NoiseModel, amplitude_a110, amplitude_a120, balance_point
from .protocols import (AddressState, FloquetParams, floquet_cost, floquet_populations, phi_scan,
                        qst, scheme_basis, theta_scan)
from .rat import rat_single, rat_two_layer

SCHEMA = "# qroutesim-schema v1"

#: the subcommands that simulate the router, and the schemes they run
ROUTER_COMMANDS = ("theta-scan", "phi-scan", "qst", "rat", "rat2")
ROUTER_SCHEMES = ("eraser", "non-eraser")
#: the gate-level scheme that `compile` and `counts` read for each router scheme
TCG_SCHEMES = {"eraser": "tcg-eraser", "non-eraser": "tcg-non-eraser"}
#: the values of the ``scheme``, ``method`` and ``mode`` keys and flags
CHOICES = {"scheme": ROUTER_SCHEMES + SCHEMES, "method": ("exact", "linear-inversion", "mle"),
           "mode": MODES}


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

    def grid(self) -> GridSpec:
        return GridSpec(self.rows, self.cols, _parse_defects(self.defects))

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
        if cfg.experiment == "layout":
            cfg.grid()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key in ("grid_points", "trials", "m_repeats"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1, got {getattr(cfg, key)}")
    for key in ("shots", "seed"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"{key} must be >= 0, got {getattr(cfg, key)}")
    if cfg.shots >= 2**63:
        raise ConfigError(f"shots must be < 2**63 (a 64-bit sample count), got {cfg.shots}")
    for key in ("theta", "phi"):
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{key} must be finite, got {getattr(cfg, key)}")
    if not (math.isfinite(cfg.sqrt_cz_ns) and cfg.sqrt_cz_ns > 0):
        raise ConfigError(f"sqrt_cz_ns must be finite and > 0, got {cfg.sqrt_cz_ns}")
    for key in ("single_ns", "block_overhead_ns"):
        if not (math.isfinite(getattr(cfg, key)) and getattr(cfg, key) >= 0):
            raise ConfigError(f"{key} must be finite and >= 0, got {getattr(cfg, key)}")
    if cfg.experiment in ("rat", "rat2") and cfg.n_max < 2:
        raise ConfigError(f"n_max must be >= 2 (the fit needs 3 depths), got {cfg.n_max}")
    if cfg.experiment in ("compile", "layout") and cfg.layers < 1:
        raise ConfigError(f"layers must be >= 1, got {cfg.layers}")
    for key, allowed in CHOICES.items():
        if getattr(cfg, key) not in allowed:
            raise ConfigError(f"{key} must be one of {', '.join(allowed)}, got {getattr(cfg, key)!r}")
    if cfg.experiment in ROUTER_COMMANDS and cfg.scheme not in ROUTER_SCHEMES:
        raise ConfigError(f"{cfg.experiment} runs the router schemes {', '.join(ROUTER_SCHEMES)}, "
                          f"not {cfg.scheme!r}")


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
                try:  # a field's type reads its value: bool, int, float or str
                    value = (parser.getboolean(section, key) if isinstance(cur, bool)
                             else type(cur)(raw))
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key}={raw!r}: {exc}") from exc
                setattr(cfg, key, value)
    for key, value in overrides.items():
        if value is None:
            continue
        if key == "grid":  # ROWSxCOLS, the one flag that sets two fields
            rows, _, cols = value.partition("x")
            try:
                cfg.rows, cfg.cols = int(rows), int(cols)
            except ValueError:
                raise ConfigError(f"bad grid {value!r}: want ROWSxCOLS") from None
        else:
            setattr(cfg, key, value)
    if env := os.environ.get("QROUTESIM_OUTDIR"):
        cfg.out_dir = env
    _check(cfg)
    return cfg


def _write(cfg: RunConfig, name: str, header: list[str], rows: list[list],
           summary: dict, counters: dict | None = None) -> Path:
    """The CSV of ``rows`` and the JSON summary.  Callers build the rows
    from ``.tolist()``: Python floats format to the same text as numpy
    floats, in about two thirds of the time."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    lines = [SCHEMA, ",".join(header)] + [",".join(map(_fmt, row)) for row in rows]
    csv_path.write_text("\n".join(lines) + "\n")
    _write_summary(cfg, out / f"{name}.json", summary, counters)
    return csv_path


def _write_summary(cfg: RunConfig, path: Path, summary: dict, counters: dict | None) -> None:
    """The JSON summary, with the run's config and metadata echoed."""
    summary = dict(summary)
    summary["config"] = asdict(cfg)
    summary["metadata"] = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                           "version": __version__}
    if counters is not None:
        summary["metadata"]["counters"] = counters
    path.write_text(json.dumps(summary, indent=2, default=_json_default) + "\n")


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
    r = theta_scan(thetas, cfg.scheme, cfg.noise_model(), cfg.phi, cfg.sqrt_cz_ns, cfg.single_ns)
    rows = list(zip(*(a.tolist() for a in (r.thetas, r.p_left, r.p_right, r.p_input))))
    dev = float(np.abs(r.p_left - np.sin(r.thetas) ** 2).max())
    _write(cfg, "theta_scan", ["theta", "p_left", "p_right", "p_input"], rows,
           {"scheme": cfg.scheme, "max_dev_from_sin2": dev,
            "max_residual_input": float(r.p_input.max())}, counters=r.counters)
    return 0


def run_phi_scan(cfg: RunConfig) -> int:
    phis = np.linspace(0.0, 2 * math.pi, cfg.grid_points)
    r = phi_scan(phis, cfg.scheme, cfg.noise_model(), cfg.sqrt_cz_ns, cfg.single_ns)
    rows = [[p, po, pe, *pops] for p, po, pe, pops in
            zip(*(a.tolist() for a in (r.phis, r.p_odd, r.p_even, r.state_pops)))]
    header = ["phi", "p_odd", "p_even"] + [f"p_{k:03b}" for k in range(8)]
    _write(cfg, "phi_scan", header, rows, {"scheme": cfg.scheme, "phi0": r.phi0},
           counters=r.counters)
    return 0


def run_qst(cfg: RunConfig) -> int:
    addr = AddressState(cfg.theta, cfg.phi, scheme_basis(cfg.scheme))
    r = qst(addr, cfg.scheme, method=cfg.method, shots=cfg.shots, seed=cfg.seed,
            noise=cfg.noise_model(), sqrt_cz_ns=cfg.sqrt_cz_ns, single_ns=cfg.single_ns)
    rows = [[i, j, re, im] for i, row in enumerate(zip(r.rho.real.tolist(), r.rho.imag.tolist()))
            for j, (re, im) in enumerate(zip(*row))]
    _write(cfg, "qst", ["row", "col", "re", "im"], rows,
           {"scheme": cfg.scheme, "method": r.method, "fidelity": r.fidelity,
            "mle_iterations": r.iterations,
            "reference_hardware_fidelities": {"addr0": 0.9566, "addr_plus": 0.9336}},
           counters=r.counters)
    return 0


def _write_rat(cfg: RunConfig, name: str, r, extra: dict) -> int:
    """The depth curve of a RAT run and its fit summary, then ``extra``."""
    rows = [[int(n), m] for n, m in zip(r.depths, r.m_values.tolist())]
    _write(cfg, name, ["depth", "m_rat"], rows,
           {"scheme": cfg.scheme, "fit_l1": r.fit[0], "fit_l2": r.fit[1],
            "fit_f_rat": r.fit[2], "residual_rms": r.residual_rms,
            "fit_converged": r.fit_converged, "fit_iterations": r.fit_iterations,
            "fit_optimality": r.fit_optimality, "fit_active_bounds": list(r.fit_active_bounds),
            "postselection_kept": r.kept.tolist(), "seed": r.seed, "trials": r.trials, **extra},
           counters=r.counters)
    return 0


def run_rat(cfg: RunConfig) -> int:
    r = rat_single(cfg.n_max, cfg.scheme, cfg.noise_model(), cfg.trials, cfg.shots,
                   cfg.seed, cfg.sqrt_cz_ns, cfg.single_ns, cfg.block_overhead_ns)
    return _write_rat(cfg, "rat", r, {
        "address_policy": "redrawn per trial (SplitMix64 stream per (seed, trial))",
        "reference_hardware_f_rat": {"eraser": 0.9574, "non-eraser": 0.8748}})


def run_rat2(cfg: RunConfig) -> int:
    r = rat_two_layer(cfg.n_max, cfg.scheme, cfg.noise_model(), cfg.trials,
                      cfg.seed, cfg.sqrt_cz_ns, cfg.single_ns, cfg.block_overhead_ns)
    return _write_rat(cfg, "rat2", r, {
        "reference_hardware_f_rat": {"eraser": 0.8240, "non-eraser": 0.8190},
        "reference_hardware_m0": {"eraser": 0.9002, "non-eraser": 0.7850}})


def run_floquet(cfg: RunConfig) -> int:
    params = FloquetParams(math.pi - cfg.delta_theta)
    rows = [[n, *floquet_populations(params.theta, params.eta, params.zeta, n)]
            for n in range(2 * cfg.m_repeats + 1)]
    cost = floquet_cost(params, cfg.m_repeats, cfg.noise_model(), cfg.sqrt_cz_ns)
    _write(cfg, "floquet", ["n", "p11", "p02"], rows,
           {"theta": params.theta, "cost_m": cost.m, "cost": cost.value},
           counters={**cost.counters, "closed_form_rows": len(rows)})
    return 0


def run_compile(cfg: RunConfig) -> int:
    tree = build_tree(cfg.layers)
    q = compile_query(tree, cfg.mode, TCG_SCHEMES.get(cfg.scheme, cfg.scheme))
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
    _write_summary(cfg, out / "compile_report.json", report, q.counters)
    print(f"{q.counts[0]} {q.counts[1]} {q.counts[2]}")
    return 0


def run_counts(cfg: RunConfig) -> int:
    n1, n2, depth = router_counts(TCG_SCHEMES.get(cfg.scheme, cfg.scheme))
    print(f"{n1} {n2} {depth}")
    return 0


def _parse_defects(text: str) -> frozenset:
    pairs = (chunk.strip().partition(",") for chunk in text.split(";") if chunk.strip())
    try:
        return frozenset((int(r), int(c)) for r, _, c in pairs)
    except ValueError:
        raise ValueError(f"bad defects {text!r}: want r,c;r,c") from None


def run_layout(cfg: RunConfig) -> int:
    grid = cfg.grid()
    seed, layout, diag = best_layout(grid, cfg.layers)
    search = diag.pop("search")
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
    _write_summary(cfg, out / "layout_summary.json", summary, search)
    print(f"layout: {len(layout.triangles)} triangles, valid={report.valid}")
    return 0


def run_noise_curves(cfg: RunConfig) -> int:
    rates = cfg.rates()
    ts = np.linspace(0.0, 40.0, cfg.grid_points)
    rows = [[t, *amplitude_a120(rates, t), amplitude_a110(rates, t)] for t in ts.tolist()]
    bp = balance_point(rates)
    _write(cfg, "noise_curves", ["t_us", "a120_raw", "a120_postselected", "a110"], rows,
           {"balance_point_us": bp}, counters={"points": len(rows)})
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
SUBCOMMANDS = tuple(RUNNERS)


#: the float-valued flags, whose values may be negative with an exponent
FLOAT_FLAGS = ("--theta", "--phi", "--delta-theta")


def _join_float_values(argv: list[str]) -> list[str]:
    """Write ``--theta -1e-3`` as ``--theta=-1e-3``: argparse takes a token that
    starts with '-' for an option unless it reads as -digits or -digits.digits."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in FLOAT_FLAGS and token.startswith("-"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, so every `main` call reuses it."""
    p = argparse.ArgumentParser(prog="qroutesim",
                                description="quantum-router / QRAM simulator toolkit")
    p.add_argument("--version", action="version", version=f"qroutesim {__version__}")
    # every subcommand takes the same options, declared once
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=None, help="INI config file")
    shared.add_argument("--out-dir", dest="out_dir", default=None)
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument("--scheme", default=None, choices=CHOICES["scheme"])
    shared.add_argument("--noisy", action="store_const", const=True, default=None)
    shared.add_argument("--trials", type=int, default=None)
    shared.add_argument("--shots", type=int, default=None)
    shared.add_argument("--n-max", dest="n_max", type=int, default=None)
    shared.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    shared.add_argument("--layers", type=int, default=None)
    shared.add_argument("--mode", default=None, choices=CHOICES["mode"])
    shared.add_argument("--grid", default=None, help="layout lattice, e.g. 12x6")
    shared.add_argument("--method", default=None, choices=CHOICES["method"])
    for flag in FLOAT_FLAGS:
        shared.add_argument(flag, type=float, default=None)
    shared.add_argument("--defects", default=None, help="disabled qubits, e.g. 0,0;5,3")
    sub = p.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sub.add_parser(name, parents=[shared])
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_float_values(sys.argv[1:] if argv is None else argv))
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    overrides["experiment"] = args.command
    try:
        cfg = load_config(args.config, overrides)
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
