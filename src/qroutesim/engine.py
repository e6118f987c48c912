"""Circuit execution on qudit registers, with layer-wise decoherence.

Gates inside a moment are ideal and instantaneous; the moment's duration
(max over its gates) is then charged as a decoherence interval on every
site, idle or not.  Post-selection markers project and renormalize,
accumulating the kept probability.

`compile_circuit` builds everything a run needs once: site positions, one
`qudit.Operator` per gate (its matrix, conjugate and contraction plans),
and one per-site channel table per moment duration.  Callers that repeat a
circuit keep the `CompiledCircuit`, a snapshot that later edits to the
circuit do not reach.  The engine only sequences: the operators apply
themselves, and the channel table's numbers are read off the cascade's
transfer matrix in `noise`.  Gates hand the state on as a strided tensor
view; it is made contiguous only for the noise step, a post-selection
marker or the result.  The noise step damps each site through an
(L, d, R, L, d, R) view of ρ with one broadcast multiply, then adds the
cascade's population flows.

Sites named ``quiet`` get no decoherence and may have any dimension: a
reference register that no gate touches rides along unchanged, which is
how `rat` reads a block's superoperator off one run (its Choi matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .gates import Circuit, Moment, PostselectMarker, gate_matrix
from .noise import DecayRates, NoiseModel, _transfer_cached
from .qudit import Operator, QuditRegister, bind_operator, postselect


@dataclass
class RunResult:
    state: QuditRegister
    kept_probability: float = 1.0


def _channel_table(dims: tuple[int, ...], rates: DecayRates, t_us: float,
                   quiet: frozenset = frozenset()) -> tuple:
    """Per-site (view shape, damping table) for every site not in ``quiet``
    (positions), and the flows (1 − e10, v1, v2), all read off the cascade's
    9×9 transfer matrix."""
    T = _transfer_cached(rates, t_us)
    # diagonal entry [a, b] damps coherence (a, b); a qubit site takes the top-left block
    factors = T.diagonal().reshape(3, 3).astype(complex)
    sites = []
    for s, d in enumerate(dims):
        if s in quiet:
            continue
        left, right = math.prod(dims[:s]), math.prod(dims[s + 1:])
        sites.append(((left, d, right, left, d, right), factors[:d, :d].reshape(1, d, 1, 1, d, 1)))
    return sites, (float(T[0, 4]), float(T[0, 8]), float(T[4, 8]))


def _apply_channel_table(rho: np.ndarray, table: tuple) -> None:
    """The cascade channel on every site of a C-contiguous ρ (flat or a
    tensor over the site axes), in place."""
    sites, (flow10, v1, v2) = table
    for shape, factors in sites:
        view = rho.reshape(shape)
        slab11 = view[:, 1, :, :, 1, :].copy()
        slab22 = view[:, 2, :, :, 2, :].copy() if shape[1] == 3 else None
        view *= factors
        view[:, 0, :, :, 0, :] += flow10 * slab11
        if slab22 is not None:
            view[:, 0, :, :, 0, :] += v1 * slab22
            view[:, 1, :, :, 1, :] += v2 * slab22


class _Moment(NamedTuple):
    gates: tuple[Operator, ...]
    t_us: float
    channel: tuple | None  # None when noiseless or no time passes


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit bound to a site order and a noise model, ready to run."""

    dims: tuple[int, ...]
    steps: tuple  # _Moment entries and (site position, forbidden digit) markers
    noise: NoiseModel | None

    def run(self, state: QuditRegister) -> RunResult:
        """Run on a register with the compiled dims (never modifying its array);
        with a NoiseModel, ρ decoheres after each moment that has gates."""
        dims, noise = self.dims, self.noise
        if tuple(state.dims) != dims:
            raise ShapeError(f"register dims {state.dims} != circuit dims {dims}")
        if noise is not None:
            state = state.to_mixed()
        data, kept, shape = state.data, 1.0, state.data.shape
        for step in self.steps:
            if not isinstance(step, _Moment):
                reg, k = postselect(QuditRegister(dims, data.reshape(shape)), *step)
                data, kept = reg.data, kept * k
                continue
            for g in step.gates:
                data = g.apply(data)
            if step.channel is not None:
                # a moment with a duration has gates, so data is their contraction
                # output, never the caller's array
                data = np.ascontiguousarray(data)
                _apply_channel_table(data, step.channel)
        return RunResult(QuditRegister(dims, data.reshape(shape)), kept)


def compile_circuit(circuit: Circuit, noise: NoiseModel | None = None,
                    site_order: list[str] | None = None, quiet=()) -> CompiledCircuit:
    """Build a circuit's gate matrices, contraction plans and per-duration
    channel tables once.

    ``site_order`` names the register's sites in order (default: the
    circuit's); the sites named in ``quiet`` do not decohere.  The
    coherent-leakage part of the model (δϑ) is a property of how circuits
    are *built* and is not applied here.
    """
    names = site_order or list(circuit.site_dims)
    if any(s not in circuit.site_dims for s in names):
        raise ShapeError(f"site order {names} names sites outside the circuit")
    dims = tuple(circuit.site_dims[s] for s in names)
    pos = {s: i for i, s in enumerate(names)}
    if any(s not in pos for s in quiet):
        raise ShapeError(f"quiet sites {list(quiet)} name sites outside {names}")
    quiet_pos = frozenset(pos[s] for s in quiet)
    tables: dict[float, tuple | None] = {}
    steps = []
    for op in circuit.ops:
        if isinstance(op, PostselectMarker):
            steps.append((pos[op.site], op.forbidden))
            continue
        assert isinstance(op, Moment)
        gates = []
        for g in op.gates:
            sites = [pos[s] for s in g.sites]
            gates.append(bind_operator(gate_matrix(g, tuple(dims[k] for k in sites)), dims, sites))
        t_us = op.duration_ns * 1e-3
        if t_us not in tables:
            noisy = noise is not None and t_us > 0
            tables[t_us] = _channel_table(dims, noise.rates, t_us, quiet_pos) if noisy else None
        steps.append(_Moment(tuple(gates), t_us, tables[t_us]))
    return CompiledCircuit(dims, tuple(steps), noise)


def run_circuit(state: QuditRegister, circuit: Circuit, noise: NoiseModel | None = None,
                site_order: list[str] | None = None) -> RunResult:
    """Run a circuit once on a register whose sites match the circuit's."""
    return compile_circuit(circuit, noise, site_order).run(state)

