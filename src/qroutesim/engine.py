"""Circuit execution on qudit registers, with layer-wise decoherence.

Gates inside a moment are ideal and instantaneous; the moment's duration
(max over its gates) is then charged as a decoherence interval on every
site, idle or not.  Post-selection markers project and renormalize,
accumulating the kept probability.

`compile_circuit` builds everything a run needs once: site positions, each
gate's matrix and its conjugate with a contraction plan for the pure layout
and for the ket and bra axes of the mixed layout, and one per-site channel
table per moment duration.  Callers that repeat a circuit keep the
`CompiledCircuit`, a snapshot that later edits to the circuit do not reach.
A gate side is one ``np.dot`` of the gate matrix with the state transposed
and reshaped to (K, N), the BLAS call ``np.tensordot`` makes, without its
per-call argument handling.  The noise step damps each site through an
(L, d, R, L, d, R) view of ρ with one broadcast multiply, then adds the
cascade's population flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .gates import Circuit, Moment, PostselectMarker, gate_matrix
from .noise import DecayRates, NoiseModel, _v_entries
from .qudit import QuditRegister, new_basis_state, postselect


@dataclass
class RunResult:
    state: QuditRegister
    kept_probability: float = 1.0


def _channel_table(dims: tuple[int, ...], rates: DecayRates, t_us: float) -> tuple:
    """Per-site (view shape, damping table), and the flows (1 − e10, v1, v2)."""
    e10, e21, e2, e3, e4 = (math.exp(-g * t_us) for g in (
        rates.gamma10, rates.gamma21, rates.gamma2, rates.gamma3, rates.gamma4))
    # entry [a, b] damps coherence (a, b); a qubit site takes the top-left block
    factors = np.array([[1.0, e2, e3], [e2, e10, e4], [e3, e4, e21]], dtype=complex)
    sites = []
    for s, d in enumerate(dims):
        left, right = math.prod(dims[:s]), math.prod(dims[s + 1:])
        sites.append(((left, d, right, left, d, right), factors[:d, :d].reshape(1, d, 1, 1, d, 1)))
    return sites, (1.0 - e10, *_v_entries(rates, t_us))


def _apply_channel_table(rho: np.ndarray, table: tuple) -> None:
    """The cascade channel on every site of a C-contiguous ρ, in place."""
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


class _Plan(NamedTuple):
    """One gate side: transpose the targets to the front, (K, N) reshape, dot
    with the gate matrix, reshape to ``out`` and restore the axis order."""

    perm: tuple
    shape: tuple
    out: tuple
    order: tuple

    def apply(self, gate: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.dot(gate, t.transpose(self.perm).reshape(self.shape)).reshape(
            self.out).transpose(self.order)


def _plan(shape: tuple, targets: list[int]) -> _Plan:
    """The plan `_contract_axes` follows for a gate on ``targets`` of ``shape``."""
    rest = [a for a in range(len(shape)) if a not in targets]
    order = [0] * len(shape)
    for i, a in enumerate(targets + rest):
        order[a] = i
    target_dims = tuple(shape[a] for a in targets)
    rest_dims = tuple(shape[a] for a in rest)
    return _Plan(tuple(targets + rest), (math.prod(target_dims), math.prod(rest_dims)),
                 target_dims + rest_dims, tuple(order))


class _Gate(NamedTuple):
    matrix: np.ndarray
    conj: np.ndarray
    pure: _Plan  # on the (dims) tensor of a state vector
    ket: _Plan  # on the (dims, dims) tensor of ρ
    bra: _Plan


class _Moment(NamedTuple):
    gates: tuple[_Gate, ...]
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
        data, dim, kept = state.data, state.dim, 1.0
        for step in self.steps:
            if not isinstance(step, _Moment):
                reg, k = postselect(QuditRegister(dims, data), *step)
                data, kept = reg.data, kept * k
                continue
            for g in step.gates:
                if data.ndim == 1:
                    data = g.pure.apply(g.matrix, data.reshape(dims)).reshape(-1)
                else:
                    t = g.ket.apply(g.matrix, data.reshape(dims + dims))
                    data = g.bra.apply(g.conj, t).reshape(dim, dim)
            if step.channel is not None:
                # a moment with a duration has gates, so data is their contraction
                # output, never the caller's array
                data = np.ascontiguousarray(data)
                _apply_channel_table(data, step.channel)
        return RunResult(QuditRegister(dims, data), kept)


def compile_circuit(circuit: Circuit, noise: NoiseModel | None = None,
                    site_order: list[str] | None = None) -> CompiledCircuit:
    """Build a circuit's gate matrices, contraction plans and per-duration
    channel tables once.

    ``site_order`` names the register's sites in order (default: the
    circuit's).  The coherent-leakage part of the model (δϑ) is a property
    of how circuits are *built* and is not applied here.
    """
    names = site_order or list(circuit.site_dims)
    if any(s not in circuit.site_dims for s in names):
        raise ShapeError(f"site order {names} names sites outside the circuit")
    dims = tuple(circuit.site_dims[s] for s in names)
    pos = {s: i for i, s in enumerate(names)}
    n = len(dims)
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
            matrix = gate_matrix(g, tuple(dims[k] for k in sites))
            bras = [k + n for k in sites]
            gates.append(_Gate(matrix, matrix.conj(), _plan(dims, sites),
                               _plan(dims + dims, sites), _plan(dims + dims, bras)))
        t_us = op.duration_ns * 1e-3
        if t_us not in tables:
            noisy = noise is not None and t_us > 0
            tables[t_us] = _channel_table(dims, noise.rates, t_us) if noisy else None
        steps.append(_Moment(tuple(gates), t_us, tables[t_us]))
    return CompiledCircuit(dims, tuple(steps), noise)


def run_circuit(state: QuditRegister, circuit: Circuit, noise: NoiseModel | None = None,
                site_order: list[str] | None = None) -> RunResult:
    """Run a circuit once on a register whose sites match the circuit's."""
    return compile_circuit(circuit, noise, site_order).run(state)


def run_on_labels(circuit: Circuit, label: str, noise: NoiseModel | None = None) -> RunResult:
    """Convenience: run from a computational basis state given as digits."""
    dims = tuple(circuit.site_dims.values())
    return run_circuit(new_basis_state(dims, label), circuit, noise)
