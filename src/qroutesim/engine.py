"""Circuit execution on qudit registers, with layer-wise decoherence.

Gates inside a moment are ideal and instantaneous; the moment's duration
(max over its gates) is then charged as a decoherence interval on every
site, idle or not.  A run maps a register to a register; post-selection
(the eraser's discard) is applied by the callers between runs.

A program is a tuple of steps.  A step holds gates ``(matrix, sites)``, then
channel entries ``(sites, transfer)``: maps on a tuple of sites, then each
decohering site's cascade channel (the 1-tuple case).  `compile_circuit`
makes one step per moment, `CompiledCircuit.idle` a gate-less step and
`compile_step` one step of given gates and maps: a two-layer readout or
advance (`rat`), a Floquet application, the φ scan's π/2 layer (`protocols`).
``a + b`` runs the steps of ``a`` then those of ``b``.

Each program, one per state representation (vector and ρ) and register
shape, is built on its first run; noise or a map makes it a ρ program.  Each
gate side and channel entry is an entry ``(matrix, link)``: its `qudit._Plan`
linked to the previous product by `qudit._link`, on a small tensor one
gather of a memoised flat index.  A run is one product per entry and a final
restore.
The products take the operands `_Plan.apply` gives (the first entry takes
the state as it does), with complex128 matrices, so a run is bit for bit
`apply_gate` per gate, `apply_channel` per map and `noise.apply_noise_step`
per moment, which stay only as test oracles.  A `CompiledCircuit` is a
snapshot that later edits to the circuit do not reach.

A register may carry sites after the circuit's own.  They are passive: no
gate touches them, they do not decohere, and they may have any dimension.
A reference register rides along unchanged that way, which is how `rat`
and `protocols` read a block's superoperator off one run (its Choi matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .gates import Circuit, gate_matrix
from .noise import NoiseModel, site_transfer
from .qudit import QuditRegister, _link, _plan, _reorder


class _Moment(NamedTuple):
    gates: tuple  # (matrix, conjugate, sites) per gate
    channels: tuple  # (sites, transfer) per map, then per decohering site


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit bound to its site order and a noise model, ready to run."""

    dims: tuple[int, ...]
    steps: tuple[_Moment, ...]
    noise: NoiseModel | None
    programs: dict = field(default_factory=dict, compare=False)  # (is_pure, dims) -> program, once run

    def run(self, state: QuditRegister) -> QuditRegister:
        """Run on a register whose leading sites have the compiled dims (never
        modifying its array); any sites after them are passive.  With a
        NoiseModel, ρ decoheres after each moment that has gates and in each
        `idle` step.  With noise or a map, a state vector runs as |ψ⟩⟨ψ|."""
        dims = tuple(state.dims)
        if dims[:len(self.dims)] != self.dims:
            raise ShapeError(f"register dims {dims} do not start with circuit dims {self.dims}")
        if self.noise is not None or any(m.channels for m in self.steps):
            state = state.to_mixed()
        key = (state.is_pure, dims)
        if key not in self.programs:
            self.programs[key] = self._program(*key)
        entries, restore = self.programs[key]
        data = state.data
        for matrix, link in entries:
            if type(link) is tuple:
                shape, perm, flat = link
                data = matrix @ data.reshape(shape).transpose(perm).reshape(flat)
            else:
                data = matrix @ data.ravel()[link]
        return QuditRegister(dims, _reorder(data, restore))

    def _program(self, pure: bool, dims: tuple) -> tuple:
        """The run entries of a vector or of ρ (vectors run only without
        channels) on a register of ``dims``, and the restore of the last product
        to the state's axes and shape.  The first entry takes the state
        strided, as `_Plan.apply` does."""
        n, d = len(dims), math.prod(dims)
        shape, flat = (dims, (d,)) if pure else (dims * 2, (d, d))
        sides = []
        for m in self.steps:
            for g, conj, sites in m.gates:
                sides.append((g, _plan(shape, sites)))
                if not pure:
                    sides.append((conj, _plan(shape, [s + n for s in sites])))
            if not pure:
                sides += [(t, _plan(shape, on + tuple(s + n for s in on))) for on, t in m.channels]
        entries, src, order, identity = [], None, None, tuple(range(len(shape)))
        for matrix, plan in sides:
            link = (plan.shape, plan.perm, plan.flat) if src is None else _link(
                src, order, plan.perm, plan.flat)
            entries.append((matrix, link))
            src, order = plan.out, plan.order
        return tuple(entries), (shape, identity, flat) if src is None else _link(
            src, order, identity, flat)

    def idle(self, t_ns: float, sites=None) -> "CompiledCircuit":
        """A gate-less one-step circuit on this register in which ``sites``
        (every circuit site by default) decohere for ``t_ns``, through the
        channels a moment applies."""
        sites = range(len(self.dims)) if sites is None else sorted(set(sites))
        if not set(sites) <= set(range(len(self.dims))):
            raise ShapeError(f"idle sites {list(sites)} are not circuit sites of {self.dims}")
        idle = _moment(self.dims, (), (), _channels(self.dims, self.noise, t_ns * 1e-3, sites))
        return CompiledCircuit(self.dims, (idle,), self.noise)

    def __add__(self, other: "CompiledCircuit") -> "CompiledCircuit":
        """The steps of this circuit, then those of ``other``, as one circuit."""
        if (other.dims, other.noise) != (self.dims, self.noise):
            raise ShapeError(f"cannot join circuits on {self.dims} and {other.dims} or noise")
        return CompiledCircuit(self.dims, self.steps + other.steps, self.noise)


def _channels(dims: tuple[int, ...], noise: NoiseModel | None, t_us: float, sites) -> tuple:
    """The cascade channel over ``t_us`` on each of ``sites`` in turn, as
    `apply_noise_step` applies it: the transfer matrix on the site's ket and
    bra axes (`site_transfer` raises InvalidTime for a negative ``t_us``)."""
    if noise is None or t_us == 0:
        return ()
    return tuple(((s,), site_transfer(noise.rates, t_us, dims[s]).astype(complex)) for s in sites)


def _moment(dims: tuple, gates, maps, channels: tuple) -> _Moment:
    """A step: each gate ``(matrix, sites)`` with its conjugate, then each map
    ``(sites, transfer)``, then ``channels``.  Each matrix becomes C-ordered
    complex128 once its sites are distinct sites of ``dims`` whose dimension
    (squared for a map) it has."""
    entries = []
    for sites, matrix, power in [(s, g, 1) for g, s in gates] + [(s, t, 2) for s, t in maps]:
        sites, matrix = tuple(sites), np.ascontiguousarray(matrix, dtype=complex)
        if (len(set(sites)) != len(sites) or not set(sites) <= set(range(len(dims)))
                or matrix.shape != (math.prod(dims[s] for s in sites) ** power,) * 2):
            raise ShapeError(f"a {matrix.shape} matrix does not fit sites {sites} of {dims}")
        entries.append((sites, matrix))
    k = len(gates)
    gates = tuple((g, g.conj(), s) for s, g in entries[:k])
    return _Moment(gates, tuple(entries[k:]) + channels)


def compile_step(dims, gates=(), maps=(), noise: NoiseModel | None = None,
                 t_ns: float = 0.0) -> CompiledCircuit:
    """A one-step program on a register of ``dims``: the gates ``(matrix,
    sites)`` in turn, then the maps ``(sites, transfer)`` (the channel form
    `qudit.apply_channel` takes) in turn, then with ``noise`` every site's decay
    over ``t_ns``: bit for bit `apply_gate`, `apply_channel`, `apply_noise_step`."""
    dims = tuple(dims)
    channels = _channels(dims, noise, t_ns * 1e-3, range(len(dims)))
    return CompiledCircuit(dims, (_moment(dims, gates, maps, channels),), noise)


def compile_circuit(circuit: Circuit, noise: NoiseModel | None = None) -> CompiledCircuit:
    """Build a circuit's gates and per-duration channels once.

    The register's leading sites follow the circuit's.  The coherent-leakage
    part of the model (δϑ) is a property of how circuits are *built* and is
    not applied here.
    """
    dims = tuple(circuit.site_dims.values())
    pos = {s: i for i, s in enumerate(circuit.site_dims)}
    channels: dict[float, tuple] = {}
    steps = []
    for m in circuit.ops:
        gates = [(gate_matrix(g, tuple(dims[pos[s]] for s in g.sites)), [pos[s] for s in g.sites])
                 for g in m.gates]
        t_us = m.duration_ns * 1e-3
        if t_us not in channels:
            channels[t_us] = _channels(dims, noise, t_us, range(len(dims)))
        steps.append(_moment(dims, gates, (), channels[t_us]))
    return CompiledCircuit(dims, tuple(steps), noise)


def run_circuit(state: QuditRegister, circuit: Circuit,
                noise: NoiseModel | None = None) -> QuditRegister:
    """Run a circuit once on a register whose leading sites are the circuit's."""
    return compile_circuit(circuit, noise).run(state)
