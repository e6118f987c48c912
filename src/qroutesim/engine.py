"""Circuit execution on qudit registers, with layer-wise decoherence.

Gates inside a moment are ideal and instantaneous; the moment's duration
(max over its gates) is then charged as a decoherence interval on every
site, idle or not.  A run maps a register to a register; post-selection
(the eraser's discard) is applied by the callers between runs.

`compile_circuit` builds a circuit's gates and channels once; each
program, one per state representation (vector and ρ), is built on its first
run.  Each gate side and each noisy site's channel per moment is an entry
``(matrix, link)``: its `qudit._Plan` linked to the previous product by
`qudit._link`, which on a small tensor is one `take` of a memoised index.
A run is one product per entry and a final restore.  The products take the
operands `_Plan.apply` gives (the first entry takes the state as it does, a
strided view or not), with the transfer matrices of
`noise.apply_noise_step` (as complex128), so a compiled run is bit for bit
`apply_gate` per gate plus `apply_noise_step` per moment.  A
`CompiledCircuit` is a snapshot that later edits to the circuit do not
reach.

Sites named ``quiet`` get no decoherence and may have any dimension: a
reference register that no gate touches rides along unchanged, which is
how `rat` reads a block's superoperator off one run (its Choi matrix).
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
    channels: tuple  # (plan, transfer) per noisy site; empty when noiseless or instant


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit bound to its site order and a noise model, ready to run."""

    dims: tuple[int, ...]
    steps: tuple[_Moment, ...]
    noise: NoiseModel | None
    quiet: frozenset  # positions of the sites that do not decohere
    programs: dict = field(default_factory=dict, compare=False)  # is_pure -> (entries, restore), once run

    def run(self, state: QuditRegister) -> QuditRegister:
        """Run on a register with the compiled dims (never modifying its array);
        with a NoiseModel, ρ decoheres after each moment that has gates (and
        in the first step of `after_idle`)."""
        if tuple(state.dims) != self.dims:
            raise ShapeError(f"register dims {state.dims} != circuit dims {self.dims}")
        if self.noise is not None:
            state = state.to_mixed()
        pure = state.is_pure
        if pure not in self.programs:
            self.programs[pure] = self._program(pure)
        entries, restore = self.programs[pure]
        data = state.data
        for matrix, link in entries:
            data = matrix @ _reorder(data, link)
        return QuditRegister(self.dims, _reorder(data, restore))

    def _program(self, pure: bool) -> tuple:
        """The run entries of a vector or of ρ (vectors run only without
        noise), and the restore of the last product to the state's axes and
        shape.  The first entry takes the state strided, as `_Plan.apply`
        does."""
        dims, n, d = self.dims, len(self.dims), math.prod(self.dims)
        shape, flat = (dims, (d,)) if pure else (dims * 2, (d, d))
        sides = []
        for m in self.steps:
            for g, conj, sites in m.gates:
                sides.append((g, _plan(shape, sites)))
                if not pure:
                    sides.append((conj, _plan(shape, [s + n for s in sites])))
            if not pure:
                sides += [(t, plan) for plan, t in m.channels]
        entries, src, order, identity = [], None, None, tuple(range(len(shape)))
        for matrix, plan in sides:
            link = (plan.shape, plan.perm, plan.flat) if src is None else _link(
                src, order, plan.perm, plan.flat)
            entries.append((matrix, link))
            src, order = plan.out, plan.order
        return tuple(entries), (shape, identity, flat) if src is None else _link(
            src, order, identity, flat)

    def after_idle(self, t_ns: float) -> "CompiledCircuit":
        """This circuit after a gate-less first step in which every noisy site
        decoheres for ``t_ns``, through the same channels as a moment."""
        idle = _Moment((), _channels(self.dims, self.noise, t_ns * 1e-3, self.quiet))
        return CompiledCircuit(self.dims, (idle, *self.steps), self.noise, self.quiet)


def _channels(dims: tuple[int, ...], noise: NoiseModel | None, t_us: float,
              quiet: frozenset) -> tuple:
    """The cascade channel over ``t_us`` on every site not in ``quiet``, as
    `apply_noise_step` applies it: the transfer matrix on the site's ket and
    bra axes."""
    if noise is None or t_us <= 0:
        return ()
    n = len(dims)
    return tuple((_plan(dims * 2, [s, s + n]), site_transfer(noise.rates, t_us, d).astype(complex))
                 for s, d in enumerate(dims) if s not in quiet)


def compile_circuit(circuit: Circuit, noise: NoiseModel | None = None, quiet=()) -> CompiledCircuit:
    """Build a circuit's gates and per-duration channels once.

    The register's sites follow the circuit's; the sites named in ``quiet``
    do not decohere.  The coherent-leakage part of the model (δϑ) is a
    property of how circuits are *built* and is not applied here.
    """
    names = list(circuit.site_dims)
    dims = tuple(circuit.site_dims.values())
    pos = {s: i for i, s in enumerate(names)}
    if any(s not in pos for s in quiet):
        raise ShapeError(f"quiet sites {list(quiet)} name sites outside {names}")
    quiet_pos = frozenset(pos[s] for s in quiet)
    channels: dict[float, tuple] = {}
    steps = []
    for m in circuit.ops:
        gates = []
        for g in m.gates:
            sites = [pos[s] for s in g.sites]
            matrix = np.ascontiguousarray(gate_matrix(g, tuple(dims[k] for k in sites)), dtype=complex)
            gates.append((matrix, matrix.conj(), sites))
        t_us = m.duration_ns * 1e-3
        if t_us not in channels:
            channels[t_us] = _channels(dims, noise, t_us, quiet_pos)
        steps.append(_Moment(tuple(gates), channels[t_us]))
    return CompiledCircuit(dims, tuple(steps), noise, quiet_pos)


def run_circuit(state: QuditRegister, circuit: Circuit,
                noise: NoiseModel | None = None) -> QuditRegister:
    """Run a circuit once on a register whose sites match the circuit's."""
    return compile_circuit(circuit, noise).run(state)
