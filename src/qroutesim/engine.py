"""Circuit execution on qudit registers, with layer-wise decoherence.

Gates inside a moment are ideal and instantaneous; the moment's duration
(max over its gates) is then charged as a decoherence interval on every
site, idle or not.  A run maps a register to a register; post-selection
(the eraser's discard) is applied by the callers between runs.

`compile_circuit` builds, once, one program per state representation
(vector and ρ): each gate side and each noisy site's channel per moment is
an entry ``(matrix, shape, perm, flat)``, its `qudit._Plan` linked to the
previous product by `qudit._link`, and a run is one product per entry and
a final restore.  The products take the operands `_Plan.apply` gives, with
the transfer matrices of `noise.apply_noise_step` (as complex128), so a
compiled run is bit for bit `apply_gate` per gate plus `apply_noise_step`
per moment.  A `CompiledCircuit` is a snapshot that later edits to the
circuit do not reach.

Sites named ``quiet`` get no decoherence and may have any dimension: a
reference register that no gate touches rides along unchanged, which is
how `rat` reads a block's superoperator off one run (its Choi matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .gates import Circuit, gate_matrix
from .noise import NoiseModel, site_transfer
from .qudit import QuditRegister, _link, _plan


class _Moment(NamedTuple):
    gates: tuple  # (matrix, conjugate, sites) per gate
    channels: tuple  # (plan, transfer) per noisy site; empty when noiseless or instant


def _program(sides, shape: tuple) -> tuple:
    """Link (matrix, plan) sides on a tensor of ``shape`` into run entries,
    and the restore of the last product to ``shape``'s axes.  The first entry
    takes the state as `_Plan.apply` does, a strided view or not."""
    entries, src, order, identity = [], None, None, tuple(range(len(shape)))
    for matrix, plan in sides:
        link = (plan.shape, plan.perm) if src is None else _link(src, order, plan.perm)
        entries.append((matrix, *link, plan.flat))
        src, order = plan.out, plan.order
    return tuple(entries), (shape, identity) if src is None else _link(src, order, identity)


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit bound to its site order and a noise model, ready to run."""

    dims: tuple[int, ...]
    steps: tuple[_Moment, ...]
    noise: NoiseModel | None
    quiet: frozenset  # positions of the sites that do not decohere
    programs: dict  # is_pure -> (entries, restore); vectors run only without noise

    def run(self, state: QuditRegister) -> QuditRegister:
        """Run on a register with the compiled dims (never modifying its array);
        with a NoiseModel, ρ decoheres after each moment that has gates (and
        in the first step of `after_idle`)."""
        if tuple(state.dims) != self.dims:
            raise ShapeError(f"register dims {state.dims} != circuit dims {self.dims}")
        if self.noise is not None:
            state = state.to_mixed()
        entries, (shape, perm) = self.programs[state.is_pure]
        data = state.data
        for matrix, in_shape, in_perm, flat in entries:
            data = matrix @ data.reshape(in_shape).transpose(in_perm).reshape(flat)
        return QuditRegister(self.dims, data.reshape(shape).transpose(perm).reshape(state.data.shape))

    def after_idle(self, t_ns: float) -> "CompiledCircuit":
        """This circuit after a gate-less first step in which every noisy site
        decoheres for ``t_ns``, through the same channels as a moment."""
        idle = _Moment((), _channels(self.dims, self.noise, t_ns * 1e-3, self.quiet))
        return _bind(self.dims, (idle, *self.steps), self.noise, self.quiet)


def _bind(dims: tuple, steps: tuple, noise: NoiseModel | None, quiet: frozenset) -> CompiledCircuit:
    """The CompiledCircuit of ``steps``, with its programs."""
    n = len(dims)
    pure, mixed = [], []
    for m in steps:
        for g, conj, sites in m.gates:
            pure.append((g, _plan(dims, sites)))
            mixed += [(g, _plan(dims * 2, sites)), (conj, _plan(dims * 2, [s + n for s in sites]))]
        mixed += [(t, plan) for plan, t in m.channels]
    programs = {False: _program(mixed, dims * 2)}
    if noise is None:
        programs[True] = _program(pure, dims)
    return CompiledCircuit(dims, steps, noise, quiet, programs)


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
    """Build a circuit's gates, per-duration channels and programs once.

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
    return _bind(dims, tuple(steps), noise, quiet_pos)


def run_circuit(state: QuditRegister, circuit: Circuit,
                noise: NoiseModel | None = None) -> QuditRegister:
    """Run a circuit once on a register whose sites match the circuit's."""
    return compile_circuit(circuit, noise).run(state)
