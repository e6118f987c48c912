"""Circuit execution on qudit registers, with layer-wise decoherence.

Gates inside a moment are ideal and instantaneous; the moment's duration
(max over its gates) is then charged as a decoherence interval on every
site, idle or not.  A run maps a register to a register; post-selection
(the eraser's discard) is `qudit.project`/`postselect`, applied by the
callers between runs.

`compile_circuit` builds everything a run needs once: site positions, one
`qudit.Operator` per gate (its matrix, conjugate and contraction plans),
and per moment duration one (plan, transfer matrix) pair per noisy site.
Callers that repeat a circuit keep the `CompiledCircuit`, a snapshot that
later edits to the circuit do not reach.  The engine only sequences: gates
and channels alike reach the state through `qudit._Plan`, and the transfer
matrices are the ones `noise.apply_noise_step` applies, so a compiled run
is bit for bit `apply_gate` per gate plus `apply_noise_step` per moment.

Sites named ``quiet`` get no decoherence and may have any dimension: a
reference register that no gate touches rides along unchanged, which is
how `rat` reads a block's superoperator off one run (its Choi matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ShapeError
from .gates import Circuit, gate_matrix
from .noise import NoiseModel, site_transfer
from .qudit import Operator, QuditRegister, _plan, bind_operator


class _Moment(NamedTuple):
    gates: tuple[Operator, ...]
    channels: tuple  # (plan, transfer) per noisy site; empty when noiseless or instant


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit bound to its site order and a noise model, ready to run."""

    dims: tuple[int, ...]
    steps: tuple[_Moment, ...]
    noise: NoiseModel | None

    def run(self, state: QuditRegister) -> QuditRegister:
        """Run on a register with the compiled dims (never modifying its array);
        with a NoiseModel, ρ decoheres after each moment that has gates."""
        dims, noise = self.dims, self.noise
        if tuple(state.dims) != dims:
            raise ShapeError(f"register dims {state.dims} != circuit dims {dims}")
        if noise is not None:
            state = state.to_mixed()
        data, shape = state.data, state.data.shape
        for step in self.steps:
            for g in step.gates:
                data = g.apply(data)
            for plan, transfer in step.channels:
                data = plan.apply(transfer, data)
        return QuditRegister(dims, data.reshape(shape))


def _channels(dims: tuple[int, ...], noise: NoiseModel | None, t_us: float,
              quiet: frozenset) -> tuple:
    """The cascade channel over ``t_us`` on every site not in ``quiet``, as
    `apply_noise_step` applies it: the transfer matrix on the site's ket and
    bra axes."""
    if noise is None or t_us <= 0:
        return ()
    n = len(dims)
    return tuple((_plan(dims * 2, [s, s + n]), site_transfer(noise.rates, t_us, d))
                 for s, d in enumerate(dims) if s not in quiet)


def compile_circuit(circuit: Circuit, noise: NoiseModel | None = None, quiet=()) -> CompiledCircuit:
    """Build a circuit's gate operators and per-duration channels once.

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
            gates.append(bind_operator(gate_matrix(g, tuple(dims[k] for k in sites)), dims, sites))
        t_us = m.duration_ns * 1e-3
        if t_us not in channels:
            channels[t_us] = _channels(dims, noise, t_us, quiet_pos)
        steps.append(_Moment(tuple(gates), channels[t_us]))
    return CompiledCircuit(dims, tuple(steps), noise)


def run_circuit(state: QuditRegister, circuit: Circuit,
                noise: NoiseModel | None = None) -> QuditRegister:
    """Run a circuit once on a register whose sites match the circuit's."""
    return compile_circuit(circuit, noise).run(state)
