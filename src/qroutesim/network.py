"""Binary routing trees: query compilation, gate accounting, scheduling.

A tree of L router levels has 2^L − 1 nodes in heap order (node n has
children 2n, 2n+1) and 2^L data leaves.  Compiled queries are built from
per-level parallel moments so that all nodes of a level fire together;
levels of equal parity never share sites, which is what the parity-group
schedule records.

Address encoding per scheme: tcg-eraser loads addresses in {0,2} (the TCG
one-way transfer deposits there natively); the other schemes use {0,1}.
Data leaves hold classical bits; read-type queries apply a classically
controlled X on the routed leaf site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, IncompatibleMode, ShapeError
from .gates import (
    SINGLE_NS,
    SQRT_CZ_NS,
    Circuit,
    GateSpec,
    Moment,
    clifford_qrouter_circuit,
    qrouter_circuit,
    sp_qrouter_circuit,
)

SCHEMES = ("clifford", "tcg-non-eraser", "tcg-eraser", "sp-tcg")
MODES = ("full", "read-only", "write-only")


@dataclass(frozen=True)
class RouterNode:
    index: int  # heap index, root = 1
    level: int  # 1-based
    input_site: str
    address_site: str
    left_site: str
    right_site: str


@dataclass
class RoutingTree:
    layers: int
    nodes: list[RouterNode]
    leaf_sites: list[str]
    address_bus: list[str]
    data_bus: str = "BUS"

    def level_nodes(self, level: int) -> list[RouterNode]:
        return [n for n in self.nodes if n.level == level]

    def site_dims(self) -> dict[str, int]:
        dims: dict[str, int] = {a: 2 for a in self.address_bus}
        dims[self.data_bus] = 2
        for n in self.nodes:
            dims[n.input_site] = 3  # receives TCG transfers (visits |2⟩)
            dims[n.address_site] = 3
        for d in self.leaf_sites:
            dims[d] = 2
        return dims


def build_tree(layers: int) -> RoutingTree:
    """Binary tree with 2^layers − 1 routers and 2^layers data leaves."""
    if layers < 1:
        raise ShapeError("layers must be >= 1")
    n_nodes = 2**layers - 1
    nodes = []
    for idx in range(1, n_nodes + 1):
        level = idx.bit_length()
        if level < layers:
            left, right = f"IN{2 * idx}", f"IN{2 * idx + 1}"
        else:
            base = 2 * idx - 2**layers
            left, right = f"D{base}", f"D{base + 1}"
        nodes.append(RouterNode(idx, level, f"IN{idx}", f"C{idx}", left, right))
    leaves = [f"D{j}" for j in range(2**layers)]
    bus = [f"A{k}" for k in range(1, layers + 1)]
    return RoutingTree(layers, nodes, leaves, bus)


@dataclass
class ScheduleGroup:
    stage: str
    level: int  # 0 for bus-level operations
    parity: int
    gate_count: int
    sites: tuple[str, ...]


@dataclass
class CompiledQuery:
    circuit: Circuit
    counts: tuple[int, int, int]  # (N1q, N2q, depth)
    schedule: list[ScheduleGroup]
    mode: str
    scheme: str
    stage_moments: dict[str, tuple[int, int]] = field(default_factory=dict)


def gate_counts(circuit: Circuit) -> tuple[int, int, int]:
    """(single-site gates, two-site gates, depth in non-empty moments)."""
    n1 = sum(1 for g in circuit.gates() if g.n_sites == 1)
    n2 = sum(1 for g in circuit.gates() if g.n_sites == 2)
    return n1, n2, circuit.depth


def dependency_depth(circuit: Circuit) -> int:
    """Critical path with unit gate depth — the independent schedule oracle."""
    frontier: dict[str, int] = {}
    best = 0
    for g in circuit.gates():
        d = 1 + max((frontier.get(s, 0) for s in g.sites), default=0)
        for s in g.sites:
            frontier[s] = d
        best = max(best, d)
    return best


def router_circuit_for(scheme: str, direction: str, sites, dims) -> Circuit:
    if scheme == "clifford":
        return clifford_qrouter_circuit(sites, dims)
    if scheme == "tcg-non-eraser":
        return qrouter_circuit("non-eraser", sites=sites, dims=dims)
    if scheme == "tcg-eraser":
        return qrouter_circuit("eraser", sites=sites, dims=dims)
    if scheme == "sp-tcg":
        return sp_qrouter_circuit(direction, sites=sites, dims=dims)
    raise ShapeError(f"unknown scheme {scheme!r}")


def router_counts(scheme: str) -> tuple[int, int, int]:
    """Single-router gate tallies for the scheme comparison report."""
    dims = (2, 2, 2, 2) if scheme == "clifford" else (3, 3, 3, 3)
    return gate_counts(router_circuit_for(scheme, "down", ("Q_I", "Q_C", "Q_L", "Q_R"), dims))


def _transfer_moments(scheme: str, src: str, dst: str, reverse: bool = False,
                      to_address: bool = False) -> list[list[GateSpec]]:
    """One-way state transfer src → dst (dst starts |0⟩), per scheme.

    TCG: X01(dst), √CZ(src,dst), X01(dst) deposits into {0,2}; an X12(dst)
    maps down to the computational {0,1} used by traveling bits.  The
    eraser's address deposits stay in {0,2} (its routers' native encoding),
    everything else ends computational.  The same core block run again
    moves a {0,2} bit back, so unloading reuses it with the X12 leading.
    Clifford: the standard three-CNOT swap.
    """
    if scheme == "clifford":
        cx = lambda a, b: GateSpec("cx", (a, b), (), SQRT_CZ_NS)
        return [[cx(src, dst)], [cx(dst, src)], [cx(src, dst)]]
    x01 = GateSpec("x01", (dst,), (("phase", 0.0),), SINGLE_NS)
    x12 = GateSpec("x12", (dst,), (("phase", 0.0),), SINGLE_NS)
    cz = GateSpec("sqrt_cz", (src, dst), (("theta", math.pi), ("eta", 0.0)), SQRT_CZ_NS)
    core = [[x01], [cz], [x01]]
    if to_address and scheme == "tcg-eraser":
        return core
    if reverse:
        return [[x12]] + core
    return core + [[x12]]


def _append_parallel(circuit: Circuit, blocks: list[Circuit]) -> int:
    """Zip the moments of site-disjoint blocks into shared moments.

    Returns the number of moments appended.
    """
    if not blocks:
        return 0
    lists = [b.moments() for b in blocks]
    depth = max(len(ms) for ms in lists)
    for k in range(depth):
        gates = []
        for ms in lists:
            if k < len(ms):
                gates.extend(ms[k].gates)
        circuit.add_moment(*gates)
    return depth


def _append_moments(circuit: Circuit, moments: list[list[GateSpec]]) -> int:
    for m in moments:
        circuit.add_moment(*m)
    return len(moments)


class _QueryBuilder:
    def __init__(self, tree: RoutingTree, scheme: str):
        self.tree = tree
        self.scheme = scheme
        self.circuit = Circuit(tree.site_dims())
        self.schedule: list[ScheduleGroup] = []
        self.stage_moments: dict[str, tuple[int, int]] = {}
        self._stage_start: int | None = None
        self._stage_name: str | None = None

    def start_stage(self, name: str) -> None:
        self._stage_name = name
        self._stage_start = self.circuit.depth

    def end_stage(self) -> None:
        self.stage_moments[self._stage_name] = (self._stage_start, self.circuit.depth)
        self._stage_name = None

    def _group(self, level: int, blocks: list[Circuit]) -> None:
        gates = sum(len(b.gates()) for b in blocks)
        sites = tuple(s for b in blocks for m in b.moments() for g in m.gates for s in g.sites)
        self.schedule.append(
            ScheduleGroup(self._stage_name, level, level % 2, gates, tuple(sorted(set(sites))))
        )

    def router_pass(self, level: int, direction: str) -> None:
        blocks = []
        for node in self.tree.level_nodes(level):
            sites = (node.input_site, node.address_site, node.left_site, node.right_site)
            dims = tuple(self.circuit.site_dims[s] for s in sites)
            blocks.append(router_circuit_for(self.scheme, direction, sites, dims))
        self._group(level, blocks)
        _append_parallel(self.circuit, blocks)

    def transfer(self, pairs: list[tuple[str, str]], reverse: bool = False,
                 level: int = 0, to_address: bool = False) -> None:
        blocks = []
        for src, dst in pairs:
            b = Circuit({src: self.circuit.site_dims[src], dst: self.circuit.site_dims[dst]})
            _append_moments(b, _transfer_moments(self.scheme, src, dst, reverse, to_address))
            blocks.append(b)
        self._group(level, blocks)
        _append_parallel(self.circuit, blocks)

    def leaf_layer(self, data_bits) -> None:
        gates = [
            GateSpec("cls_x", (leaf,), (("bit", float(bit)),), SINGLE_NS)
            for leaf, bit in zip(self.tree.leaf_sites, data_bits)
        ]
        self.schedule.append(ScheduleGroup(
            self._stage_name, self.tree.layers + 1, (self.tree.layers + 1) % 2,
            len(gates), tuple(self.tree.leaf_sites),
        ))
        self.circuit.add_moment(*gates)


def compile_query(
    tree: RoutingTree,
    mode: str = "full",
    scheme: str = "tcg-eraser",
    data_bits=None,
) -> CompiledQuery:
    """Compile a complete memory query against the routing tree.

    full: load → route-down → leaf transfer → route-up → unload.
    read-only: load → leaf transfer → route-up → unload (one-way data).
    write-only: load → route-down → leaf transfer → unload.

    The sp-tcg scheme realizes only one-way transfer and rejects full mode.
    """
    if mode not in MODES:
        raise ShapeError(f"unknown mode {mode!r}")
    if scheme not in SCHEMES:
        raise ShapeError(f"unknown scheme {scheme!r}")
    if scheme == "sp-tcg" and mode == "full":
        raise IncompatibleMode("sp-tcg routers are one-way; full queries need both directions")
    if data_bits is None:
        data_bits = [0] * len(tree.leaf_sites)
    b = _QueryBuilder(tree, scheme)
    L = tree.layers

    b.start_stage("load")
    for k in range(1, L + 1):
        b.transfer([(f"A{k}", "IN1")])
        for level in range(1, k):
            b.router_pass(level, "down")
        b.transfer([(n.input_site, n.address_site) for n in tree.level_nodes(k)],
                   level=k, to_address=True)
    b.end_stage()

    if mode in ("full", "write-only"):
        b.start_stage("route-down")
        b.transfer([(tree.data_bus, "IN1")])
        for level in range(1, L + 1):
            b.router_pass(level, "down")
        b.end_stage()

    b.start_stage("data")
    b.leaf_layer(data_bits)
    b.end_stage()

    if mode in ("full", "read-only"):
        b.start_stage("route-up")
        for level in range(L, 0, -1):
            b.router_pass(level, "up")
        b.transfer([(tree.data_bus, "IN1")], reverse=True)
        b.end_stage()

    b.start_stage("unload")
    for k in range(L, 0, -1):
        b.transfer([(n.input_site, n.address_site) for n in tree.level_nodes(k)],
                   reverse=True, level=k, to_address=True)
        for level in range(k - 1, 0, -1):
            b.router_pass(level, "up")
        b.transfer([(f"A{k}", "IN1")], reverse=True)
    b.end_stage()

    return CompiledQuery(b.circuit, gate_counts(b.circuit), b.schedule, mode, scheme,
                         b.stage_moments)


# --- two-layer landscape -----------------------------------------------------


def two_layer_landscape(theta1s, theta2s, scheme: str = "eraser",
                        noise=None, block_overhead_ns: float = 1200.0) -> np.ndarray:
    """P(D1..D4) after one down-routing pass, over an address-angle grid.

    The same angle θ2 drives both second-level routers, giving the product
    surfaces P_D1 = sin²θ1 sin²θ2 ... P_D4 = cos²θ1 cos²θ2 noiselessly.
    Noisy runs include the standard per-block initialization window.
    """
    from .protocols import AddressState, _ordered_sums, scheme_basis
    from .rat import _TwoLayerRun

    if scheme not in ("eraser", "non-eraser"):
        raise ShapeError(f"unknown scheme {scheme!r}")
    basis = scheme_basis(scheme)
    run = _TwoLayerRun(scheme, noise, SQRT_CZ_NS, SINGLE_NS,
                       block_overhead_ns=block_overhead_ns if noise else 0.0)
    theta1s = np.asarray(theta1s, dtype=float)
    theta2s = np.asarray(theta2s, dtype=float)
    out = np.zeros((theta1s.size, theta2s.size, 4))
    # marginals of D1..D4, sites 1..4 of the measured (Q_I, D1..D4)
    excited = np.indices((2,) * 5).reshape(5, 32)[1:] == 1
    for i, t1 in enumerate(theta1s):
        for j, t2 in enumerate(theta2s):
            run.reset()
            addr = (AddressState(t1, 0.0, basis), AddressState(t2, 0.0, basis),
                    AddressState(t2, 0.0, basis))
            out[i, j] = _ordered_sums(np.where(excited, run.measure_final(addr)[0], 0.0))
    return out
