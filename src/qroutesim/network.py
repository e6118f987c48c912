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
from itertools import chain
from typing import NamedTuple

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
from .protocols import AddressState, _ordered_sums, scheme_basis
from .rat import _TwoLayerRun

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


#: the deepest tree `build_tree` builds: a 12-layer full query is about 225k
#: gates (9 MiB as text), and every two more layers cost about four times that
MAX_LAYERS = 12


def build_tree(layers: int) -> RoutingTree:
    """Binary tree with 2^layers − 1 routers and 2^layers data leaves."""
    if layers < 1:
        raise ShapeError("layers must be >= 1")
    if layers > MAX_LAYERS:
        raise CapacityError(f"{layers} layers exceeds the {MAX_LAYERS}-layer tree bound")
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
    counters: dict[str, int] = field(default_factory=dict)  # passes built and appended


def gate_counts(circuit: Circuit) -> tuple[int, int, int]:
    """(single-site gates, two-site gates, depth in non-empty moments)."""
    moments = [m.gates for m in circuit.ops if m.gates]
    n_sites = [len(g.sites) for gates in moments for g in gates]
    return n_sites.count(1), n_sites.count(2), len(moments)


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


#: the only scheme whose router block depends on the direction ("down"/"up")
DIRECTIONAL_SCHEMES = ("sp-tcg",)


def router_circuit_for(scheme: str, direction: str, sites, dims) -> Circuit:
    """One router block; ``direction`` matters only for `DIRECTIONAL_SCHEMES`."""
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


def _copied_pass(block: list[tuple[GateSpec, ...]], first: tuple[str, ...],
                 rest: list[tuple[str, ...]]) -> list[list[GateSpec]]:
    """The moments of a pass that runs ``block``, a block of moments on the
    sites ``first``, on each site tuple of ``rest`` too.

    A block's gates name their sites only by position, so each distinct
    gate object is copied once onto each tuple of ``rest``, keeping its
    ``params`` tuple and duration; copies on the same sites share one sites
    tuple.  Each moment joins the copies site tuple by site tuple, in the
    order of ``first, *rest``."""
    if not rest:
        return [list(gates) for gates in block]
    position = {s: k for k, s in enumerate(first)}
    placed: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    copies: dict[int, list[GateSpec]] = {}
    for gates in block:
        for g in gates:
            if id(g) not in copies:
                on = placed.get(g.sites)
                if on is None:
                    at = [position[s] for s in g.sites]
                    on = placed[g.sites] = [tuple([sites[k] for k in at]) for sites in rest]
                name, _, params, duration = g
                copies[id(g)] = [g] + [GateSpec(name, sites, params, duration) for sites in on]
    return [list(chain.from_iterable(zip(*[copies[id(g)] for g in gates]))) for gates in block]


class _Pass(NamedTuple):
    """A router pass, transfer group or leaf layer, built once per query: the
    zipped moments of its site-disjoint blocks, its tallies and its sites."""

    moments: tuple[Moment, ...]
    counts: tuple[int, int, int]  # (N1q, N2q, depth), as `gate_counts` tallies
    sites: tuple[str, ...]


def _build_pass(tree: RoutingTree, site_dims: dict[str, int], scheme: str, key: tuple) -> _Pass:
    """The pass ``key`` of a query plan (a router pass over one level, a
    transfer group or the leaf layer), checked against the query's sites once."""
    kind, *args = key
    if kind == "router":
        level, direction = args
        # one router block per pass, on the level's first node
        first, *rest = [(n.input_site, n.address_site, n.left_site, n.right_site)
                        for n in tree.level_nodes(level)]
        block = router_circuit_for(scheme, direction, first, tuple(site_dims[s] for s in first)).ops
        moments = _copied_pass([m.gates for m in block], first, rest)
    elif kind == "transfer":
        (first, *rest), reverse, to_address = args
        moments = _copied_pass(_transfer_moments(scheme, *first, reverse, to_address), first, rest)
    else:  # ("leaf", bits)
        moments = [[GateSpec("cls_x", (leaf,), (("bit", float(bit)),), SINGLE_NS)
                    for leaf, bit in zip(tree.leaf_sites, args[0])]]
    check = Circuit(site_dims)
    for gates in moments:
        check.add_moment(*gates)
    if kind == "leaf":  # in tree order: sorted, D10 would come before D2
        sites = tuple(tree.leaf_sites)
    else:
        sites = tuple(sorted({s for m in check.ops for g in m.gates for s in g.sites}))
    return _Pass(tuple(check.ops), gate_counts(check), sites)


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

    The query is written down as a plan of (stage, level, pass key) entries,
    then assembled in one loop: each distinct pass is built once, and every
    use appends its own immutable `Moment`s, a `ScheduleGroup` and its tallies.
    """
    if mode not in MODES:
        raise ShapeError(f"unknown mode {mode!r}")
    if scheme not in SCHEMES:
        raise ShapeError(f"unknown scheme {scheme!r}")
    if scheme == "sp-tcg" and mode == "full":
        raise IncompatibleMode("sp-tcg routers are one-way; full queries need both directions")
    data_bits = [0] * len(tree.leaf_sites) if data_bits is None else list(data_bits)
    if len(data_bits) != len(tree.leaf_sites) or any(bit not in (0, 1) for bit in data_bits):
        raise ShapeError(f"data_bits needs one 0/1 bit per leaf ({len(tree.leaf_sites)}), "
                         f"got {data_bits!r}")
    L = tree.layers
    plan: list[tuple[str, int, tuple]] = []

    def router(stage: str, level: int, direction: str) -> None:
        if scheme not in DIRECTIONAL_SCHEMES:
            direction = "down"  # the same block either way: one pass per level
        plan.append((stage, level, ("router", level, direction)))

    def transfer(stage: str, pairs: list[tuple[str, str]], reverse: bool = False,
                 level: int = 0, to_address: bool = False) -> None:
        plan.append((stage, level, ("transfer", tuple(pairs), reverse, to_address)))

    for k in range(1, L + 1):
        transfer("load", [(f"A{k}", "IN1")])
        for level in range(1, k):
            router("load", level, "down")
        transfer("load", [(n.input_site, n.address_site) for n in tree.level_nodes(k)],
                 level=k, to_address=True)

    if mode in ("full", "write-only"):
        transfer("route-down", [(tree.data_bus, "IN1")])
        for level in range(1, L + 1):
            router("route-down", level, "down")

    plan.append(("data", L + 1, ("leaf", tuple(data_bits))))

    if mode in ("full", "read-only"):
        for level in range(L, 0, -1):
            router("route-up", level, "up")
        transfer("route-up", [(tree.data_bus, "IN1")], reverse=True)

    for k in range(L, 0, -1):
        transfer("unload", [(n.input_site, n.address_site) for n in tree.level_nodes(k)],
                 reverse=True, level=k, to_address=True)
        for level in range(k - 1, 0, -1):
            router("unload", level, "up")
        transfer("unload", [(f"A{k}", "IN1")], reverse=True)

    circuit = Circuit(tree.site_dims())
    schedule: list[ScheduleGroup] = []
    stage_moments: dict[str, tuple[int, int]] = {}
    passes: dict[tuple, _Pass] = {}
    n1 = n2 = depth = 0
    for stage, level, key in plan:
        p = passes.get(key)
        if p is None:
            p = passes[key] = _build_pass(tree, circuit.site_dims, scheme, key)
        circuit.ops.extend(p.moments)
        schedule.append(ScheduleGroup(stage, level, level % 2, p.counts[0] + p.counts[1], p.sites))
        start = stage_moments.get(stage, (depth, depth))[0]
        n1, n2, depth = n1 + p.counts[0], n2 + p.counts[1], depth + p.counts[2]
        stage_moments[stage] = (start, depth)
    # a counted pass is a router pass or a transfer group, not the leaf layer
    counters = {"passes_built": sum(key[0] != "leaf" for key in passes),
                "passes_appended": sum(key[0] != "leaf" for _, _, key in plan)}
    return CompiledQuery(circuit, (n1, n2, depth), schedule, mode, scheme,
                         stage_moments, counters)


# --- two-layer landscape -----------------------------------------------------


def two_layer_landscape(theta1s, theta2s, scheme: str = "eraser",
                        noise=None, block_overhead_ns: float = 1200.0) -> np.ndarray:
    """P(D1..D4) after one down-routing pass, over an address-angle grid.

    The same angle θ2 drives both second-level routers, giving the product
    surfaces P_D1 = sin²θ1 sin²θ2 ... P_D4 = cos²θ1 cos²θ2 noiselessly.
    Noisy runs include the standard per-block initialization window.
    """
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
            addr = (AddressState(t1, 0.0, basis), AddressState(t2, 0.0, basis),
                    AddressState(t2, 0.0, basis))
            out[i, j] = _ordered_sums(np.where(excited, run.step(run.start, addr, False)[0][0], 0.0))
    return out
