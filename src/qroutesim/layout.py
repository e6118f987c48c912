"""Packed-triangular placement of routers on a defective 2D lattice.

A router triangle occupies one 2×2 lattice cell: three corner qubits are
the data vertices (input plus two outputs) and the fourth corner is the
address qubit.  Parent and child triangles share exactly one lattice
qubit — the parent's output vertex doubles as the child's input vertex —
and the triangle-adjacency graph must stay a tree whose occupied region
encloses no free qubits.

Layer counting follows the packed-system convention — the stack is the
input-bus level, the routing levels, and the data-leaf level — so a
``layers``-deep system holds 2^(layers−2) − 1 triangles (zero for layers
≤ 2, which are trivially placeable).  With this geometry a defect-free
12×6 lattice accommodates exactly up to five system layers (7 triangles);
six layers need 15 corner-linked cells, which require at least a 12×8
lattice (verified by exhaustive search, independent of the qubit budget).

`best_layout` tries root placements in lexicographic order and grows a
tree from each by depth-first search, one tree level at a time.  Once per
call it tabulates, for every lattice point, the placements having that
point as a vertex that are in bounds and avoid every defect qubit and
coupler, each with the bitmask of its three other corners; every seed's
search shares that table and tracks occupancy as one int bitmask.  The
search prunes a level when the free qubits cannot hold the triangles still
to come, and when its (occupancy, frontier points) state already failed
under the same seed.  A call visits at most `MAX_SEARCH_STATES` states
over all its seeds and raises CapacityError when it needs more.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import CapacityError

Coord = tuple[int, int]

#: lattice qubits (rows × cols) a layout may span: `footprints` tabulates each one
MAX_LATTICE_QUBITS = 1024

#: search states (frontier states expanded plus complete trees checked for
#: enclosed qubits) one `best_layout` or `grow_layout` call may visit, summed
#: over seeds; a search that needs more raises CapacityError
MAX_SEARCH_STATES = 250_000

#: corner offsets of a 2×2 cell, index order (TL, TR, BL, BR)
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class GridSpec:
    rows: int
    cols: int
    defect_qubits: frozenset = frozenset()
    defect_couplers: frozenset = frozenset()  # frozenset of adjacent coord pairs, either order

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got {self.rows}x{self.cols}")
        for r, c in self.defect_qubits:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"defect qubit {(r, c)} outside {self.rows}x{self.cols}")
        for pair in self.defect_couplers:
            a, b = pair
            if not (isinstance(pair, tuple) and self.in_bounds(a) and self.in_bounds(b)
                    and abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1):
                raise ValueError(f"defect coupler {pair} is not a coupler of the "
                                 f"{self.rows}x{self.cols} lattice")

    def in_bounds(self, q: Coord) -> bool:
        return 0 <= q[0] < self.rows and 0 <= q[1] < self.cols

    def coupler_ok(self, a: Coord, b: Coord) -> bool:
        return (a, b) not in self.defect_couplers and (b, a) not in self.defect_couplers


@dataclass(frozen=True)
class Triangle:
    """One 2×2-cell router: anchor = top-left lattice coordinate."""

    anchor: Coord
    address_corner: int  # 0..3 into _CORNERS
    input_corner: int    # 0..3, must differ from address_corner

    def corners(self) -> tuple[Coord, ...]:
        r, c = self.anchor
        return tuple((r + dr, c + dc) for dr, dc in _CORNERS)

    @property
    def address(self) -> Coord:
        return self.corners()[self.address_corner]

    @property
    def input(self) -> Coord:
        return self.corners()[self.input_corner]

    def vertices(self) -> tuple[Coord, ...]:
        return tuple(q for k, q in enumerate(self.corners()) if k != self.address_corner)

    def outputs(self) -> tuple[Coord, Coord]:
        return tuple(q for k, q in enumerate(self.corners())
                     if k not in (self.address_corner, self.input_corner))

    def qubits(self) -> tuple[Coord, ...]:
        return self.corners()

    def edges(self) -> tuple[tuple[Coord, Coord], ...]:
        """Lattice couplers the cell relies on: its four side edges."""
        (r, c) = self.anchor
        return (
            ((r, c), (r, c + 1)),
            ((r + 1, c), (r + 1, c + 1)),
            ((r, c), (r + 1, c)),
            ((r, c + 1), (r + 1, c + 1)),
        )


@dataclass
class TriangleLayout:
    triangles: list[Triangle] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)  # -1 for the root

    @property
    def layers(self) -> int:
        """System layers: bus level + triangle-tree depth + data-leaf level."""
        if not self.triangles:
            return 1
        depth = {0: 1}
        for i in range(1, len(self.triangles)):
            depth[i] = depth[self.parents[i]] + 1
        return max(depth.values()) + 2

    def occupied(self) -> set[Coord]:
        out: set[Coord] = set()
        for t in self.triangles:
            out.update(t.qubits())
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "layers": self.layers,
                "triangles": [
                    {
                        "anchor": list(t.anchor),
                        "address": list(t.address),
                        "input": list(t.input),
                        "vertices": [list(v) for v in t.vertices()],
                        "parent": p,
                    }
                    for t, p in zip(self.triangles, self.parents)
                ],
            },
            indent=2,
        )

    def to_coordinate_csv(self) -> str:
        lines = ["# qroutesim-schema v1", "triangle,role,row,col"]
        for i, t in enumerate(self.triangles):
            lines.append(f"{i},address,{t.address[0]},{t.address[1]}")
            lines.append(f"{i},input,{t.input[0]},{t.input[1]}")
            for v in t.outputs():
                lines.append(f"{i},output,{v[0]},{v[1]}")
        return "\n".join(lines) + "\n"


@dataclass
class LayoutReport:
    violations: list[str]

    @property
    def valid(self) -> bool:
        return not self.violations


def _holes(grid: GridSpec, occupied: set[Coord]) -> list[Coord]:
    """Free qubits not reachable from the lattice boundary (4-connectivity)."""
    free = {(r, c) for r in range(grid.rows) for c in range(grid.cols)} - occupied
    frontier = [q for q in free if q[0] in (0, grid.rows - 1) or q[1] in (0, grid.cols - 1)]
    seen = set(frontier)
    while frontier:
        r, c = frontier.pop()
        for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if nb in free and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return sorted(free - seen)


def check_layout(grid: GridSpec, layout: TriangleLayout) -> LayoutReport:
    """Report every violated placement constraint (empty report = valid)."""
    v: list[str] = []
    tris = layout.triangles
    if len(layout.parents) != len(tris):
        return LayoutReport(["parents list length mismatch"])
    for i, t in enumerate(tris):
        if t.address_corner == t.input_corner:
            v.append(f"triangle {i}: address and input share a corner")
        for q in t.qubits():
            if not grid.in_bounds(q):
                v.append(f"triangle {i}: qubit {q} out of bounds")
            elif q in grid.defect_qubits:
                v.append(f"triangle {i}: defective qubit {q}")
        for a, b in t.edges():
            if grid.in_bounds(a) and grid.in_bounds(b) and not grid.coupler_ok(a, b):
                v.append(f"triangle {i}: defective coupler {a}-{b}")
    # sharing discipline: parent/child share exactly their linking vertex
    shared_allowed: dict[frozenset, set[Coord]] = {}
    for i, p in enumerate(layout.parents):
        if i == 0:
            if p != -1:
                v.append("triangle 0 must be the root (parent -1)")
            continue
        if not 0 <= p < i:
            v.append(f"triangle {i}: parent index {p} invalid")
            continue
        link = set(tris[i].qubits()) & set(tris[p].qubits())
        if len(link) != 1:
            v.append(f"triangles {p}->{i}: share {len(link)} qubits, want exactly 1")
            continue
        q = next(iter(link))
        if q != tris[i].input:
            v.append(f"triangles {p}->{i}: shared qubit {q} is not the child's input")
        if q not in tris[p].outputs():
            v.append(f"triangles {p}->{i}: shared qubit {q} is not a parent output")
        shared_allowed[frozenset((p, i))] = link
    for i in range(len(tris)):
        for j in range(i + 1, len(tris)):
            overlap = set(tris[i].qubits()) & set(tris[j].qubits())
            allowed = shared_allowed.get(frozenset((i, j)), set())
            extra = overlap - allowed
            if extra:
                v.append(f"triangles {i},{j}: reuse qubits {sorted(extra)}")
    holes = _holes(grid, layout.occupied())
    if holes:
        v.append(f"occupied region encloses free qubits {holes}")
    return LayoutReport(v)


def _router_budget(layers: int) -> int:
    return 0 if layers < 3 else 2 ** (layers - 2) - 1


def _placements_at(grid: GridSpec, point: Coord) -> list[Triangle]:
    """All triangles having ``point`` as a non-address (vertex) corner."""
    out = []
    for dr, dc in _CORNERS:
        anchor = (point[0] - dr, point[1] - dc)
        if not (grid.in_bounds(anchor)
                and grid.in_bounds((anchor[0] + 1, anchor[1] + 1))):
            continue
        corner_idx = _CORNERS.index((dr, dc))
        for addr in range(4):
            if addr == corner_idx:
                continue
            out.append(Triangle(anchor, addr, corner_idx))
    return out


def _triangle_ok(grid: GridSpec, t: Triangle, occupied: set[Coord], attach: Coord) -> bool:
    for q in t.qubits():
        if not grid.in_bounds(q) or q in grid.defect_qubits:
            return False
        if q != attach and q in occupied:
            return False
    for a, b in t.edges():
        if not grid.coupler_ok(a, b):
            return False
    return True


class _Placement(NamedTuple):
    """A statically valid triangle at a point: the bitmask of its three
    corners other than that point, and its output vertices."""

    triangle: Triangle
    fresh: int
    outputs: tuple[Coord, Coord]


@dataclass
class Footprints:
    """Every lattice point's statically valid placements, in `_placements_at`
    order, built once per `best_layout` call and shared by each seed's
    search; also the tallies of those searches."""

    at: dict[Coord, tuple[_Placement, ...]]
    nodes_expanded: int = 0  # frontier states whose children were tried
    trees_checked: int = 0  # complete trees checked for enclosed free qubits
    dead_states: int = 0  # frontier states that failed, summed over seeds


#: per input corner, each address corner and the two output corners left
_OUTPUT_CORNERS = tuple(
    tuple((a, tuple(j for j in range(4) if j not in (a, k))) for a in range(4) if a != k)
    for k in range(4))


def _bit(grid: GridSpec, q: Coord) -> int:
    return 1 << (q[0] * grid.cols + q[1])


def footprints(grid: GridSpec) -> Footprints:
    """The placement table: in bounds, off defect qubits and defect couplers.

    Those checks see only a placement's 2×2 cell, so they run once per cell.
    A lattice of more than `MAX_LATTICE_QUBITS` raises CapacityError.
    """
    if grid.rows * grid.cols > MAX_LATTICE_QUBITS:
        raise CapacityError(f"a {grid.rows}x{grid.cols} lattice exceeds the "
                            f"{MAX_LATTICE_QUBITS}-qubit layout bound")
    cells = {}  # anchor -> corners and their bitmask, for each usable cell
    for r in range(grid.rows - 1):
        for c in range(grid.cols - 1):
            cell = Triangle((r, c), 0, 1)  # every triangle of a cell has its corners and edges
            corners = cell.corners()
            if (grid.defect_qubits.isdisjoint(corners)
                    and all(grid.coupler_ok(a, b) for a, b in cell.edges())):
                cells[r, c] = corners, sum(_bit(grid, q) for q in corners)
    at = {}
    for r in range(grid.rows):
        for c in range(grid.cols):
            row = []
            for k, (dr, dc) in enumerate(_CORNERS):  # the `_placements_at` order
                if (cell := cells.get((r - dr, c - dc))) is None:
                    continue
                corners, mask = cell
                fresh = mask & ~_bit(grid, (r, c))
                for addr, (i, j) in _OUTPUT_CORNERS[k]:
                    row.append(_Placement(Triangle((r - dr, c - dc), addr, k), fresh,
                                          (corners[i], corners[j])))
            at[r, c] = tuple(row)
    return Footprints(at)


def _encloses(grid: GridSpec, occ: int) -> bool:
    """Whether the occupancy bitmask ``occ`` encloses a free qubit: `_holes`
    as a flood fill over bitmasks, from the free boundary qubits inward."""
    cols = grid.cols
    row = (1 << cols) - 1
    left = sum(1 << r * cols for r in range(grid.rows))
    free = ~occ & ((1 << grid.rows * cols) - 1)
    reached = free & (row | row << (grid.rows - 1) * cols | left | left << cols - 1)
    while True:
        # a shift by one that wraps round a row lands on a boundary qubit,
        # which is reached from the start if free
        grown = free & (reached | reached << 1 | reached >> 1 | reached << cols | reached >> cols)
        if grown == reached:
            return grown != free
        reached = grown


def grow_layout(grid: GridSpec, seed: Triangle, target_layers: int,
                table: Footprints | None = None):
    """Grow a binary triangle tree from the seed to the requested depth,
    placing triangles from ``table`` (built here when not given).

    Returns (TriangleLayout, achieved_layers); the layout is None when the
    target could not be reached, with achieved_layers reporting the deepest
    complete tree found.
    """
    budget = _router_budget(target_layers)
    if budget == 0:
        return TriangleLayout([], []), target_layers
    free = grid.rows * grid.cols - len(grid.defect_qubits)
    if 3 * budget + 1 > free:
        return None, _max_layers_by_count(free)
    if not _triangle_ok(grid, seed, set(), seed.input):
        return None, 1
    if table is None:
        table = footprints(grid)
    at = table.at

    levels = target_layers - 2  # triangle-tree depth
    best_achieved = 3

    tris = [seed]
    parents = [-1]
    occ = sum(_bit(grid, q) for q in seed.qubits())
    dead: set[tuple] = set()

    def attach_children(points: list[tuple[int, Coord]], level: int) -> bool:
        nonlocal best_achieved
        if table.nodes_expanded + table.trees_checked >= MAX_SEARCH_STATES:
            raise CapacityError(f"the {target_layers}-layer layout search on {grid.rows}x"
                                f"{grid.cols} passed {MAX_SEARCH_STATES} states")
        best_achieved = max(best_achieved, level + 2)
        if level >= levels:
            table.trees_checked += 1
            return not _encloses(grid, occ)
        remaining_levels = levels - level
        # each new triangle adds exactly 3 fresh qubits
        if free - occ.bit_count() < 3 * len(points) * (2 ** remaining_levels - 1):
            return False
        key = (occ, tuple(sorted(p for _, p in points)))
        if key in dead:
            return False
        table.nodes_expanded += 1

        def assign(idx: int, next_points: list) -> bool:
            nonlocal occ
            if idx == len(points):
                return attach_children(next_points, level + 1)
            parent_idx, pt = points[idx]
            for child, fresh, outputs in at[pt]:
                if occ & fresh:
                    continue
                tris.append(child)
                parents.append(parent_idx)
                occ |= fresh
                child_pts = [(len(tris) - 1, out) for out in outputs]
                if assign(idx + 1, next_points + child_pts):
                    return True
                occ ^= fresh
                tris.pop()
                parents.pop()
            return False

        if assign(0, []):
            return True
        dead.add(key)
        table.dead_states += 1
        return False

    start_points = [(0, out) for out in seed.outputs()]
    if attach_children(start_points, 1):
        return TriangleLayout(list(tris), list(parents)), target_layers
    return None, best_achieved


def _max_layers_by_count(free_qubits: int) -> int:
    layers = 1
    while 3 * _router_budget(layers + 1) + 1 <= free_qubits:
        layers += 1
    return layers


def seed_candidates(grid: GridSpec) -> list[Triangle]:
    """All root placements in lexicographic anchor order."""
    out = []
    for r in range(grid.rows - 1):
        for c in range(grid.cols - 1):
            for addr in range(4):
                for inp in range(4):
                    if inp != addr:
                        out.append(Triangle((r, c), addr, inp))
    return out


def best_layout(grid: GridSpec, target_layers: int):
    """Scan seed placements (lexicographic, deterministic) for the target.

    Returns (seed, layout, diagnostics) or (None, None, diagnostics) on
    failure.  Diagnostics include the winning seed's distance from the grid
    center — the packing observation, reported, never asserted — and under
    ``search`` the seeds tried, frontier states expanded and dead states.
    """
    search = {"seeds_tried": 0, "nodes_expanded": 0, "dead_states": 0}
    if _router_budget(target_layers) == 0:
        return None, TriangleLayout([], []), {"note": "no routers requested", "search": search}
    free = grid.rows * grid.cols - len(grid.defect_qubits)
    if 3 * _router_budget(target_layers) + 1 > free:
        return None, None, {
            "reason": "qubit budget exceeded",
            "needed": 3 * _router_budget(target_layers) + 1,
            "available": free,
            "max_layers_by_count": _max_layers_by_count(free),
            "search": search,
        }
    table = footprints(grid)
    deepest = 1
    layout = None
    for seed in seed_candidates(grid):
        search["seeds_tried"] += 1
        layout, achieved = grow_layout(grid, seed, target_layers, table)
        deepest = max(deepest, achieved)
        if layout is not None:
            break
    search["nodes_expanded"] = table.nodes_expanded
    search["dead_states"] = table.dead_states
    if layout is None:
        return None, None, {"reason": "search exhausted", "deepest_layers": deepest,
                            "search": search}
    center = ((grid.rows - 1) / 2, (grid.cols - 1) / 2)
    d = abs(seed.anchor[0] + 0.5 - center[0]) + abs(seed.anchor[1] + 0.5 - center[1])
    return seed, layout, {"seed_center_distance": d, "search": search}
