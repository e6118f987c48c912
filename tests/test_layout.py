"""Triangle packing: constraint checking and growth search."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qroutesim import layout
from qroutesim.cli import main
from qroutesim.errors import CapacityError
from qroutesim.layout import (
    GridSpec,
    Triangle,
    TriangleLayout,
    _encloses,
    _holes,
    _placements_at,
    _triangle_ok,
    best_layout,
    check_layout,
    footprints,
    grow_layout,
    seed_candidates,
)


def test_single_triangle_valid():
    grid = GridSpec(4, 4)
    layout = TriangleLayout([Triangle((1, 1), 3, 0)], [-1])
    assert check_layout(grid, layout).valid


def test_edge_sharing_violation():
    grid = GridSpec(6, 6)
    # two cells side by side share two qubits: breaks the vertex-pair rule
    t1 = Triangle((0, 0), 3, 0)
    t2 = Triangle((0, 1), 2, 0)
    rep = check_layout(grid, TriangleLayout([t1, t2], [-1, 0]))
    assert not rep.valid
    assert any("share 2" in v or "reuse" in v for v in rep.violations)


def test_device_style_three_triangle_layout():
    # 3 corner-linked triangles, 10 distinct qubits: the experimental unit
    grid = GridSpec(6, 6)
    root = Triangle((2, 2), address_corner=0, input_corner=1)  # outputs (3,2),(3,3)
    left = Triangle((3, 1), address_corner=2, input_corner=1)  # input (3,2)
    right = Triangle((3, 3), address_corner=3, input_corner=0)  # input (3,3)
    layout = TriangleLayout([root, left, right], [-1, 0, 0])
    rep = check_layout(grid, layout)
    assert rep.valid, rep.violations
    assert len(layout.occupied()) == 10
    assert layout.layers == 4


def test_defect_rejection():
    grid = GridSpec(4, 4, defect_qubits=frozenset({(1, 1)}))
    layout = TriangleLayout([Triangle((0, 0), 0, 1)], [-1])
    rep = check_layout(grid, layout)
    assert any("defective qubit" in v for v in rep.violations)
    grid2 = GridSpec(4, 4, defect_couplers=frozenset({((0, 0), (0, 1))}))
    rep2 = check_layout(grid2, TriangleLayout([Triangle((0, 0), 0, 1)], [-1]))
    assert any("defective coupler" in v for v in rep2.violations)


@pytest.mark.parametrize("pair", [((0, 0), (9, 9)), ((0, 0), (2, 2)), ((0, 0), (1, 1)),
                                  ((1, 1), (1, 1)), ((3, 3), (3, 4)), ((-1, 0), (0, 0)),
                                  frozenset({(0, 0), (0, 1)})])  # `coupler_ok` reads tuples
def test_defect_coupler_must_be_a_lattice_coupler(pair):
    with pytest.raises(ValueError, match="defect coupler"):
        GridSpec(4, 4, defect_couplers=frozenset({pair}))
    # a lattice coupler is accepted, in either order
    GridSpec(4, 4, defect_couplers=frozenset({((1, 2), (1, 3)), ((3, 0), (2, 0))}))


@pytest.mark.parametrize("pair", [((0, 0), (0, 1)), ((0, 1), (0, 0))])
def test_a_dead_coupler_is_dead_in_either_order(pair):
    grid = GridSpec(3, 3, defect_couplers=frozenset({pair}))
    assert not grid.coupler_ok((0, 0), (0, 1)) and not grid.coupler_ok((0, 1), (0, 0))
    assert grid.coupler_ok((0, 0), (1, 0))
    assert footprints(grid).at[0, 0] == ()  # the one cell that has the coupler is dead
    assert len(footprints(grid).at[1, 1]) == 9


def test_hole_detection():
    # ring of triangles around an empty interior region
    grid = GridSpec(8, 8)
    ring = [
        Triangle((1, 1), 0, 1),
        Triangle((1, 3), 0, 1),
        Triangle((3, 1), 0, 1),
        Triangle((3, 3), 0, 1),
    ]
    # declare a chain so only pairwise-overlap violations matter
    layout = TriangleLayout(ring, [-1, 0, 0, 1])
    rep = check_layout(grid, layout)
    assert any("encloses" in v or "share" in v or "reuse" in v for v in rep.violations)


def test_grow_ladder_and_failure():
    grid = GridSpec(12, 6)
    seed = Triangle((5, 2), 0, 1)
    for target, tris in ((3, 1), (4, 3), (5, 7)):
        layout, achieved = grow_layout(grid, seed, target)
        assert layout is not None and achieved == target
        assert len(layout.triangles) == tris
        assert check_layout(grid, layout).valid
    layout, achieved = grow_layout(grid, seed, 6)
    assert layout is None
    assert achieved <= 5


def test_grow_rejects_seed_on_a_defect():
    seed = Triangle((5, 2), 0, 1)
    for q in seed.corners():  # the input included
        grid = GridSpec(12, 6, defect_qubits=frozenset({q}))
        assert grow_layout(grid, seed, 4) == (None, 1)


def test_best_layout_trivial_and_deterministic():
    grid = GridSpec(3, 3)
    _, layout, _ = best_layout(grid, 1)
    assert layout is not None and len(layout.triangles) == 0
    seed1, l1, _ = best_layout(GridSpec(12, 6), 4)
    seed2, l2, _ = best_layout(GridSpec(12, 6), 4)
    assert seed1 == seed2
    assert l1.to_json() == l2.to_json()


def test_best_layout_monotone():
    grid = GridSpec(12, 6)
    feasible = []
    for L in range(1, 7):
        _, layout, _ = best_layout(grid, L)
        feasible.append(layout is not None)
    # once a depth fails, deeper targets must fail too
    for k in range(1, len(feasible)):
        assert feasible[k] <= feasible[k - 1]
    assert feasible[:5] == [True] * 5 and not feasible[5]


def test_best_layout_respects_defects():
    defects = frozenset({(0, 0), (5, 3), (7, 1), (11, 5), (3, 2)})
    grid = GridSpec(12, 6, defects)
    _, layout, _ = best_layout(grid, 4)
    assert layout is not None
    assert not (layout.occupied() & defects)
    assert check_layout(grid, layout).valid


def test_exports():
    _, layout, _ = best_layout(GridSpec(12, 6), 4)
    blob = json.loads(layout.to_json())
    assert blob["layers"] == 4
    assert len(blob["triangles"]) == 3
    csv = layout.to_coordinate_csv()
    assert csv.startswith("# qroutesim-schema v1")
    assert csv.count("address") == 3


def test_seed_candidates_order():
    seeds = seed_candidates(GridSpec(3, 3))
    anchors = [s.anchor for s in seeds]
    assert anchors == sorted(anchors)
    assert len(seeds) == 4 * 12


def _defect_grid(seed: int) -> GridSpec:
    """A seeded defective lattice: 1–4 dead qubits, 0–2 dead couplers."""
    rng = np.random.default_rng(seed)
    rows, cols = (12, 6) if seed % 3 else (8, 8)
    cells = rng.choice(rows * cols, size=1 + seed % 4, replace=False)
    qubits = frozenset(divmod(int(c), cols) for c in cells)
    couplers = set()
    for _ in range(seed % 3):
        r, c = int(rng.integers(rows - 1)), int(rng.integers(cols - 1))
        couplers.add(((r, c), (r, c + 1) if rng.integers(2) else (r + 1, c)))
    return GridSpec(rows, cols, qubits, frozenset(couplers))


def _layout_digest(grid: GridSpec, layers: int) -> str:
    """Seed, triangles, parents and diagnostics (all but ``search``) of a search."""
    seed, lay, diag = best_layout(grid, layers)
    blob = {
        "seed": None if seed is None else [*seed.anchor, seed.address_corner, seed.input_corner],
        "triangles": None if lay is None else [[*t.anchor, t.address_corner, t.input_corner]
                                               for t in lay.triangles],
        "parents": None if lay is None else lay.parents,
        "diagnostics": {k: v for k, v in diag.items() if k != "search"},
    }
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()[:16]


#: recorded from the per-placement search before the footprint table
_LAYOUT_DIGESTS = {
    **{((12, 6), L): "31f0d9b075069a26" for L in range(3)},
    ((12, 6), 3): "6a6447bae56852b6",
    ((12, 6), 4): "2a449ac9f987a8fc",
    ((12, 6), 5): "81279c4fdee70b61",
    ((12, 6), 6): "b2ec9045706bae63",
    ((8, 8), 4): "6cb8ebf33ec85cca",
    ((8, 8), 5): "468f969d636fd874",
}
#: per defect seed, the digests of layers 4, 5 and 6
_DEFECT_DIGESTS = {
    0: ("6cb8ebf33ec85cca", "468f969d636fd874", "a4f97386888691c2"),
    1: ("2a449ac9f987a8fc", "81279c4fdee70b61", "b2ec9045706bae63"),
    2: ("1910e0f45ddc9862", "1896ddcc17af7e79", "b2ec9045706bae63"),
    3: ("42c90b01eb51b4d2", "f9a0b2ca74e0782c", "b2ec9045706bae63"),
    4: ("2a449ac9f987a8fc", "81279c4fdee70b61", "b2ec9045706bae63"),
    5: ("2a449ac9f987a8fc", "81279c4fdee70b61", "b2ec9045706bae63"),
    6: ("6cb8ebf33ec85cca", "468f969d636fd874", "b2ec9045706bae63"),
    7: ("2a449ac9f987a8fc", "2ac742eea547b398", "b2ec9045706bae63"),
    8: ("1910e0f45ddc9862", "2973adbadd7522ef", "b2ec9045706bae63"),
    9: ("6cb8ebf33ec85cca", "468f969d636fd874", "b2ec9045706bae63"),
    10: ("2a449ac9f987a8fc", "2973adbadd7522ef", "b2ec9045706bae63"),
    11: ("55b82edd42eaf513", "17aced78f38fe09e", "b2ec9045706bae63"),
}


@pytest.mark.parametrize("shape, layers", list(_LAYOUT_DIGESTS))
def test_layout_ladder_digests(shape, layers):
    assert _layout_digest(GridSpec(*shape), layers) == _LAYOUT_DIGESTS[shape, layers]


@pytest.mark.parametrize("seed", list(_DEFECT_DIGESTS))
def test_defect_layout_digests(seed):
    grid = _defect_grid(seed)
    assert bool(grid.defect_couplers) == (seed % 3 > 0)
    got = tuple(_layout_digest(grid, L) for L in (4, 5, 6))
    assert got == _DEFECT_DIGESTS[seed]


@st.composite
def _defective_grids(draw):
    rows, cols = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    qubits = draw(st.frozensets(cells, max_size=6))
    couplers = set()
    for r, c in draw(st.lists(cells, max_size=6)):
        nb = (r, c + 1) if draw(st.booleans()) else (r + 1, c)
        if nb[0] < rows and nb[1] < cols:
            couplers.add(((r, c), nb) if draw(st.booleans()) else (nb, (r, c)))
    return GridSpec(rows, cols, qubits, frozenset(couplers))


@settings(max_examples=80)
@given(_defective_grids())
def test_footprint_table_is_the_static_placement_filter(grid):
    table = footprints(grid)
    assert set(table.at) == {(r, c) for r in range(grid.rows) for c in range(grid.cols)}
    for p, row in table.at.items():
        assert [e.triangle for e in row] == [
            t for t in _placements_at(grid, p) if _triangle_ok(grid, t, set(), p)]
        for t, fresh, outputs in row:
            assert fresh == sum(1 << (r * grid.cols + c) for r, c in t.corners() if (r, c) != p)
            assert outputs == t.outputs()


def test_search_counters():
    grid = GridSpec(12, 6)
    seeds = seed_candidates(grid)
    for layers in (3, 4, 5):
        seed, _, diag = best_layout(grid, layers)
        assert diag["search"]["seeds_tried"] == 1 + seeds.index(seed)
    _, layout, diag = best_layout(grid, 6)
    assert layout is None
    assert diag["search"]["seeds_tried"] == len(seeds)
    # an exhausted search records every frontier state it expanded as dead
    assert diag["search"]["nodes_expanded"] == diag["search"]["dead_states"] > 0
    assert best_layout(grid, 2)[2]["search"] == {"seeds_tried": 0, "nodes_expanded": 0,
                                                 "dead_states": 0}


def test_lattice_bound_exits_3_and_writes_nothing(tmp_path, capsys):
    """A lattice of `MAX_LATTICE_QUBITS` + 1 qubits (25×41) is refused before
    the placement table is built: CapacityError from `best_layout`, exit 3
    and no file from the CLI.  A 32×32 lattice, at the bound, is tabulated."""
    assert layout.MAX_LATTICE_QUBITS == 1024 == 32 * 32 == 25 * 41 - 1
    with pytest.raises(CapacityError, match="1024-qubit"):
        best_layout(GridSpec(25, 41), 9)
    assert main(["layout", "--grid", "25x41", "--layers", "9",
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("capacity: a 25x41 lattice")
    assert not (tmp_path / "out").exists()
    assert len(footprints(GridSpec(32, 32)).at) == 1024


@settings(max_examples=200)
@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_encloses_is_the_hole_finder(rows, cols, data):
    grid = GridSpec(rows, cols)
    occ = data.draw(st.integers(0, (1 << rows * cols) - 1))
    occupied = {divmod(i, cols) for i in range(rows * cols) if occ >> i & 1}
    assert _encloses(grid, occ) == bool(_holes(grid, occupied))


def test_search_budget_raises_capacity_error(monkeypatch):
    """Past `MAX_SEARCH_STATES` states (frontier states expanded plus complete
    trees checked, summed over seeds) a search raises instead of running on;
    the exhausted 8×8 six-layer search, the largest any test makes, fits."""
    table = footprints(GridSpec(8, 8))
    for seed in seed_candidates(GridSpec(8, 8)):
        assert grow_layout(GridSpec(8, 8), seed, 6, table)[0] is None
    assert (table.nodes_expanded, table.trees_checked) == (39612, 26244)
    assert table.nodes_expanded + table.trees_checked < layout.MAX_SEARCH_STATES
    monkeypatch.setattr(layout, "MAX_SEARCH_STATES", 100)
    grid = GridSpec(12, 6)
    match = "^the 6-layer layout search on 12x6 passed 100 states$"
    with pytest.raises(CapacityError, match=match):
        best_layout(grid, 6)
    table = footprints(grid)  # grow_layout calls that share a table share the budget
    with pytest.raises(CapacityError, match=match):
        for seed in seed_candidates(grid):
            grow_layout(grid, seed, 6, table)


def test_search_budget_exits_3_and_writes_nothing(tmp_path, capsys):
    assert layout.MAX_SEARCH_STATES == 250_000
    assert main(["layout", "--grid", "16x16", "--layers", "7",
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "capacity: the 7-layer layout search on 16x16 passed 250000 states\n")
    assert not (tmp_path / "out").exists()
