"""Triangle packing: constraint checking and growth search."""

import json

import pytest

from qroutesim.layout import (
    GridSpec,
    Triangle,
    TriangleLayout,
    best_layout,
    check_layout,
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
    for q in seed.qubits():  # the input included
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
