"""Gate library: exchange blocks, CSWAP algebra, router contracts, serde."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qroutesim import gates, network
from qroutesim.engine import run_circuit
from qroutesim.errors import ShapeError
from qroutesim.gates import (
    CSWAP_BLOCK,
    ROUTING_LABELS,
    Circuit,
    FloquetParams,
    GateSpec,
    SqrtCzParams,
    circuit_unitary,
    clifford_qrouter_circuit,
    cswap_k_entries,
    cswap_sequence,
    dumps_circuit,
    gate_matrix,
    leaky_cswap_matrix,
    loads_circuit,
    qrouter_circuit,
    sp_cswap_sequence,
    sqrt_cz_matrix,
    x01_half_matrix,
    x01_matrix,
    x12_half_matrix,
    x12_matrix,
    z_virtual_matrix,
)
from qroutesim.qudit import QuditRegister, apply_gate, index_of, new_basis_state

I9 = np.eye(9)


def _sub(U, labels, dims):
    idx = [index_of([int(ch) for ch in s], dims) for s in labels]
    return U[np.ix_(idx, idx)]


def test_sqrt_cz_full_exchange():
    U = sqrt_cz_matrix(SqrtCzParams(theta=math.pi))
    i11, i02 = 4, 2
    assert U[i02, i11] == pytest.approx(-1j)
    assert U[i11, i02] == pytest.approx(-1j)
    assert abs(U[i11, i11]) < 1e-15 and abs(U[i02, i02]) < 1e-15


def test_sqrt_cz_zero_angle_is_identity():
    assert np.allclose(sqrt_cz_matrix(SqrtCzParams(theta=0.0)), I9)


def test_sqrt_cz_half_transfer():
    U = sqrt_cz_matrix(SqrtCzParams(theta=math.pi / 2))
    assert abs(U[2, 4]) ** 2 == pytest.approx(0.5)


def test_sqrt_cz_eta_phase():
    U = sqrt_cz_matrix(SqrtCzParams(theta=1.1, eta=0.7))
    assert U[4, 4] == pytest.approx(np.exp(1j * 0.7) * math.cos(0.55))
    assert U[2, 2] == pytest.approx(np.exp(-1j * 0.7) * math.cos(0.55))


def test_sqrt_cz_identity_outside_block():
    U = sqrt_cz_matrix(SqrtCzParams(theta=1.3, eta=0.4))
    for a in range(3):
        for b in range(3):
            k = a * 3 + b
            if k in (2, 4):
                continue
            assert U[k, k] == pytest.approx(1.0)


def test_library_unitarity():
    mats = [
        sqrt_cz_matrix(SqrtCzParams(theta=0.9, eta=0.3)),
        x01_matrix(0.4),
        x12_matrix(1.1),
        x01_half_matrix(0.2),
        x12_half_matrix(0.2),
        z_virtual_matrix(0.5),
        gate_matrix(GateSpec("x12_half", ("q",), (("phase", 0.2),)), (3,)),
    ]
    for U in mats:
        assert np.abs(U.conj().T @ U - np.eye(U.shape[0])).max() < 1e-10


def test_gate_matrix_rejects_unknown_name():
    with pytest.raises(ShapeError):
        gate_matrix(GateSpec("x02", ("q",)), (3,))


def test_single_qutrit_phases_match_printed_matrices():
    assert np.allclose(x01_matrix(0.0) @ [0, 0, 1], [0, 0, 1])
    U = x12_matrix(math.pi / 2)
    assert U[0, 0] == pytest.approx(np.exp(1j * math.pi / 2))
    # X01·X01 = diag(1, 1, e^{2iφ'})
    U2 = x01_matrix(0.3) @ x01_matrix(0.3)
    assert np.allclose(U2, np.diag([1, 1, np.exp(2j * 0.3)]))


@pytest.mark.parametrize("order", ["q1-first", "qc-first"])
def test_cswap_equals_minus_permutation(order):
    U = circuit_unitary(cswap_sequence(order=order))
    M = _sub(U, ROUTING_LABELS, (3, 3, 3))
    assert np.abs(M - CSWAP_BLOCK).max() < 1e-10


def test_cswap_specific_entries():
    U = circuit_unitary(cswap_sequence())
    dims = (3, 3, 3)
    assert U[index_of([0, 1, 1], dims), index_of([1, 1, 0], dims)] == pytest.approx(-1)
    assert U[index_of([1, 1, 1], dims), index_of([1, 1, 1], dims)] == pytest.approx(-1)
    # control |0⟩ inhibits the swap
    assert U[index_of([0, 0, 0 + 1], dims) - 1 + 1, index_of([0, 0, 1], dims)] != 0
    out = apply_gate(new_basis_state([3, 3, 3], "010"), U, [0, 1, 2])
    assert abs(out.data[index_of([0, 1, 0], dims)]) == pytest.approx(1.0)


def test_cswap_involution_on_routing_subspace():
    U = circuit_unitary(cswap_sequence())
    M = _sub(U @ U, ROUTING_LABELS, (3, 3, 3))
    assert np.abs(M - np.eye(6)).max() < 1e-10


def test_both_orderings_agree_on_computational_and_routing_states():
    U1 = circuit_unitary(cswap_sequence(order="q1-first"))
    U2 = circuit_unitary(cswap_sequence(order="qc-first"))
    labels = list(ROUTING_LABELS) + ["000", "001", "010", "100", "101"]
    idx = [index_of([int(c) for c in s], (3, 3, 3)) for s in labels]
    assert np.abs(U1[:, idx] - U2[:, idx]).max() < 1e-10


def test_sp_cswap_path_and_count():
    c = sp_cswap_sequence(basis="01")
    assert sum(1 for g in c.gates() if g.n_sites == 2) == 2
    U = circuit_unitary(c)
    dims = (3, 3, 3)
    amp = U[index_of([0, 1, 1], dims), index_of([1, 1, 0], dims)]
    assert abs(amp) == pytest.approx(1.0)  # |110⟩ → (phase)·|011⟩
    # the intermediate step passes through |020⟩: after the first gate only
    first = sqrt_cz_matrix(SqrtCzParams())
    reg = apply_gate(new_basis_state([3, 3, 3], "110"), first, [0, 1])
    assert abs(reg.data[index_of([0, 2, 0], dims)]) == pytest.approx(1.0)


def test_sp_cswap_round_trip_inverses():
    U01 = circuit_unitary(sp_cswap_sequence(basis="01"))
    U02 = circuit_unitary(sp_cswap_sequence(basis="02"))
    dims = (3, 3, 3)
    # down (01 basis) then up undoes the transfer on every down-input state
    down_inputs = ["000", "010", "100", "110"]
    for s in down_inputs:
        v = new_basis_state([3, 3, 3], s).data
        out = U02 @ (U01 @ v)
        assert abs(out[index_of([int(c) for c in s], dims)]) == pytest.approx(1.0, abs=1e-10)
    up_inputs = ["000", "010", "001", "011"]
    for s in up_inputs:
        v = new_basis_state([3, 3, 3], s).data
        out = U01 @ (U02 @ v)
        assert abs(out[index_of([int(c) for c in s], dims)]) == pytest.approx(1.0, abs=1e-10)
    # control-2 direction: 02-variant carries |120⟩ → |021⟩, 01 brings it back
    v = new_basis_state([3, 3, 3], "120").data
    mid = U02 @ v
    assert abs(mid[index_of([0, 2, 1], dims)]) == pytest.approx(1.0)
    back = U01 @ mid
    assert abs(back[index_of([1, 2, 0], dims)]) == pytest.approx(1.0)


ROUTER_4X4 = -np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


@pytest.mark.parametrize("scheme,span", [
    ("non-eraser", ["0001", "1000", "0110", "1100"]),
    ("eraser", ["0001", "1000", "0210", "1200"]),
])
def test_qrouter_unitary_block(scheme, span):
    U = circuit_unitary(qrouter_circuit(scheme, dims=(3, 3, 3, 3)))
    M = _sub(U, span, (3, 3, 3, 3))
    assert np.abs(M - ROUTER_4X4).max() < 1e-10


def test_qrouter_address_zero_routes_right():
    U = circuit_unitary(qrouter_circuit("eraser", dims=(3, 3, 3, 3)))
    dims = (3, 3, 3, 3)
    out = U @ new_basis_state([3, 3, 3, 3], "1000").data
    assert abs(out[index_of([0, 0, 0, 1], dims)]) == pytest.approx(1.0)


@pytest.mark.parametrize("scheme,want", [
    ("non-eraser", (2, 6, 8)),
    ("eraser", (6, 6, 12)),
])
def test_qrouter_gate_tallies(scheme, want):
    c = qrouter_circuit(scheme)
    n1 = sum(1 for g in c.gates() if g.n_sites == 1)
    n2 = sum(1 for g in c.gates() if g.n_sites == 2)
    assert (n1, n2, c.depth) == want


def test_qrouter_transfers_all_weight():
    rng = np.random.default_rng(17)
    circ = qrouter_circuit("eraser", dims=(2, 3, 2, 2))
    for _ in range(20):
        theta, phi = rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi)
        addr = np.array([math.cos(theta), 0, np.exp(1j * phi) * math.sin(theta)])
        v = np.kron([0, 1], np.kron(addr, np.kron([1, 0], [1, 0]))).astype(complex)
        out = run_circuit(QuditRegister((2, 3, 2, 2), v), circ)
        p_in = sum(abs(a) ** 2 for i, a in enumerate(out.data) if i >= 12)
        assert p_in < 1e-10


def test_clifford_router_matches_ideal_and_tallies():
    c = clifford_qrouter_circuit()
    n1 = sum(1 for g in c.gates() if g.n_sites == 1)
    n2 = sum(1 for g in c.gates() if g.n_sites == 2)
    assert (n1, n2, c.depth) == (20, 16, 30)
    U = circuit_unitary(c)
    # same block contract as the TCG router (up to global phase, here +1)
    span = ["0001", "1000", "0110", "1100"]
    idx = [int(s, 2) for s in span]
    M = U[np.ix_(idx, idx)]
    phase = M[0, 1] / ROUTER_4X4[0, 1]
    assert abs(abs(phase) - 1) < 1e-10
    assert np.abs(M - phase * ROUTER_4X4).max() < 1e-9


def test_leaky_cswap_limits_and_entries():
    assert np.abs(leaky_cswap_matrix(math.pi) - CSWAP_BLOCK).max() < 1e-12
    th = 0.99 * math.pi
    M = leaky_cswap_matrix(th)
    assert M[0, 0] == pytest.approx(math.cos(0.495 * math.pi))
    k1, k2, k3 = cswap_k_entries(th)
    assert M[1, 1] == pytest.approx(k1)
    assert M[2, 1] == pytest.approx(k2)
    assert M[2, 2] == pytest.approx(k3)
    assert M[3, 3] == pytest.approx(k1)
    assert M[5, 5] == pytest.approx(math.cos(th / 2))
    assert M[4, 5] == pytest.approx(-math.sin(th / 2) ** 2)


def test_leaky_cswap_unitary_off_ideal():
    M = leaky_cswap_matrix(0.95 * math.pi)
    assert np.abs(M.conj().T @ M - np.eye(6)).max() < 1e-10


def test_floquet_identity_grid():
    # at ϑ=π the 02↔11 element magnitude is |sin(Nπ/2)| for every η, ζ
    for eta in np.linspace(-math.pi, math.pi, 5):
        for zeta in np.linspace(-math.pi, math.pi, 5):
            g = sqrt_cz_matrix(SqrtCzParams(theta=math.pi, eta=eta))
            z = np.eye(9, dtype=complex)
            z[4, 4] = np.exp(1j * zeta / 2)
            comp = z @ g @ z
            M = np.eye(9, dtype=complex)
            for n in range(1, 13):
                M = comp @ M
                assert abs(abs(M[2, 4]) - abs(math.sin(n * math.pi / 2))) < 1e-10


def test_floquet_params_special_point():
    fp = FloquetParams(theta=math.pi, eta=0.37, zeta=-1.1)
    assert fp.omega == pytest.approx(math.pi / 2)
    assert fp.alpha == pytest.approx(math.pi / 2)


def test_serialization_round_trip():
    c = qrouter_circuit("eraser", parasitic=(0.3, 0.7), theta=0.97 * math.pi)
    text = dumps_circuit(c)
    c2 = loads_circuit(text)
    assert dumps_circuit(c2) == text
    assert circuit_unitary(c2).shape == (81, 81)
    assert np.abs(circuit_unitary(c) - circuit_unitary(c2)).max() < 1e-12


def test_moment_rejects_site_collision():
    c = Circuit({"a": 2, "b": 2})
    with pytest.raises(Exception):
        c.add_moment(GateSpec("x", ("a",)), GateSpec("x", ("a",)))


def test_text_form_keeps_signed_zero_phases():
    # 0.0 == -0.0, so equal specs can print differently: each keeps its own text
    c = Circuit({"a": 3})
    pos = GateSpec("x01", ("a",), (("phase", 0.0),))
    neg = GateSpec("x01", ("a",), (("phase", -0.0),))
    for g in (pos, neg, pos, neg):
        c.add_moment(g)
    text = dumps_circuit(c)
    assert text.count("phase=0.0 ") == 2 and text.count("phase=-0.0 ") == 2
    back = loads_circuit(text)
    assert [math.copysign(1.0, m.gates[0].param("phase")) for m in back.ops] == [1, -1, 1, -1]
    assert dumps_circuit(back) == text


def test_repeated_gate_line_in_a_clashing_moment_names_the_moment():
    text = ("# qroutesim-circuit v1\nSITES a:2 b:3\nMOMENT\nGATE x a 30.0\n"
            "MOMENT\nGATE x a 30.0\nGATE x a 30.0\n")
    with pytest.raises(ShapeError, match="^line 5: site a used twice in one moment$"):
        loads_circuit(text)


def test_loads_circuit_builds_one_spec_per_distinct_gate_line(monkeypatch):
    c = qrouter_circuit("eraser")
    c.extend(qrouter_circuit("eraser"))
    text = dumps_circuit(c)
    built = []
    real = gates.GateSpec
    monkeypatch.setattr(gates, "GateSpec", lambda *args: built.append(args) or real(*args))
    back = loads_circuit(text)
    assert len(built) == len({ln for ln in text.splitlines() if ln.startswith("GATE")}) == 5
    assert back.ops == c.ops


def test_extend_with_a_dimension_clash_leaves_the_circuit_unchanged():
    c = Circuit({"a": 2})
    c.add_moment(GateSpec("x", ("a",)))
    other = Circuit({"b": 3, "a": 3})
    with pytest.raises(ShapeError, match="^site a dimension clash$"):
        c.extend(other)
    assert c.site_dims == {"a": 2} and len(c.ops) == 1


def test_add_moment_names_the_first_offending_site():
    c = Circuit({"a": 2, "b": 2})
    with pytest.raises(ShapeError, match="^unknown site z$"):
        c.add_moment(GateSpec("x", ("a",)), GateSpec("cx", ("z", "b")))
    with pytest.raises(ShapeError, match="^unknown site z$"):
        c.add_moment(GateSpec("cx", ("z", "a")), GateSpec("x", ("a",)))
    with pytest.raises(ShapeError, match="^site a used twice in one moment$"):
        c.add_moment(GateSpec("x", ("a",)), GateSpec("cx", ("a", "z")))
    assert c.ops == []


@pytest.mark.parametrize("body, line", [
    ("MOMENT\nGATE x a 30\nGATE x a 30\n", 3),  # site used twice in one moment
    ("MOMENT\nGATE x01 zz 30\n", 4),            # unknown site token
    ("POSTSELECT zz 1\n", 3),                   # unknown directive
    ("SITES a:x\n", 3),                         # non-integer dimension
    ("SITES a:2 a:3\n", 3),                     # site listed twice
    ("SITES a:0\n", 3),                         # dimensions are positive
    ("SITES a:-3\n", 3),
    ("MOMENT\nGATE x 30.0\n", 4),               # gate with no site
    ("MOMENT\nGATE x a 30 40\n", 4),            # two durations
    ("MOMENT\nGATE x a nan\n", 4),              # durations are finite and non-negative
    ("MOMENT\nGATE x a inf\n", 4),
    ("MOMENT\nGATE x a -5\n", 4),
    ("MOMENT\nGATE x01 a phase=nan 30\n", 4),  # parameters are finite
    ("MOMENT\nGATE sqrt_cz a b theta=inf eta=0.0 25\n", 4),
])
def test_loads_circuit_rejects_malformed_text(body, line):
    text = "# qroutesim-circuit v1\nSITES a:2 b:3\n" + body
    with pytest.raises(ShapeError, match=f"^line {line}: "):
        loads_circuit(text)


def test_loads_circuit_rejects_postselect_as_unknown_directive():
    # a circuit is moments only; post-selection acts on registers (qudit.postselect)
    text = "# qroutesim-circuit v1\nSITES a:2 b:3\nPOSTSELECT b 1\n"
    with pytest.raises(ShapeError, match="^line 3: unknown directive 'POSTSELECT'$"):
        loads_circuit(text)


def test_loads_circuit_names_a_failing_block_after_valid_repeats():
    block = "MOMENT\nGATE x a 30.0\nGATE x b 30.0\n"
    text = ("# qroutesim-circuit v1\nSITES a:2 b:3\n" + block * 3
            + "MOMENT\nGATE x a 30.0\nGATE x b 30.0\nGATE x a 30.0\n")
    with pytest.raises(ShapeError, match="^line 12: site a used twice in one moment$"):
        loads_circuit(text)
    back = loads_circuit("# qroutesim-circuit v1\nSITES a:2 b:3\n" + block * 3)
    assert [len(m.gates) for m in back.ops] == [2, 2, 2]
    # a repeated block is checked once and stands as one moment object
    assert len({id(m) for m in back.ops}) == 1


# --- loads_circuit against the line-by-line parser -----------------------------------


def _line_by_line_loads(text: str) -> Circuit:
    """The oracle: `loads_circuit` as it read every line in turn, before it
    looked moments up by their raw text, with the same checks on SITES and
    GATE lines."""
    circuit = None
    moment_ln, gates_open = 0, None
    specs, blocks = {}, {}

    def close_moment():
        if gates_open is None:
            return
        key = tuple(gates_open)
        moment = blocks.get(key)
        if moment is None:
            try:
                circuit.add_moment(*(specs[g] for g in key))
            except ShapeError as exc:
                raise ShapeError(f"line {moment_ln}: {exc}") from exc
            blocks[key] = circuit.ops[-1]
        else:
            circuit.ops.append(moment)

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if gates_open is not None and line in specs:
            gates_open.append(line)
            continue
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] != "GATE":
            close_moment()
            gates_open = None
        try:
            if tok[0] == "SITES":
                dims = {}
                for name, _, d in (item.partition(":") for item in tok[1:]):
                    if name in dims:
                        raise ShapeError(f"site {name} listed twice")
                    dims[name] = int(d)
                    if dims[name] < 1:
                        raise ShapeError(f"site {name} has dimension {d}, not a positive one")
                circuit = Circuit(dims)
                specs.clear()
                blocks.clear()
            elif circuit is None:
                raise ShapeError(f"{tok[0]} before SITES")
            elif tok[0] == "MOMENT":
                moment_ln, gates_open = ln, []
            elif tok[0] == "GATE":
                if gates_open is None:
                    raise ShapeError("GATE outside a MOMENT")
                sites, params, durations = [], [], []
                for item in tok[2:]:
                    if "=" in item:
                        k, _, v = item.partition("=")
                        params.append((k, float(v)))
                        if not math.isfinite(params[-1][1]):
                            raise ShapeError(f"parameter {k}={v} is not finite")
                    elif item in circuit.site_dims:
                        sites.append(item)
                    else:
                        durations.append(float(item))
                if not sites:
                    raise ShapeError(f"gate {tok[1]} names no site")
                if len(durations) > 1:
                    raise ShapeError(f"gate {tok[1]} has {len(durations)} durations")
                duration = durations[0] if durations else gates.SINGLE_NS
                if not 0.0 <= duration < math.inf:
                    raise ShapeError(f"duration {duration!r} is not finite and non-negative")
                specs[line] = GateSpec(tok[1], tuple(sites), tuple(params), duration)
                gates_open.append(line)
            else:
                raise ShapeError(f"unknown directive {tok[0]!r}")
        except (ShapeError, ValueError, IndexError) as exc:
            raise ShapeError(f"line {ln}: {exc}") from exc
    close_moment()
    if circuit is None:
        raise ShapeError("no SITES line found")
    return circuit


@functools.lru_cache(maxsize=None)
def _query_text(layers: int, mode: str, scheme: str) -> str:
    return dumps_circuit(network.compile_query(network.build_tree(layers), mode, scheme).circuit)


_QUERY_CONFIGS = [(layers, mode, scheme) for layers in (2, 3) for mode in network.MODES
                  for scheme in network.SCHEMES if (scheme, mode) != ("sp-tcg", "full")]


@st.composite
def _small_circuit_texts(draw):
    """Small circuits whose moments come from a few templates, so most repeat."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3))
    names = [f"s{k}" for k in range(len(dims))]
    value = st.sampled_from([0.0, -0.0, 0.5, math.pi, 1e-300])
    per_site = {s: [GateSpec(draw(st.sampled_from(["x01", "zv", "h"])), (s,),
                             (("phase", draw(value)),), draw(st.sampled_from([0.0, 25.0, 30.0])))
                    for _ in range(2)] for s in names}
    templates = [[g for s in names if (g := draw(st.sampled_from([None, *per_site[s]])))]
                 for _ in range(draw(st.integers(1, 3)))]
    circuit = Circuit(dict(zip(names, dims)))
    for k in draw(st.lists(st.integers(0, len(templates) - 1), max_size=12)):
        circuit.add_moment(*templates[k])
    return dumps_circuit(circuit)


_MALFORMED_LINES = [
    "POSTSELECT a 1", "GATE", "GATE x01", "GATE x01 {site} 30 40", "GATE x01 {site} nan",
    "GATE x01 {site} -5", "GATE x01 zz 30.0", "GATE x01 {site} phase=abc 30.0",
    "GATE x01 {site} phase=nan 30.0", "GATE sqrt_cz {site} theta=inf eta=0.0 25.0",
    "GATE cx {site} {site} 25.0", "SITES a:2 a:3", "SITES a:0", "SITES a:x", "MOMENT extra",
]


@st.composite
def _edited_texts(draw):
    """A query or small circuit text with comments, blank lines, indents, a
    second SITES section, other line endings or one malformed line put in."""
    if draw(st.booleans()):
        text = _query_text(*draw(st.sampled_from(_QUERY_CONFIGS)))
    else:
        text = draw(_small_circuit_texts())
    lines = text.splitlines()
    sites_line = lines[1]
    site = sites_line.split()[1].partition(":")[0]
    position = st.integers(2, len(lines))
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(position), draw(st.sampled_from(["# note", "", "   ", "\t# x", "\x0c"])))
    for _ in range(draw(st.integers(0, 4))):
        k = draw(position) - 1
        lines[k] = draw(st.sampled_from(["  ", "\t", " \t "])) + lines[k]
    if draw(st.booleans()):  # the same sites again, or all but the last one
        lines.insert(draw(position), draw(st.sampled_from([sites_line, sites_line.rsplit(" ", 1)[0]])))
    if draw(st.booleans()):
        bad = draw(st.sampled_from(_MALFORMED_LINES)).format(site=site)
        lines.insert(draw(st.integers(1, len(lines))), bad)
    ending = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    if ending == "mixed":
        text = "".join(ln + draw(st.sampled_from(["\n", "\r\n"])) for ln in lines)
    else:
        text = ending.join(lines) + ending
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(parse, text: str):
    """What a parser makes of ``text``: its error, or its sites, moments, text
    form and which moments are one object."""
    try:
        circuit = parse(text)
    except ShapeError as exc:
        return str(exc)
    first: dict[int, int] = {}
    return (circuit.site_dims, circuit.ops, dumps_circuit(circuit),
            [first.setdefault(id(m), k) for k, m in enumerate(circuit.ops)])


@settings(max_examples=300)
@given(_edited_texts())
def test_loads_circuit_is_the_line_by_line_parser(text):
    assert _outcome(loads_circuit, text) == _outcome(_line_by_line_loads, text)


@pytest.mark.parametrize("config", _QUERY_CONFIGS)
def test_loads_circuit_is_the_line_by_line_parser_on_query_texts(config):
    text = _query_text(*config)
    got = _outcome(loads_circuit, text)
    assert got == _outcome(_line_by_line_loads, text)
    assert len(set(got[3])) < len(got[3])  # repeated blocks stand as one moment object


def _parse_counts(monkeypatch, text: str) -> tuple[int, int]:
    """How many `GateSpec`s `loads_circuit` builds for ``text``, and how many
    moments it checks through `Circuit.add_moment`."""
    counts = [0, 0]
    real_spec, real_add = gates.GateSpec, Circuit.add_moment

    def spec(*args):
        counts[0] += 1
        return real_spec(*args)

    def add_moment(self, *specs):
        counts[1] += 1
        return real_add(self, *specs)

    with monkeypatch.context() as m:
        m.setattr(gates, "GateSpec", spec)
        m.setattr(Circuit, "add_moment", add_moment)
        loads_circuit(text)
    return counts[0], counts[1]


def test_loads_circuit_checks_each_distinct_block_once(monkeypatch):
    head = "# qroutesim-circuit v1\nSITES a:2 b:3\n"
    block = "MOMENT\nGATE x a 30.0\nGATE x b 25.0\n"
    other = "MOMENT\nGATE h b 30.0\n"
    assert _parse_counts(monkeypatch, head + (block + other) * 3) == _parse_counts(
        monkeypatch, head + (block + other) * 30) == (3, 2)
    # each SITES line starts both memos afresh
    assert _parse_counts(monkeypatch, (head + block + other) * 2) == (6, 4)


def test_loads_circuit_reads_crlf_text_as_lf_text(monkeypatch):
    text = _query_text(3, "full", "tcg-eraser")
    crlf = text.replace("\n", "\r\n")
    assert _parse_counts(monkeypatch, crlf) == _parse_counts(monkeypatch, text)
    assert _outcome(loads_circuit, crlf) == _outcome(loads_circuit, text)
