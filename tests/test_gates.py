"""Gate library: exchange blocks, CSWAP algebra, router contracts, serde."""

import math

import numpy as np
import pytest

from qroutesim import gates
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
