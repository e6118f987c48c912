"""Circuit runner: moment execution, layer-wise noise, post-selection markers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qroutesim.engine import compile_circuit, run_circuit, run_on_labels
from qroutesim.errors import ShapeError
from qroutesim.gates import Circuit, GateSpec, PostselectMarker, gate_matrix, qrouter_circuit
from qroutesim.noise import DecayRates, NoiseModel, apply_noise_step, reference_rates, qutrit_channel
from qroutesim.protocols import AddressState, router_input
from qroutesim.qudit import QuditRegister, apply_gate, new_basis_state, populations, postselect


def test_run_on_labels_routes():
    circ = qrouter_circuit("non-eraser", dims=(2, 3, 2, 2))
    out = run_on_labels(circ, "1100")
    p = populations(out.state)
    # address |1⟩ routes left: (Q_I,Q_C,Q_L,Q_R) = (0,1,1,0)
    idx = int(np.argmax(p))
    assert p[idx] == pytest.approx(1.0)
    assert idx == ((0 * 3 + 1) * 2 + 1) * 2 + 0


def test_postselect_marker_tracks_kept_probability():
    c = Circuit({"q": 3})
    c.add_moment(GateSpec("x01_half", ("q",), (("phase", 0.0),), 30.0))
    c.add_postselect("q", 1)
    res = run_circuit(new_basis_state([3], "0"), c)
    assert res.kept_probability == pytest.approx(0.5)
    p = populations(res.state)
    assert p[1] < 1e-12


def test_noise_promotes_to_density_matrix():
    nm = NoiseModel(reference_rates())
    c = Circuit({"q": 3})
    c.add_moment(GateSpec("x01", ("q",), (("phase", 0.0),), 1000.0))  # 1 μs layer
    res = run_circuit(new_basis_state([3], "0"), c, nm)
    assert not res.state.is_pure
    p = populations(res.state)
    assert p[1] == pytest.approx(math.exp(-reference_rates().gamma10 * 1.0), abs=1e-12)


def test_layer_noise_matches_manual_channel():
    nm = NoiseModel(reference_rates())
    c = Circuit({"a": 3, "b": 3})
    c.add_moment(GateSpec("x01", ("a",), (("phase", 0.0),), 500.0))
    res = run_circuit(new_basis_state([3, 3], "02"), c, nm)
    T = qutrit_channel(reference_rates(), 0.5).transfer
    r_a = (T @ np.outer([0, 1, 0], [0, 1, 0]).reshape(9).astype(complex)).reshape(3, 3)
    r_b = (T @ np.outer([0, 0, 1], [0, 0, 1]).reshape(9).astype(complex)).reshape(3, 3)
    assert np.abs(res.state.data - np.kron(r_a, r_b)).max() < 1e-12


def test_idle_sites_accrue_layer_duration():
    nm = NoiseModel(reference_rates())
    c = Circuit({"a": 2, "b": 3})
    c.add_moment(GateSpec("x", ("a",), (), 2000.0))
    res = run_circuit(new_basis_state([2, 3], "02"), c, nm)
    # idle qutrit b decays from |2⟩ for the full 2 μs layer
    p = populations(res.state)
    rho22 = sum(p[i] for i in range(6) if i % 3 == 2)
    assert rho22 == pytest.approx(math.exp(-reference_rates().gamma21 * 2.0), abs=1e-12)


def test_site_mismatch_rejected():
    c = Circuit({"a": 2})
    c.add_moment(GateSpec("x", ("a",), (), 30.0))
    with pytest.raises(ShapeError):
        run_circuit(new_basis_state([3], "0"), c)


def test_caller_state_never_mutated():
    nm = NoiseModel(reference_rates())
    c = Circuit({"q": 3})
    c.add_moment(GateSpec("x01", ("q",), (("phase", 0.0),), 100.0))
    start = new_basis_state([3], "0").to_mixed()
    before = start.data.copy()
    run_circuit(start, c, nm)
    assert np.array_equal(start.data, before)


# --- compiled executor against a gate-by-gate reference --------------------------

_ANY_DIM = ("x01", "x01_half", "zv", "h", "t", "tdg", "x", "cls_x")
_QUTRIT_ONLY = ("x12", "x12_half")


def _reference_run(state: QuditRegister, circuit: Circuit, noise: NoiseModel | None):
    """apply_gate per gate, apply_noise_step per moment, postselect per marker."""
    names = list(circuit.site_dims)
    pos = {n: i for i, n in enumerate(names)}
    reg = state.to_mixed() if noise is not None else state
    kept = 1.0
    for op in circuit.ops:
        if isinstance(op, PostselectMarker):
            reg, k = postselect(reg, pos[op.site], op.forbidden)
            kept *= k
            continue
        for g in op.gates:
            gdims = tuple(circuit.site_dims[s] for s in g.sites)
            reg = apply_gate(reg, gate_matrix(g, gdims), [pos[s] for s in g.sites])
        if noise is not None and op.gates:
            reg = apply_noise_step(reg, noise.rates, op.duration_ns * 1e-3)
    return reg, kept


def _random_rho(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@st.composite
def _circuits(draw):
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3))
    names = [f"s{k}" for k in range(len(dims))]
    circuit = Circuit(dict(zip(names, dims)))
    angle = st.floats(-math.pi, math.pi)
    for _ in range(draw(st.integers(1, 4))):
        free = list(names)
        gates = []
        while free and draw(st.booleans()):
            a = draw(st.sampled_from(free))
            free.remove(a)
            duration = draw(st.floats(1.0, 2000.0))
            qutrits = [b for b in free if circuit.site_dims[b] == 3]
            if qutrits and draw(st.booleans()):
                b = draw(st.sampled_from(qutrits))
                free.remove(b)
                params = (("theta", draw(st.floats(0.0, 6.28))), ("eta", draw(angle)))
                gates.append(GateSpec("sqrt_cz", (a, b), params, duration))
                continue
            pool = _ANY_DIM + (_QUTRIT_ONLY if circuit.site_dims[a] == 3 else ())
            params = (("phase", draw(angle)), ("phi1", draw(angle)), ("phi2", draw(angle)),
                      ("bit", float(draw(st.integers(0, 1)))))
            gates.append(GateSpec(draw(st.sampled_from(pool)), (a,), params, duration))
        circuit.add_moment(*gates)
    return circuit


_RATES = st.builds(DecayRates, *[st.floats(0.0, 1.0) for _ in range(5)])


@settings(max_examples=60, deadline=None)
@given(_circuits(), st.one_of(st.none(), _RATES), st.integers(0, 2**32 - 1))
def test_compiled_run_matches_gate_by_gate_reference(circuit, rates, seed):
    dims = tuple(circuit.site_dims.values())
    state = QuditRegister(dims, _random_rho(np.random.default_rng(seed), math.prod(dims)))
    noise = None if rates is None else NoiseModel(rates)
    got = compile_circuit(circuit, noise).run(state).state
    want, _ = _reference_run(state, circuit, noise)
    assert np.abs(got.data - want.data).max() < 1e-12


@pytest.mark.parametrize("pure", [True, False])
def test_compiled_circuit_reruns_identically_without_mutating_input(pure):
    noise = NoiseModel(reference_rates())
    compiled = compile_circuit(qrouter_circuit("eraser", dims=(2, 3, 2, 2)), noise)
    start = router_input(AddressState(0.7, 0.3, "02"))
    if not pure:
        start = start.to_mixed()
    before = start.data.copy()
    first = compiled.run(start).state.data
    second = compiled.run(start).state.data
    assert np.array_equal(first, second)
    assert np.array_equal(start.data, before)


def test_compiled_postselect_keeps_probability():
    noise = NoiseModel(reference_rates())
    c = Circuit({"a": 2, "q": 3})
    c.add_moment(GateSpec("x01_half", ("q",), (("phase", 0.2),), 500.0))
    c.add_postselect("q", 1)
    c.add_moment(GateSpec("x12_half", ("q",), (("phase", 0.1),), 300.0),
                 GateSpec("h", ("a",), (), 30.0))
    start = new_basis_state([2, 3], "10")
    compiled = compile_circuit(c, noise)
    want, kept = _reference_run(start, c, noise)
    for _ in range(2):
        res = compiled.run(start)
        assert res.kept_probability == pytest.approx(kept, abs=1e-12)
        assert np.abs(res.state.data - want.data).max() < 1e-12
    assert 0.4 < kept < 0.6


def test_compile_rejects_unknown_site_order():
    c = Circuit({"a": 2})
    c.add_moment(GateSpec("x", ("a",), (), 30.0))
    with pytest.raises(ShapeError):
        compile_circuit(c, site_order=["b"])
