"""Circuit runner: moment execution, layer-wise noise, post-selection markers."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qroutesim import engine, gates
from qroutesim.engine import _apply_channel_table, _channel_table, compile_circuit, run_circuit
from qroutesim.errors import ShapeError
from qroutesim.gates import (Circuit, GateSpec, PostselectMarker, circuit_unitary, dumps_circuit,
                             gate_matrix, loads_circuit, qrouter_circuit)
from qroutesim.noise import NoiseModel, apply_noise_step, qubit_transfer, qutrit_channel, reference_rates
from qroutesim.protocols import AddressState, router_input
from qroutesim.qudit import (ChannelMap, QuditRegister, apply_channel, apply_gate, attach_site,
                             new_basis_state, populations, postselect)

from conftest import physical_rates


def test_run_circuit_routes_basis_label():
    circ = qrouter_circuit("non-eraser", dims=(2, 3, 2, 2))
    out = run_circuit(new_basis_state((2, 3, 2, 2), "1100"), circ)
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
def _circuits(draw, max_sites: int = 3, wide: bool = False):
    """Random circuits of library gates; ``wide`` adds `cx` and the 3-site `_RAND3`."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=max_sites))
    names = [f"s{k}" for k in range(len(dims))]
    circuit = Circuit(dict(zip(names, dims)))
    angle = st.floats(-math.pi, math.pi)
    for _ in range(draw(st.integers(1, 4))):
        free = list(names)
        gates = []
        while free and draw(st.booleans()):
            if wide and len(free) >= 3 and draw(st.booleans()):
                sites = draw(st.permutations(free))[:3]
                for b in sites:
                    free.remove(b)
                params = (("seed", float(draw(st.integers(0, 2**16)))),)
                gates.append(GateSpec(_RAND3, tuple(sites), params, draw(st.floats(1.0, 2000.0))))
                continue
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
            if wide and free and draw(st.booleans()):
                b = draw(st.sampled_from(free))
                free.remove(b)
                gates.append(GateSpec("cx", (a, b), (), duration))
                continue
            pool = _ANY_DIM + (_QUTRIT_ONLY if circuit.site_dims[a] == 3 else ())
            params = (("phase", draw(angle)), ("phi1", draw(angle)), ("phi2", draw(angle)),
                      ("bit", float(draw(st.integers(0, 1)))))
            gates.append(GateSpec(draw(st.sampled_from(pool)), (a,), params, duration))
        circuit.add_moment(*gates)
    return circuit


_RATES = physical_rates()


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


@settings(max_examples=80, deadline=None)
@given(_circuits(), _RATES, st.sampled_from([2, 3, 8]), st.integers(0, 3),
       st.integers(0, 2**32 - 1))
def test_quiet_site_rides_along_untouched(circuit, rates, quiet_dim, where, seed):
    """A noisy run on a register with an extra quiet site is the run without
    it, tensored with that site's untouched state."""
    rng = np.random.default_rng(seed)
    dims = tuple(circuit.site_dims.values())
    state = QuditRegister(dims, _random_rho(rng, math.prod(dims)))
    sigma = _random_rho(rng, quiet_dim)
    pos = min(where, len(dims))
    sites = list(circuit.site_dims.items())
    sites.insert(pos, ("quiet", quiet_dim))
    noise = NoiseModel(rates)
    got = compile_circuit(Circuit(dict(sites), circuit.ops), noise, quiet=("quiet",)).run(
        attach_site(state, pos, sigma)).state
    want = attach_site(compile_circuit(circuit, noise).run(state).state, pos, sigma)
    assert got.dims == want.dims
    assert np.abs(got.data - want.data).max() <= 1e-15


def test_compile_rejects_unknown_quiet_site():
    c = Circuit({"a": 2})
    c.add_moment(GateSpec("x", ("a",), (), 30.0))
    with pytest.raises(ShapeError):
        compile_circuit(c, NoiseModel(reference_rates()), quiet=("b",))


# --- the contraction plan against tensordot, bit for bit ---------------------------

_RAND3 = "rand3"  # a test-only 3-site gate: a seeded random complex matrix


def _gate_matrix_with_rand3(spec: GateSpec, dims):
    if spec.name != _RAND3:
        return gate_matrix(spec, dims)
    rng = np.random.default_rng(int(spec.param("seed")))
    k = math.prod(dims)
    return rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))


def _tensordot_into(tensor: np.ndarray, matrix: np.ndarray, axes) -> np.ndarray:
    """An independent contraction: ``matrix`` (labels in ``axes`` order) on
    those axes of ``tensor`` through np.tensordot, the axis order restored."""
    axes, k = list(axes), len(axes)
    m = matrix.reshape([tensor.shape[a] for a in axes] * 2)
    out = np.tensordot(m, tensor, axes=(list(range(k, 2 * k)), axes))
    rest = [a for a in range(tensor.ndim) if a not in axes]
    return out.transpose(np.argsort(axes + rest))


def _tensordot_gate(data: np.ndarray, dims: tuple, matrix: np.ndarray, sites) -> np.ndarray:
    """U·ψ or U·ρ·U† through `_tensordot_into`, in the layout of ``data``."""
    if data.ndim == 1:
        return _tensordot_into(data.reshape(dims), matrix, sites).reshape(-1)
    t = _tensordot_into(data.reshape(dims + dims), matrix, sites)
    return _tensordot_into(t, matrix.conj(), [k + len(dims) for k in sites]).reshape(data.shape)


def _tensordot_run(state: QuditRegister, circuit: Circuit, noise: NoiseModel | None):
    """The executor's moments with `_tensordot_gate` in place of its
    precomputed contraction plan, and the same channel kernel."""
    dims = state.dims
    pos = {s: i for i, s in enumerate(circuit.site_dims)}
    data = (state if noise is None else state.to_mixed()).data
    for m in circuit.moments():
        for g in m.gates:
            sites = [pos[s] for s in g.sites]
            data = _tensordot_gate(data, dims, engine.gate_matrix(g, tuple(dims[k] for k in sites)),
                                   sites)
        if noise is not None and m.duration_ns > 0:
            data = np.ascontiguousarray(data)
            _apply_channel_table(data, _channel_table(dims, noise.rates, m.duration_ns * 1e-3))
    return data


def _random_state(rng, dims: tuple, pure: bool) -> QuditRegister:
    dim = math.prod(dims)
    if pure:
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return QuditRegister(dims, vec / np.linalg.norm(vec))
    return QuditRegister(dims, _random_rho(rng, dim))


@settings(max_examples=80, deadline=None)
@given(_circuits(max_sites=4, wide=True), st.one_of(st.none(), _RATES), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_contraction_plan_is_tensordot_bit_for_bit(circuit, rates, pure, seed):
    dims = tuple(circuit.site_dims.values())
    state = _random_state(np.random.default_rng(seed), dims, pure)
    noise = None if rates is None else NoiseModel(rates)
    with mock.patch.object(engine, "gate_matrix", _gate_matrix_with_rand3):
        got = compile_circuit(circuit, noise).run(state).state.data
        want = _tensordot_run(state, circuit, noise)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=5), st.booleans(), _RATES,
       st.floats(0.0, 3.0), st.integers(0, 2**32 - 1), st.data())
def test_qudit_kernels_are_tensordot_bit_for_bit(dims, pure, rates, t_us, seed, data):
    """apply_gate, apply_channel (one site and three) against `_tensordot_into`."""
    dims = tuple(dims)
    rng = np.random.default_rng(seed)
    state = _random_state(rng, dims, pure)
    sites = data.draw(st.permutations(range(len(dims))))[:data.draw(st.integers(1, 3))]
    k = math.prod(dims[s] for s in sites)
    gate = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    got = apply_gate(state, gate, sites).data
    assert np.array_equal(got, _tensordot_gate(state.data, dims, gate, sites))
    if pure:
        return
    n, rho = len(dims), state.data.reshape(dims + dims)
    site = sites[0]
    T = qutrit_channel(rates, t_us).transfer if dims[site] == 3 else qubit_transfer(rates, t_us)
    want = _tensordot_into(rho, T, [site, site + n]).reshape(state.data.shape)
    assert np.array_equal(apply_channel(state, ChannelMap(site, T)).data, want)
    if len(sites) == 3:
        S = rng.normal(size=(k * k, k * k)) + 1j * rng.normal(size=(k * k, k * k))
        want = _tensordot_into(rho, S, sites + [s + n for s in sites]).reshape(state.data.shape)
        assert np.array_equal(apply_channel(state, ChannelMap(tuple(sites), S)).data, want)


@settings(max_examples=40, deadline=None)
@given(_circuits(max_sites=4, wide=True))
def test_circuit_unitary_is_tensordot_bit_for_bit(circuit):
    dims = tuple(circuit.site_dims.values())
    pos = {s: i for i, s in enumerate(circuit.site_dims)}
    dim = math.prod(dims)
    want = np.eye(dim, dtype=complex).reshape(dims + (dim,))
    for g in circuit.gates():
        sites = [pos[s] for s in g.sites]
        want = _tensordot_into(want, _gate_matrix_with_rand3(g, tuple(dims[k] for k in sites)),
                               sites)
    with mock.patch.object(gates, "gate_matrix", _gate_matrix_with_rand3):
        got = circuit_unitary(circuit)
    assert np.array_equal(got, want.reshape(dim, dim))


@st.composite
def _circuits_with_postselects(draw):
    circuit = draw(_circuits(max_sites=4, wide=True))
    names = list(circuit.site_dims)
    for _ in range(draw(st.integers(0, 3))):
        site = draw(st.sampled_from(names))
        marker = PostselectMarker(site, draw(st.integers(0, circuit.site_dims[site] - 1)))
        circuit.ops.insert(draw(st.integers(0, len(circuit.ops))), marker)
    return circuit


@settings(max_examples=150, deadline=None)
@given(_circuits_with_postselects())
def test_text_form_round_trips(circuit):
    text = dumps_circuit(circuit)
    back = loads_circuit(text)
    assert back.site_dims == circuit.site_dims
    assert back.ops == circuit.ops
    assert dumps_circuit(back) == text
