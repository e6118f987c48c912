"""Circuit runner: moment execution and layer-wise noise, register in, register out."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qroutesim import engine, gates, qudit
from qroutesim.engine import compile_circuit, run_circuit
from qroutesim.errors import ShapeError
from qroutesim.gates import (Circuit, GateSpec, circuit_unitary, dumps_circuit, gate_matrix,
                             loads_circuit, qrouter_circuit)
from qroutesim.noise import NoiseModel, apply_noise_step, qubit_transfer, qutrit_channel, reference_rates
from qroutesim.protocols import AddressState, router_input
from qroutesim.qudit import (QuditRegister, apply_channel, apply_gate, attach_site,
                             new_basis_state, populations)

from conftest import physical_rates, with_signed_zeros


def test_run_circuit_routes_basis_label():
    circ = qrouter_circuit("non-eraser", dims=(2, 3, 2, 2))
    out = run_circuit(new_basis_state((2, 3, 2, 2), "1100"), circ)
    p = populations(out)
    # address |1⟩ routes left: (Q_I,Q_C,Q_L,Q_R) = (0,1,1,0)
    idx = int(np.argmax(p))
    assert p[idx] == pytest.approx(1.0)
    assert idx == ((0 * 3 + 1) * 2 + 1) * 2 + 0


def test_noise_promotes_to_density_matrix():
    nm = NoiseModel(reference_rates())
    c = Circuit({"q": 3})
    c.add_moment(GateSpec("x01", ("q",), (("phase", 0.0),), 1000.0))  # 1 μs layer
    res = run_circuit(new_basis_state([3], "0"), c, nm)
    assert not res.is_pure
    p = populations(res)
    assert p[1] == pytest.approx(math.exp(-reference_rates().gamma10 * 1.0), abs=1e-12)


def test_layer_noise_matches_manual_channel():
    nm = NoiseModel(reference_rates())
    c = Circuit({"a": 3, "b": 3})
    c.add_moment(GateSpec("x01", ("a",), (("phase", 0.0),), 500.0))
    res = run_circuit(new_basis_state([3, 3], "02"), c, nm)
    T = qutrit_channel(reference_rates(), 0.5)
    r_a = (T @ np.outer([0, 1, 0], [0, 1, 0]).reshape(9).astype(complex)).reshape(3, 3)
    r_b = (T @ np.outer([0, 0, 1], [0, 0, 1]).reshape(9).astype(complex)).reshape(3, 3)
    assert np.abs(res.data - np.kron(r_a, r_b)).max() < 1e-12


def test_idle_sites_accrue_layer_duration():
    nm = NoiseModel(reference_rates())
    c = Circuit({"a": 2, "b": 3})
    c.add_moment(GateSpec("x", ("a",), (), 2000.0))
    res = run_circuit(new_basis_state([2, 3], "02"), c, nm)
    # idle qutrit b decays from |2⟩ for the full 2 μs layer
    p = populations(res)
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
    """apply_gate per gate, apply_noise_step per moment."""
    pos = {n: i for i, n in enumerate(circuit.site_dims)}
    reg = state.to_mixed() if noise is not None else state
    for m in circuit.ops:
        for g in m.gates:
            gdims = tuple(circuit.site_dims[s] for s in g.sites)
            reg = apply_gate(reg, gate_matrix(g, gdims), [pos[s] for s in g.sites])
        if noise is not None and m.gates:
            reg = apply_noise_step(reg, noise.rates, m.duration_ns * 1e-3)
    return reg


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


@settings(max_examples=60)
@given(_circuits(), st.one_of(st.none(), _RATES), st.integers(0, 2**32 - 1))
def test_compiled_run_matches_gate_by_gate_reference(circuit, rates, seed):
    dims = tuple(circuit.site_dims.values())
    state = QuditRegister(dims, _random_rho(np.random.default_rng(seed), math.prod(dims)))
    noise = None if rates is None else NoiseModel(rates)
    got = compile_circuit(circuit, noise).run(state)
    want = _reference_run(state, circuit, noise)
    assert np.array_equal(got.data, want.data)


@settings(max_examples=60)
@given(_circuits(), st.one_of(st.none(), _RATES), st.booleans(),
       st.sampled_from([(), (2,), (3,), (8,), (24,)]), st.integers(0, 2**32 - 1))
def test_compiled_run_takes_strided_input_and_quiet_site(circuit, rates, pure, trailing, seed):
    """An input that is a strided view (a transposed ρ or every other entry
    of a vector), with a quiet site trailing the circuit's unless
    ``trailing`` is empty: on either representation the compiled run is bit
    for bit the gate-by-gate reference, with noise on the circuit's sites
    only."""
    rng = np.random.default_rng(seed)
    names = list(circuit.site_dims)
    dims = tuple(circuit.site_dims.values()) + trailing
    dim = math.prod(dims)
    if pure:
        buf = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
        state = QuditRegister(dims, buf[::2])
    else:
        state = QuditRegister(dims, _random_rho(rng, dim).T)
    noise = None if rates is None else NoiseModel(rates)
    got = compile_circuit(circuit, noise).run(state)
    want = state.to_mixed() if noise is not None else state
    site_rates = [rates] * len(names) + [None] * len(trailing)
    for m in circuit.ops:
        for g in m.gates:
            sites_g = [names.index(s) for s in g.sites]
            want = apply_gate(want, gate_matrix(g, tuple(dims[k] for k in sites_g)), sites_g)
        if noise is not None and m.gates:
            want = apply_noise_step(want, site_rates, m.duration_ns * 1e-3)
    assert got.is_pure == (pure and noise is None) and got.dims == dims
    assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("pure", [True, False])
def test_compiled_circuit_reruns_identically_without_mutating_input(pure):
    noise = NoiseModel(reference_rates())
    compiled = compile_circuit(qrouter_circuit("eraser", dims=(2, 3, 2, 2)), noise)
    start = router_input(AddressState(0.7, 0.3, "02"))
    if not pure:
        start = start.to_mixed()
    before = start.data.copy()
    first = compiled.run(start).data
    second = compiled.run(start).data
    assert np.array_equal(first, second)
    assert np.array_equal(start.data, before)


@pytest.mark.parametrize("scheme", ["eraser", "non-eraser"])
@pytest.mark.parametrize("ref_dim, gathers", [(2, True), (3, False), (8, False), (24, False)])
def test_links_gather_up_to_the_bound_and_stay_strided_above(scheme, ref_dim, gathers):
    """A noisy router with its init idle and a trailing reference site: ρ of
    2304 entries (the largest below `_GATHER_MAX` with a reference), 5184
    (the smallest Choi ρ), 36864 and 331776.  Either side of the bound the
    run is bit for bit the gate-by-gate reference; below it every link but
    the first entry's is a gather index, above it every link is strided."""
    router = qrouter_circuit(scheme, dims=(2, 3, 2, 2))
    noise = NoiseModel(reference_rates())
    compiled = compile_circuit(router, noise)
    compiled = compiled.idle(1200.0) + compiled
    dims = (2, 3, 2, 2, ref_dim)
    state = QuditRegister(dims, _random_rho(np.random.default_rng(ref_dim), 24 * ref_dim))
    got = compiled.run(state)
    site_rates = [noise.rates] * 4 + [None]
    want = apply_noise_step(state, site_rates, 1.2)
    for m in router.ops:
        for g in m.gates:
            sites = [list(router.site_dims).index(s) for s in g.sites]
            want = apply_gate(want, gate_matrix(g, tuple(dims[k] for k in sites)), sites)
        want = apply_noise_step(want, site_rates, m.duration_ns * 1e-3)
    assert np.array_equal(got.data, want.data)
    entries, restore = compiled.programs[(False, dims)]
    links = [link for _, link in entries[1:]] + [restore]
    assert type(entries[0][1]) is tuple
    assert all(type(link) is (np.ndarray if gathers else tuple) for link in links)


def test_link_gathers_a_copying_reorder_of_at_most_the_bound():
    ident = (0, 1, 2)
    for src, gather in [((16, 16, 16), True), ((16, 16, 17), False)]:
        link = qudit._link(src, ident, (1, 0, 2), (src[1], src[0] * src[2]))
        assert (type(link) is np.ndarray) == gather and not (gather and link.flags.writeable)
        data = np.arange(math.prod(src)) * 1j
        want = data.reshape(src).transpose(1, 0, 2).reshape(src[1], -1)
        assert np.array_equal(qudit._reorder(data, link), want)
    # a reorder that is a view stays one, on any size
    assert qudit._link((4, 8), (0, 1), (1, 0), (8, 4)) == ((4, 8), (1, 0), (8, 4))


@settings(max_examples=150)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.data())
def test_gather_is_the_strided_reorder_and_take(src, data):
    """On random shapes, restoring orders, target orders and flat splits, a
    gather link gives the bytes of the strided reorder and of `np.take` of
    the same index, on contiguous and non-contiguous inputs alike."""
    src = tuple(src)
    order = tuple(data.draw(st.permutations(range(len(src)))))
    perm = tuple(data.draw(st.permutations(range(len(src)))))
    logical = tuple(src[a] for a in order)
    split = data.draw(st.integers(0, len(src)))
    flat = tuple(math.prod(logical[a] for a in part) for part in (perm[:split], perm[split:]))
    link = qudit._link(src, order, perm, flat)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    size = math.prod(src)
    base = with_signed_zeros(rng, rng.normal(size=2 * size) + 1j * rng.normal(size=2 * size))
    for x in (base[:size], base[::2], base[:size].reshape(-1, src[0]).T, base[1::2].real):
        want = np.ascontiguousarray(x.reshape(src).transpose(order).transpose(perm).reshape(flat))
        got = qudit._reorder(x, link)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        if type(link) is np.ndarray:
            assert got.flags.c_contiguous and got.tobytes() == np.take(x, link).tobytes()


@settings(max_examples=80)
@given(_circuits(), _RATES, st.sampled_from([2, 3, 8, 24]), st.integers(0, 2**32 - 1))
def test_quiet_site_rides_along_untouched(circuit, rates, quiet_dim, seed):
    """A noisy run on a register with a quiet site trailing the circuit's is
    the run without it, tensored with that site's untouched state; one
    compiled circuit runs both."""
    rng = np.random.default_rng(seed)
    dims = tuple(circuit.site_dims.values())
    state = QuditRegister(dims, _random_rho(rng, math.prod(dims)))
    sigma = _random_rho(rng, quiet_dim)
    compiled = compile_circuit(circuit, NoiseModel(rates))
    got = compiled.run(attach_site(state, len(dims), sigma))
    want = attach_site(compiled.run(state), len(dims), sigma)
    assert got.dims == want.dims == dims + (quiet_dim,)
    assert np.abs(got.data - want.data).max() <= 1e-15


@pytest.mark.parametrize("noisy", [True, False])
def test_one_compiled_router_serves_every_trailing_site(noisy):
    """One compiled router runs registers with a trailing site of 8, then
    24, then 8 again: one program per (representation, register dims), each
    run bit for bit a fresh compile's.  A register whose leading dims are not
    the circuit's is rejected, with a trailing site or without."""
    noise = NoiseModel(reference_rates()) if noisy else None
    circuit = qrouter_circuit("eraser", dims=(2, 3, 2, 2))
    router = compile_circuit(circuit, noise)
    router = router.idle(1200.0) + router
    rng = np.random.default_rng(3)
    for r in (8, 24, 8):
        state = QuditRegister((2, 3, 2, 2, r), _random_rho(rng, 24 * r))
        fresh = compile_circuit(circuit, noise)
        fresh = (fresh.idle(1200.0) + fresh).run(state)
        assert np.array_equal(router.run(state).data, fresh.data)
    assert set(router.programs) == {(False, (2, 3, 2, 2, 8)), (False, (2, 3, 2, 2, 24))}
    for dims in [(3, 2, 2, 2), (3, 2, 2, 2, 8), (2, 3, 2), (2, 2, 2, 2, 3)]:
        dim = math.prod(dims)
        with pytest.raises(ShapeError):
            router.run(QuditRegister(dims, np.eye(dim, dtype=complex) / dim))


@settings(max_examples=80)
@given(_circuits(), st.one_of(st.none(), _RATES), st.floats(0.0, 5000.0), st.data(),
       st.integers(0, 2**32 - 1))
def test_idle_is_the_stepped_noise_step_and_plus_runs_in_turn(circuit, rates, t_ns, data, seed):
    """`idle(t, sites)` on a random subset of the circuit's sites, with a
    passive site trailing them, is bit for bit `apply_noise_step` with None
    for every other site; ``(a + b).run(x)`` is bit for bit
    ``b.run(a.run(x))``, noisy and noiseless (noiseless on vectors too)."""
    rng = np.random.default_rng(seed)
    dims = tuple(circuit.site_dims.values())
    sites = data.draw(st.sets(st.sampled_from(range(len(dims)))))
    noise = None if rates is None else NoiseModel(rates)
    compiled = compile_circuit(circuit, noise)
    idle = compiled.idle(t_ns, sites)
    full = dims + (3,)
    if noise is None and data.draw(st.booleans()):
        state = QuditRegister(full, rng.normal(size=math.prod(full)) + 0j)
    else:
        state = QuditRegister(full, _random_rho(rng, math.prod(full)))
    if noise is None:
        assert idle.steps == (engine._Moment((), ()),)
        assert np.array_equal(idle.run(state).data, state.data)
    else:
        site_rates = [rates if k in sites else None for k in range(len(dims))] + [None]
        assert np.array_equal(idle.run(state).data, apply_noise_step(state, site_rates,
                                                                     t_ns * 1e-3).data)
    for a, b in [(idle, compiled), (compiled, idle), (compiled, compiled)]:
        assert np.array_equal((a + b).run(state).data, b.run(a.run(state)).data)


def _random_matrix(rng, k: int) -> np.ndarray:
    return rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))


@settings(max_examples=60)
@given(_circuits(max_sites=4).filter(lambda c: math.prod(c.site_dims.values()) <= 24), _RATES,
       st.floats(0.0, 2000.0), st.integers(1, 3), st.data(), st.integers(0, 2**32 - 1))
def test_compiled_steps_are_the_oracles_bit_for_bit(circuit, rates, t_ns, trailing, data, seed):
    """`compile_step`, with a passive site of dimension ``trailing``, bit for
    bit: maps on random site tuples (1 to 4 sites, any order) are
    `apply_channel` in turn, then with noise `apply_noise_step`, and on a pure
    register they run it as |ψ⟩⟨ψ|; a noisy gate step is `apply_gate` per
    gate, then `apply_noise_step`, and with maps too `apply_channel` between
    the two; and ``maps + circuit`` (either way round) runs the two in turn."""
    rng = np.random.default_rng(seed)
    dims = tuple(circuit.site_dims.values())
    n, full = len(dims), dims + (trailing,)

    def some_sites(most: int) -> tuple:
        return tuple(data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, most))])

    maps = [(sites, _random_matrix(rng, math.prod(dims[s] for s in sites) ** 2))
            for sites in (some_sites(n) for _ in range(data.draw(st.integers(1, 3))))]
    gates_ = [(_random_matrix(rng, math.prod(dims[s] for s in sites)), sites)
              for sites in (some_sites(min(n, 2)) for _ in range(data.draw(st.integers(1, 3))))]
    state, psi = _random_state(rng, full, False), _random_state(rng, full, True)
    noise, site_rates = NoiseModel(rates), [rates] * n + [None]

    def oracle(start, gates_, maps, nm):
        want = start.to_mixed()
        for g, sites in gates_:
            want = apply_gate(want, g, sites)
        for sites, transfer in maps:
            want = apply_channel(want, sites, transfer)
        return want if nm is None else apply_noise_step(want, site_rates, t_ns * 1e-3)

    for nm in (None, noise):
        steps = engine.compile_step(dims, maps=maps, noise=nm, t_ns=t_ns)
        for start in (state, psi):
            got = steps.run(start)
            assert not got.is_pure and np.array_equal(got.data, oracle(start, (), maps, nm).data)
        compiled = compile_circuit(circuit, nm)
        for a, b in [(steps, compiled), (compiled, steps)]:
            assert np.array_equal((a + b).run(state).data, b.run(a.run(state)).data)
    got = engine.compile_step(dims, gates_, noise=noise, t_ns=t_ns).run(state)
    assert np.array_equal(got.data, oracle(state, gates_, (), noise).data)
    got = engine.compile_step(dims, gates_, maps, noise, t_ns).run(state)
    assert np.array_equal(got.data, oracle(state, gates_, maps, noise).data)


def test_compile_step_rejects_what_does_not_fit():
    for gates_, maps in [([(np.eye(6), (0, 0))], ()), ([(np.eye(3), (3,))], ()),
                         ([(np.eye(4), (0, 1))], ()), ((), [((1, 2), np.eye(35))]),
                         ((), [((2, 1, 2), np.eye(144))])]:
        with pytest.raises(ShapeError, match="does not fit"):
            engine.compile_step((2, 3, 2), gates_, maps)


def test_idle_and_plus_reject_what_is_not_the_register():
    noise = NoiseModel(reference_rates())
    router = compile_circuit(qrouter_circuit("eraser", dims=(2, 3, 2, 2)), noise)
    with pytest.raises(ShapeError, match="idle sites"):
        router.idle(100.0, (3, 4))
    for other in [compile_circuit(qrouter_circuit("eraser", dims=(2, 3, 2, 2))),
                  compile_circuit(Circuit({"a": 2}), noise)]:
        with pytest.raises(ShapeError, match="cannot join"):
            router + other


@pytest.mark.parametrize("dim", [1, 4, 8])
def test_noisy_site_of_another_dimension_rejected_at_compile(dim):
    c = Circuit({"a": 3, "r": dim})
    c.add_moment(GateSpec("x01", ("a",), (("phase", 0.0),), 30.0))
    noise = NoiseModel(reference_rates())
    with pytest.raises(ShapeError, match=f"dimension {dim}"):
        compile_circuit(c, noise)
    with pytest.raises(ShapeError, match=f"dimension {dim}"):
        apply_noise_step(QuditRegister((3, dim), np.eye(3 * dim) / (3 * dim)), noise.rates, 0.03)
    # a site trailing the circuit's may have any dimension
    rho = QuditRegister((3, dim), np.eye(3 * dim) / (3 * dim))
    compile_circuit(Circuit({"a": 3}, c.ops), noise).run(rho)


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
    precomputed contraction plans, and each site's transfer matrix applied
    through `_tensordot_into`."""
    dims, n = state.dims, len(state.dims)
    pos = {s: i for i, s in enumerate(circuit.site_dims)}
    data = (state if noise is None else state.to_mixed()).data
    for m in circuit.ops:
        for g in m.gates:
            sites = [pos[s] for s in g.sites]
            data = _tensordot_gate(data, dims, engine.gate_matrix(g, tuple(dims[k] for k in sites)),
                                   sites)
        if noise is not None and m.duration_ns > 0:
            t_us, rho = m.duration_ns * 1e-3, data.reshape(dims + dims)
            for s, d in enumerate(dims):
                T = qutrit_channel(noise.rates, t_us) if d == 3 else qubit_transfer(
                    noise.rates, t_us)
                rho = _tensordot_into(rho, T, [s, s + n])
            data = rho.reshape(data.shape)
    return data


def _random_state(rng, dims: tuple, pure: bool) -> QuditRegister:
    dim = math.prod(dims)
    if pure:
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return QuditRegister(dims, vec / np.linalg.norm(vec))
    return QuditRegister(dims, _random_rho(rng, dim))


@settings(max_examples=80)
@given(_circuits(max_sites=4, wide=True), st.one_of(st.none(), _RATES), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_contraction_plan_is_tensordot_bit_for_bit(circuit, rates, pure, seed):
    dims = tuple(circuit.site_dims.values())
    state = _random_state(np.random.default_rng(seed), dims, pure)
    noise = None if rates is None else NoiseModel(rates)
    with mock.patch.object(engine, "gate_matrix", _gate_matrix_with_rand3):
        got = compile_circuit(circuit, noise).run(state).data
        want = _tensordot_run(state, circuit, noise)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=120)
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
    T = qutrit_channel(rates, t_us) if dims[site] == 3 else qubit_transfer(rates, t_us)
    want = _tensordot_into(rho, T, [site, site + n]).reshape(state.data.shape)
    assert np.array_equal(apply_channel(state, (site,), T).data, want)
    if len(sites) == 3:
        S = rng.normal(size=(k * k, k * k)) + 1j * rng.normal(size=(k * k, k * k))
        want = _tensordot_into(rho, S, sites + [s + n for s in sites]).reshape(state.data.shape)
        assert np.array_equal(apply_channel(state, tuple(sites), S).data, want)


@settings(max_examples=40)
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


@settings(max_examples=150)
@given(_circuits(max_sites=4, wide=True))
def test_text_form_round_trips(circuit):
    text = dumps_circuit(circuit)
    back = loads_circuit(text)
    assert back.site_dims == circuit.site_dims
    assert back.ops == circuit.ops
    assert dumps_circuit(back) == text
