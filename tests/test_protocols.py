"""Protocol drivers: scans, tomography, Floquet analysis, Nelder-Mead."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qroutesim import engine, gates, protocols
from qroutesim.errors import CapacityError, FitError
from qroutesim.network import two_layer_landscape
from qroutesim.noise import LeakageSpec, NoiseModel, reference_rates
from qroutesim.qudit import partial_trace, postselect
from qroutesim.rat import rat_single
from qroutesim.protocols import (
    AddressState,
    FloquetParams,
    SplitMix64,
    floquet_cost,
    floquet_populations,
    leakage_repetition_scan,
    nelder_mead,
    phi_scan,
    qst,
    theta_scan,
)

from conftest import per_point_phi_scan, per_point_theta_scan, physical_rates


def test_splitmix_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    seq = [a.next_u64() for _ in range(5)]
    assert seq == [b.next_u64() for _ in range(5)]
    assert SplitMix64.for_trial(7, 3).next_u64() != SplitMix64.for_trial(7, 4).next_u64()
    # frozen first draw guards cross-version reproducibility
    assert SplitMix64(0).next_u64() == 16294208416658607535


def test_address_state_vectors():
    plus = AddressState.named("+", "02")
    v = plus.site_vector()
    assert v[0] == pytest.approx(1 / math.sqrt(2))
    assert v[2] == pytest.approx(1 / math.sqrt(2))
    minus = AddressState.named("-", "01")
    assert minus.site_vector()[1] == pytest.approx(-1 / math.sqrt(2))


@pytest.mark.parametrize("scheme", ["eraser", "non-eraser"])
def test_theta_scan_law(scheme):
    thetas = np.linspace(0, math.pi / 2, 31)
    r = theta_scan(thetas, scheme)
    assert np.abs(r.p_left - np.sin(thetas) ** 2).max() < 1e-9
    assert np.abs(r.p_right - np.cos(thetas) ** 2).max() < 1e-9
    assert r.p_input.max() < 1e-9
    assert r.p_left[0] == pytest.approx(0.0, abs=1e-12)  # θ=0 → all right
    assert r.p_left[-1] == pytest.approx(1.0)            # θ=π/2 → all left


def test_theta_scan_noisy_reports_residual():
    r = theta_scan(np.linspace(0, math.pi / 2, 5), "eraser", NoiseModel(reference_rates()))
    assert r.p_input.max() > 0
    assert r.p_input.max() < 0.1


@pytest.mark.parametrize("scheme", ["eraser", "non-eraser"])
def test_phi_scan_law_and_per_state(scheme):
    phis = np.linspace(0, 2 * math.pi, 41)
    r = phi_scan(phis, scheme)
    pred_odd = (1 - np.sin(phis + r.phi0)) / 2
    assert np.abs(r.p_odd - pred_odd).max() < 1e-9
    assert np.abs(r.p_odd + r.p_even - 1).max() < 1e-9
    odd_states = [k for k in range(8) if bin(k).count("1") % 2 == 1]
    per = r.state_pops[:, odd_states]
    assert np.abs(per - pred_odd[:, None] / 4).max() < 1e-9
    even_states = [k for k in range(8) if bin(k).count("1") % 2 == 0]
    assert np.abs(r.state_pops[:, even_states] - (1 - pred_odd)[:, None] / 4).max() < 1e-9


_ANGLES = st.floats(0.0, 2 * math.pi, allow_nan=False)


@settings(max_examples=40)
@given(st.sampled_from(["eraser", "non-eraser"]), st.one_of(st.none(), physical_rates()),
       st.floats(0.0, 0.5), st.lists(_ANGLES, max_size=10), st.lists(_ANGLES, max_size=10),
       st.floats(-math.pi, math.pi))
def test_scans_are_the_per_point_loop(scheme, rates, delta_theta, thetas, phis, phi):
    """One Choi run of the address response reproduces a router run per
    point, for every output of both scans."""
    noise = None if rates is None else NoiseModel(rates, LeakageSpec(delta_theta))
    thetas = np.array([0.0, math.pi / 2, *thetas])
    phis = np.array([0.0, math.pi / 2, *phis])
    r = theta_scan(thetas, scheme, noise, phi=phi)
    want = per_point_theta_scan(thetas, scheme, noise, phi=phi)
    assert np.abs(np.stack([r.p_left, r.p_right, r.p_input], axis=1) - want).max() <= 1e-14
    q = phi_scan(phis, scheme, noise)
    p_odd, p_even, per_state, phi0 = per_point_phi_scan(phis, scheme, noise)
    assert np.abs(q.p_odd - p_odd).max() <= 1e-14
    assert np.abs(q.p_even - p_even).max() <= 1e-14
    assert np.abs(q.state_pops - per_state).max() <= 1e-14
    assert abs(q.phi0 - phi0) <= 1e-14


@pytest.mark.parametrize("scan", [theta_scan, phi_scan])
def test_a_scan_runs_the_router_once(scan, monkeypatch):
    calls = []
    run = engine.CompiledCircuit.run

    def counted(self, state):
        calls.append((self.dims, state.dims))
        return run(self, state)

    monkeypatch.setattr(engine.CompiledCircuit, "run", counted)
    r = scan(np.linspace(0, math.pi / 2, 101), "eraser", NoiseModel(reference_rates()))
    assert calls == [((2, 3, 2, 2), (2, 3, 2, 2, 3))]  # the router, its reference trailing
    assert r.counters == {"router_runs": 1, "points": 101}


_NOISELESS_CHOI_RUNS = {
    "theta_scan": lambda scheme: theta_scan(np.linspace(0, math.pi / 2, 5), scheme),
    "phi_scan": lambda scheme: phi_scan(np.linspace(0, 2 * math.pi, 5), scheme),
    "two_layer_landscape": lambda scheme: two_layer_landscape([0.3, 1.1], [0.5, 1.2], scheme),
}


@pytest.mark.parametrize("scheme", ["eraser", "non-eraser"])
@pytest.mark.parametrize("name", list(_NOISELESS_CHOI_RUNS))
def test_noiseless_choi_runs_evolve_state_vectors(name, scheme, monkeypatch):
    """Every noiseless run of a circuit with gates (a router's Choi run) is
    on a state vector; the map-only runs of a two-layer readout are on ρ."""
    pure = []
    run = engine.CompiledCircuit.run

    def recorded(self, state):
        if any(m.gates for m in self.steps):
            pure.append(state.is_pure)
        return run(self, state)

    monkeypatch.setattr(engine.CompiledCircuit, "run", recorded)
    _NOISELESS_CHOI_RUNS[name](scheme)
    assert pure and all(pure)


def test_qst_exact_noiseless_unit_fidelity():
    for name in ("0", "+"):
        res = qst(AddressState.named(name, "02"), "eraser", method="exact")
        assert res.fidelity == pytest.approx(1.0, abs=1e-9)


def test_qst_reduced_state_is_rank_one_target():
    res = qst(AddressState.named("+", "02"), "eraser", method="exact")
    vals = np.linalg.eigvalsh(res.rho)
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)


def test_qst_linear_inversion_exact_probabilities():
    res = qst(AddressState.named("+", "02"), "eraser", method="linear-inversion", shots=0)
    assert res.fidelity == pytest.approx(1.0, abs=1e-8)
    # block estimate matches the exact reduced state's qubit block
    assert np.abs(res.rho - res.qubit_block).max() < 1e-8


def test_qst_linear_inversion_sampled():
    res = qst(AddressState.named("+", "02"), "eraser", method="linear-inversion",
              shots=200_000, seed=5)
    diff = res.rho - res.qubit_block
    td = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
    assert td < 0.01


def test_qst_mle_converges():
    res = qst(AddressState.named("0", "02"), "eraser", method="mle", shots=50_000, seed=3)
    assert res.fidelity > 0.98
    vals = np.linalg.eigvalsh(res.rho)
    assert vals.min() > -1e-9


_LOOP_ROTATIONS = {"Z": np.eye(2, dtype=complex),
                   "X": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
                   "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / math.sqrt(2)}


def _loop_rotation(setting: str) -> np.ndarray:
    """The pre-rotation of one setting, a Kronecker product per site."""
    V = np.array([1.0], dtype=complex)
    for ch in setting:
        V = np.kron(V, _LOOP_ROTATIONS[ch])
    return V


def _loop_freqs(block: np.ndarray, shots: int = 0, seed: int = 0) -> dict:
    """Each setting's outcome frequencies, one setting at a time in product order."""
    n = int(round(math.log2(block.shape[0])))
    rng = np.random.default_rng(seed)
    freqs = {}
    for setting in ("".join(s) for s in itertools.product("ZXY", repeat=n)):
        V = _loop_rotation(setting)
        p = np.real(np.diag(V @ block @ V.conj().T)).copy()
        p[p < 0] = 0.0
        p = p / p.sum()
        freqs[setting] = rng.multinomial(shots, p) / shots if shots else p
    return freqs


def _loop_mle(block: np.ndarray, max_iter: int = 500) -> tuple[np.ndarray, int]:
    """RρR with one trace per (setting, outcome), on exact probabilities of ``block``."""
    n = int(round(math.log2(block.shape[0])))
    freqs = _loop_freqs(block)
    projs = {}
    for setting in freqs:
        V = _loop_rotation(setting)
        projs[setting] = [np.outer(V[o, :].conj(), V[o, :]) for o in range(2**n)]
    rho = np.eye(2**n, dtype=complex) / 2**n
    for it in range(max_iter):
        R = np.zeros_like(rho)
        for setting in freqs:
            f = freqs[setting]
            for o, proj in enumerate(projs[setting]):
                pr = float(np.real(np.trace(proj @ rho)))
                if pr > 1e-12 and f[o] > 0:
                    R += (f[o] / pr) * proj
        new = R @ rho @ R
        new /= np.trace(new).real
        if np.abs(new - rho).max() < 1e-10:
            return new, it + 1
        rho = new
    raise FitError(f"MLE did not converge in {max_iter} iterations")


_LOOP_PAULIS = {"I": np.eye(2, dtype=complex), "X": np.array([[0, 1], [1, 0]], dtype=complex),
                "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
                "Z": np.diag([1.0, -1.0]).astype(complex)}


def _loop_linear_inversion(freqs: dict, n: int) -> np.ndarray:
    """ρ = Σ_label ⟨P⟩P/2ⁿ, one Pauli label and one outcome at a time; each
    label reads the setting that measures Z where it has I."""
    rho = np.zeros((2**n, 2**n), dtype=complex)
    for label in ("".join(s) for s in itertools.product("IXYZ", repeat=n)):
        f = freqs[label.replace("I", "Z")]
        exp = 0.0
        for o in range(2**n):
            sgn = 1.0
            for k in range(n):
                if label[k] != "I" and (o >> (n - 1 - k)) & 1:
                    sgn = -sgn
            exp += sgn * f[o]
        P = np.array([1.0], dtype=complex)
        for ch in label:
            P = np.kron(P, _LOOP_PAULIS[ch])
        rho += exp * P
    rho /= 2**n
    return (rho + rho.conj().T) / 2


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values with equal signs, signed zeros included."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a.view(float)),
                                                   np.signbit(b.view(float)))


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("shots", [0, 2000])
@pytest.mark.parametrize("scheme", ["eraser", "non-eraser"])
@pytest.mark.parametrize("sites", [(2,), (1, 3), (1, 2, 3)])
def test_qst_linear_inversion_is_the_per_label_loop(sites, scheme, shots, noisy):
    address = AddressState(0.6, 1.1, protocols.scheme_basis(scheme))
    res = qst(address, scheme, sites, "linear-inversion", shots, seed=9,
              noise=NoiseModel(reference_rates()) if noisy else None)
    rho = _loop_linear_inversion(_loop_freqs(res.qubit_block, shots, seed=9), len(sites))
    assert _bitwise_equal(res.rho, rho)
    assert res.fidelity == float(np.real(res.target.conj() @ rho @ res.target))


@pytest.mark.parametrize("theta", [0.785398, 0.3])
def test_qst_mle_is_the_per_outcome_loop(theta):
    res = qst(AddressState(theta, 0.0, "02"), "eraser", method="mle", noise=NoiseModel())
    rho, iterations = _loop_mle(res.qubit_block)
    assert res.iterations == iterations
    assert np.abs(res.rho - rho).max() <= 1e-12


def test_qst_mle_noiseless_exact_does_not_converge():
    with pytest.raises(FitError, match="500 iterations"):
        qst(AddressState(0.7, 0.0, "02"), "eraser", method="mle")


@pytest.mark.parametrize("scheme", ["eraser", "non-eraser"])
def test_noisy_qst_runs_the_leaky_router(scheme):
    address = AddressState(0.785398, 0.0, protocols.scheme_basis(scheme))
    leaky = NoiseModel(reference_rates(), LeakageSpec(0.4))
    res = qst(address, scheme, noise=leaky)
    circ = gates.qrouter_circuit(scheme, theta=math.pi - 0.4, dims=protocols.ROUTER_DIMS)
    out = engine.run_circuit(protocols.router_input(address), circ, leaky)
    if scheme == "eraser":
        out, _ = postselect(out, 1, 1)
    assert np.array_equal(res.rho, partial_trace(out, [1, 2, 3]).data)
    plain = qst(address, scheme, noise=NoiseModel(reference_rates()))
    assert np.abs(res.rho - plain.rho).max() > 1e-3


@pytest.mark.parametrize("method", ["exact", "linear-inversion"])
@pytest.mark.parametrize("noisy", [False, True])
def test_a_noiseless_qst_is_its_own_oracle(noisy, method, monkeypatch):
    calls = []
    run = protocols.run_circuit

    def counted(state, circuit, noise=None):
        calls.append(noise)
        return run(state, circuit, noise)

    monkeypatch.setattr(protocols, "run_circuit", counted)
    noise = NoiseModel(reference_rates()) if noisy else None
    res = qst(AddressState(0.785398, 0.0, "02"), "eraser", method=method, shots=1000,
              noise=noise)
    assert calls == ([noise, None] if noisy else [None])
    assert res.counters == {"router_runs": len(calls),
                            "settings": 0 if method == "exact" else 27}


def test_shots_must_be_a_sample_count():
    """A fractional or negative ``shots`` is rejected before any run, naming
    shots; an integer of another type counts as its value."""
    noise = NoiseModel(reference_rates())
    runs = {"rat_single": lambda shots: rat_single(3, "eraser", noise, trials=1, shots=shots,
                                                   seed=1).m_values,
            "qst": lambda shots: qst(AddressState(0.6, 0, "02"), method="linear-inversion",
                                     shots=shots).rho}
    for name, run in runs.items():
        for bad in (2.5, -3, 2**63):
            with pytest.raises(ValueError, match="shots"):
                run(bad)
        assert np.array_equal(run(np.int64(5)), run(5)), name


def test_qst_site_cap():
    with pytest.raises(CapacityError):
        qst(AddressState.named("0", "02"), "eraser", sites=(0, 1, 2, 3))


def test_floquet_populations_against_matrix_power():
    rng = np.random.default_rng(1)
    for _ in range(40):
        th = rng.uniform(0.2, 2 * math.pi - 0.2)
        eta = rng.uniform(-math.pi, math.pi)
        zeta = rng.uniform(-math.pi, math.pi)
        n = int(rng.integers(0, 20))
        c, s = math.cos(th / 2), math.sin(th / 2)
        G = np.array([[np.exp(1j * eta) * c, -1j * s], [-1j * s, np.exp(-1j * eta) * c]])
        Z = np.diag([1, np.exp(1j * zeta / 2)])
        M = np.linalg.matrix_power(Z @ G @ Z, n)
        p11, p02 = floquet_populations(th, eta, zeta, n)
        assert p11 == pytest.approx(abs(M[0, 0]) ** 2, abs=1e-10)
        assert p02 == pytest.approx(abs(M[1, 0]) ** 2, abs=1e-10)


def test_floquet_populations_ideal_alternation():
    for n in range(0, 21):
        p11, p02 = floquet_populations(math.pi, 0.3, -0.9, n)
        if n % 2 == 0:
            assert p11 == pytest.approx(1.0, abs=1e-12)
        else:
            assert p02 == pytest.approx(1.0, abs=1e-12)
    assert floquet_populations(math.pi, 0, 0, 3)[1] == pytest.approx(1.0)
    assert floquet_populations(math.pi, 0, 0, 0)[0] == pytest.approx(1.0)


def test_floquet_cost_ideal_and_imperfect():
    assert floquet_cost(FloquetParams(math.pi), m=15).value == pytest.approx(1.0, abs=1e-12)
    assert floquet_cost(FloquetParams(math.pi), m=4).counters == {"gate_applications": 8}
    assert floquet_cost(FloquetParams(0.97 * math.pi), m=15).value < 1.0


def test_floquet_cost_monotone_in_m_under_noise():
    nm = NoiseModel(reference_rates())
    vals = [floquet_cost(FloquetParams(math.pi), m, nm).value for m in (5, 10, 15)]
    assert vals[0] > vals[1] > vals[2]


def test_nelder_mead_quadratic():
    res = nelder_mead(lambda x: (x[0] - 3) ** 2, [0.0], step=0.5, tol=1e-14)
    assert res.x[0] == pytest.approx(3.0, abs=1e-6)
    assert res.converged


def test_nelder_mead_rosenbrock():
    def rosen(x):
        return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

    res = nelder_mead(rosen, [-1.2, 1.0], step=0.3, max_iter=4000, tol=1e-16)
    assert np.abs(res.x - [1, 1]).max() < 1e-4


def test_nelder_mead_budget_flag():
    res = nelder_mead(lambda x: (x[0] - 3) ** 2, [0.0], step=0.1, max_iter=3, tol=1e-16)
    assert not res.converged
    assert res.value <= 9.0  # best-so-far is still returned


def test_nelder_mead_recovers_ideal_rabi_angle():
    def neg_cost(x):
        th = min(max(x[0], 0.5 * math.pi), 1.5 * math.pi)
        return -floquet_cost(FloquetParams(th), m=6).value

    res = nelder_mead(neg_cost, [0.95 * math.pi], step=0.02, max_iter=300, tol=1e-14)
    assert abs(res.x[0] - math.pi) < 1e-3


def test_nelder_mead_param_cap():
    with pytest.raises(CapacityError):
        nelder_mead(lambda x: float(np.sum(x**2)), np.zeros(9))


@pytest.mark.parametrize("scheme", ["eraser", "non-eraser"])
def test_leakage_interference_ordering(scheme):
    worst = leakage_repetition_scan(20, scheme, phase=math.pi / 2, delta_theta=0.01 * math.pi)
    best = leakage_repetition_scan(20, scheme, phase=0.0, delta_theta=0.01 * math.pi)
    assert np.all(worst.survival <= best.survival + 1e-12)
    assert best.survival[0] <= 1.0 + 1e-12
