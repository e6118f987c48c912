"""Protocol drivers: scans, tomography, Floquet analysis, Nelder-Mead."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qroutesim import engine, protocols
from qroutesim.errors import CapacityError, FitError
from qroutesim.noise import DecayRates, LeakageSpec, NoiseModel, reference_rates
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


@settings(max_examples=40, deadline=None)
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
        calls.append(self.dims)
        return run(self, state)

    monkeypatch.setattr(engine.CompiledCircuit, "run", counted)
    r = scan(np.linspace(0, math.pi / 2, 101), "eraser", NoiseModel(reference_rates()))
    assert len(calls) == 1 and calls[0] == (2, 3, 2, 2, 3)  # the router and its reference R
    assert r.counters == {"router_runs": 1, "points": 101}


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


def _loop_mle(block: np.ndarray, max_iter: int = 500) -> tuple[np.ndarray, int]:
    """RρR with one trace per (setting, outcome), on exact probabilities of ``block``."""
    n = int(round(math.log2(block.shape[0])))
    settings = ["".join(s) for s in itertools.product("ZXY", repeat=n)]
    freqs = {s: protocols._setting_probs(block, s) for s in settings}
    projs = {}
    for setting in settings:
        V = protocols._setting_rotation(setting)
        projs[setting] = [np.outer(V[o, :].conj(), V[o, :]) for o in range(2**n)]
    rho = np.eye(2**n, dtype=complex) / 2**n
    for it in range(max_iter):
        R = np.zeros_like(rho)
        for setting in settings:
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


@pytest.mark.parametrize("theta", [0.785398, 0.3])
def test_qst_mle_is_the_per_outcome_loop(theta):
    res = qst(AddressState(theta, 0.0, "02"), "eraser", method="mle", noise=NoiseModel())
    rho, iterations = _loop_mle(res.qubit_block)
    assert res.iterations == iterations
    assert np.abs(res.rho - rho).max() <= 1e-12


def test_qst_mle_noiseless_exact_does_not_converge():
    with pytest.raises(FitError, match="500 iterations"):
        qst(AddressState(0.7, 0.0, "02"), "eraser", method="mle")


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
