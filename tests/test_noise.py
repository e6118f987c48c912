"""Decoherence channel and closed-form decay laws against the ODE oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qroutesim.errors import DegenerateRates, InvalidTime, RequiresMixed
from qroutesim.fitting import find_root, ode_integrate
from qroutesim.noise import (
    DecayRates,
    LeakageSpec,
    amplitude_a110,
    amplitude_a120,
    _transfer_cached,
    apply_noise_step,
    balance_point,
    reference_rates,
    qutrit_channel,
)
from qroutesim.qudit import QuditRegister, is_cptp, new_basis_state

from conftest import physical_rates

RATES = reference_rates()


def cascade_system(rates):
    """Rate matrix of the 6-state |120⟩ cascade (q1, qc digits, q2 idle)."""
    g10, g21 = rates.gamma10, rates.gamma21
    # order: 120, 020, 110, 010, 100, 000
    A = np.zeros((6, 6))
    A[0, 0] = -(g10 + g21)
    A[1, 0] = g10
    A[1, 1] = -g21
    A[2, 0] = g21
    A[2, 2] = -2 * g10
    A[3, 1] = g21
    A[3, 2] = g10
    A[3, 3] = -g10
    A[4, 2] = g10
    A[4, 4] = -g10
    A[5, 3] = g10
    A[5, 4] = g10
    return A


def test_channel_identity_at_zero():
    T = qutrit_channel(RATES, 0.0)
    assert np.abs(T - np.eye(9)).max() < 1e-14


def test_channel_rho22_decay():
    t = 1.7
    T = qutrit_channel(RATES, t)
    assert T[8, 8] == pytest.approx(math.exp(-RATES.gamma21 * t))


def test_channel_v2_feeds_rho11():
    t = 1.0
    g10, g21 = RATES.gamma10, RATES.gamma21
    v2 = g21 * (math.exp(-g21 * t) - math.exp(-g10 * t)) / (g10 - g21)
    T = qutrit_channel(RATES, t)
    assert T[4, 8] == pytest.approx(v2, abs=1e-12)
    # cross-check against numerical integration of the population rates
    A = np.zeros((3, 3))
    A[0, 1] = g10
    A[1, 1] = -g10
    A[1, 2] = g21
    A[2, 2] = -g21
    y = ode_integrate(A, [0, 0, 1], t)
    assert y[1] == pytest.approx(v2, abs=1e-8)


def test_channel_semigroup():
    for t1 in np.linspace(0.05, 4.0, 5):
        for t2 in np.linspace(0.05, 4.0, 5):
            lhs = qutrit_channel(RATES, t1) @ qutrit_channel(RATES, t2)
            rhs = qutrit_channel(RATES, t1 + t2)
            assert np.abs(lhs - rhs).max() < 1e-9


def test_channel_cptp_grid():
    for rates in (RATES, DecayRates(0.2, 0.05, 1.0, 0.8, 0.9)):
        for t in (0.0, 0.05, 0.5, 2.0, 10.0):
            T = qutrit_channel(rates, t)
            assert is_cptp(T, eig_floor=-1e-9)


def test_rates_outside_the_physical_region_are_rejected():
    with pytest.raises(ValueError, match="not physical"):
        DecayRates(1, 0, 0, 0, 0)  # φ01 = φ12 = −1/2
    with pytest.raises(ValueError, match="triangle"):
        DecayRates(0, 0, 0.01, 0.01, 1.0)  # √φ12 = 1 > √φ01 + √φ02 = 0.2
    DecayRates(0, 0, 0.25, 0.25, 1.0)  # on the boundary: √φ12 = √φ01 + √φ02
    with pytest.raises(ValueError, match="gamma10 must be nonnegative"):
        DecayRates(math.nan)


_SIXTEENTHS = st.integers(0, 16).map(lambda k: k / 16)


@settings(max_examples=200)
@given(st.tuples(*[_SIXTEENTHS] * 5))
def test_physical_region_is_complete_positivity(values):
    """DecayRates accepts a rate set exactly when its qutrit transfer matrix
    is CPTP at every time of a grid over [1e-4, 10] μs.  Rates on a 1/16
    grid are exact binary fractions, so boundary cases stay on the boundary."""
    unchecked = object.__new__(DecayRates)  # reaches rates the constructor rejects
    for name, v in zip(("gamma10", "gamma21", "gamma2", "gamma3", "gamma4"), values):
        object.__setattr__(unchecked, name, v)
    try:
        DecayRates(*values)
        accepted = True
    except ValueError:
        accepted = False
    cptp = all(is_cptp(_transfer_cached.__wrapped__(unchecked, t))
               for t in np.geomspace(1e-4, 10.0, 9))
    assert accepted == cptp


def _dephasing_points(rates):
    """Points v_0, v_1, v_2 of the plane with ½|v_i − v_j|² = φ_ij, the excess
    dephasings.  The longest side is laid on the x axis, so no coordinate is
    divided by a short side."""
    phi = {(0, 1): rates.gamma2 - rates.gamma10 / 2, (0, 2): rates.gamma3 - rates.gamma21 / 2,
           (1, 2): rates.gamma4 - (rates.gamma10 + rates.gamma21) / 2}
    side = {ij: math.sqrt(2 * max(p, 0.0)) for ij, p in phi.items()}
    (i, j), base = max(side.items(), key=lambda item: item[1])
    k = 3 - i - j
    v = np.zeros((3, 2))
    v[j, 0] = base
    if base > 0:
        to_i, to_j = side[tuple(sorted((i, k)))], side[tuple(sorted((j, k)))]
        x = (base**2 + to_i**2 - to_j**2) / (2 * base)
        v[k] = x, math.sqrt(max(to_i**2 - x**2, 0.0))
    return v


def _lindbladian(rates):
    """The cascade's generator on the row-major vectorized ρ, built from its
    jump operators √Γ10|0⟩⟨1|, √Γ21|1⟩⟨2| and one diagonal dephasing operator
    per coordinate of the dephasing points: vec(AρB) = (A ⊗ Bᵀ) vec(ρ)."""
    jumps = [np.zeros((3, 3)), np.zeros((3, 3))]
    jumps[0][0, 1] = math.sqrt(rates.gamma10)
    jumps[1][1, 2] = math.sqrt(rates.gamma21)
    jumps += [np.diag(col) for col in _dephasing_points(rates).T]
    eye = np.eye(3)
    L = np.zeros((9, 9))
    for J in jumps:
        JdJ = J.T @ J
        L += np.kron(J, J) - 0.5 * np.kron(JdJ, eye) - 0.5 * np.kron(eye, JdJ.T)
    return L


@settings(max_examples=200)
@given(physical_rates(), st.floats(0.0, 10.0))
def test_transfer_matrix_is_the_lindblad_exponential(rates, t):
    """`_transfer_cached(r, t)` is expm(t·L) of the Lindblad generator.  The
    closed form divides by Γ10 − Γ21, so near Γ10 = Γ21 it loses digits as
    eps/|Γ10 − Γ21|; the bound allows that term and 1e-12 besides."""
    from scipy.linalg import expm

    gap = abs(rates.gamma10 - rates.gamma21)
    tol = 1e-12 + (1e-15 / gap if gap else 0.0)
    assert np.abs(_transfer_cached(rates, t) - expm(t * _lindbladian(rates))).max() <= tol


def test_channel_degenerate_limit_continuous():
    near = DecayRates(gamma10=0.1, gamma21=0.1 + 1e-12)
    exact = DecayRates(gamma10=0.1, gamma21=0.1)
    t = 2.3
    assert np.abs(
        qutrit_channel(near, t) - qutrit_channel(exact, t)
    ).max() < 1e-6
    g = 0.1
    v1_limit = 1 - math.exp(-g * t) * (1 + g * t)
    assert qutrit_channel(exact, t)[0, 8] == pytest.approx(v1_limit, abs=1e-12)


def test_channel_rejects_negative_time():
    with pytest.raises(InvalidTime):
        qutrit_channel(RATES, -0.1)


def test_matrix_exponential_cross_check():
    from scipy.linalg import expm

    t = 1.3
    # generator reconstructed from the short-time limit must exponentiate back
    eps = 1e-7
    G = (qutrit_channel(RATES, eps) - np.eye(9)) / eps
    assert np.abs(expm(G * t) - qutrit_channel(RATES, t)).max() < 1e-5


def test_a110_closed_form():
    assert amplitude_a110(RATES, 0.0) == 1.0
    assert amplitude_a110(DecayRates(gamma10=1 / 15), 15.0) == pytest.approx(math.exp(-2))
    # two-qubit rate-equation oracle
    g10 = RATES.gamma10
    A = np.array([[-2 * g10, 0], [2 * g10, 0]])
    for t in (0.1, 1.0, 10.0):
        y = ode_integrate(A, [1, 0], t)
        assert amplitude_a110(RATES, t) == pytest.approx(y[0], abs=1e-10)


def test_a120_matches_ode_oracle():
    A = cascade_system(RATES)
    for t in (0.1, 1.0, 10.0, 20.0):
        y = ode_integrate(A, [1, 0, 0, 0, 0, 0], t)
        raw, ps = amplitude_a120(RATES, t)
        kept = y[0] + y[1] + y[4] + y[5]
        assert raw == pytest.approx(y[0], abs=1e-8)
        assert ps == pytest.approx(y[0] / kept, abs=1e-8)


def test_a120_at_zero_and_degenerate():
    raw, ps = amplitude_a120(RATES, 0.0)
    assert (raw, ps) == (1.0, 1.0)
    with pytest.raises(DegenerateRates):
        amplitude_a120(DecayRates(gamma10=0.1, gamma21=0.1), 1.0)


def test_postselection_never_hurts():
    for t in np.linspace(0.01, 30, 40):
        raw, ps = amplitude_a120(RATES, t)
        assert ps >= raw - 1e-15


def test_balance_point_value_and_crossing():
    t3 = balance_point(RATES)
    assert t3 == pytest.approx(15 * math.log(5), abs=1e-12)
    crossing = find_root(
        lambda t: amplitude_a120(RATES, t)[1] - amplitude_a110(RATES, t),
        (1.0, 40.0), tol=1e-10,
    )
    assert abs(crossing - t3) < 1e-6


def test_balance_point_absent_when_ps_always_wins():
    assert balance_point(DecayRates(gamma10=0.2, gamma21=0.1)) is None
    assert balance_point(DecayRates(gamma10=0.1, gamma21=0.1)) is None


def test_apply_noise_step_trivial_and_closed_form():
    rho = new_basis_state([3], "2").to_mixed()
    same = apply_noise_step(rho, RATES, 0.0)
    assert np.abs(same.data - rho.data).max() == 0.0
    out = apply_noise_step(rho, DecayRates(gamma21=1 / 12), 12.0)
    assert out.data[2, 2].real == pytest.approx(math.exp(-1))
    with pytest.raises(RequiresMixed):
        apply_noise_step(new_basis_state([3], "2"), RATES, 1.0)


def test_apply_noise_step_factorizes():
    rng = np.random.default_rng(23)
    v1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    v2 = rng.normal(size=3) + 1j * rng.normal(size=3)
    v1 /= np.linalg.norm(v1)
    v2 /= np.linalg.norm(v2)
    joint = QuditRegister((3, 3), np.kron(np.outer(v1, v1.conj()), np.outer(v2, v2.conj())))
    out = apply_noise_step(joint, RATES, 0.8)
    T = qutrit_channel(RATES, 0.8)
    r1 = (T @ np.outer(v1, v1.conj()).reshape(9)).reshape(3, 3)
    r2 = (T @ np.outer(v2, v2.conj()).reshape(9)).reshape(3, 3)
    assert np.abs(out.data - np.kron(r1, r2)).max() < 1e-12
    # and against the joint 81×81 two-site construction
    T2 = np.kron(T, T)
    vec = np.kron(np.outer(v1, v1.conj()), np.outer(v2, v2.conj()))
    joint_out = (T2 @ vec.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(81)).reshape(
        3, 3, 3, 3
    ).transpose(0, 2, 1, 3).reshape(9, 9)
    assert np.abs(out.data - joint_out).max() < 1e-12


def test_leakage_spec_mapping():
    spec = LeakageSpec.from_leak_probability(0.05)
    assert math.sin(spec.delta_theta / 2) ** 2 == pytest.approx(0.05)
    assert spec.theta == pytest.approx(math.pi - spec.delta_theta)
    with pytest.raises(ValueError):
        LeakageSpec(delta_theta=-0.1)
