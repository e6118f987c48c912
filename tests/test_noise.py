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
    amplitude_a110_leaky,
    amplitude_a120,
    amplitude_a120_leaky,
    _transfer_cached,
    apply_noise_step,
    balance_point,
    reference_rates,
    qutrit_channel,
)
from qroutesim.qudit import QuditRegister, choi_matrix, is_cptp, new_basis_state

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
    T = qutrit_channel(RATES, 0.0).transfer
    assert np.abs(T - np.eye(9)).max() < 1e-14


def test_channel_rho22_decay():
    t = 1.7
    T = qutrit_channel(RATES, t).transfer
    assert T[8, 8] == pytest.approx(math.exp(-RATES.gamma21 * t))


def test_channel_v2_feeds_rho11():
    t = 1.0
    g10, g21 = RATES.gamma10, RATES.gamma21
    v2 = g21 * (math.exp(-g21 * t) - math.exp(-g10 * t)) / (g10 - g21)
    T = qutrit_channel(RATES, t).transfer
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
            lhs = qutrit_channel(RATES, t1).transfer @ qutrit_channel(RATES, t2).transfer
            rhs = qutrit_channel(RATES, t1 + t2).transfer
            assert np.abs(lhs - rhs).max() < 1e-9


def test_channel_cptp_grid():
    for rates in (RATES, DecayRates(0.2, 0.05, 1.0, 0.8, 0.9)):
        for t in (0.0, 0.05, 0.5, 2.0, 10.0):
            T = qutrit_channel(rates, t).transfer
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


@settings(max_examples=200, deadline=None)
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


def test_channel_degenerate_limit_continuous():
    near = DecayRates(gamma10=0.1, gamma21=0.1 + 1e-12)
    exact = DecayRates(gamma10=0.1, gamma21=0.1)
    t = 2.3
    assert np.abs(
        qutrit_channel(near, t).transfer - qutrit_channel(exact, t).transfer
    ).max() < 1e-6
    g = 0.1
    v1_limit = 1 - math.exp(-g * t) * (1 + g * t)
    assert qutrit_channel(exact, t).transfer[0, 8] == pytest.approx(v1_limit, abs=1e-12)


def test_channel_rejects_negative_time():
    with pytest.raises(InvalidTime):
        qutrit_channel(RATES, -0.1)


def test_matrix_exponential_cross_check():
    from scipy.linalg import expm

    t = 1.3
    # generator reconstructed from the short-time limit must exponentiate back
    eps = 1e-7
    G = (qutrit_channel(RATES, eps).transfer - np.eye(9)) / eps
    assert np.abs(expm(G * t) - qutrit_channel(RATES, t).transfer).max() < 1e-5


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


def test_leaky_amplitudes_reduce_to_clean():
    for t in np.linspace(0.01, 5, 20):
        assert amplitude_a110_leaky(RATES, t, 0.0) == pytest.approx(amplitude_a110(RATES, t))
        assert amplitude_a120_leaky(RATES, t, 1e-13) == pytest.approx(
            amplitude_a120(RATES, t)[1], abs=1e-9
        )


def test_leaky_a120_matches_rate_ode():
    # leak channel |120⟩ → (detected sink) at rate ε, removed by post-selection
    eps = 0.1
    rates = DecayRates(gamma10=1 / 15, gamma21=1.2 / 15)
    g10, g21 = rates.gamma10, rates.gamma21

    def f(_, y):
        a120, a020, a110, a010, a100, a000, sink = y
        return [
            -(g10 + g21 + eps) * a120,
            g10 * a120 - g21 * a020,
            g21 * a120 - 2 * g10 * a110,
            g21 * a020 + g10 * a110 - g10 * a010,
            g10 * a110 - g10 * a100,
            g10 * a010 + g10 * a100,
            eps * a120,
        ]

    for t in (0.5, 2.0, 8.0):
        y = ode_integrate(f, [1, 0, 0, 0, 0, 0, 0], t)
        kept = y[0] + y[1] + y[4] + y[5]
        assert amplitude_a120_leaky(rates, t, eps) == pytest.approx(y[0] / kept, abs=1e-8)


def test_eraser_beats_non_eraser_under_leakage():
    # r = Γ21/Γ10 = 1.2, conditional-swap duration 90 ns, depths below 40
    rates = DecayRates(gamma10=1 / 15, gamma21=1.2 / 15)
    for eps in (0.1, 0.2):
        for n in range(1, 40):
            t = n * 0.090
            assert amplitude_a120_leaky(rates, t, eps) >= amplitude_a110_leaky(rates, t, eps) - 1e-12


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
    T = qutrit_channel(RATES, 0.8).transfer
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
