"""Shared test plumbing: the acceptance scoreboard printed after the run, a
Hypothesis strategy for physical decay rates, and the per-point scan loop
that the one-run scans are checked against."""

import math

import numpy as np
from hypothesis import strategies as st

from qroutesim.engine import compile_circuit
from qroutesim.gates import qrouter_circuit
from qroutesim.noise import DecayRates
from qroutesim.protocols import (_ODD_KEYS, ROUTER_DIMS, AddressState, _interference_layer,
                                 _ordered_sums, router_input, scheme_basis)
from qroutesim.qudit import populations

ACCEPTANCE_LINES: list[str] = []


@st.composite
def physical_rates(draw):
    """DecayRates inside the physical region: decays Γ10, Γ21 in [0, 1] and
    excess dephasings φ_ij = ½|v_i − v_j|² from three points v in [0, 1]²."""
    g10, g21 = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    v = [draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))) for _ in range(3)]

    def phi(i, j):
        return 0.5 * ((v[i][0] - v[j][0]) ** 2 + (v[i][1] - v[j][1]) ** 2)

    return DecayRates(g10, g21, g10 / 2 + phi(0, 1), g21 / 2 + phi(0, 2),
                      (g10 + g21) / 2 + phi(1, 2))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


# --- the per-point scan loop: one router run per address --------------------------


def _per_point_router(scheme, noise):
    theta_gate = math.pi - (noise.leakage.delta_theta if noise else 0.0)
    return compile_circuit(qrouter_circuit(scheme, theta=theta_gate, dims=ROUTER_DIMS), noise)


def per_point_theta_scan(thetas, scheme, noise=None, phi=0.0):
    """(P_L, P_R, P_I) per θ, each from its own router run: the oracle for
    `protocols.theta_scan`."""
    router, basis = _per_point_router(scheme, noise), scheme_basis(scheme)
    rows = []
    for th in np.asarray(thetas, dtype=float):
        out = router.run(router_input(AddressState(th, phi, basis))).state
        excited = np.indices(out.dims).reshape(out.n_sites, -1)[[2, 3, 0]] != 0
        rows.append(_ordered_sums(np.where(excited, populations(out), 0.0)))
    return np.array(rows)


def per_point_phi_scan(phis, scheme, noise=None):
    """(p_odd, p_even, state_pops, phi0), each φ from its own router run: the
    oracle for `protocols.phi_scan`."""
    router, basis = _per_point_router(scheme, noise), scheme_basis(scheme)
    high = 1 if basis == "01" else 2
    phis = np.asarray(phis, dtype=float)
    p_odd, p_even, per_state = [], [], []
    for ph in phis:
        out = router.run(router_input(AddressState(math.pi / 4, ph, basis))).state
        out = _interference_layer(out, basis)
        pops = populations(out).reshape(out.dims)[0, [0, high]].reshape(8)
        po, pe = _ordered_sums(np.where([_ODD_KEYS, ~_ODD_KEYS], pops, 0.0))
        p_odd.append(po)
        p_even.append(pe)
        per_state.append(pops)
    y = 0.5 - np.array(p_odd)
    phi0 = math.atan2(2.0 * np.mean(y * np.cos(phis)), 2.0 * np.mean(y * np.sin(phis)))
    return np.array(p_odd), np.array(p_even), np.array(per_state), phi0
