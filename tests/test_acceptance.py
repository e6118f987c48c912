"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion runs at its stated tolerance; the verdict line is printed
straight to the terminal (bypassing capture) so a plain `pytest` run shows
the scoreboard.  Reference hardware fidelities (95.74%, 87.48%, 82.40%,
81.90%) are reported in CLI summaries only and are deliberately not
asserted anywhere here.
"""

import math
import sys
import time

import numpy as np
import pytest

from qroutesim.engine import run_circuit
from qroutesim.fitting import find_root, ode_integrate
from qroutesim.gates import (
    CSWAP_BLOCK,
    ROUTING_LABELS,
    circuit_unitary,
    cswap_sequence,
    sqrt_cz_matrix,
    SqrtCzParams,
)
from qroutesim.layout import GridSpec, best_layout, check_layout
from qroutesim.network import router_counts
from qroutesim.noise import (
    DecayRates,
    LeakageSpec,
    NoiseModel,
    amplitude_a110,
    amplitude_a120,
    balance_point,
    reference_rates,
    qutrit_channel,
)
from qroutesim.protocols import (
    AddressState,
    FloquetParams,
    floquet_cost,
    floquet_populations,
    leakage_repetition_scan,
    nelder_mead,
    phi_scan,
    qst,
    theta_scan,
)
from qroutesim.qudit import choi_matrix, index_of
from qroutesim.rat import REFERENCE_LEAK_DELTA_THETA, rat_single


def report(num: int, ok: bool, detail: str) -> None:
    import conftest

    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} — {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)
    assert ok, line


def test_criterion_01_gate_accounting():
    t0 = time.time()
    got = {s: router_counts(s) for s in ("clifford", "tcg-non-eraser", "tcg-eraser")}
    want = {"clifford": (20, 16, 30), "tcg-non-eraser": (2, 6, 8), "tcg-eraser": (6, 6, 12)}
    elapsed = time.time() - t0
    ok = got == want and elapsed < 1.0
    report(1, ok, f"router tallies {got} in {elapsed:.3f}s")


def test_criterion_02_cswap_algebra():
    t0 = time.time()
    worst = 0.0
    idx = [index_of([int(c) for c in s], (3, 3, 3)) for s in ROUTING_LABELS]
    for order in ("q1-first", "qc-first"):
        U = circuit_unitary(cswap_sequence(order=order))
        worst = max(worst, float(np.abs(U[np.ix_(idx, idx)] - CSWAP_BLOCK).max()))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    report(2, ok, f"both orderings match −1×permutation to {worst:.2e} in {elapsed:.2f}s")


def test_criterion_03_routing_laws():
    t0 = time.time()
    thetas = np.linspace(0, math.pi / 2, 101)
    tr = theta_scan(thetas, "eraser")
    theta_dev = float(np.abs(tr.p_left - np.sin(thetas) ** 2).max())
    input_res = float(tr.p_input.max())
    phis = np.linspace(0, 2 * math.pi, 101)
    pr = phi_scan(phis, "eraser")
    phi_dev = float(np.abs(pr.p_odd - (1 - np.sin(phis + pr.phi0)) / 2).max())
    odd = [k for k in range(8) if bin(k).count("1") % 2 == 1]
    per_state_dev = float(
        np.abs(pr.state_pops[:, odd] - ((1 - np.sin(phis + pr.phi0)) / 8)[:, None]).max()
    )
    elapsed = time.time() - t0
    ok = (theta_dev < 1e-9 and input_res < 1e-9 and phi_dev < 1e-9
          and per_state_dev < 1e-9 and elapsed < 10.0)
    report(3, ok, f"θ dev {theta_dev:.1e}, P_I {input_res:.1e}, φ dev {phi_dev:.1e}, "
                  f"per-state {per_state_dev:.1e} in {elapsed:.1f}s")


def test_criterion_04_noise_closed_forms():
    t0 = time.time()
    rates = reference_rates()
    g10, g21 = rates.gamma10, rates.gamma21
    A = np.zeros((6, 6))
    A[0, 0] = -(g10 + g21)
    A[1, 0], A[1, 1] = g10, -g21
    A[2, 0], A[2, 2] = g21, -2 * g10
    A[3, 1], A[3, 2], A[3, 3] = g21, g10, -g10
    A[4, 2], A[4, 4] = g10, -g10
    A[5, 3], A[5, 4] = g10, g10
    worst = 0.0
    for t in np.linspace(0.0, 20.0, 21):
        y = ode_integrate(A, [1, 0, 0, 0, 0, 0], t) if t > 0 else np.array([1, 0, 0, 0, 0, 0.0])
        raw, ps = amplitude_a120(rates, t)
        kept = y[0] + y[1] + y[4] + y[5]
        worst = max(worst, abs(raw - y[0]), abs(ps - y[0] / kept))
        two_qubit = math.exp(-2 * g10 * t)
        worst = max(worst, abs(amplitude_a110(rates, t) - two_qubit))
    t3 = balance_point(rates)
    crossing = find_root(lambda t: amplitude_a120(rates, t)[1] - amplitude_a110(rates, t),
                         (1.0, 40.0), tol=1e-10)
    bp_dev = abs(t3 - crossing)
    bp_exact = abs(t3 - 15 * math.log(5))
    elapsed = time.time() - t0
    ok = worst < 1e-8 and bp_dev < 1e-6 and bp_exact < 1e-9 and elapsed < 5.0
    report(4, ok, f"closed forms vs ODE {worst:.1e}, BP crossing dev {bp_dev:.1e}, "
                  f"t3=15·ln5 dev {bp_exact:.1e} in {elapsed:.1f}s")


def test_criterion_05_channel_validity():
    t0 = time.time()
    rates = reference_rates()
    min_eig = 0.0
    semigroup = 0.0
    for t1 in np.linspace(0.05, 4.0, 5):
        C = choi_matrix(qutrit_channel(rates, t1).transfer)
        min_eig = min(min_eig, float(np.linalg.eigvalsh((C + C.conj().T) / 2).min()))
        for t2 in np.linspace(0.05, 4.0, 5):
            lhs = qutrit_channel(rates, t1).transfer @ qutrit_channel(rates, t2).transfer
            semigroup = max(semigroup, float(np.abs(lhs - qutrit_channel(rates, t1 + t2).transfer).max()))
    elapsed = time.time() - t0
    ok = min_eig > -1e-9 and semigroup < 1e-9 and elapsed < 5.0
    report(5, ok, f"Choi min eig {min_eig:.1e}, semigroup dev {semigroup:.1e} in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def rat_results():
    rates = reference_rates()
    out = {}
    for tag, leak in (("0%", LeakageSpec()),
                      ("5%", LeakageSpec(delta_theta=REFERENCE_LEAK_DELTA_THETA))):
        nm = NoiseModel(rates, leak)
        for scheme in ("non-eraser", "eraser"):
            out[(tag, scheme)] = rat_single(30, scheme, nm, trials=100, seed=2024)
    return out


@pytest.mark.slow
def test_criterion_06_rat_regression(rat_results):
    t0 = time.time()
    targets = {
        ("0%", "non-eraser"): (93.42, 1.0),
        ("0%", "eraser"): (94.81, 1.0),
        ("5%", "non-eraser"): (86.18, 1.5),
        ("5%", "eraser"): (93.07, 1.5),
    }
    misses = []
    vals = {}
    for key, (target, tol) in targets.items():
        f = rat_results[key].fit[2] * 100
        vals[key] = f
        if abs(f - target) > tol:
            misses.append(f"{key}: {f:.2f} vs {target}±{tol}")
    detail = ", ".join(f"{k[1]}@{k[0]}={v:.2f}" for k, v in vals.items())
    report(6, not misses, f"fitted F_RAT {detail}" + (f" MISSES {misses}" if misses else ""))


@pytest.mark.slow
def test_criterion_06_fitted_values_pinned(rat_results):
    # exact F_RAT of the fixture runs: drift shows here long before it
    # leaves the criterion-6 bands (non-eraser 0% sits 0.04 points inside)
    pinned = {
        ("0%", "non-eraser"): 0.9437895989833122,
        ("0%", "eraser"): 0.9428565723130428,
        ("5%", "non-eraser"): 0.8626114799830836,
        ("5%", "eraser"): 0.9333491656007425,
    }
    for key, f in pinned.items():
        assert rat_results[key].fit[2] == pytest.approx(f, abs=1e-6), key


@pytest.mark.slow
def test_criterion_07_eraser_dominance(rat_results):
    worst = 1.0
    for tag in ("0%", "5%"):
        diff = rat_results[(tag, "eraser")].m_values - rat_results[(tag, "non-eraser")].m_values
        worst = min(worst, float(diff.min()))
    report(7, worst >= 0.0, f"min per-depth (eraser − non-eraser) M gap {worst:+.4f}")


def test_criterion_08_leakage_interference():
    t0 = time.time()
    ok = True
    details = []
    for scheme in ("eraser", "non-eraser"):
        worst = leakage_repetition_scan(20, scheme, phase=math.pi / 2,
                                        delta_theta=0.01 * math.pi)
        calm = leakage_repetition_scan(20, scheme, phase=0.0, delta_theta=0.01 * math.pi)
        margin = float((calm.survival - worst.survival).min())
        details.append(f"{scheme} min margin {margin:+.2e}")
        ok &= bool(np.all(worst.survival <= calm.survival + 1e-12))
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(8, ok, f"π/2 ≤ phase-0 survival for all reps ≤ 20 ({'; '.join(details)}) in {elapsed:.1f}s")


def test_criterion_09_floquet_identity_cost_optimizer():
    t0 = time.time()
    worst = 0.0
    for eta in np.linspace(-math.pi, math.pi, 5):
        for zeta in np.linspace(-math.pi, math.pi, 5):
            for n in range(0, 21):
                p11, p02 = floquet_populations(math.pi, eta, zeta, n)
                want = (1.0, 0.0) if n % 2 == 0 else (0.0, 1.0)
                worst = max(worst, abs(p11 - want[0]), abs(p02 - want[1]))
    cost = floquet_cost(FloquetParams(math.pi), m=15).value

    def neg_cost(x):
        th = min(max(x[0], 0.5 * math.pi), 1.5 * math.pi)
        return -floquet_cost(FloquetParams(th), m=6).value

    opt = nelder_mead(neg_cost, [0.95 * math.pi], step=0.02, max_iter=300, tol=1e-14)
    recover = abs(opt.x[0] - math.pi)
    elapsed = time.time() - t0
    ok = worst < 1e-10 and abs(cost - 1.0) < 1e-12 and recover < 1e-3 and elapsed < 30.0
    report(9, ok, f"alternation dev {worst:.1e}, noiseless cost {cost:.12f}, "
                  f"ϑ recovery dev {recover:.2e} in {elapsed:.1f}s")


def test_criterion_10_layout_ladder():
    t0 = time.time()
    grid = GridSpec(12, 6)
    ok = True
    details = []
    for L in range(1, 6):
        _, layout, _ = best_layout(grid, L)
        good = layout is not None and check_layout(grid, layout).valid
        ok &= good
        details.append(f"L{L}:{'ok' if good else 'FAIL'}")
    _, layout6, diag = best_layout(grid, 6)
    ok &= layout6 is None
    details.append(f"L6:{'fails as required' if layout6 is None else 'UNEXPECTED FIT'}")
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    report(10, ok, f"{', '.join(details)} in {elapsed:.1f}s")


def test_criterion_11_qst():
    t0 = time.time()
    exact = qst(AddressState.named("+", "02"), "eraser", method="exact")
    fid_dev = abs(exact.fidelity - 1.0)
    li = qst(AddressState.named("+", "02"), "eraser", method="linear-inversion",
             shots=1_000_000, seed=2024)
    diff = li.rho - li.qubit_block
    td = 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())
    elapsed = time.time() - t0
    ok = fid_dev < 1e-9 and td < 5e-3 and elapsed < 60.0
    report(11, ok, f"exact fidelity dev {fid_dev:.1e}, sampled trace distance {td:.2e} "
                   f"in {elapsed:.1f}s")
