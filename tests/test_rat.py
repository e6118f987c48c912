"""Random access test machinery: fitting, oracles, light simulation checks."""

import math

import numpy as np
import pytest

from qroutesim import engine, rat
from qroutesim.engine import compile_circuit
from qroutesim.errors import FitError
from qroutesim.gates import qrouter_circuit
from qroutesim.network import two_layer_landscape
from qroutesim.noise import LeakageSpec, NoiseModel, reference_rates
from qroutesim.protocols import ADDRESS_NAMES
from qroutesim.qudit import (ChannelMap, QuditRegister, apply_channel, attach_site, partial_trace,
                             populations, project)
from qroutesim.rat import draw_addresses, fit_rat, rat_model, rat_single, rat_two_layer


def test_fit_rat_round_trip():
    depths = np.arange(0, 16)
    m = rat_model(depths, 0.1, 0.9, 0.95)
    report = fit_rat(depths, m)
    assert report.residual_rms < 1e-10 and report.converged
    assert tuple(report.params) == pytest.approx((0.1, 0.9, 0.95), abs=1e-6)


def test_fit_rat_noisy_recovery():
    rng = np.random.default_rng(0)
    depths = np.arange(0, 31)
    hits = []
    for _ in range(100):
        m = rat_model(depths, 0.05, 0.9, 0.93) + rng.normal(scale=0.01, size=depths.size)
        hits.append(fit_rat(depths, m).params[2])
    assert abs(np.mean(hits) - 0.93) < 0.005
    assert np.std(hits) < 0.01


def test_fit_rat_needs_three_depths():
    with pytest.raises(FitError):
        fit_rat([0, 1], [1.0, 0.9])


def test_fit_rat_bounds():
    depths = np.arange(0, 10)
    m = np.linspace(1.2, 1.1, 10)  # silly data trending above 1
    l1, _, f = fit_rat(depths, m).params
    assert 0.0 <= l1 <= 1.0 and 0.0 <= f <= 1.0


def test_address_draws_reproducible_and_prefix_shared():
    a = draw_addresses(2024, 5, 10)
    b = draw_addresses(2024, 5, 31)
    assert a == b[:10]
    assert draw_addresses(2024, 6, 10) != a
    assert set(a) <= {"0", "h", "+", "-"}


@pytest.mark.parametrize("scheme", ["eraser", "non-eraser"])
def test_rat_single_noiseless_is_unity(scheme):
    r = rat_single(4, scheme, noise=None, trials=3, seed=1)
    assert np.abs(r.m_values - 1.0).max() < 1e-9


def test_rat_single_noisy_decays_monotone_in_expectation():
    nm = NoiseModel(reference_rates())
    r = rat_single(8, "non-eraser", nm, trials=10, seed=3)
    assert r.m_values[0] < 1.0
    # non-increasing in expectation (tiny slack for address-draw variation)
    assert np.all(np.diff(r.m_values) < 0.01)
    assert 0.8 < r.fit[2] < 1.0


def test_rat_single_probabilities_well_formed():
    nm = NoiseModel(reference_rates())
    r = rat_single(3, "eraser", nm, trials=2, seed=9)
    assert np.all(r.m_values >= 0.0) and np.all(r.m_values <= 1.0)


def test_rat_single_shot_sampling_close_to_exact():
    nm = NoiseModel(reference_rates())
    exact = rat_single(3, "eraser", nm, trials=4, seed=5, shots=0)
    sampled = rat_single(3, "eraser", nm, trials=4, seed=5, shots=20000)
    assert np.abs(exact.m_values - sampled.m_values).max() < 0.03


@pytest.mark.parametrize("scheme", ["eraser", "non-eraser"])
def test_rat_two_layer_noiseless_is_unity(scheme):
    r = rat_two_layer(2, scheme, noise=None, trials=2, seed=1)
    assert np.abs(r.m_values - 1.0).max() < 1e-9


def test_rat_two_layer_noisy_sane():
    nm = NoiseModel(reference_rates())
    r = rat_two_layer(2, "eraser", nm, trials=3, seed=2)
    assert r.m_values[0] < 1.0
    assert np.all(r.m_values > 0.0)
    # each block's post-selection keeps less of what survived the last
    assert np.all(np.diff(r.kept) < 0.0) and 0.0 < r.kept[-1] < r.kept[0] < 1.0


@pytest.mark.slow
def test_rat_two_layer_eraser_fit_dominates():
    # paired 30-trial runs at the reference rates: the eraser's fitted
    # fidelity and its whole depth curve sit above the non-eraser's
    nm = NoiseModel(reference_rates())
    er = rat_two_layer(4, "eraser", nm, trials=30, seed=2024)
    ne = rat_two_layer(4, "non-eraser", nm, trials=30, seed=2024)
    assert er.fit[2] >= ne.fit[2]
    assert np.all(er.m_values >= ne.m_values)


# M per depth of rat_single(30, scheme, reference rates with δϑ=0.403, trials=1,
# seed=7), as float.hex.  A one-trial depth curve is an ill-conditioned fit, so
# any change in how the simulator rounds shows here first.
_GOLDEN_M_SEED7 = {
    "eraser": (
        "0x1.bf8eac0f65482p-1 0x1.900d1565d3336p-1 0x1.6a6ade078a425p-1 "
        "0x1.59f1c7a132dcep-1 0x1.4116159d84582p-1 0x1.221738e74ee30p-1 "
        "0x1.f3bc4ffc42a4cp-2 0x1.facf28237017cp-2 0x1.df08e87c1fcd0p-2 "
        "0x1.a9608edac1d86p-2 0x1.91f9fb0de4968p-2 0x1.825d194b473f0p-2 "
        "0x1.6952173df8ac8p-2 0x1.54d61d8c3e81ep-2 0x1.432fe41d446fcp-2 "
        "0x1.79c06aacda3a6p-2 0x1.3fd1c0983a1fap-2 0x1.38420380e1900p-2 "
        "0x1.2b30f6cf93d84p-2 0x1.6fc17a95c689cp-2 0x1.7ad53688aa5aap-2 "
        "0x1.78d124dc49b18p-2 0x1.6b3c0ce518978p-2 0x1.6af6bca26ea2cp-2 "
        "0x1.53ee82db8f9e4p-2 0x1.f1b1cc8a4b5e8p-3 0x1.3881f7e794524p-2 "
        "0x1.2775bfa83b364p-2 0x1.a066019f6736cp-3 0x1.14fc1f5901ad6p-2 "
        "0x1.7d87442bf1d74p-3"
    ).split(),
    "non-eraser": (
        "0x1.ad5218925bc42p-1 0x1.3ac34b94f0930p-1 0x1.cded8cb8ca3b0p-2 "
        "0x1.64a2795f2b27cp-2 0x1.0d8a50e9d6646p-2 0x1.986aabf5b44e0p-3 "
        "0x1.0be5e6b7eb774p-3 0x1.d588f7afe8af0p-4 0x1.687ac5e72fa70p-4 "
        "0x1.90d246bd7ee20p-5 0x1.3fad994889fa0p-5 0x1.b9511a7773de0p-6 "
        "0x1.506741263df00p-6 0x1.00033d7bab800p-6 0x1.863077ba409c0p-7 "
        "0x1.1024ea2ca7900p-6 0x1.dc85176703a80p-8 0x1.50241ce8b0b00p-8 "
        "0x1.1267f5d2bcd80p-8 0x1.b484737cb5800p-8 0x1.6094dd8134a00p-8 "
        "0x1.1de9262f99100p-8 0x1.cffbae411fa00p-9 0x1.79b8e837bf200p-9 "
        "0x1.343c758045a00p-9 0x1.6bcc2e929e000p-11 0x1.a3c0a48772800p-10 "
        "0x1.58fd2ea0b4c00p-10 0x1.7059b707c9000p-12 0x1.db92f460a2000p-11 "
        "0x1.edc64208f2000p-13"
    ).split(),
}


@pytest.mark.parametrize("scheme", ["eraser", "non-eraser"])
def test_rat_single_golden_m_values(scheme):
    nm = NoiseModel(reference_rates(), LeakageSpec(0.403))
    r = rat_single(30, scheme, nm, trials=1, seed=7)
    assert [float(m).hex() for m in r.m_values] == _GOLDEN_M_SEED7[scheme]
    assert r.fit_converged and r.fit_iterations > 0


# rat_two_layer(n_max=3, scheme, reference rates, trials=1, seed=7) M per depth,
# and the noisy eraser two_layer_landscape on a 3×3 grid of θ in [0.2, 1.3],
# (θ1, θ2, D1..D4) flattened; float.hex, pinned bit for bit like the above.
# Recorded when readouts moved onto block maps (D1..D4 idle in one step
# instead of moment by moment), which moves last bits.  The values of the
# stepped readout before that are kept below, and the new ones stay within
# 1e-13 of them.
_GOLDEN_TWO_LAYER_M_SEED7 = {
    "eraser": "0x1.ca0e95c2c658ap-1 0x1.8b2d159b44770p-1 0x1.5201ba233fba0p-1 "
              "0x1.206f2371b4c26p-1".split(),
    "non-eraser": "0x1.c9cabfb0e8416p-1 0x1.8964889ddaa7cp-1 0x1.48b36e3e83113p-1 "
                  "0x1.03ab926e3bf46p-1".split(),
}
_GOLDEN_LANDSCAPE = (
    "0x1.254a66962c2e1p-10 0x1.f6909a4bd0ed9p-6 0x1.f40104e335bfbp-6 0x1.aad5843cd525ep-1 "
    "0x1.c3b00ec75f53cp-7 0x1.3c4421edb33d4p-6 0x1.810532033d093p-2 0x1.f4e1ca9d0491dp-2 "
    "0x1.db76be940eb4dp-6 0x1.70a57e49800b7p-8 0x1.9549864b2c21dp-1 0x1.320bbf6ac3bd1p-4 "
    "0x1.c3b5de8438b71p-7 0x1.81ac2d28cca55p-2 0x1.250590783eefcp-6 0x1.f454e3877844ep-2 "
    "0x1.5bd523be9814dp-3 0x1.c61a006cdf42ap-3 0x1.c3460e6fba0b9p-3 0x1.2623b6d2a1397p-2 "
    "0x1.6e245768519c9p-2 0x1.21f10230e52f3p-5 0x1.db072d87ce413p-2 0x1.70de4d41a7ce8p-5 "
    "0x1.db8438a7bbc6ap-6 0x1.95eed3f54a6b7p-1 0x1.601a5e55331ccp-9 0x1.2d0218ae2e69cp-4 "
    "0x1.6e2a022c79071p-2 0x1.dc6c427bbb52bp-2 0x1.0f219170673abp-5 0x1.6b5a34c5f8c48p-5 "
    "0x1.81703ef53de84p-1 0x1.23a88b0b5e8b1p-4 0x1.1d671581d9672p-4 0x1.3109e60bbe244p-7"
).split()
_STEPPED_TWO_LAYER_M_SEED7 = {
    "eraser": "0x1.ca0e95c2c658ap-1 0x1.8b2d159b44770p-1 0x1.5201ba233fba0p-1 "
              "0x1.206f2371b4c28p-1".split(),
    "non-eraser": "0x1.c9cabfb0e8415p-1 0x1.8964889ddaa7dp-1 0x1.48b36e3e83114p-1 "
                  "0x1.03ab926e3bf46p-1".split(),
}
_STEPPED_LANDSCAPE = (
    "0x1.254a66962c2e3p-10 0x1.f6909a4bd0edap-6 0x1.f40104e335bfcp-6 0x1.aad5843cd525ep-1 "
    "0x1.c3b00ec75f53ep-7 0x1.3c4421edb33d5p-6 0x1.810532033d092p-2 0x1.f4e1ca9d0491dp-2 "
    "0x1.db76be940eb4ep-6 0x1.70a57e49800b7p-8 0x1.9549864b2c21dp-1 0x1.320bbf6ac3bd1p-4 "
    "0x1.c3b5de8438b73p-7 0x1.81ac2d28cca54p-2 0x1.250590783eefbp-6 0x1.f454e3877844ep-2 "
    "0x1.5bd523be9814dp-3 0x1.c61a006cdf42bp-3 0x1.c3460e6fba0bap-3 0x1.2623b6d2a1398p-2 "
    "0x1.6e245768519c9p-2 0x1.21f10230e52f3p-5 0x1.db072d87ce414p-2 0x1.70de4d41a7ce8p-5 "
    "0x1.db8438a7bbc69p-6 0x1.95eed3f54a6b7p-1 0x1.601a5e55331ccp-9 0x1.2d0218ae2e69bp-4 "
    "0x1.6e2a022c79071p-2 0x1.dc6c427bbb52bp-2 0x1.0f219170673aap-5 0x1.6b5a34c5f8c47p-5 "
    "0x1.81703ef53de84p-1 0x1.23a88b0b5e8b2p-4 0x1.1d671581d9672p-4 0x1.3109e60bbe244p-7"
).split()


@pytest.mark.parametrize("scheme", ["eraser", "non-eraser"])
def test_rat_two_layer_golden_m_values(scheme):
    r = rat_two_layer(3, scheme, NoiseModel(reference_rates()), trials=1, seed=7)
    assert [float(m).hex() for m in r.m_values] == _GOLDEN_TWO_LAYER_M_SEED7[scheme]
    stepped = [float.fromhex(v) for v in _STEPPED_TWO_LAYER_M_SEED7[scheme]]
    assert np.abs(r.m_values - stepped).max() <= 1e-13


def test_two_layer_landscape_golden():
    grid = np.linspace(0.2, 1.3, 3)
    surf = two_layer_landscape(grid, grid, "eraser", NoiseModel(reference_rates()))
    assert [float(v).hex() for v in surf.reshape(-1)] == _GOLDEN_LANDSCAPE
    stepped = [float.fromhex(v) for v in _STEPPED_LANDSCAPE]
    assert np.abs(surf.reshape(-1) - stepped).max() <= 1e-13


# --- the shared first pass against the unshared block sequence ---------------------

_LEAKY = NoiseModel(reference_rates(), LeakageSpec(0.403))
_PARASITIC = (math.pi / 2, math.pi / 2)


def _single_paired_block(run, name):
    """attach → idle → two router passes → discard, from the run's state."""
    reg = attach_site(run.state, 1, rat._addr_rho(name, run.basis))
    reg = rat._idle(reg, run.noise, run.overhead, range(4))
    for _ in range(2):
        reg = run.router.run(reg).state
    return rat._discard_address(reg, run.scheme)


def _two_layer_paired_block(run, names):
    """attach → idle → root down → two-pass leaf maps → idle → root up → discard."""
    reg = attach_site(run.state, 1, rat._addr_rho(names[0], run.basis))
    reg = rat._idle(reg, run.noise, run.overhead, range(8))
    reg = run.root_wide.run(reg).state
    for sites, name in (((2, 4, 5), names[1]), ((3, 6, 7), names[2])):
        reg = apply_channel(reg, ChannelMap(sites, run._leaf_superop(name, 2)))
    reg = rat._idle(reg, run.noise, 2 * run.tau_router, (0, 1))
    reg = run.root_wide.run(reg).state
    return rat._discard_address(reg, run.scheme)


@pytest.mark.parametrize("scheme", ["eraser", "non-eraser"])
@pytest.mark.parametrize("layers", [1, 2])
def test_shared_step_is_measure_then_paired_block(layers, scheme):
    if layers == 1:
        run = rat._SingleRouterRun(scheme, _LEAKY, 25.0, 30.0, 1200.0, _PARASITIC)
        steps, paired_block = ["h", "+", "-", "0", "h"], _single_paired_block
    else:
        run = rat._TwoLayerRun(scheme, _LEAKY, 25.0, 30.0, 1200.0, _PARASITIC)
        steps, paired_block = [("h", "+", "-"), ("-", "0", "h")], _two_layer_paired_block
    for names in steps:
        want_p, want_kept = run.measure_final(names)
        want_next = paired_block(run, names)
        got_p, got_kept = run.measure_and_advance(names)
        assert np.array_equal(got_p, want_p) and got_kept == want_kept
        assert np.array_equal(run.state.data, want_next.data)


def test_rat_single_one_runner_matches_fresh_runner_per_trial():
    r = rat_single(4, "eraser", _LEAKY, trials=3, seed=5)
    ideal = rat._SingleRouterRun("eraser", None, 25.0, 30.0)
    for trial in range(3):
        run = rat._SingleRouterRun("eraser", _LEAKY, 25.0, 30.0, 1200.0, _PARASITIC)
        row = []
        for name in draw_addresses(5, trial, 5):
            row.append(rat._match(ideal.measure_final(name)[0], run.measure_final(name)[0]))
            run.state = _single_paired_block(run, name)
        assert r.m_per_trial[trial].tolist() == row


def test_kept_is_the_post_selection_acceptance():
    run = rat._SingleRouterRun("eraser", _LEAKY, 25.0, 30.0, 1200.0, _PARASITIC)
    run.state = _single_paired_block(run, "+")
    reg = attach_site(run.state, 1, rat._addr_rho("h", run.basis))
    reg = run.router.run(rat._idle(reg, run.noise, run.overhead, range(4))).state
    assert run.measure_final("h")[1] == pytest.approx(project(reg, 1, 1)[1], abs=1e-14)
    er = rat_single(6, "eraser", _LEAKY, trials=2, seed=3)
    ne = rat_single(6, "non-eraser", _LEAKY, trials=2, seed=3)
    assert np.all(np.diff(er.kept) < 0.0) and 0.0 < er.kept[-1] < er.kept[0] < 1.0
    assert np.abs(ne.kept - 1.0).max() < 1e-12


# --- two-layer block maps against their stepped references -------------------------


def _two_layer_run(scheme, noisy):
    if noisy:
        return rat._TwoLayerRun(scheme, _LEAKY, 25.0, 30.0, 1200.0, _PARASITIC)
    return rat._TwoLayerRun(scheme, None, 25.0, 30.0)


def _loop_leaf_superop(run, name, passes):
    """The leaf map column by column: one run of a leaf router without the
    reference site per basis input |i⟩⟨j| on (M, D, D')."""
    noisy = run.noise is not None
    leaf = compile_circuit(qrouter_circuit(
        run.scheme, parasitic=_PARASITIC if noisy else (0.0, 0.0),
        theta=math.pi - (0.403 if noisy else 0.0), sites=("M", "C", "D", "Dp"),
        dims=(2, 3, 2, 2), sqrt_cz_ns=25.0,
        single_ns=rat._flip_single_ns(run.scheme, 30.0, True)), run.noise)
    addr = rat._addr_rho(name, run.basis)
    cols = []
    for k in range(64):
        e = np.zeros((8, 8), dtype=complex)
        e[k // 8, k % 8] = 1.0
        reg = attach_site(QuditRegister((2, 2, 2), e), 1, addr)
        reg = rat._idle(reg, run.noise, run.overhead + run.tau_router, (1,))
        for _ in range(passes):
            reg = leaf.run(reg).state
        reg = rat._idle(reg, run.noise, run.tau_router if passes == 2 else 0.0, (1,))
        cols.append(rat._discard_address(reg, run.scheme).data.reshape(-1))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("scheme", ["eraser", "non-eraser"])
@pytest.mark.parametrize("noisy", [True, False])
def test_choi_leaf_maps_are_the_basis_loop(scheme, noisy):
    run = _two_layer_run(scheme, noisy)
    for passes in (1, 2):
        for name in ADDRESS_NAMES:
            assert np.array_equal(run._leaf_superop(name, passes),
                                  _loop_leaf_superop(run, name, passes))
    assert run.counters == {"leaf_maps_built": 8, "root_maps_built": 0, "map_cache_hits": 0}


def _stepped_readout(run, names):
    """attach C1 → 8-site idle → root_wide → leaf maps → (Q_I, C1) idle →
    discard → trace, on the 384-dimensional register."""
    reg = attach_site(run.state, 1, rat._addr_rho(names[0], run.basis))
    reg = rat._idle(reg, run.noise, run.overhead, range(8))
    reg = run.root_wide.run(reg).state
    for sites, name in (((2, 4, 5), names[1]), ((3, 6, 7), names[2])):
        reg = apply_channel(reg, ChannelMap(sites, run._leaf_superop(name, 1)))
    reg = rat._idle(reg, run.noise, run.tau_router, (0, 1))
    reg = rat._discard_address(reg, run.scheme)
    return rat._normalized(populations(partial_trace(reg, [0, 3, 4, 5, 6])))


@pytest.mark.parametrize("scheme", ["eraser", "non-eraser"])
@pytest.mark.parametrize("noisy", [True, False])
def test_factorised_readout_is_the_stepped_readout(scheme, noisy):
    run = _two_layer_run(scheme, noisy)
    for names in [("h", "+", "-"), ("-", "0", "h"), ("+", "+", "0"), ("0", "h", "-")]:
        got_p, got_kept = run.measure_final(names)
        want_p, want_kept = _stepped_readout(run, names)
        assert np.abs(got_p - want_p).max() <= 1e-13
        assert abs(got_kept - want_kept) <= 1e-13
        run.measure_and_advance(names)


def test_readouts_never_run_the_eight_site_register(monkeypatch):
    wide_run = engine.CompiledCircuit.run

    def guarded(self, state):
        if self.dims == rat._MAIN_DIMS:
            raise AssertionError("a readout ran root_wide")
        return wide_run(self, state)

    monkeypatch.setattr(engine.CompiledCircuit, "run", guarded)
    run = _two_layer_run("eraser", True)
    run.measure_final(("h", "+", "-"))
    two_layer_landscape([0.3, 0.9], [0.5], "eraser", _LEAKY)
    with pytest.raises(AssertionError, match="root_wide"):  # the guard is live
        run.measure_and_advance(("h", "+", "-"))
