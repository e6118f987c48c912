"""Qutrit decoherence: transfer-matrix channel and closed-form decay laws.

Rates are in 1/μs.  The single-qutrit channel follows the cascade picture
(|2⟩→|1⟩ at Γ21, |1⟩→|0⟩ at Γ10, no direct 2→0) with independent coherence
decays; the transfer matrix acts on the row-major vectorized density matrix
(ρ00, ρ01, ..., ρ22).

Dephasing assignment (fixed convention): Γ2 damps the (0,1)/(1,0)
coherences, Γ3 the (0,2)/(2,0), Γ4 the (1,2)/(2,1).  The defaults keep
Γ2=Γ3=Γ4, so overriding a single rate is what makes the slot assignment
observable.

The cached 9×9 transfer matrix is the one place the decay factors are
computed: a qubit site's channel is its {0, 1} restriction, and the
compiled circuits' fused channel step reads its damping table and flows
off the same matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateRates, InvalidTime, RequiresMixed
from .qudit import ChannelMap, QuditRegister, apply_channel

#: relative rate difference below which the Γ10→Γ21 limit forms kick in
_DEGENERATE_RTOL = 1e-9
#: rounding slack (1/μs) of the physical-region check on DecayRates
_RATE_SLACK = 1e-12


@dataclass(frozen=True)
class DecayRates:
    """Per-site decay and dephasing rates (1/μs).

    Rates whose cascade channel is not completely positive at every t raise
    ValueError (see `__post_init__`)."""

    gamma10: float = 1.0 / 15.0
    gamma21: float = 1.0 / 12.0
    gamma2: float = 1.0 / 2.5
    gamma3: float = 1.0 / 2.5
    gamma4: float = 1.0 / 2.5

    def __post_init__(self):
        for name in ("gamma10", "gamma21", "gamma2", "gamma3", "gamma4"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must be nonnegative")
        # The cascade channel is completely positive at every t exactly when it
        # has a Lindblad generator: with diagonal dephasing operators the excess
        # dephasing of coherence (i, j) is φ_ij = ½|v_i − v_j|², so each φ ≥ 0
        # and √φ01, √φ02, √φ12 satisfy the triangle inequality.  Each φ may
        # miss by the slack (a square root magnifies rounding near φ = 0).
        a, b, c = phis = (self.gamma2 - self.gamma10 / 2, self.gamma3 - self.gamma21 / 2,
                          self.gamma4 - (self.gamma10 + self.gamma21) / 2)
        eps = _RATE_SLACK
        if min(phis) < -eps or any(
                math.sqrt(max(x - eps, 0.0)) > math.sqrt(y + eps) + math.sqrt(z + eps)
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b))):
            raise ValueError(
                "rates are not physical: the excess dephasings φ01, φ02, φ12 = "
                f"{phis[0]:.6g}, {phis[1]:.6g}, {phis[2]:.6g} (Γ2 − Γ10/2, Γ3 − Γ21/2, "
                "Γ4 − (Γ10+Γ21)/2) must be ≥ 0 with square roots that satisfy the "
                "triangle inequality")

    @property
    def degenerate(self) -> bool:
        top = max(self.gamma10, self.gamma21)
        return abs(self.gamma10 - self.gamma21) < _DEGENERATE_RTOL * max(top, 1.0)


def reference_rates() -> DecayRates:
    """Typical transmon working-point rates: Γ10=1/15, Γ21=1/12, Γ2..4=1/2.5 μs⁻¹."""
    return DecayRates()


@dataclass(frozen=True)
class LeakageSpec:
    """Coherent leakage: the √CZ under-rotation."""

    delta_theta: float = 0.0  # each sqrt_cz runs at ϑ = π − δϑ

    def __post_init__(self):
        if not 0.0 <= self.delta_theta < math.pi:
            raise ValueError("delta_theta must be in [0, π)")

    @property
    def theta(self) -> float:
        return math.pi - self.delta_theta

    @classmethod
    def from_leak_probability(cls, p: float) -> "LeakageSpec":
        """δϑ such that one √CZ leaves fraction p of the |11⟩ population behind."""
        return cls(delta_theta=2.0 * math.asin(math.sqrt(p)))


@dataclass(frozen=True)
class NoiseModel:
    """Uniform-site noise: decay rates and leakage."""

    rates: DecayRates = DecayRates()
    leakage: LeakageSpec = LeakageSpec()


def _v_entries(rates: DecayRates, t: float) -> tuple[float, float]:
    g10, g21 = rates.gamma10, rates.gamma21
    if rates.degenerate:
        g = 0.5 * (g10 + g21)
        return 1.0 - math.exp(-g * t) * (1.0 + g * t), g * t * math.exp(-g * t)
    v1 = 1.0 - (g10 * math.exp(-g21 * t) - g21 * math.exp(-g10 * t)) / (g10 - g21)
    v2 = g21 * (math.exp(-g21 * t) - math.exp(-g10 * t)) / (g10 - g21)
    return v1, v2


#: rows and columns of (ρ00, ρ01, ρ10, ρ11) in the qutrit's row-major vectorization
_QUBIT_BLOCK = np.ix_([0, 1, 3, 4], [0, 1, 3, 4])


@lru_cache(maxsize=4096)
def _transfer_cached(rates: DecayRates, t: float) -> np.ndarray:
    g10, g21 = rates.gamma10, rates.gamma21
    v1, v2 = _v_entries(rates, t)
    T = np.zeros((9, 9))
    T[0, 0] = 1.0
    T[0, 4] = 1.0 - math.exp(-g10 * t)
    T[0, 8] = v1
    T[1, 1] = T[3, 3] = math.exp(-rates.gamma2 * t)
    T[2, 2] = T[6, 6] = math.exp(-rates.gamma3 * t)
    T[4, 4] = math.exp(-g10 * t)
    T[4, 8] = v2
    T[5, 5] = T[7, 7] = math.exp(-rates.gamma4 * t)
    T[8, 8] = math.exp(-g21 * t)
    T.setflags(write=False)
    return T


def qutrit_channel(rates: DecayRates, t_us: float, site: int = 0) -> ChannelMap:
    """The 9×9 transfer matrix for evolution time t (μs) on one qutrit site.

    Identity at t=0; satisfies channel(t1)∘channel(t2) = channel(t1+t2).
    """
    if t_us < 0:
        raise InvalidTime(f"negative time {t_us}")
    return ChannelMap(site, _transfer_cached(rates, float(t_us)))


def qubit_transfer(rates: DecayRates, t_us: float) -> np.ndarray:
    """4×4 restriction for dim-2 sites: Γ10 decay plus Γ2 dephasing, the
    {ρ00, ρ01, ρ10, ρ11} rows and columns of the qutrit transfer matrix."""
    if t_us < 0:
        raise InvalidTime(f"negative time {t_us}")
    return _transfer_cached(rates, float(t_us))[_QUBIT_BLOCK]


def apply_noise_step(state: QuditRegister, rates, dt_us: float) -> QuditRegister:
    """Site-wise decoherence over dt (μs); requires a mixed register.

    ``rates`` is a single DecayRates applied to every site, or a sequence
    of per-site DecayRates (None entries skip a site).
    """
    if state.is_pure:
        raise RequiresMixed("apply_noise_step needs a density matrix")
    if dt_us < 0:
        raise InvalidTime(f"negative dt {dt_us}")
    if dt_us == 0:
        return state
    per_site = list(rates) if isinstance(rates, (list, tuple)) else [rates] * state.n_sites
    for site, r in enumerate(per_site):
        if r is None:
            continue
        if state.dims[site] == 3:
            state = apply_channel(state, qutrit_channel(r, dt_us, site))
        else:
            state = apply_channel(state, ChannelMap(site, qubit_transfer(r, dt_us)))
    return state


# --- closed-form decay amplitudes (conditional-swap unit, control ⊗ data) ----


def amplitude_a110(rates: DecayRates, t_us: float) -> float:
    """Survival of |110⟩ in the {0,1} encoding: e^(−2Γ10 t)."""
    if t_us < 0:
        raise InvalidTime(f"negative time {t_us}")
    return math.exp(-2.0 * rates.gamma10 * t_us)


def amplitude_a120(rates: DecayRates, t_us: float) -> tuple[float, float]:
    """(raw, post-selected) survival of |120⟩ in the {0,2} encoding.

    raw = e^(−(Γ10+Γ21)t); post-selected renormalizes over the kept states
    {120, 020, 100, 000}, giving 1/(e^((Γ10+Γ21)t) + λ) with
    λ = Γ21(e^(Γ10 t) − e^(Γ21 t))/(Γ21 − Γ10).
    """
    if t_us < 0:
        raise InvalidTime(f"negative time {t_us}")
    if rates.degenerate:
        raise DegenerateRates("Γ10 = Γ21: use the limit λ = −Γ t e^{Γt} form explicitly")
    g10, g21 = rates.gamma10, rates.gamma21
    raw = math.exp(-(g10 + g21) * t_us)
    lam = g21 * (math.exp(g10 * t_us) - math.exp(g21 * t_us)) / (g21 - g10)
    return raw, 1.0 / (math.exp((g10 + g21) * t_us) + lam)


def amplitude_a110_leaky(rates: DecayRates, t_us: float, epsilon: float) -> float:
    """|110⟩ survival with undetected leakage draining at rate ε."""
    if t_us < 0:
        raise InvalidTime(f"negative time {t_us}")
    return math.exp(-(2.0 * rates.gamma10 + epsilon) * t_us)


def amplitude_a120_leaky(rates: DecayRates, t_us: float, epsilon: float) -> float:
    """Post-selected |120⟩ survival with leakage ε removed by the eraser.

    Closed form from the rate model (leak path |120⟩→|111⟩ is filtered);
    reduces to amplitude_a120(...)[1] at ε→0.
    """
    if t_us < 0:
        raise InvalidTime(f"negative time {t_us}")
    if rates.degenerate:
        raise DegenerateRates("Γ10 = Γ21 has no closed form here; treat as a limit")
    a, b, e = rates.gamma10, rates.gamma21, epsilon
    num = (a - b) * (a + e) * (b + e) * (a + b + e)
    m1 = (a**3 * b - a * b**3 + a**3 * e + a**2 * b * e - a * b**2 * e
          + a**2 * e**2 - b**3 * e - b**2 * e**2) * math.exp((a + b + e) * t_us)
    m2 = (-(a**2) * b**2 - a * b**3 - a**2 * b * e - 2 * a * b**2 * e
          - a * b * e**2) * math.exp((a + e) * t_us)
    m3 = (a**2 * b**2 + a * b**3 + 2 * a * b**2 * e + b**3 * e
          + b**2 * e**2) * math.exp((b + e) * t_us)
    m4 = (2 * a**2 * b * e - a * b**2 * e - b**3 * e + a**2 * e**2
          + a * b * e**2 - 2 * b**2 * e**2 + a * e**3 - b * e**3)
    return num / (m1 + m2 + m3 + m4)


def balance_point(rates: DecayRates) -> float | None:
    """Crossing time t3 of the two schemes; None when Γ10 ≥ Γ21.

    t3 = −log(1 − Γ10/Γ21)/Γ10, defined iff Γ10 < Γ21.  For Γ10 ≥ Γ21 the
    post-selected scheme stays ahead at every t, so there is no crossing.
    """
    if rates.degenerate or rates.gamma10 >= rates.gamma21:
        return None
    return -math.log(1.0 - rates.gamma10 / rates.gamma21) / rates.gamma10
