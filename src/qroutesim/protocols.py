"""Measurement protocols on a single router: scans, tomography, Floquet.

Address convention (fixed package-wide): an address cosθ|0⟩ + e^{iφ}sinθ|h⟩,
with h the high level of the encoding (1 or 2), routes the sinθ component to
Q_L and the cosθ component to Q_R, so a θ scan reads P_L = sin²θ.

A θ or φ scan runs the router once, whatever its number of points.  The
router is a fixed linear channel Φ and only the address ρ_C on Q_C changes
between points, so one run on a Choi state (Q_C maximally entangled with a
trailing reference site) gives the address response Φ(|i⟩⟨j|_C), and each
point's populations are Σ_ij ρ_C[i, j]·Φ(|i⟩⟨j|_C) on the diagonal.  The
φ scan's π/2 layer is a zero-duration compiled step joined after the
router, and each Floquet application is one run of a compiled step.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .engine import compile_circuit, compile_step, run_circuit
from .errors import CapacityError, FitError
from .gates import (
    SINGLE_NS,
    SQRT_CZ_NS,
    FloquetParams,
    SqrtCzParams,
    qrouter_circuit,
    sqrt_cz_matrix,
    x01_half_matrix,
)
from .noise import NoiseModel
from .qudit import (
    QuditRegister,
    choi_superop,
    from_site_states,
    partial_trace,
    populations,
    postselect,
)

ROUTER_DIMS = (2, 3, 2, 2)


# --- deterministic PRNG for address sequences ---------------------------------


class SplitMix64:
    """SplitMix64 stream; bit-reproducible across platforms and numpy versions."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def choice(self, n: int) -> int:
        # n must divide 2^64 for exact uniformity; address draws use n=4
        return self.next_u64() % n

    @classmethod
    def for_trial(cls, seed: int, trial: int) -> "SplitMix64":
        root = cls(seed)
        root.state = (root.state + (trial + 1) * 0xD1B54A32D192ED03) & cls._MASK
        return root


# --- addresses -----------------------------------------------------------------


@dataclass(frozen=True)
class AddressState:
    """cosθ|0⟩ + e^{iφ} sinθ|h⟩ with h=1 ("01" basis) or 2 ("02")."""

    theta: float
    phi: float = 0.0
    basis: str = "02"

    @property
    def high_level(self) -> int:
        return 1 if self.basis == "01" else 2

    def site_vector(self) -> np.ndarray:
        v = np.zeros(3, dtype=complex)
        v[0] = math.cos(self.theta)
        v[self.high_level] = np.exp(1j * self.phi) * math.sin(self.theta)
        return v

    @classmethod
    def named(cls, name: str, basis: str) -> "AddressState":
        table = {
            "0": (0.0, 0.0),
            "h": (math.pi / 2, 0.0),
            "+": (math.pi / 4, 0.0),
            "-": (math.pi / 4, math.pi),
        }
        theta, phi = table[name]
        return cls(theta, phi, basis)


ADDRESS_NAMES = ("0", "h", "+", "-")


def scheme_basis(scheme: str) -> str:
    return "02" if scheme == "eraser" else "01"


def router_input(address: AddressState, dims=ROUTER_DIMS) -> QuditRegister:
    """|1⟩ at Q_I, the address on Q_C, paths empty."""
    one = np.array([0.0, 1.0], dtype=complex)
    zero2 = np.array([1.0, 0.0], dtype=complex)
    return from_site_states(dims, [one, address.site_vector(), zero2, zero2])


def _ordered_sums(weights: np.ndarray) -> np.ndarray:
    """Sums over the last axis, accumulated in index order (np.sum pairs terms
    up, which rounds differently)."""
    return np.cumsum(weights, axis=-1)[..., -1]


def _address_response(scheme: str, noise: NoiseModel | None, sqrt_cz_ns: float,
                      single_ns: float, interference: bool = False) -> np.ndarray:
    """The router's address response: resp[a, i, j] = Φ(|i⟩⟨j|_C)[a, a], (24, 3, 3).

    Φ is one router pass, then `_interference_layer` when ``interference``,
    on |1⟩ at Q_I, empty paths and the operator |i⟩⟨j| on Q_C.  Every (i, j)
    comes from one run on a Choi state with a 3-dimensional reference site
    trailing the router's (`qudit.choi_superop`), so an address ρ_C gives the
    populations Σ_ij ρ_C[i, j]·resp[:, i, j] for any number of addresses.
    """
    block = compile_circuit(qrouter_circuit(
        scheme, theta=noise.leakage.theta if noise else math.pi, dims=ROUTER_DIMS,
        sqrt_cz_ns=sqrt_cz_ns, single_ns=single_ns), noise)
    if interference:
        block += _interference_layer(scheme_basis(scheme), noise)
    one, zero = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    transfer = choi_superop(block.run, (one, 3, zero, zero))  # (24·24, 3·3)
    return np.einsum("aaij->aij", transfer.reshape(24, 24, 3, 3))


def _scan_populations(resp: np.ndarray, addresses: list[AddressState]) -> np.ndarray:
    """(points, 24) router-output populations, one row per address, from the
    address response; round-off negatives are clipped as in `populations`."""
    c = np.array([a.site_vector() for a in addresses]).reshape(-1, 3)
    p = np.einsum("pij,aij->pa", c[:, :, None] * c[:, None, :].conj(), resp).real
    p[p < 0] = 0.0
    return p


@dataclass
class ThetaScanResult:
    thetas: np.ndarray
    p_left: np.ndarray
    p_right: np.ndarray
    p_input: np.ndarray
    scheme: str
    counters: dict = field(default_factory=dict)  # router runs and scan points


#: the excited Q_L, Q_R and Q_I digits of each router basis state
_PATH_EXCITED = np.indices(ROUTER_DIMS).reshape(len(ROUTER_DIMS), -1)[[2, 3, 0]] != 0


def theta_scan(thetas, scheme: str = "eraser", noise: NoiseModel | None = None,
               phi: float = 0.0, sqrt_cz_ns: float = SQRT_CZ_NS,
               single_ns: float = SINGLE_NS) -> ThetaScanResult:
    """Routing populations versus the address angle; noiseless law sin²θ/cos²θ.

    (P_L, P_R, P_I) are the marginal excitations of Q_L, Q_R and Q_I, read
    off one router run for every θ.  The gate times set how long a noisy
    router decoheres; each flip takes a full ``single_ns`` slot."""
    thetas = np.asarray(thetas, dtype=float)
    basis = scheme_basis(scheme)
    pops = _scan_populations(_address_response(scheme, noise, sqrt_cz_ns, single_ns),
                             [AddressState(th, phi, basis) for th in thetas])
    p_left, p_right, p_input = _ordered_sums(np.where(_PATH_EXCITED, pops[:, None], 0.0)).T
    return ThetaScanResult(thetas, p_left, p_right, p_input, scheme,
                           {"router_runs": 1, "points": len(thetas)})


@dataclass
class PhiScanResult:
    phis: np.ndarray
    p_odd: np.ndarray
    p_even: np.ndarray
    state_pops: np.ndarray  # (n_phi, 8) over (Q_C, Q_L, Q_R) parity-basis states
    phi0: float
    scheme: str
    counters: dict = field(default_factory=dict)  # router runs and scan points


def _interference_layer(basis: str, noise: NoiseModel | None):
    """X_{π/2} on the address subspace {0, h} of Q_C and on Q_L, Q_R: a
    zero-duration step on the router's register, to join after a router
    compiled with ``noise``."""
    half2 = x01_half_matrix(dim=2)
    levels = [0, 1 if basis == "01" else 2]
    qc_half = np.eye(3, dtype=complex)
    qc_half[np.ix_(levels, levels)] = half2
    return compile_step(ROUTER_DIMS, [(qc_half, (1,)), (half2, (2,)), (half2, (3,))], noise=noise)


_ODD_KEYS = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=bool)  # parity of c + l + r


def phi_scan(phis, scheme: str = "eraser", noise: NoiseModel | None = None,
             sqrt_cz_ns: float = SQRT_CZ_NS, single_ns: float = SINGLE_NS) -> PhiScanResult:
    """Parity interference at θ=π/4: P_O = (1 − sin(φ+φ0))/2.

    The three π/2 rotations act on Q_C (in its address subspace), Q_L and
    Q_R; populations are read over those three sites with basis labels
    mapping the high address level to 1.  One router run serves every φ;
    its gate times are as in `theta_scan`.
    """
    phis = np.asarray(phis, dtype=float)
    basis = scheme_basis(scheme)
    high = 1 if basis == "01" else 2
    resp = _address_response(scheme, noise, sqrt_cz_ns, single_ns, interference=True)
    pops = _scan_populations(resp, [AddressState(math.pi / 4, ph, basis) for ph in phis])
    # Q_I = 0 (residual input excitation is not one of the 8 states), and
    # Q_C at 0 or high (the eraser's leakage level is dropped): key 4c+2l+r
    per_state = pops.reshape(-1, *ROUTER_DIMS)[:, 0, [0, high]].reshape(-1, 8)
    p_odd, p_even = _ordered_sums(np.where([_ODD_KEYS, ~_ODD_KEYS], per_state[:, None], 0.0)).T
    # one shared offset: P_O = 1/2 − sin(φ+φ0)/2 ⇒ project onto sin/cos
    y = 0.5 - p_odd
    a = 2.0 * np.mean(y * np.sin(phis))
    b = 2.0 * np.mean(y * np.cos(phis))
    phi0 = math.atan2(b, a)
    return PhiScanResult(phis, p_odd, p_even, per_state, phi0, scheme,
                         {"router_runs": 1, "points": len(phis)})


# --- quantum state tomography ---------------------------------------------------


@dataclass
class QstResult:
    rho: np.ndarray
    fidelity: float
    target: np.ndarray
    method: str
    qubit_block: np.ndarray | None = None
    iterations: int | None = None  # RρR steps the MLE took
    counters: dict = field(default_factory=dict)  # router runs and basis settings


#: the pre-rotations of the settings Z, X, Y (outcome o projects onto row o)
_ROTATIONS = np.array([np.eye(2), [[1, 1], [1, -1]], [[1, -1j], [1, 1j]]],
                      dtype=complex) / np.array([1.0, math.sqrt(2), math.sqrt(2)])[:, None, None]
_PAULIS = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1.0, -1.0])],
                   dtype=complex)  # I, X, Y, Z


def _kron_table(single: np.ndarray, n: int) -> np.ndarray:
    """Every n-fold Kronecker product of the (k, 2, 2) ``single``, (kⁿ, 2ⁿ, 2ⁿ),
    in `itertools.product` order; each entry multiplied as `np.kron` does."""
    table = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n):
        m, d = table.shape[:2]
        table = (table[:, None, :, None, :, None] * single[None, :, None, :, None, :]
                 ).reshape(m * len(single), 2 * d, 2 * d)
    return table


def _mle(V: np.ndarray, freqs: np.ndarray, max_iter: int) -> tuple[np.ndarray, int]:
    """RρR iteration from ρ = I/d over every (setting, outcome) at once.

    Row r of ``V`` is the bra of outcome r and ``freqs`` its frequency, both
    in (setting, outcome) order.  Outcomes with tr(Pρ) ≤ 1e-12 or no counts
    get zero weight.  Returns the estimate and the number of steps; raises
    FitError when |Δρ| stays ≥ 1e-10.
    """
    projs = V.conj()[:, :, None] * V[:, None, :]  # |v⟩⟨v| of every row v
    flat = projs.reshape(len(projs), -1)
    d = V.shape[1]
    rho = np.eye(d, dtype=complex) / d
    for it in range(1, max_iter + 1):
        pr = (flat @ rho.T.reshape(-1)).real  # tr(Pρ) = Σ_ab P_ab ρ_ba
        w = np.divide(freqs, pr, out=np.zeros_like(pr), where=(pr > 1e-12) & (freqs > 0))
        R = np.tensordot(w, projs, axes=1)
        new = R @ rho @ R
        new /= np.trace(new).real
        if np.abs(new - rho).max() < 1e-10:
            return new, it
        rho = new
    raise FitError(f"MLE did not converge in {max_iter} iterations")


def _check_shots(shots) -> int:
    """``shots`` as an int sample count: what `operator.index` accepts, in
    [0, 2**63) (numpy's multinomial draws take a 64-bit count)."""
    try:
        count = operator.index(shots)
    except TypeError:
        raise ValueError(f"shots must be an integer, got {shots!r}") from None
    if not 0 <= count < 2**63:
        raise ValueError(f"shots must be in [0, 2**63), got {count}")
    return count


def qst(
    address: AddressState,
    scheme: str = "eraser",
    sites=(1, 2, 3),
    method: str = "exact",
    shots: int = 0,
    seed: int = 0,
    noise: NoiseModel | None = None,
    max_iter: int = 500,
    sqrt_cz_ns: float = SQRT_CZ_NS,
    single_ns: float = SINGLE_NS,
):
    """Tomograph the router output on up to three sites.

    The 3ⁿ settings pre-rotate each site's qubit subspace ({0,1}, or {0,2}
    for the eraser address site) by Z, X or Y, enumerated as
    `itertools.product`; ``shots`` counts samples per setting (0 = exact
    probabilities straight into the estimator).  Linear inversion reads each
    Pauli label off the setting that measures Z where the label has I.  A
    noisy run's √CZ gates under-rotate to ϑ = π − δϑ, and a second,
    noiseless run at ϑ = π fixes the target; a noiseless run is its own
    target.  The gate times set how long a noisy router decoheres, with a
    full ``single_ns`` slot per flip.
    """
    shots = _check_shots(shots)
    sites = list(sites)
    n = len(sites)
    if n > 3:
        raise CapacityError("tomography enumerated over at most 3 sites")
    ideal = qrouter_circuit(scheme, dims=ROUTER_DIMS)
    circ = qrouter_circuit(scheme, theta=noise.leakage.theta, dims=ROUTER_DIMS,
                           sqrt_cz_ns=sqrt_cz_ns, single_ns=single_ns) if noise else ideal
    out = run_circuit(router_input(address), circ, noise)
    if noise is not None and scheme == "eraser":
        out, _ = postselect(out, 1, 1)
    reduced = partial_trace(out, sites)
    # the pure target: a noiseless run is its own oracle
    oracle = reduced if noise is None else partial_trace(
        run_circuit(router_input(address), ideal, None), sites)
    target = np.linalg.eigh(oracle.data)[1][:, -1]
    counters = {"router_runs": 1 if noise is None else 2,
                "settings": 0 if method == "exact" else 3**n}

    if method == "exact":
        rho = reduced.data
        fid = float(np.real(target.conj() @ rho @ target))
        return QstResult(rho, fid, target, method, counters=counters)

    # qubit-subspace block of the reduced state: levels {0, high} per site
    high = 1 if scheme_basis(scheme) == "01" else 2
    levels = [(0, high if d == 3 else 1) for d in reduced.dims]
    block_idx = np.ravel_multi_index(np.ix_(*levels), reduced.dims).ravel()
    block = reduced.data[np.ix_(block_idx, block_idx)]
    block = block / np.trace(block).real

    V = _kron_table(_ROTATIONS, n)  # (3ⁿ, 2ⁿ, 2ⁿ)
    probs = np.diagonal(V @ block @ V.conj().transpose(0, 2, 1), axis1=1, axis2=2).real.copy()
    probs[probs < 0] = 0.0
    freqs = probs / probs.sum(axis=1, keepdims=True)
    if shots:
        freqs = np.random.default_rng(seed).multinomial(shots, freqs) / shots

    iterations = None
    if method == "linear-inversion":
        labels = np.array(list(itertools.product(range(4), repeat=n)))  # digits of I X Y Z
        outcomes = np.array(list(itertools.product(range(2), repeat=n)))
        signs = (-1.0) ** ((labels != 0) @ outcomes.T)  # parity of the measured digits
        setting = np.ravel_multi_index((labels % 3).T, (3,) * n)  # I measured as Z
        expectation = _ordered_sums(signs * freqs[setting])
        terms = expectation[:, None, None] * _kron_table(_PAULIS, n)  # label order
        rho = _ordered_sums(np.moveaxis(terms, 0, -1))
        rho /= 2**n
        rho = (rho + rho.conj().T) / 2
    elif method == "mle":
        rho, iterations = _mle(V.reshape(-1, 2**n), freqs.reshape(-1), max_iter)
    else:
        raise FitError(f"unknown method {method!r}")

    # fidelity against the target expressed in the qubit block
    tvec = target[block_idx]
    tvec = tvec / np.linalg.norm(tvec)
    fid = float(np.real(tvec.conj() @ rho @ tvec))
    return QstResult(rho, fid, tvec, method, qubit_block=block, iterations=iterations,
                     counters=counters)


# --- Floquet analysis ------------------------------------------------------------


@dataclass(frozen=True)
class FloquetCost:
    m: int
    value: float
    counters: dict = field(default_factory=dict, compare=False)  # gate applications


def floquet_populations(theta: float, eta: float = 0.0, zeta: float = 0.0,
                        n: int = 1) -> tuple[float, float]:
    """(P11, P02) after n applications of Z_qq·√CZ·Z_qq, from |11⟩.

    Closed form via Ω = arccos(cos(ϑ/2)cos(ζ/2−η)); at ϑ=π the populations
    alternate exactly (P11=1 even n, P02=1 odd n) for every η, ζ.
    """
    fp = FloquetParams(theta, eta, zeta)
    omega = fp.omega
    s = math.sin(omega)
    if s < 1e-15:
        return 1.0, 0.0
    nz = math.cos(theta / 2) * math.sin(zeta / 2 - eta) / s
    nx = math.sin(theta / 2) / s
    cn, sn = math.cos(n * omega), math.sin(n * omega)
    p11 = cn * cn + (nz * sn) ** 2
    p02 = (nx * sn) ** 2
    return p11, p02


def _floquet_composite(theta: float, eta: float, zeta: float) -> np.ndarray:
    """The 9×9 two-qutrit unitary of one Z_qq·√CZ·Z_qq application."""
    g = sqrt_cz_matrix(SqrtCzParams(theta=theta, eta=eta))
    z = np.eye(9, dtype=complex)
    i11 = 1 * 3 + 1
    z[i11, i11] = np.exp(1j * zeta / 2)
    return z @ g @ z


def floquet_cost(params: FloquetParams, m: int = 15,
                 noise: NoiseModel | None = None,
                 sqrt_cz_ns: float = 25.0) -> FloquetCost:
    """Average alternating |02⟩/|11⟩ population over 2m repeated gates, each
    one run of a compiled step: the gate, then with ``noise`` a decay of both
    qutrits over ``sqrt_cz_ns``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    U = _floquet_composite(params.theta, params.eta, params.zeta)
    gate = compile_step((3, 3), [(U, (0, 1))], noise=noise, t_ns=sqrt_cz_ns)
    state = QuditRegister((3, 3), np.eye(9, dtype=complex)[4].astype(complex))
    total = 0.0
    for _ in range(m):  # P11 before each odd application, P02 after it
        total += populations(state)[4]
        state = gate.run(state)
        total += populations(state)[2]
        state = gate.run(state)
    return FloquetCost(m, total / (2 * m), {"gate_applications": 2 * m})


# --- Nelder-Mead ------------------------------------------------------------------


@dataclass
class NelderMeadResult:
    x: np.ndarray
    value: float
    converged: bool
    iterations: int


def nelder_mead(f, x0, step=0.1, max_iter: int = 500, tol: float = 1e-8) -> NelderMeadResult:
    """Minimize f with the classic simplex moves (1, 2, 0.5, 0.5).

    Returns best-so-far with converged=False when max_iter is exhausted;
    convergence means the simplex value spread dropped below tol.
    """
    x0 = np.asarray(x0, dtype=float)
    k = x0.size
    if k > 8:
        raise CapacityError("nelder_mead supports at most 8 parameters")
    steps = np.broadcast_to(np.asarray(step, dtype=float), (k,))
    simplex = [x0.copy()]
    for i in range(k):
        v = x0.copy()
        v[i] += steps[i]
        simplex.append(v)
    values = [f(v) for v in simplex]
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5

    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if max(values) - min(values) < tol:
            converged = True
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        refl = centroid + alpha * (centroid - worst)
        f_refl = f(refl)
        if values[0] <= f_refl < values[-2]:
            simplex[-1], values[-1] = refl, f_refl
        elif f_refl < values[0]:
            exp = centroid + gamma * (refl - centroid)
            f_exp = f(exp)
            if f_exp < f_refl:
                simplex[-1], values[-1] = exp, f_exp
            else:
                simplex[-1], values[-1] = refl, f_refl
        else:
            contr = centroid + rho * (worst - centroid)
            f_contr = f(contr)
            if f_contr < values[-1]:
                simplex[-1], values[-1] = contr, f_contr
            else:
                best = simplex[0]
                simplex = [best] + [best + sigma * (v - best) for v in simplex[1:]]
                values = [values[0]] + [f(v) for v in simplex[1:]]
    best = int(np.argmin(values))
    return NelderMeadResult(simplex[best], values[best], converged, it)


# --- leakage interference (repeated router, imperfect √CZ) -------------------------


@dataclass
class LeakageScan:
    repetitions: np.ndarray
    survival: np.ndarray
    scheme: str
    phase: float


def leakage_repetition_scan(
    max_reps: int = 20,
    scheme: str = "eraser",
    phase: float = 0.0,
    delta_theta: float = 0.01 * math.pi,
) -> LeakageScan:
    """Initial-state survival after 2k router applications, ϑ = π − δϑ.

    The parasitic phases (φ′, φ″) steer whether the per-pass leakage
    interferes constructively (π/2, worst case) or destructively (0).
    """
    router = compile_circuit(qrouter_circuit(
        scheme, parasitic=(phase, phase), theta=math.pi - delta_theta, dims=ROUTER_DIMS
    ))
    # excited input with the high-level address: |1100⟩ or |1200⟩
    state = router_input(AddressState(math.pi / 2, 0.0, scheme_basis(scheme)))
    idx = int(np.argmax(populations(state)))
    reps, survival = [], []
    cur = state
    for k in range(1, max_reps + 1):
        cur = router.run(router.run(cur))
        reps.append(k)
        survival.append(float(populations(cur)[idx]))
    return LeakageScan(np.array(reps), np.array(survival), scheme, phase)
