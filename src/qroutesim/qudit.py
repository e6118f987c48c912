"""Dense linear algebra for mixed-dimension qudit registers.

A register is a product of sites, each of dimension 2 or 3.  Basis labels
are digit strings read most-significant-first: in ``|1100⟩`` over sites
(Q_I, Q_C, Q_L, Q_R), site 0 (Q_I) holds the leading digit.  This matches
the ket strings used throughout the route/transfer algebra, and it is the
one place in the package where the ordering convention is fixed.

Registers are value-like: every operation returns a new register and never
mutates its input, so independent sweep points can be evaluated
concurrently without locking.

Every matrix reaches a state through one kernel, `_Plan`: a gate on a
state vector or on either side of ρ (`Operator`, which compiled circuits
build once per gate), a channel's transfer matrix on the ket and bra axes
of its sites, and `gates.circuit_unitary`'s gates on an identity tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import AllDiscarded, InvalidLabel, RequiresMixed, ShapeError


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerances for the algebraic validity checks."""

    atol: float = 1e-10
    trace_atol: float = 1e-10
    eig_floor: float = -1e-9
    discard_floor: float = 1e-12


DEFAULT_POLICY = NumericPolicy()


@dataclass(frozen=True)
class QuditRegister:
    """State of a mixed-dimension register, pure (vector) or mixed (matrix).

    ``data`` has length ``prod(dims)`` for a pure state or that shape squared
    for a density matrix.
    """

    dims: tuple[int, ...]
    data: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def is_pure(self) -> bool:
        return self.data.ndim == 1

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    def density(self) -> np.ndarray:
        """Density matrix of the state regardless of representation."""
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    def to_mixed(self) -> "QuditRegister":
        if self.is_pure:
            return QuditRegister(self.dims, np.outer(self.data, self.data.conj()))
        return self

    def validate(self, policy: NumericPolicy = DEFAULT_POLICY) -> None:
        """Raise ShapeError if norm/trace/Hermiticity/positivity are violated."""
        if self.is_pure:
            norm = float(np.vdot(self.data, self.data).real)
            if abs(norm - 1.0) > policy.trace_atol:
                raise ShapeError(f"pure state norm {norm} != 1")
        else:
            rho = self.data
            if abs(np.trace(rho).real - 1.0) > policy.trace_atol:
                raise ShapeError(f"trace {np.trace(rho)} != 1")
            if np.abs(rho - rho.conj().T).max() > policy.atol:
                raise ShapeError("density matrix not Hermitian")
            if np.linalg.eigvalsh(rho).min() < policy.eig_floor:
                raise ShapeError("density matrix not positive semidefinite")


def digits_of(index: int, dims: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Mixed-radix digits of a flat basis index, most significant first."""
    out = []
    for d in reversed(dims):
        out.append(index % d)
        index //= d
    return tuple(reversed(out))


def index_of(digits, dims) -> int:
    idx = 0
    for dig, d in zip(digits, dims):
        idx = idx * d + dig
    return idx


def new_basis_state(dims, label: str) -> QuditRegister:
    """Pure computational basis state from a digit string like ``"1100"``."""
    dims = tuple(int(d) for d in dims)
    if len(label) != len(dims):
        raise InvalidLabel(f"label {label!r} has {len(label)} digits, register has {len(dims)} sites")
    digits = []
    for pos, ch in enumerate(label):
        if not ch.isdigit() or int(ch) >= dims[pos]:
            raise InvalidLabel(f"digit {ch!r} at site {pos} exceeds dimension {dims[pos]}")
        digits.append(int(ch))
    vec = np.zeros(int(np.prod(dims)), dtype=complex)
    vec[index_of(digits, dims)] = 1.0
    return QuditRegister(dims, vec)


def from_site_states(dims, site_vectors) -> QuditRegister:
    """Pure product state from per-site amplitude vectors."""
    dims = tuple(int(d) for d in dims)
    vec = np.array([1.0], dtype=complex)
    for d, sv in zip(dims, site_vectors):
        sv = np.asarray(sv, dtype=complex)
        if sv.shape != (d,):
            raise ShapeError(f"site vector shape {sv.shape} != ({d},)")
        vec = np.kron(vec, sv)
    vec = vec / np.linalg.norm(vec)
    return QuditRegister(dims, vec)


def _check_sites(reg: QuditRegister, sites) -> list[int]:
    sites = list(sites)
    if len(set(sites)) != len(sites):
        raise ShapeError(f"duplicate sites in {sites}")
    for s in sites:
        if not 0 <= s < reg.n_sites:
            raise ShapeError(f"site {s} out of range for {reg.n_sites} sites")
    return sites


class _Plan(NamedTuple):
    """A matrix on some axes of a tensor: transpose the targets to the front,
    (K, N) reshape, one matrix product, reshape to ``out`` and restore the
    axis order.  This is the contraction ``np.tensordot`` makes, bit for bit,
    without its per-call argument handling."""

    shape: tuple  # the tensor the flat data is viewed as
    perm: tuple
    flat: tuple
    out: tuple
    order: tuple

    def apply(self, matrix: np.ndarray, data: np.ndarray) -> np.ndarray:
        t = data.reshape(self.shape).transpose(self.perm).reshape(self.flat)
        return (matrix @ t).reshape(self.out).transpose(self.order)


def _plan(shape: tuple, targets: list[int]) -> _Plan:
    """The plan for a matrix on axes ``targets`` (in its own label order) of ``shape``."""
    targets = list(targets)
    rest = [a for a in range(len(shape)) if a not in targets]
    order = [0] * len(shape)
    for i, a in enumerate(targets + rest):
        order[a] = i
    target_dims = tuple(shape[a] for a in targets)
    rest_dims = tuple(shape[a] for a in rest)
    return _Plan(tuple(shape), tuple(targets + rest),
                 (math.prod(target_dims), math.prod(rest_dims)),
                 target_dims + rest_dims, tuple(order))


class Operator(NamedTuple):
    """A matrix bound to sites of a register: its conjugate and the plans for
    a state vector and for the ket and bra axes of ρ, built once."""

    matrix: np.ndarray
    conj: np.ndarray
    pure: _Plan
    ket: _Plan
    bra: _Plan

    def apply(self, data: np.ndarray) -> np.ndarray:
        """U·ψ of a state vector or U·ρ·U† of a density matrix, given flat or
        as a tensor over the site axes.  The result is that tensor, a strided
        view: a caller chaining gates passes it on and reshapes once."""
        if data.size == math.prod(self.pure.shape):
            return self.pure.apply(self.matrix, data)
        return self.bra.apply(self.conj, self.ket.apply(self.matrix, data))


def bind_operator(matrix: np.ndarray, dims: tuple[int, ...], sites: list[int]) -> Operator:
    """The Operator of ``matrix`` on ``sites`` (its labels in that order) of ``dims``."""
    dims, n = tuple(dims), len(dims)
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    return Operator(matrix, matrix.conj(), _plan(dims, sites), _plan(dims * 2, sites),
                    _plan(dims * 2, [s + n for s in sites]))


def apply_gate(state: QuditRegister, gate: np.ndarray, sites) -> QuditRegister:
    """Apply a unitary (or general operator) on the given sites.

    ``gate`` is indexed in the sites' own order: for ``sites=[a, b]`` the
    row/column labels are ``|x_a x_b⟩`` with x_a the leading digit.
    """
    sites = _check_sites(state, sites)
    dg = math.prod(state.dims[s] for s in sites)
    if np.shape(gate) != (dg, dg):
        raise ShapeError(f"gate shape {np.shape(gate)} does not match sites {sites} (dim {dg})")
    out = bind_operator(gate, state.dims, sites).apply(state.data)
    return QuditRegister(state.dims, out.reshape(state.data.shape))


def populations(state: QuditRegister) -> np.ndarray:
    """Probabilities over the full computational basis (sum to 1)."""
    if state.is_pure:
        p = np.abs(state.data) ** 2
    else:
        p = np.real(np.diag(state.data)).copy()
        p[p < 0] = 0.0
    return p


def project(state: QuditRegister, site: int, digit: int) -> tuple[QuditRegister, float]:
    """Project out every component carrying ``digit`` at ``site``, unnormalized.

    Returns the projected register and its kept probability (norm² or trace).
    """
    site = _check_sites(state, [site])[0]
    if not 0 <= digit < state.dims[site]:
        raise ShapeError(f"digit {digit} out of range for site {site} (dim {state.dims[site]})")
    keep = np.ones(state.dims, dtype=bool)
    keep[(slice(None),) * site + (digit,)] = False
    keep = keep.reshape(-1)
    if state.is_pure:
        vec = state.data * keep
        return QuditRegister(state.dims, vec), float(np.vdot(vec, vec).real)
    rho = state.data * np.outer(keep, keep)
    return QuditRegister(state.dims, rho), float(np.trace(rho).real)


def postselect(
    state: QuditRegister,
    site: int,
    forbidden: int,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> tuple[QuditRegister, float]:
    """Project out every component carrying ``forbidden`` at ``site``.

    Returns the renormalized register and the kept probability.  Raises
    AllDiscarded when the kept weight is numerically zero.
    """
    out, kept = project(state, site, forbidden)
    if kept < policy.discard_floor:
        raise AllDiscarded(f"post-selection on site {site} kept {kept}")
    norm = np.sqrt(kept) if state.is_pure else kept
    return QuditRegister(state.dims, out.data / norm), kept


def attach_site(state: QuditRegister, pos: int, site_rho: np.ndarray) -> QuditRegister:
    """Density matrix with a new site in state ``site_rho`` inserted at index ``pos``."""
    dims, n = state.dims, state.n_sites
    t = np.tensordot(site_rho, state.density().reshape(list(dims) * 2), axes=0)
    # (c, q, kets..., bras...) -> (kets[:pos], c, kets[pos:], bras[:pos], q, bras[pos:])
    kets, bras = list(range(2, 2 + n)), list(range(2 + n, 2 + 2 * n))
    order = kets[:pos] + [0] + kets[pos:] + bras[:pos] + [1] + bras[pos:]
    new_dims = dims[:pos] + (site_rho.shape[0],) + dims[pos:]
    dim = math.prod(new_dims)
    return QuditRegister(new_dims, t.transpose(order).reshape(dim, dim))


def partial_trace(state: QuditRegister, keep) -> QuditRegister:
    """Reduced density matrix over ``keep`` (result site order follows ``keep``)."""
    keep = _check_sites(state, list(keep))
    if not keep:
        raise ShapeError("keep must be nonempty")
    n = state.n_sites
    rho = state.density().reshape(list(state.dims) * 2)
    traced = [a for a in range(n) if a not in keep]
    # contract bra/ket axes of each traced site, highest axis first
    for a in sorted(traced, reverse=True):
        rho = np.trace(rho, axis1=a, axis2=a + rho.ndim // 2)
    # remaining axes follow original site order; permute to requested order
    remaining = sorted(keep)
    perm = [remaining.index(s) for s in keep]
    half = rho.ndim // 2
    rho = rho.transpose(perm + [p + half for p in perm])
    d = math.prod(state.dims[s] for s in keep)
    return QuditRegister(tuple(state.dims[s] for s in keep), rho.reshape(d, d))


def fidelity_to_pure(state: QuditRegister, target: np.ndarray) -> float:
    """⟨Ψ|ρ|Ψ⟩ against a pure target vector."""
    target = np.asarray(target, dtype=complex)
    if state.is_pure:
        return float(abs(np.vdot(target, state.data)) ** 2)
    return float(np.real(target.conj() @ state.data @ target))


# --- single-site channels -------------------------------------------------


@dataclass(frozen=True)
class ChannelMap:
    """Transfer matrix acting on a vectorized density matrix of one site, or
    of the sites in a tuple (their joint matrix, labels in tuple order).

    The vectorization is row-major: (ρ00, ρ01, ..., ρ_{d-1,d-1}).
    """

    site: int | tuple[int, ...]
    transfer: np.ndarray = field(repr=False)


def choi_matrix(transfer: np.ndarray) -> np.ndarray:
    """Choi matrix C = Σ_ij |i⟩⟨j| ⊗ Φ(|i⟩⟨j|) of a transfer matrix."""
    d = int(round(np.sqrt(transfer.shape[0])))
    C = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            out = (transfer @ unit.reshape(-1)).reshape(d, d)
            C += np.kron(unit, out)
    return C


def choi_superop(block, site_states) -> np.ndarray:
    """S[(a,b),(i,j)] = Φ(|i⟩⟨j|)[a,b] of the channel ``block`` on the open
    sites, from one run.  ``site_states`` gives each input site as an int d
    (open) or the vector it is held in; ``block`` maps (sites…, R) to
    (sites'…, R) and never touches R, so running it once from |Ω⟩⟨Ω|,
    |Ω⟩ = Σ_i |i⟩_open|i⟩_R, computes each column as a run on |i⟩⟨j| would."""
    open_dims = [s for s in site_states if isinstance(s, int)]
    r = math.prod(open_dims)
    omega = np.eye(r, dtype=complex).reshape(*open_dims, r)
    for pos in [k for k, s in enumerate(site_states) if not isinstance(s, int)]:
        omega = np.moveaxis(np.tensordot(site_states[pos], omega, axes=0), 0, pos)
    out = block(QuditRegister(omega.shape, np.outer(omega, omega.conj()))).data
    d = out.shape[0] // r
    return out.reshape(d, r, d, r).transpose(0, 2, 1, 3).reshape(d * d, r * r)


def is_cptp(transfer: np.ndarray, eig_floor: float = -1e-9, tp_atol: float = 1e-9) -> bool:
    """Complete positivity (Choi ⪰ 0) and trace preservation."""
    d = int(round(np.sqrt(transfer.shape[0])))
    C = choi_matrix(transfer)
    if np.linalg.eigvalsh((C + C.conj().T) / 2).min() < eig_floor:
        return False
    for j in range(d):
        for k in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[j, k] = 1.0
            out = (transfer @ unit.reshape(-1)).reshape(d, d)
            want = 1.0 if j == k else 0.0
            if abs(np.trace(out) - want) > tp_atol:
                return False
    return True


def apply_channel(state: QuditRegister, channel: ChannelMap) -> QuditRegister:
    """Apply a channel's transfer matrix to a density-matrix register."""
    if state.is_pure:
        raise RequiresMixed("channels act on density matrices; call to_mixed() first")
    sites = _check_sites(state, [channel.site] if np.isscalar(channel.site) else channel.site)
    d = math.prod(state.dims[s] for s in sites)
    if channel.transfer.shape != (d * d, d * d):
        raise ShapeError(
            f"transfer shape {channel.transfer.shape} does not fit sites {sites} (dim {d})"
        )
    n = state.n_sites
    # the transfer's row-major (ρ_kets, ρ_bras) labels are the sites' ket then bra axes
    plan = _plan(state.dims * 2, sites + [s + n for s in sites])
    return QuditRegister(state.dims, plan.apply(channel.transfer, state.data).reshape(
        state.dim, state.dim))
