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
state vector or on either side of ρ, a channel's transfer matrix on the
ket and bra axes of its sites, and `gates.circuit_unitary`'s gates on an
identity tensor.  `apply_gate` and `apply_channel` apply one matrix as an
entry of a compiled program (`engine`) does; no run calls them, and tests
compare programs with them.  Compiled circuits chain plans with `_link`,
which feeds each product to the next plan in one reorder: on a small tensor
one gather of a memoised flat index (numpy's strided copy pays per
contiguous run, and there the runs are one or two entries long), else
reshape and transpose.  Both give the same C-ordered operand, so the next
product keeps its bits.  `attach_site` reorders through the same links;
`trace_out` undoes it, and may keep only some digits of the site (the
eraser's discard), gathering each kept digit's slice the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
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

    def validate(self) -> None:
        """Raise ShapeError if norm/trace/Hermiticity/positivity are violated
        beyond `DEFAULT_POLICY`."""
        if self.is_pure:
            norm = float(np.vdot(self.data, self.data).real)
            if abs(norm - 1.0) > DEFAULT_POLICY.trace_atol:
                raise ShapeError(f"pure state norm {norm} != 1")
        else:
            rho = self.data
            if abs(np.trace(rho).real - 1.0) > DEFAULT_POLICY.trace_atol:
                raise ShapeError(f"trace {np.trace(rho)} != 1")
            if np.abs(rho - rho.conj().T).max() > DEFAULT_POLICY.atol:
                raise ShapeError("density matrix not Hermitian")
            if np.linalg.eigvalsh(rho).min() < DEFAULT_POLICY.eig_floor:
                raise ShapeError("density matrix not positive semidefinite")


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
        if ch not in "0123456789":  # str.isdigit also passes "²" and "٣"
            raise InvalidLabel(f"{ch!r} at site {pos} is not a digit 0-9")
        if int(ch) >= dims[pos]:
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


def _plan(shape: tuple, targets) -> _Plan:
    """The plan for a matrix on axes ``targets`` (in its own label order) of
    ``shape``.  Plans are immutable, so they are memoised."""
    return _plan_cached(tuple(shape), tuple(targets))


@lru_cache(maxsize=4096)
def _plan_cached(shape: tuple, targets: tuple) -> _Plan:
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


_GATHER_MAX = 4096  # tensor entries: the router's ρ (576) gathers, every Choi ρ (≥ 5184) does not


@lru_cache(maxsize=4096)
def _link(src: tuple, order: tuple, perm: tuple, flat: tuple):
    """How a C-ordered tensor ``src``, which ``.transpose(order)`` restores
    to its logical axes, goes straight to those axes in the order ``perm``,
    reshaped to ``flat``: the link `_reorder` takes.  Axes that stay
    adjacent are merged, so a product links to the next plan without the
    restoring transpose: the same elements in the same layout.

    On at most `_GATHER_MAX` entries, where the reorder copies, the link is
    the flat index of each output entry (read-only, 8 B an entry), which
    one gather reads; otherwise it is ``(shape, perm, flat)`` for one
    reshape, transpose and reshape, which may be a view."""
    runs: list[list[int]] = []
    for a in (order[p] for p in perm):
        if runs and runs[-1][-1] + 1 == a:
            runs[-1].append(a)
        else:
            runs.append([a])
    by_start = sorted(range(len(runs)), key=lambda i: runs[i][0])
    link = (tuple(math.prod(src[a] for a in runs[i]) for i in by_start),
            tuple(by_start.index(i) for i in range(len(runs))), flat)
    size = math.prod(src)
    if size <= _GATHER_MAX:
        base = np.arange(size)
        index = _reorder(base, link)
        if not np.may_share_memory(base, index):
            index.flags.writeable = False
            return index
    return link


def _reorder(data: np.ndarray, link) -> np.ndarray:
    """``data`` through a `_link` link: one gather of its flat entries, or
    the strided form."""
    if type(link) is tuple:
        shape, perm, flat = link
        return data.reshape(shape).transpose(perm).reshape(flat)
    return data.ravel()[link]


def apply_gate(state: QuditRegister, gate: np.ndarray, sites) -> QuditRegister:
    """Apply a unitary (or general operator) on the given sites.

    ``gate`` is indexed in the sites' own order: for ``sites=[a, b]`` the
    row/column labels are ``|x_a x_b⟩`` with x_a the leading digit.
    """
    sites = _check_sites(state, sites)
    dg = math.prod(state.dims[s] for s in sites)
    if np.shape(gate) != (dg, dg):
        raise ShapeError(f"gate shape {np.shape(gate)} does not match sites {sites} (dim {dg})")
    gate, dims, n = np.ascontiguousarray(gate, dtype=complex), state.dims, state.n_sites
    if state.is_pure:
        out = _plan(dims, sites).apply(gate, state.data)
    else:
        out = _plan(dims * 2, sites).apply(gate, state.data)
        out = _plan(dims * 2, [s + n for s in sites]).apply(gate.conj(), out)
    return QuditRegister(dims, out.reshape(state.data.shape))


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
) -> tuple[QuditRegister, float]:
    """Project out every component carrying ``forbidden`` at ``site``.

    Returns the renormalized register and the kept probability.  Raises
    AllDiscarded when the kept weight is numerically zero.
    """
    out, kept = project(state, site, forbidden)
    if kept < DEFAULT_POLICY.discard_floor:
        raise AllDiscarded(f"post-selection on site {site} kept {kept}")
    norm = np.sqrt(kept) if state.is_pure else kept
    return QuditRegister(state.dims, out.data / norm), kept


def attach_site(state: QuditRegister, pos: int, site: np.ndarray) -> QuditRegister:
    """The register with a new site inserted at index ``pos``, in the state
    ``site``: a state vector or a density matrix.  A vector on a pure
    register gives a pure register (the product v_c·ψ, as `np.kron` forms
    it); on a mixed one it enters as |v⟩⟨v|.  A density matrix gives a
    mixed register."""
    dims, n = state.dims, state.n_sites
    new_dims = dims[:pos] + (site.shape[0],) + dims[pos:]
    if site.ndim == 1 and state.is_pure:
        t = np.multiply.outer(site, state.data.reshape(dims))
        return QuditRegister(new_dims, np.moveaxis(t, 0, pos).reshape(-1))
    if site.ndim == 1:
        site = np.outer(site, site.conj())
    t = np.tensordot(site, state.density().reshape(list(dims) * 2), axes=0)
    # (c, q, kets..., bras...) -> (kets[:pos], c, kets[pos:], bras[:pos], q, bras[pos:])
    kets, bras = list(range(2, 2 + n)), list(range(2 + n, 2 + 2 * n))
    order = kets[:pos] + [0] + kets[pos:] + bras[:pos] + [1] + bras[pos:]
    dim = math.prod(new_dims)
    link = _link(t.shape, tuple(range(t.ndim)), tuple(order), (dim, dim))
    return QuditRegister(new_dims, _reorder(t, link))


def trace_out(state: QuditRegister, site: int, digits=None) -> QuditRegister:
    """The register without ``site``, traced over its ``digits`` (all by
    default), so the other digits' branches drop out unnormalized.  Each
    kept digit's ket = bra slice is one gather of a memoised flat index, and
    the slices are summed in digit order from zero, as `np.trace` sums (so
    signed zeros agree).  A pure register gathers its digits from the vector
    and forms only those slices of |ψ⟩⟨ψ|."""
    site = _check_sites(state, [site])[0]
    dims = state.dims
    if digits is None:
        digits = range(dims[site])
    elif len(set(digits)) != len(digits) or not set(digits) <= set(range(dims[site])):
        raise ShapeError(f"digits {digits} are not distinct digits below {dims[site]}")
    terms = state.data.ravel()[_digit_slices(dims, site, tuple(digits), state.is_pure)]
    if state.is_pure:
        terms = terms[:, :, None] * terms.conj()[:, None, :]
    out = np.zeros(terms.shape[1:], dtype=terms.dtype)
    for term in terms:
        out += term
    return QuditRegister(dims[:site] + dims[site + 1:], out)


@lru_cache(maxsize=256)
def _digit_slices(dims: tuple, site: int, digits: tuple, pure: bool) -> np.ndarray:
    """The flat index, per digit of ``digits``, of the entries of a vector
    over ``dims`` that hold it at ``site`` (shape (digits, rest)), or of ρ's
    entries that hold it at ``site`` on both the ket and the bra (shape
    (digits, rest, rest)); read-only."""
    inner = math.prod(dims[site + 1:])
    high, low = divmod(np.arange(math.prod(dims) // dims[site]), inner)
    ket = high * (dims[site] * inner) + low + np.array(digits, dtype=np.intp)[:, None] * inner
    index = ket if pure else ket[:, :, None] * math.prod(dims) + ket[:, None, :]
    index.flags.writeable = False
    return index


def partial_trace(state: QuditRegister, keep) -> QuditRegister:
    """Reduced density matrix over ``keep`` (result site order follows ``keep``)."""
    keep = _check_sites(state, list(keep))
    if not keep:
        raise ShapeError("keep must be nonempty")
    for s in sorted(set(range(state.n_sites)) - set(keep), reverse=True):
        state = trace_out(state, s)
    # the kept sites are left in their original order; permute to ``keep``'s
    perm = [sorted(keep).index(s) for s in keep]
    rho = state.density().reshape(state.dims * 2).transpose(perm + [p + len(perm) for p in perm])
    return QuditRegister(tuple(state.dims[p] for p in perm), rho.reshape(state.dim, state.dim))


# --- single-site channels -------------------------------------------------


def choi_matrix(transfer: np.ndarray) -> np.ndarray:
    """Choi matrix C = Σ_ij |i⟩⟨j| ⊗ Φ(|i⟩⟨j|) of a transfer matrix."""
    d = int(round(np.sqrt(transfer.shape[0])))
    # transfer[(a,b),(i,j)] = Φ(|i⟩⟨j|)[a,b] lands at C[(i,a),(j,b)]
    return np.asarray(transfer, dtype=complex).reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(
        d * d, d * d)


def choi_superop(block, site_states) -> np.ndarray:
    """S[(a,b),(i,j)] = Φ(|i⟩⟨j|)[a,b] of the channel ``block`` on the open
    sites, from one run.  ``site_states`` gives each input site as an int d
    (open) or the vector it is held in; ``block`` maps (sites…, R) to
    (sites'…, R) and never touches R, so running it once from
    |Ω⟩ = Σ_i |i⟩_open|i⟩_R computes each column as a run on |i⟩⟨j| would.
    |Ω⟩ enters as a state vector: a noiseless block keeps it pure (a vector
    of dim·r entries, not a (dim·r)² matrix) and a noisy one mixes it at its
    first channel.  Either way the map is read off the result's density
    matrix."""
    open_dims = [s for s in site_states if isinstance(s, int)]
    r = math.prod(open_dims)
    omega = QuditRegister((*open_dims, r), np.eye(r, dtype=complex).reshape(-1))
    for pos, s in enumerate(site_states):
        if not isinstance(s, int):
            omega = attach_site(omega, pos, np.asarray(s))
    out = block(omega).density()
    d = out.shape[0] // r
    return out.reshape(d, r, d, r).transpose(0, 2, 1, 3).reshape(d * d, r * r)


def is_cptp(transfer: np.ndarray, eig_floor: float = -1e-9, tp_atol: float = 1e-9) -> bool:
    """Complete positivity (Choi ⪰ 0) and trace preservation."""
    d = int(round(np.sqrt(transfer.shape[0])))
    C = choi_matrix(transfer)
    if np.linalg.eigvalsh((C + C.conj().T) / 2).min() < eig_floor:
        return False
    # Tr Φ(|j⟩⟨k|) = δ_jk
    traces = np.einsum("aajk->jk", np.reshape(transfer, (d, d, d, d)))
    return bool(np.abs(traces - np.eye(d)).max() <= tp_atol)


def apply_channel(state: QuditRegister, sites, transfer: np.ndarray) -> QuditRegister:
    """Apply the channel ``(sites, transfer)`` to a density-matrix register: the
    transfer matrix acts on the sites' joint ρ, row-major vectorized (ρ00, ρ01, …)."""
    if state.is_pure:
        raise RequiresMixed("channels act on density matrices; call to_mixed() first")
    sites = _check_sites(state, sites)
    d = math.prod(state.dims[s] for s in sites)
    if np.shape(transfer) != (d * d, d * d):
        raise ShapeError(f"transfer shape {np.shape(transfer)} does not fit sites {sites} (dim {d})")
    # the transfer's row-major (ρ_kets, ρ_bras) labels are the sites' ket then bra axes
    plan = _plan(state.dims * 2, sites + [s + state.n_sites for s in sites])
    return QuditRegister(state.dims, plan.apply(transfer, state.data).reshape(state.dim, -1))
