"""Transition-composite gate library and circuit container.

The two-qutrit workhorse is the partial exchange on span{|11⟩, |02⟩} of an
ordered pair (data, transit): the transit site is the one that visits its
second excited level.  With Rabi angle ϑ=π it fully swaps the pair states
(the √CZ used to compose CSWAP from three two-site gates).

Conventions fixed here and relied on everywhere else:

* ``sqrt_cz`` on sites (a, b) exchanges |a b⟩ = |11⟩ ↔ |02⟩, i.e. b is the
  transit site.  A controlled-SWAP over (q1, qc, q2) is the composition
  √CZ(q1,qc) · √CZ(q2,qc) · √CZ(q1,qc) (or the qc-first ordering), which on
  span{|011⟩,|020⟩,|110⟩,|111⟩,|021⟩,|120⟩} equals −1 times a permutation.
* The router sends address level 0 to Q_R and the high address level (1 in
  the {0,1} encoding, 2 in the eraser {0,2} encoding) to Q_L, so a scan of
  cosθ|0⟩ + e^{iφ}sinθ|high⟩ yields P_L = sin²θ.  Address populations are
  restored by the flip bracketing.
* √CZ acts as identity outside span{|11⟩,|02⟩}: nothing in the composite
  constructions constrains phases on |20⟩, |12⟩, |21⟩, |22⟩, and identity
  is the minimal completion consistent with all of them.  Documented as an
  explicit modeling assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .qudit import _plan, index_of

SQRT_CZ_NS = 25.0
SINGLE_NS = 30.0

#: basis labels (q1, qc, q2) of the conditional-swap routing subspace
ROUTING_LABELS = ("011", "020", "110", "111", "021", "120")

#: the ideal CSWAP on ROUTING_LABELS: (−1) × the permutation 011 ↔ 110,
#: 021 ↔ 120 (020 and 111 fixed), no extra phases
CSWAP_BLOCK = -np.eye(6, dtype=complex)[[2, 1, 0, 3, 5, 4]]


@dataclass(frozen=True)
class SqrtCzParams:
    """Rabi angle ϑ (ideal π), controlled phase η, duration in ns."""

    theta: float = math.pi
    eta: float = 0.0
    duration_ns: float = SQRT_CZ_NS

    def __post_init__(self):
        if not 0.0 <= self.theta < 2 * math.pi:
            raise ShapeError(f"theta {self.theta} outside [0, 2π)")
        if self.duration_ns <= 0:
            raise ShapeError("duration must be positive")


@dataclass(frozen=True)
class FloquetParams:
    """Parameters of the repeated composite Z_qq · √CZ · Z_qq."""

    theta: float = math.pi
    eta: float = 0.0
    zeta: float = 0.0

    @property
    def omega(self) -> float:
        """Effective rotation angle per composite application."""
        return math.acos(
            max(-1.0, min(1.0, math.cos(self.theta / 2) * math.cos(self.zeta / 2 - self.eta)))
        )

    @property
    def alpha(self) -> float:
        """Rotation-axis angle; π/2 whenever ϑ=π."""
        denom = math.sin(self.zeta / 2 - self.eta) * math.cos(self.theta / 2)
        return math.atan2(math.sin(self.theta / 2), denom)


# --- raw matrices -----------------------------------------------------------


def sqrt_cz_matrix(params: SqrtCzParams | None = None, dims=(3, 3)) -> np.ndarray:
    """Partial 11↔02 exchange on the ordered pair (data, transit).

    ``dims`` are the two site dimensions; the transit site must be a qutrit.
    """
    params = params or SqrtCzParams()
    da, db = dims
    if db != 3:
        raise ShapeError("transit site of sqrt_cz must be a qutrit")
    if da < 2:
        raise ShapeError("data site must have dimension >= 2")
    U = np.eye(da * db, dtype=complex)
    i11 = 1 * db + 1
    i02 = 0 * db + 2
    c = math.cos(params.theta / 2)
    s = math.sin(params.theta / 2)
    U[i11, i11] = np.exp(1j * params.eta) * c
    U[i11, i02] = -1j * s
    U[i02, i11] = -1j * s
    U[i02, i02] = np.exp(-1j * params.eta) * c
    return U


def x01_matrix(phase: float = 0.0, dim: int = 3) -> np.ndarray:
    """π flip on {|0⟩,|1⟩}; e^{iφ′} parasitic phase on |2⟩."""
    if dim == 2:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    return np.array([[0, 1, 0], [1, 0, 0], [0, 0, np.exp(1j * phase)]], dtype=complex)


def x12_matrix(phase: float = 0.0, dim: int = 3) -> np.ndarray:
    """π flip on {|1⟩,|2⟩}; e^{iφ″} parasitic phase lands on |0⟩."""
    if dim != 3:
        raise ShapeError("x12 needs a qutrit")
    return np.array([[np.exp(1j * phase), 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)


def x01_half_matrix(phase: float = 0.0, dim: int = 3) -> np.ndarray:
    """π/2 rotation on {|0⟩,|1⟩} (exp(−iπσx/4)); parasitic phase on |2⟩."""
    r = np.array([[1, -1j], [-1j, 1]], dtype=complex) / math.sqrt(2)
    if dim == 2:
        return r
    U = np.eye(3, dtype=complex)
    U[:2, :2] = r
    U[2, 2] = np.exp(1j * phase)
    return U


def x12_half_matrix(phase: float = 0.0, dim: int = 3) -> np.ndarray:
    if dim != 3:
        raise ShapeError("x12_half needs a qutrit")
    U = np.eye(3, dtype=complex)
    U[1:, 1:] = np.array([[1, -1j], [-1j, 1]], dtype=complex) / math.sqrt(2)
    U[0, 0] = np.exp(1j * phase)
    return U


def z_virtual_matrix(phi1: float = 0.0, phi2: float = 0.0, dim: int = 3) -> np.ndarray:
    if dim == 2:
        return np.diag([1.0, np.exp(1j * phi1)]).astype(complex)
    return np.diag([1.0, np.exp(1j * phi1), np.exp(1j * phi2)]).astype(complex)


def _qubit_embedded(mat2: np.ndarray, dim: int) -> np.ndarray:
    if dim == 2:
        return mat2
    U = np.eye(dim, dtype=complex)
    U[:2, :2] = mat2
    return U


_H2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_T2 = np.diag([1.0, np.exp(1j * math.pi / 4)])
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)


def cx_matrix(dims=(2, 2)) -> np.ndarray:
    """CNOT on the {0,1} subspaces of an ordered (control, target) pair."""
    dc, dt = dims
    U = np.eye(dc * dt, dtype=complex)
    i10 = 1 * dt + 0
    i11 = 1 * dt + 1
    U[i10, i10] = U[i11, i11] = 0.0
    U[i10, i11] = U[i11, i10] = 1.0
    return U


# --- gate specs and circuits -------------------------------------------------


class GateSpec(NamedTuple):
    """A named operation on named sites with parameters and a duration.

    A plain tuple of strings and floats: cheap to build, and the collector
    can stop tracking its inner tuples."""

    name: str
    sites: tuple[str, ...]
    params: tuple[tuple[str, float], ...] = ()
    duration_ns: float = SINGLE_NS

    def param(self, key: str, default: float = 0.0) -> float:
        for k, v in self.params:
            if k == key:
                return v
        return default

    @property
    def n_sites(self) -> int:
        return len(self.sites)


@dataclass(frozen=True)
class Moment:
    """Gates executing in parallel; no site may appear twice.  Immutable, so
    one moment can stand at many places of a circuit."""

    gates: tuple[GateSpec, ...] = ()

    @property
    def duration_ns(self) -> float:
        return max((g.duration_ns for g in self.gates), default=0.0)


@dataclass
class Circuit:
    """Ordered timed moments over named sites."""

    site_dims: dict[str, int]
    ops: list[Moment] = field(default_factory=list)

    def add_moment(self, *gates: GateSpec) -> "Circuit":
        sites = [s for g in gates for s in g.sites]
        seen = set(sites)
        if len(seen) != len(sites) or not self.site_dims.keys() >= seen:
            seen.clear()  # name the first offending site, in gate order
            for s in sites:
                if s in seen:
                    raise ShapeError(f"site {s} used twice in one moment")
                if s not in self.site_dims:
                    raise ShapeError(f"unknown site {s}")
                seen.add(s)
        self.ops.append(Moment(gates))
        return self

    def gates(self) -> list[GateSpec]:
        return [g for m in self.ops for g in m.gates]

    def extend(self, other: "Circuit") -> "Circuit":
        for name, d in other.site_dims.items():
            if self.site_dims.get(name, d) != d:
                raise ShapeError(f"site {name} dimension clash")
        self.site_dims.update(other.site_dims)
        self.ops.extend(other.ops)
        return self

    @property
    def depth(self) -> int:
        return sum(1 for m in self.ops if m.gates)

    def duration_ns(self) -> float:
        return sum(m.duration_ns for m in self.ops)


def gate_matrix(spec: GateSpec, dims: tuple[int, ...]) -> np.ndarray:
    """Concrete unitary of a GateSpec for the given per-site dimensions."""
    name = spec.name
    if name == "sqrt_cz":
        return sqrt_cz_matrix(
            SqrtCzParams(spec.param("theta", math.pi), spec.param("eta"), spec.duration_ns),
            dims,
        )
    if name in ("x01", "x01_half"):
        fn = x01_matrix if name == "x01" else x01_half_matrix
        return fn(spec.param("phase"), dims[0])
    if name in ("x12", "x12_half"):
        fn = x12_matrix if name == "x12" else x12_half_matrix
        return fn(spec.param("phase"), dims[0])
    if name == "zv":
        return z_virtual_matrix(spec.param("phi1"), spec.param("phi2"), dims[0])
    if name == "h":
        return _qubit_embedded(_H2, dims[0])
    if name == "t":
        return _qubit_embedded(_T2, dims[0])
    if name == "tdg":
        return _qubit_embedded(_T2.conj(), dims[0])
    if name == "x":
        return _qubit_embedded(_X2, dims[0])
    if name == "cx":
        return cx_matrix(dims)
    if name == "cls_x":
        # classically controlled X: identity when the stored bit is 0
        if spec.param("bit") >= 0.5:
            return _qubit_embedded(_X2, dims[0])
        return np.eye(dims[0], dtype=complex)
    raise ShapeError(f"unknown gate {name!r}")


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (small registers; tests/oracles)."""
    dims = tuple(circuit.site_dims.values())
    pos = {n: i for i, n in enumerate(circuit.site_dims)}
    dim = math.prod(dims)
    # the identity's columns ride along on a trailing axis
    U = np.eye(dim, dtype=complex)
    for g in circuit.gates():
        sites = [pos[s] for s in g.sites]
        U = _plan(dims + (dim,), sites).apply(gate_matrix(g, tuple(dims[k] for k in sites)), U)
    return U.reshape(dim, dim)


# --- composite builders -------------------------------------------------------


def _sq(name: str, site: str, phase: float = 0.0, duration: float = SINGLE_NS) -> GateSpec:
    return GateSpec(name, (site,), (("phase", phase),), duration)


def _cz(a: str, b: str, theta: float = math.pi, eta: float = 0.0,
        duration: float = SQRT_CZ_NS) -> GateSpec:
    return GateSpec("sqrt_cz", (a, b), (("theta", theta), ("eta", eta)), duration)


def cswap_sequence(
    q1: str = "Q1",
    qc: str = "QC",
    q2: str = "Q2",
    order: str = "q1-first",
    theta: float = math.pi,
    eta: float = 0.0,
    dims: tuple[int, int, int] = (3, 3, 3),
    sqrt_cz_ns: float = SQRT_CZ_NS,
) -> Circuit:
    """Three-gate CSWAP: √CZ(q1,qc), √CZ(q2,qc), √CZ(q1,qc) (or qc-first).

    Both orderings compose to the same −1×permutation on the routing
    subspace; they differ only outside it.
    """
    if order not in ("q1-first", "qc-first"):
        raise ShapeError(f"unknown ordering {order!r}")
    c = Circuit({q1: dims[0], qc: dims[1], q2: dims[2]})
    a = _cz(q1, qc, theta, eta, sqrt_cz_ns)
    b = _cz(q2, qc, theta, eta, sqrt_cz_ns)
    seq = (a, b, a) if order == "q1-first" else (b, a, b)
    for g in seq:
        c.add_moment(g)
    return c


def sp_cswap_sequence(
    q1: str = "Q1",
    qc: str = "QC",
    q2: str = "Q2",
    basis: str = "01",
    theta: float = math.pi,
    dims: tuple[int, int, int] = (3, 3, 3),
    sqrt_cz_ns: float = SQRT_CZ_NS,
) -> Circuit:
    """Two-gate short-path CSWAP.

    basis "01": control-1 transfer q1→q2 (|110⟩→|020⟩→|011⟩).
    basis "02": the reversed gate order; control-1 transfer q2→q1 and
    control-2 transfer q1→q2.  Each variant undoes the other on the states
    its direction actually visits.
    """
    if basis not in ("01", "02"):
        raise ShapeError(f"unknown SP-CSWAP basis {basis!r}")
    c = Circuit({q1: dims[0], qc: dims[1], q2: dims[2]})
    a = _cz(q1, qc, theta, duration=sqrt_cz_ns)
    b = _cz(q2, qc, theta, duration=sqrt_cz_ns)
    for g in ((a, b) if basis == "01" else (b, a)):
        c.add_moment(g)
    return c


def qrouter_circuit(
    scheme: str = "eraser",
    parasitic: tuple[float, float] = (0.0, 0.0),
    theta: float = math.pi,
    sites: tuple[str, str, str, str] = ("Q_I", "Q_C", "Q_L", "Q_R"),
    dims: tuple[int, int, int, int] = (3, 3, 3, 3),
    sqrt_cz_ns: float = SQRT_CZ_NS,
    single_ns: float = SINGLE_NS,
) -> Circuit:
    """The four-site router block on (Q_I, Q_C, Q_L, Q_R).

    Non-eraser ({0,1} addresses): CSWAP_L, X01, CSWAP_R, X01 — the first
    CSWAP conducts on address |1⟩ (routes left), the flip exposes address
    |0⟩ to the second (routes right), the trailing flip restores.

    Eraser ({0,2} addresses): the same structure with each X01 flip slot
    replaced by the X12·X01·X12 composite (an effective X02 exchanging the
    address levels).  Conduction then always uses the control-|2⟩ pathway
    through |111⟩, and crucially the composite leaves |1⟩ invariant, so a
    decay into the intermediate level stays flagged for post-selection all
    the way to the final address measurement.

    Gate tallies: non-eraser (2, 6, 8); eraser (6, 6, 12).
    """
    if scheme not in ("eraser", "non-eraser"):
        raise ShapeError(f"unknown scheme {scheme!r}")
    qi, qc, ql, qr = sites
    phi1, phi2 = parasitic
    flips = [("x01", phi1)]
    if scheme == "eraser":
        flips = [("x12", phi2), ("x01", phi1), ("x12", phi2)]
    c = Circuit(dict(zip(sites, dims)))
    for out, d_out in ((ql, dims[2]), (qr, dims[3])):
        c.extend(cswap_sequence(qi, qc, out, theta=theta, dims=(dims[0], dims[1], d_out),
                                sqrt_cz_ns=sqrt_cz_ns))
        for name, phase in flips:
            c.add_moment(_sq(name, qc, phase, single_ns))
    return c


def sp_qrouter_circuit(
    direction: str = "down",
    sites: tuple[str, str, str, str] = ("Q_I", "Q_C", "Q_L", "Q_R"),
    dims: tuple[int, int, int, int] = (3, 3, 3, 3),
    theta: float = math.pi,
    sqrt_cz_ns: float = SQRT_CZ_NS,
    single_ns: float = SINGLE_NS,
) -> Circuit:
    """One-way router from short-path CSWAPs ({0,1} addressing).

    "down" moves the input bit out to the addressed path; "up" gathers it
    back.  Four √CZ and two flips per block.
    """
    if direction not in ("down", "up"):
        raise ShapeError(f"unknown direction {direction!r}")
    qi, qc, ql, qr = sites
    basis = "01" if direction == "down" else "02"
    c = Circuit(dict(zip(sites, dims)))
    for out, d_out in ((ql, dims[2]), (qr, dims[3])):
        c.extend(sp_cswap_sequence(qi, qc, out, basis, theta=theta, dims=(dims[0], dims[1], d_out),
                                   sqrt_cz_ns=sqrt_cz_ns))
        c.add_moment(_sq("x01", qc, 0.0, single_ns))
    return c


def _toffoli_moments(a: str, b: str, t: str) -> list[list[GateSpec]]:
    """Textbook Toffoli: 6 CX, 9 single-qubit gates, 12 moments."""
    CX = lambda u, v: GateSpec("cx", (u, v), (), SQRT_CZ_NS)
    G = lambda n, s: GateSpec(n, (s,), (), SINGLE_NS)
    return [
        [G("h", t)],
        [CX(b, t)],
        [G("tdg", t)],
        [CX(a, t)],
        [G("t", t)],
        [CX(b, t)],
        [G("tdg", t)],
        [CX(a, t)],
        [G("t", b), G("t", t)],
        [CX(a, b), G("h", t)],
        [G("t", a), G("tdg", b)],
        [CX(a, b)],
    ]


def _fredkin_moments(c: str, x: str, y: str) -> list[list[GateSpec]]:
    """CSWAP(c; x, y) = CX(y,x) · Toffoli(c,x,y) · CX(y,x): 14 moments."""
    CX = GateSpec("cx", (y, x), (), SQRT_CZ_NS)
    return [[CX]] + _toffoli_moments(c, x, y) + [[CX]]


def clifford_qrouter_circuit(
    sites: tuple[str, str, str, str] = ("Q_I", "Q_C", "Q_L", "Q_R"),
    dims: tuple[int, int, int, int] = (2, 2, 2, 2),
) -> Circuit:
    """Clifford baseline router: two Fredkin gates plus two address flips.

    Tallies (20, 16, 30) — the baseline the composite scheme is compared to.
    """
    qi, qc, ql, qr = sites
    c = Circuit(dict(zip(sites, dims)))
    for out in (ql, qr):
        for m in _fredkin_moments(qc, qi, out) + [[GateSpec("x", (qc,), (), SINGLE_NS)]]:
            c.add_moment(*m)
    return c


# --- leaky CSWAP′ -------------------------------------------------------------


def cswap_k_entries(theta: float) -> tuple[float, complex, float]:
    """The K1, K2, K3 entries of CSWAP′ (typo-corrected closed forms)."""
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    k1 = c**3 - s**2
    k2 = -1j * s * c * (1 + c)
    k3 = c**2 - c * s**2
    return k1, k2, k3


def leaky_cswap_matrix(theta: float) -> np.ndarray:
    """CSWAP′(ϑ) on ROUTING_LABELS from the exact three-gate composition.

    Unitary for every ϑ and equal to the ideal −1×permutation at ϑ=π.
    The composition is the ground truth; its entries match the closed
    forms of cswap_k_entries exactly (symmetric within each 3×3 block).
    """
    sub = [index_of([int(ch) for ch in lbl], (3, 3, 3)) for lbl in ROUTING_LABELS]
    U = circuit_unitary(cswap_sequence(theta=theta % (2 * math.pi)))
    return U[np.ix_(sub, sub)]


# --- serialization ------------------------------------------------------------

_HEADER = "# qroutesim-circuit v1"


def dumps_circuit(circuit: Circuit) -> str:
    """Line-oriented text form: GATE name sites... params... duration_ns."""
    lines = [_HEADER]
    lines.append("SITES " + " ".join(f"{n}:{d}" for n, d in circuit.site_dims.items()))
    # each gate object and each params tuple is formatted once; keyed by
    # identity, since equal specs can print differently (0.0 == -0.0)
    text: dict[int, str] = {}
    tails: dict[int, str] = {}
    for m in circuit.ops:
        lines.append("MOMENT")
        for g in m.gates:
            line = text.get(id(g))
            if line is None:
                name, sites, params, duration = g
                tail = tails.get(id(params))
                if tail is None:
                    tail = tails[id(params)] = "".join([f" {k}={v!r}" for k, v in params])
                line = text[id(g)] = f"GATE {' '.join((name, *sites))}{tail} {duration!r}"
            lines.append(line)
    return "\n".join(lines) + "\n"


def _add_block(circuit: Circuit, specs: dict[str, GateSpec],
               blocks: dict[tuple[str, ...], Moment], block: list[str], ln: int) -> None:
    """Close a MOMENT (on line ``ln``) of GATE lines: a block checked before
    under the current SITES stands for the same `Moment` again."""
    key = tuple(block)
    moment = blocks.get(key)
    if moment is None:
        try:
            circuit.add_moment(*(specs[g] for g in key))
        except ShapeError as exc:
            raise ShapeError(f"line {ln}: {exc}") from exc
        blocks[key] = circuit.ops[-1]
    else:
        circuit.ops.append(moment)


def loads_circuit(text: str) -> Circuit:
    """Parse the text form of `dumps_circuit`; malformed input raises
    ShapeError naming the line (for a moment's site checks, its MOMENT line).

    One pass over ``text.splitlines()`` with two memos, both cleared at each
    SITES line: each distinct GATE line is parsed into one `GateSpec`, and
    each distinct block of GATE lines is checked once and then stands for the
    same `Moment`.  Blocks are keyed by their text, since equal specs can
    print differently (0.0 == -0.0)."""
    circuit: Circuit | None = None
    specs: dict[str, GateSpec] = {}
    blocks: dict[tuple[str, ...], Moment] = {}
    moment_ln, block = 0, None  # the open MOMENT's line and GATE lines
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if block is not None and line in specs:  # a GATE line met before
            block.append(line)
            continue
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] != "GATE" and block is not None:
            _add_block(circuit, specs, blocks, block, moment_ln)
            block = None
        try:
            if tok[0] == "SITES":
                dims: dict[str, int] = {}
                for name, _, d in (item.partition(":") for item in tok[1:]):
                    if name in dims:
                        raise ShapeError(f"site {name} listed twice")
                    dims[name] = int(d)
                    if dims[name] < 1:
                        raise ShapeError(f"site {name} has dimension {d}, not a positive one")
                circuit = Circuit(dims)
                specs.clear()
                blocks.clear()
            elif circuit is None:
                raise ShapeError(f"{tok[0]} before SITES")
            elif tok[0] == "MOMENT":
                moment_ln, block = ln, []
            elif tok[0] == "GATE":
                if block is None:
                    raise ShapeError("GATE outside a MOMENT")
                sites, params, durations = [], [], []
                for item in tok[2:]:
                    if "=" in item:
                        k, _, v = item.partition("=")
                        params.append((k, float(v)))
                        if not math.isfinite(params[-1][1]):
                            raise ShapeError(f"parameter {k}={v} is not finite")
                    elif item in circuit.site_dims:
                        sites.append(item)
                    else:
                        durations.append(float(item))
                if not sites:
                    raise ShapeError(f"gate {tok[1]} names no site")
                if len(durations) > 1:
                    raise ShapeError(f"gate {tok[1]} has {len(durations)} durations")
                duration = durations[0] if durations else SINGLE_NS
                if not 0.0 <= duration < math.inf:
                    raise ShapeError(f"duration {duration!r} is not finite and non-negative")
                specs[line] = GateSpec(tok[1], tuple(sites), tuple(params), duration)
                block.append(line)
            else:
                raise ShapeError(f"unknown directive {tok[0]!r}")
        except (ShapeError, ValueError, IndexError) as exc:
            raise ShapeError(f"line {ln}: {exc}") from exc
    if block is not None:
        _add_block(circuit, specs, blocks, block, moment_ln)
    if circuit is None:
        raise ShapeError("no SITES line found")
    return circuit
