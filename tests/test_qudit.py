"""Register substrate: indexing, gates, populations, projection, tracing."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qroutesim.errors import AllDiscarded, InvalidLabel, RequiresMixed, ShapeError
from qroutesim.qudit import (
    QuditRegister,
    apply_channel,
    apply_gate,
    attach_site,
    choi_matrix,
    from_site_states,
    index_of,
    is_cptp,
    new_basis_state,
    partial_trace,
    populations,
    postselect,
    project,
    trace_out,
)

from conftest import with_signed_zeros

X01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


def test_basis_state_mixed_dims():
    reg = new_basis_state([2, 3, 2, 2], "1100")
    assert reg.dim == 24
    idx = index_of([1, 1, 0, 0], (2, 3, 2, 2))
    assert reg.data[idx] == 1.0
    assert np.count_nonzero(reg.data) == 1


def test_basis_state_qutrit_two():
    reg = new_basis_state([3], "2")
    assert np.allclose(reg.data, [0, 0, 1])


def test_mixed_radix_indexing_by_enumeration():
    # hand enumeration for dims (2,2): 00,01,10,11 -> |10> sits at index 2
    assert index_of([1, 0], (2, 2)) == 2
    reg = new_basis_state([2, 2], "10")
    assert reg.data[2] == 1.0
    # digits round-trip over the whole space
    for dims in [(2, 3), (3, 2, 2), (3, 3, 3)]:
        for k in range(int(np.prod(dims))):
            assert index_of(np.unravel_index(k, dims), dims) == k


def test_bad_labels():
    with pytest.raises(InvalidLabel):
        new_basis_state([2, 2], "121")
    with pytest.raises(InvalidLabel):
        new_basis_state([2, 3], "20")


@pytest.mark.parametrize("dims, label", [((3,), "\u00b2"), ((4,), "\u0663"), ((2, 2), "0x")])
def test_labels_take_ascii_digits_only(dims, label):
    # superscript two and Arabic-Indic three pass str.isdigit; int() reads "\u0663" as 3
    with pytest.raises(InvalidLabel, match="is not a digit 0-9$"):
        new_basis_state(dims, label)


def test_identity_gate_noop():
    reg = from_site_states([3, 2], [[1, 1j, 0.5], [1, -1]])
    out = apply_gate(reg, np.eye(6), [0, 1])
    assert np.allclose(out.data, reg.data)


def test_x01_on_qutrit():
    reg = new_basis_state([3], "0")
    out = apply_gate(reg, X01, [0])
    assert np.allclose(out.data, new_basis_state([3], "1").data)


def test_gate_shape_mismatch():
    reg = new_basis_state([2, 3], "00")
    with pytest.raises(ShapeError):
        apply_gate(reg, np.eye(4), [0, 1])
    with pytest.raises(ShapeError):
        apply_gate(reg, np.eye(4), [0, 0])


def test_populations_sum_and_symmetry():
    reg = from_site_states([3], [[1, 0, 1]])
    p = populations(reg)
    assert np.allclose(p, [0.5, 0, 0.5])
    assert abs(p.sum() - 1) < 1e-12


def test_populations_one_hot():
    reg = new_basis_state([2, 2, 2, 2], "1000")
    p = populations(reg)
    assert p[index_of([1, 0, 0, 0], (2, 2, 2, 2))] == 1.0


def test_postselect_noop_when_clean():
    reg = from_site_states([3], [[1, 0, 1]])
    out, kept = postselect(reg, 0, 1)
    assert kept == pytest.approx(1.0)
    assert np.allclose(out.data, reg.data)


def test_postselect_equal_mixture():
    rho = np.diag([1, 1, 1]).astype(complex) / 3
    out, kept = postselect(QuditRegister((3,), rho), 0, 1)
    assert kept == pytest.approx(2 / 3)
    assert np.allclose(np.diag(out.data), [0.5, 0, 0.5])


def test_postselect_all_discarded():
    reg = new_basis_state([3], "1")
    with pytest.raises(AllDiscarded):
        postselect(reg, 0, 1)


def test_postselect_never_leaves_forbidden_weight():
    rng = np.random.default_rng(3)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    reg = QuditRegister((3, 2, 2), v / np.linalg.norm(v))
    out, _ = postselect(reg, 0, 2)
    p = populations(out)
    bad = sum(p[i] for i in range(12) if np.unravel_index(i, (3, 2, 2))[0] == 2)
    assert bad < 1e-12


def _random_rho(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@settings(max_examples=40)
@given(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3), st.data())
def test_project_and_postselect_match_digit_mask(dims, data):
    dims = tuple(dims)
    site = data.draw(st.integers(0, len(dims) - 1))
    digit = data.draw(st.integers(0, dims[site] - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dim = int(np.prod(dims))
    keep = np.unravel_index(np.arange(dim), dims)[site] != digit
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for reg in (QuditRegister(dims, v / np.linalg.norm(v)),
                QuditRegister(dims, _random_rho(rng, dim))):
        want = reg.data * (keep if reg.is_pure else np.outer(keep, keep))
        out, kept = project(reg, site, digit)
        assert np.array_equal(out.data, want)
        norm = populations(QuditRegister(dims, want)).sum()
        assert kept == pytest.approx(norm, abs=1e-12)
        if kept > 1e-12:
            normed, kept2 = postselect(reg, site, digit)
            assert kept2 == kept
            assert np.array_equal(normed.data, want / (np.sqrt(kept) if reg.is_pure else kept))
    with pytest.raises(ShapeError):
        project(reg, site, dims[site])


@pytest.mark.parametrize("pos", [0, 1, 2])
def test_attach_site_matches_kron(pos):
    rng = np.random.default_rng(pos)
    parts = [_random_rho(rng, 2), _random_rho(rng, 3)]
    new = _random_rho(rng, 3)
    reg = QuditRegister((2, 3), np.kron(*parts))
    out = attach_site(reg, pos, new)
    mats = parts[:pos] + [new] + parts[pos:]
    assert out.dims == tuple(m.shape[0] for m in mats)
    assert np.abs(out.data - np.kron(np.kron(mats[0], mats[1]), mats[2])).max() < 1e-15


@settings(max_examples=60)
@given(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3), st.sampled_from([2, 3]),
       st.data())
def test_attach_site_vector_is_kron_or_outer(dims, d, data):
    """A site vector on a pure register is the kron insertion, bit for bit;
    on a mixed register it is the site's |v⟩⟨v|, bit for bit."""
    dims = tuple(dims)
    pos = data.draw(st.integers(0, len(dims)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dim = int(np.prod(dims))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    out = attach_site(QuditRegister(dims, psi), pos, v)
    left = int(np.prod(dims[:pos]))
    want = np.concatenate([np.kron(v, row) for row in psi.reshape(left, -1)])
    assert out.is_pure and out.dims == dims[:pos] + (d,) + dims[pos:]
    assert np.array_equal(out.data, want)
    rho = QuditRegister(dims, _random_rho(rng, dim))
    mixed = attach_site(rho, pos, v)
    assert not mixed.is_pure
    assert np.array_equal(mixed.data, attach_site(rho, pos, np.outer(v, v.conj())).data)


def test_apply_channel_on_three_sites_matches_axis_formula():
    rng = np.random.default_rng(2)
    dims, sites = (2, 3, 2, 2), (3, 1, 0)
    rho = _random_rho(rng, 24)
    S = rng.normal(size=(144, 144)) + 1j * rng.normal(size=(144, 144))
    # reference: the (ket, bra) axes of the sites to the front, S, and back
    axes = list(sites) + [s + 4 for s in sites]
    t = np.moveaxis(rho.reshape(list(dims) * 2), axes, range(6))
    t = np.moveaxis((S @ t.reshape(144, -1)).reshape(t.shape), range(6), axes)
    out = apply_channel(QuditRegister(dims, rho), sites, S)
    assert np.array_equal(out.data, t.reshape(24, 24))
    with pytest.raises(ShapeError):
        apply_channel(QuditRegister(dims, rho), (0, 1), S)


def test_partial_trace_product_state():
    a = np.array([1, 2j, 0.5]) / np.linalg.norm([1, 2, 0.5])
    b = np.array([0.8, 0.6])
    reg = from_site_states([3, 2], [a, b])
    red = partial_trace(reg, [1])
    assert np.allclose(red.data, np.outer(b, b.conj()), atol=1e-12)


def test_partial_trace_bell_pair():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    red = partial_trace(QuditRegister((2, 2), bell), [0])
    assert np.allclose(red.data, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    v = rng.normal(size=18) + 1j * rng.normal(size=18)
    reg = QuditRegister((3, 3, 2), v / np.linalg.norm(v))
    red = partial_trace(reg, [2, 0])
    assert red.dims == (2, 3)
    assert np.trace(red.data).real == pytest.approx(1.0, abs=1e-10)


def _loop_partial_trace(state, keep):
    """The reduced ρ over ``keep`` as one `np.trace` per traced site, highest
    first, on the whole ρ tensor, written apart from `trace_out`; an empty
    ``keep`` leaves the 1×1 trace."""
    rho = state.density().reshape(list(state.dims) * 2)
    for a in sorted(set(range(state.n_sites)) - set(keep), reverse=True):
        rho = np.trace(rho, axis1=a, axis2=a + rho.ndim // 2)
    remaining = sorted(keep)
    perm = [remaining.index(s) for s in keep]
    rho = np.asarray(rho).transpose(perm + [p + len(perm) for p in perm])
    d = int(np.prod([state.dims[s] for s in keep]))
    return QuditRegister(tuple(state.dims[s] for s in keep), rho.reshape(d, d))


@settings(max_examples=60)
@given(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
@example([2, 3, 2, 2], 0)  # the router register, whose eraser discard keeps digits (0, 2)
def test_trace_out_is_the_trace_loop_and_project_then_trace(dims, seed):
    """Tracing out any site is the loop's trace, bit for bit, as is
    `partial_trace`; keeping a subset of the site's digits is `project` on
    each other digit, then that trace."""
    dims, n = tuple(dims), len(dims)
    rng = np.random.default_rng(seed)
    dim = int(np.prod(dims))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for reg in (QuditRegister(dims, v / np.linalg.norm(v)),
                QuditRegister(dims, _random_rho(rng, dim))):
        for site in range(n):
            rest = [s for s in range(n) if s != site]
            got, want = trace_out(reg, site), _loop_partial_trace(reg, rest)
            assert got.dims == want.dims and got.data.tobytes() == want.data.tobytes()
            for size in range(1, dims[site] + 1):
                for digits in itertools.combinations(range(dims[site]), size):
                    projected = reg
                    for k in sorted(set(range(dims[site])) - set(digits)):
                        projected = project(projected, site, k)[0]
                    got = trace_out(reg, site, digits)
                    assert got.dims == want.dims
                    assert np.array_equal(got.data, _loop_partial_trace(projected, rest).data)
        keep = [int(s) for s in rng.permutation(n)[:rng.integers(1, n + 1)]]
        got, want = partial_trace(reg, keep), _loop_partial_trace(reg, keep)
        assert got.dims == want.dims and got.data.tobytes() == want.data.tobytes()


def _take_then_trace(state, site, digits=None):
    """`trace_out` as it was written before it gathered: |ψ⟩⟨ψ| of a pure
    register, an `np.take` of ``digits`` on the site's ket and bra axes,
    then `np.trace` over them."""
    dims, n = state.dims, state.n_sites
    rho = state.density().reshape(dims * 2)
    if digits is not None:
        rho = np.take(np.take(rho, digits, axis=site), digits, axis=site + n)
    rest = dims[:site] + dims[site + 1:]
    out = np.trace(rho, axis1=site, axis2=site + n)
    return QuditRegister(rest, out.reshape(int(np.prod(rest)), -1))


@settings(max_examples=80)
@given(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4), st.integers(1, 8),
       st.booleans(), st.integers(0, 2**32 - 1))
@example([2, 3, 2, 2], 1, False, 0)  # the router register
@example([2, 3, 2, 2], 8, True, 1)  # a pure Choi column of the two-layer leaf maps
def test_trace_out_is_take_then_trace(dims, ref_dim, pure, seed):
    """On pure and mixed registers holding exact ±0 entries, tracing out any
    site over all its digits or over subsets in any order gives the bytes
    of `np.take` then `np.trace`: the same sums in the same order, signed
    zeros included."""
    dims = (*dims, ref_dim) if ref_dim > 1 else tuple(dims)
    rng = np.random.default_rng(seed)
    dim = int(np.prod(dims))
    v = with_signed_zeros(rng, rng.normal(size=dim) + 1j * rng.normal(size=dim))
    if pure:
        reg = QuditRegister(dims, v)
    else:
        rho = np.outer(v, v.conj()) if seed % 2 else rng.normal(size=(dim, dim)) * 1j
        reg = QuditRegister(dims, with_signed_zeros(rng, rho))
    for site, d in enumerate(dims):
        # every order of every subset on a qubit or qutrit, four on the reference
        subsets = [None] + ([digits for size in range(1, d + 1)
                             for digits in itertools.permutations(range(d), size)] if d <= 3
                            else [tuple(rng.permutation(d)[:k].tolist()) for k in (1, 2, 5, d)])
        for digits in subsets:
            got, want = trace_out(reg, site, digits), _take_then_trace(reg, site, digits)
            assert got.dims == want.dims and got.data.shape == want.data.shape
            assert got.data.tobytes() == want.data.tobytes()


def test_trace_out_rejects_bad_digits():
    reg = new_basis_state([2, 3], "01").to_mixed()
    for site, digits in [(1, (0, 3)), (1, (-1,)), (0, (2,)), (1, (2, 2)), (1, (0, 2, 0))]:
        with pytest.raises(ShapeError):
            trace_out(reg, site, digits)
    with pytest.raises(ShapeError):
        trace_out(reg, 2)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_apply_gate_commutes_with_site_permutation(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 3, 2)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    v /= np.linalg.norm(v)
    gate = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    # apply on (site0, site1) directly, or with the gate's site order swapped
    direct = apply_gate(QuditRegister(dims, v), gate, [0, 1])
    swapped_gate = gate.reshape(2, 3, 2, 3).transpose(1, 0, 3, 2).reshape(6, 6)
    via_perm = apply_gate(QuditRegister(dims, v), swapped_gate, [1, 0])
    assert np.abs(direct.data - via_perm.data).max() < 1e-10


def test_mixed_equals_pure_outer_product():
    rng = np.random.default_rng(11)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    v /= np.linalg.norm(v)
    gate = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    pure = apply_gate(QuditRegister((2, 3, 2), v), gate, [2, 1])
    mixed = apply_gate(QuditRegister((2, 3, 2), np.outer(v, v.conj())), gate, [2, 1])
    assert np.abs(mixed.data - np.outer(pure.data, pure.data.conj())).max() < 1e-10


def test_norm_preservation_unitary():
    rng = np.random.default_rng(7)
    v = rng.normal(size=24) + 1j * rng.normal(size=24)
    v /= np.linalg.norm(v)
    gate = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    out = apply_gate(QuditRegister((2, 3, 2, 2), v), gate, [1, 3])
    assert abs(np.vdot(out.data, out.data).real - 1) < 1e-10


def test_validate_rejects_bad_states():
    with pytest.raises(ShapeError):
        QuditRegister((2,), np.array([1.0, 1.0], dtype=complex)).validate()
    QuditRegister((2,), np.array([1.0, 0.0], dtype=complex)).validate()


def test_channel_identity_and_cptp_helpers():
    assert is_cptp(np.eye(9))
    C = choi_matrix(np.eye(4))
    assert np.linalg.eigvalsh(C).min() > -1e-12


def test_apply_channel_requires_mixed():
    reg = new_basis_state([3], "0")
    with pytest.raises(RequiresMixed):
        apply_channel(reg, (0,), np.eye(9))

