"""Tree building, query compilation, gate accounting, schedule validity."""

import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

from qroutesim import network
from qroutesim.engine import run_circuit
from qroutesim.errors import CapacityError, IncompatibleMode, ShapeError
from qroutesim.gates import Circuit, dumps_circuit, loads_circuit
from qroutesim.network import (
    DIRECTIONAL_SCHEMES,
    MODES,
    SCHEMES,
    build_tree,
    compile_query,
    dependency_depth,
    gate_counts,
    router_counts,
    two_layer_landscape,
)
from qroutesim.noise import NoiseModel, reference_rates
from qroutesim.qudit import new_basis_state, populations


def test_build_tree_shapes():
    t1 = build_tree(1)
    assert len(t1.nodes) == 1 and len(t1.leaf_sites) == 2
    t2 = build_tree(2)
    assert len(t2.nodes) == 3 and len(t2.leaf_sites) == 4
    t5 = build_tree(5)
    assert len(t5.nodes) == 31 and len(t5.leaf_sites) == 32
    with pytest.raises(ShapeError):
        build_tree(0)


def test_build_tree_bounds_its_depth():
    assert network.MAX_LAYERS == 12
    assert len(build_tree(network.MAX_LAYERS).leaf_sites) == 2**12
    with pytest.raises(CapacityError, match="13 layers"):
        build_tree(network.MAX_LAYERS + 1)


def test_router_counts_table():
    assert router_counts("clifford") == (20, 16, 30)
    assert router_counts("tcg-non-eraser") == (2, 6, 8)
    assert router_counts("tcg-eraser") == (6, 6, 12)
    assert router_counts("sp-tcg")[1] == 4


def test_gate_counts_empty():
    assert gate_counts(Circuit({})) == (0, 0, 0)


def test_gate_counts_additive():
    t = build_tree(1)
    q = compile_query(t, "full", "tcg-non-eraser")
    total = gate_counts(q.circuit)
    per_stage = [0, 0]
    for m in q.circuit.ops:
        for g in m.gates:
            per_stage[g.n_sites - 1] += 1
    assert (per_stage[0], per_stage[1]) == total[:2]


def test_sp_full_mode_rejected():
    with pytest.raises(IncompatibleMode):
        compile_query(build_tree(1), "full", "sp-tcg")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_compile_all_modes_schemes(mode, scheme):
    if scheme == "sp-tcg" and mode == "full":
        return
    q = compile_query(build_tree(2), mode, scheme)
    n1, n2, depth = q.counts
    assert depth == len([m for m in q.circuit.ops if m.gates])
    assert depth >= dependency_depth(q.circuit) - 0  # moments are an upper bound
    assert dependency_depth(q.circuit) <= depth


def test_moment_schedule_validity():
    q = compile_query(build_tree(2), "full", "tcg-eraser")
    for m in q.circuit.ops:
        sites = [s for g in m.gates for s in g.sites]
        assert len(sites) == len(set(sites))


def test_parity_groups_site_disjoint():
    q = compile_query(build_tree(3), "full", "tcg-eraser")
    by_parity = {0: [], 1: []}
    for g in q.schedule:
        if g.stage == "route-down" and g.level >= 1:
            by_parity[g.parity].append(set(g.sites))
    for parity, groups in by_parity.items():
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                assert not (groups[i] & groups[j])


def test_two_layer_full_query_depth_hand_count():
    # staged schedule, hand-counted: transfers are 4 moments (bus hops) or 3
    # (eraser address deposits), routers 12 (eraser) / 8 (non-eraser) moments
    q = compile_query(build_tree(2), "full", "tcg-eraser")
    load = (4 + 3) + (4 + 12 + 3)
    route = 4 + 12 + 12
    unload = (3 + 12 + 4) + (3 + 4)
    assert q.counts[2] == load + route + 1 + route + unload  # = 109
    assert dependency_depth(q.circuit) <= q.counts[2]

    q = compile_query(build_tree(2), "full", "tcg-non-eraser")
    load = (4 + 4) + (4 + 8 + 4)
    route = 4 + 8 + 8
    unload = (4 + 8 + 4) + (4 + 4)
    assert q.counts[2] == load + route + 1 + route + unload  # = 89
    assert dependency_depth(q.circuit) <= q.counts[2]


def test_uniform_latency_across_addresses_and_data():
    t = build_tree(2)
    depths = set()
    for bits in ([0, 0, 0, 0], [1, 0, 1, 1], [1, 1, 1, 1]):
        q = compile_query(t, "full", "tcg-eraser", data_bits=bits)
        depths.add(q.counts[2])
    assert len(depths) == 1  # circuit structure is address/data independent


@pytest.mark.parametrize("bits", [[1], [0, 1, 0, 1, 1, 1], [2, 0, 0, 0], [0.3, 0, 0, 0]],
                         ids=["short", "long", "two", "fraction"])
def test_data_bits_must_be_one_bit_per_leaf(bits):
    with pytest.raises(ShapeError, match="one 0/1 bit per leaf"):
        compile_query(build_tree(2), "full", "tcg-eraser", data_bits=bits)


def _simulate_query(q, address_bits, layers):
    dims = tuple(q.circuit.site_dims.values())
    names = list(q.circuit.site_dims)
    label = [0] * len(dims)
    for k, bit in enumerate(address_bits):
        label[names.index(f"A{k + 1}")] = bit
    init = new_basis_state(dims, "".join(map(str, label)))
    out = run_circuit(init, q.circuit)
    p = populations(out)
    idx = int(np.argmax(p))
    return p[idx], dict(zip(names, np.unravel_index(idx, dims)))


@pytest.mark.parametrize("scheme", ["tcg-non-eraser", "tcg-eraser", "clifford"])
def test_full_query_reads_correct_bit(scheme):
    layers = 2
    tree = build_tree(layers)
    data = [1, 0, 0, 1]
    q = compile_query(tree, "full", scheme, data_bits=data)
    for a in range(4):
        bits = [(a >> 1) & 1, a & 1]
        node = 1
        for bit in bits:
            node = 2 * node + (0 if bit else 1)
        leaf = node - 4
        prob, rd = _simulate_query(q, bits, layers)
        assert prob > 1 - 1e-9
        assert rd["BUS"] == data[leaf]
        # loaded addresses always return to the bus; unaddressed leaves may
        # keep classically-written garbage (abstract leaf coupling)
        assert all(rd[f"A{k + 1}"] == bits[k] for k in range(layers))


@pytest.mark.parametrize("scheme", ["tcg-non-eraser", "tcg-eraser", "clifford"])
def test_full_query_self_inverse_with_clean_leaves(scheme):
    # zero stored bits: load→route→(identity data)→route-up→unload is exact identity
    tree = build_tree(2)
    q = compile_query(tree, "full", scheme, data_bits=[0, 0, 0, 0])
    for a in (0, 1, 2, 3):
        bits = [(a >> 1) & 1, a & 1]
        prob, rd = _simulate_query(q, bits, 2)
        assert prob > 1 - 1e-9
        assert rd["BUS"] == 0
        assert all(v == 0 for k, v in rd.items() if k.startswith(("C", "IN", "D")))
        assert all(rd[f"A{k + 1}"] == bits[k] for k in range(2))


def test_read_only_query_sp_scheme():
    tree = build_tree(2)
    data = [0, 1, 1, 0]
    q = compile_query(tree, "read-only", "sp-tcg", data_bits=data)
    for a in range(4):
        bits = [(a >> 1) & 1, a & 1]
        node = 1
        for bit in bits:
            node = 2 * node + (0 if bit else 1)
        prob, rd = _simulate_query(q, bits, 2)
        assert prob > 1 - 1e-9
        assert rd["BUS"] == data[node - 4]
        assert all(rd[f"A{k + 1}"] == bits[k] for k in range(2))


def test_route_stage_reduction_about_two_thirds():
    tree = build_tree(2)
    full = compile_query(tree, "full", "tcg-non-eraser")
    qrom = compile_query(tree, "read-only", "sp-tcg")

    def stage_two_qutrit(q, stages):
        total = 0
        for name in stages:
            if name not in q.stage_moments:
                continue
            a, b = q.stage_moments[name]
            for m in q.circuit.ops[a:b]:
                total += sum(1 for g in m.gates if g.n_sites == 2)
        return total

    f = stage_two_qutrit(full, ["route-down", "route-up"])
    r = stage_two_qutrit(qrom, ["route-down", "route-up"])
    reduction = 1 - r / f
    assert 0.60 < reduction < 0.72


def test_compile_only_large_tree():
    q = compile_query(build_tree(5), "full", "tcg-eraser")
    assert q.counts[1] > 0
    assert len(q.circuit.site_dims) == 5 + 1 + 31 * 2 + 32


# --- compiled queries pinned, and each pass built once -----------------------------


def _seeded_query(layers, mode, scheme):
    tree = build_tree(layers)
    rng = np.random.default_rng((layers, MODES.index(mode), SCHEMES.index(scheme)))
    bits = [int(b) for b in rng.integers(0, 2, size=len(tree.leaf_sites))]
    return compile_query(tree, mode, scheme, bits)


# SHA-256 of a query's text form, counts, schedule and stage_moments, with
# data bits seeded by (layers, mode, scheme); L2–L5 were recorded when every
# pass was rebuilt on every use, L1 and L6 before queries were assembled from
# a plan of passes, so neither change may move them.
_GOLDEN_QUERY_SHA256 = {
    (1, "full", "clifford"): "638a9431fdc84677f4953a54c125f9e023149087f88d092933491cd8d00309d2",
    (1, "full", "tcg-non-eraser"): "3c598045160da8bcd7c9e3b14c089877193ea927e7fabc9efda883256843dfd8",
    (1, "full", "tcg-eraser"): "e089e8f67a35ae3f48e0053cb0641f9b92e9c16f22af2d3cb970b03b9919e05f",
    (1, "read-only", "clifford"): "ede601820c6b03c0b675a1df09a6ed05356a8d0f3e193a873f29e18e26efe1ef",
    (1, "read-only", "tcg-non-eraser"): "d7210f607436df227dee5df22170c0a06024fd1f737bbe86cbb4b786569bb006",
    (1, "read-only", "tcg-eraser"): "9a92da82721dc3627388db13deb4778ac87052115aab724a8e1259f881268d9f",
    (1, "read-only", "sp-tcg"): "58285a438e4bee5372ffee331ed0851b411ffc5fa69d7b0d1ba4a05d805d6f09",
    (1, "write-only", "clifford"): "72555a4eaa4b4ef758ad4175fcaf4f806cbaa7ff5eea8cdfca35f5f6cbbed2e3",
    (1, "write-only", "tcg-non-eraser"): "72b82898a6cf93baaa1eb5093dbbb59cfc4223b88e49473e0af3499bbf23b482",
    (1, "write-only", "tcg-eraser"): "97f24dec0769e04b93cadb89f468a3f76b04e20d0df3d7a231358b861e58a2b9",
    (1, "write-only", "sp-tcg"): "d5828999c57efa391fc01d728a5bbe050f0d985e1401902d618298f0aa4c27fd",
    (2, "full", "clifford"): "9079569a41c00131520fab8aa5d81bf3702a51456f25dd998fce48c4580005f3",
    (2, "full", "tcg-non-eraser"): "5b6ddbd6d0c55effb3874b5bd6befbbdd74c1b79140e020f5f02d43a625a742a",
    (2, "full", "tcg-eraser"): "5da603b574f700dea03395dcce9f0e26133c784fdb30c75712bad7a904909d71",
    (2, "read-only", "clifford"): "9c7c767544a6218613b83344cc429302b719f1a221d530b0d9f063756a9e9ffb",
    (2, "read-only", "tcg-non-eraser"): "b406ca374595754a5a4b303ea6d421286def7922bedde44bf3b72d1aa33b51b6",
    (2, "read-only", "tcg-eraser"): "e3ca0e2cd5bdc75ed7ee0dcfedb7d678dc9d2163b29e4692d157a4b19430d06f",
    (2, "read-only", "sp-tcg"): "47d2748483a67f65b48f9d4d1cbe486664dece13ac9013c288d6cd622091e850",
    (2, "write-only", "clifford"): "8116bf5038073f0d3715136f36e778731571cefc52a40d68b98facde82fec123",
    (2, "write-only", "tcg-non-eraser"): "713d5e34bf564bfe1de520632c4186d3ce65bbf8fbfdbaafceffb33910dbf2ac",
    (2, "write-only", "tcg-eraser"): "876cf6f2a535b32c9aec44452a0b152701acd23eda972430531a02292029816d",
    (2, "write-only", "sp-tcg"): "c9ca22d1489b70f97a93587c154423b38b7ce28a9eb24c9a2627bcb74f6fd2c6",
    (3, "full", "clifford"): "01863ba97751c41fa1a4c59121882453200cd551a92d875f1b7779b6ddbe5d83",
    (3, "full", "tcg-non-eraser"): "59eea8c777a3a1928452bcaf69904ed1db509e84c1a6949231670996349e899f",
    (3, "full", "tcg-eraser"): "7d08fcf9122e34e7e5409e62b6cb9989e0ad24c6b16a64aa535c2f56f08e9b32",
    (3, "read-only", "clifford"): "d7d70cbc6f71023f65940c90d0f9a317d542a443683b8d9fcd421f4f83c8fc84",
    (3, "read-only", "tcg-non-eraser"): "971cfee5789bfdd51c44c9542f0d02163e72682c61affc49df969f3b45d92f35",
    (3, "read-only", "tcg-eraser"): "59461be15aa5c0f5de5a15d25f9cae93d45d202537f2ac5db37198d3f06d9891",
    (3, "read-only", "sp-tcg"): "0915e80f45ab3f7e79e4de64efa3420c319a56ccee5faa6e80e129e7cc665bd8",
    (3, "write-only", "clifford"): "536c427c11043bb25c1d9021321e1ff8cc17eb97f4cb4444313d5da9269a09c2",
    (3, "write-only", "tcg-non-eraser"): "34cecf74249e91f039573f17ef2a58474d0304ce85c3fd4289f4ca0973b37c3a",
    (3, "write-only", "tcg-eraser"): "696d9147340c26d8d7bc88ac6fbb2980717b69dc215e773d7d12f36b2e60773a",
    (3, "write-only", "sp-tcg"): "1359f4c65da2ed3fc09951e5bf9e213afb9c0b2e837645611557336935831eae",
    (4, "full", "clifford"): "e629b087d76f4806175bdf0e4b794b58d167cb1a28533d50f67242233c954bc4",
    (4, "full", "tcg-non-eraser"): "d2a730916a93d410b98dfe7591c3255b841b43de9530624b98f256fcf77dcead",
    (4, "full", "tcg-eraser"): "44e007e05162dc37d2f35748984f95b3730eeebd19f1b83f4239cb5fd6c6277d",
    (4, "read-only", "clifford"): "b0e49e32a31f1a4ae216081ba6dac42365785ad4ae61a218e7655d75e6b0f262",
    (4, "read-only", "tcg-non-eraser"): "492e5fbe310566ea4925585a56129415093a3d86e60ca83b46b340777de3456d",
    (4, "read-only", "tcg-eraser"): "916398a78c14887ceacc0a88fa0edb11f157fd69017afb7131ddaf50a2a8187f",
    (4, "read-only", "sp-tcg"): "00a12094710af7b498ca40aaff36b06febf085d75e7990cb3fcf4eefee9fd73f",
    (4, "write-only", "clifford"): "68703cb4ba987e3fe4ced639138134c9367a1b238d87b75b2c6f148b385da218",
    (4, "write-only", "tcg-non-eraser"): "3f601a9246eabcd1debeb53daf105877d2538dc868def6b592f8bd9505a06599",
    (4, "write-only", "tcg-eraser"): "f12416d29c4a1a57e84368b4982486644519df6274ea0c477194937165af4356",
    (4, "write-only", "sp-tcg"): "d7c469f26d800de2eda5a59a8b6a20abe8b3171d536703169d142dca34723294",
    (5, "full", "clifford"): "f235a84bfa27f95d8605f801c1e8f3f386377e94beff0ddc719feccda08a3887",
    (5, "full", "tcg-non-eraser"): "c0662ed0d1ae6dd6987eacec9315792c554352fcb13db2218cf20a72f4a0b248",
    (5, "full", "tcg-eraser"): "f91c33c358ebc303dd6f43646d5b1989c64ce77213bcfa08514f9abd4d040b41",
    (5, "read-only", "clifford"): "ee167db4ac14f8444bad2c557f9df769b0d33ebcb2c3b2dc4888f4092e077166",
    (5, "read-only", "tcg-non-eraser"): "f869c0a392281d1ab8ae58ce407b44834fca1ec2f93702a29429e264e1af1e71",
    (5, "read-only", "tcg-eraser"): "0d06160bacf2b4eacd184c1204ffeabcb384c9cbe9d12cdeca11559fdce19d77",
    (5, "read-only", "sp-tcg"): "a0c780b13ed41e9ff78d0f749175f010c2bf76381dd08ae17b8dddba22d204e9",
    (5, "write-only", "clifford"): "3cada6ae084a291651511365649f46f868b32cb6014fa969ccfb91c61ca06b5d",
    (5, "write-only", "tcg-non-eraser"): "34d07c4e406ad102f62839c89dc4b33b017312b671e5689de8684d8ef55e225f",
    (5, "write-only", "tcg-eraser"): "a7e21669d6faeb5363582918003d84d9b91720705b6dc2af8338a531b867aa5c",
    (5, "write-only", "sp-tcg"): "3b53d48b242f1df3133fa8ac3b63426b38881056c2bd97613b9012be9a714b39",
    (6, "full", "clifford"): "71989c1ed351dd0b2246a9c3de72e72dd6cac721242f7ff4029d126f036a98c6",
    (6, "full", "tcg-non-eraser"): "1c5a80478d37f23c008a4c9b15e6fd1918dbffd9804eeb9095054de5298dad31",
    (6, "full", "tcg-eraser"): "88d31648e1aa58236840caaff030a2ebcfc54a0894c85d00d5961438cc62843b",
    (6, "read-only", "clifford"): "5d3417faf25bce7ea23e4ba23b88ba6ff8c82ca630c77de5d8346516146c7ba5",
    (6, "read-only", "tcg-non-eraser"): "cf1862d203c8513ca513f1b59a2f1d4df847515c94baff50e92f605af7b1b0d7",
    (6, "read-only", "tcg-eraser"): "7dcf6b17906277583c1db4a992f03e31dbc4d1d5f8377feef0225946ee38cd64",
    (6, "read-only", "sp-tcg"): "a0439650560014adea25de0f56b541080979415e0b1aa60e720e4725379870aa",
    (6, "write-only", "clifford"): "7d042c7f106ab4a5e00a8db06c514c026668f24d7d91e7815ec54fcc4c95e999",
    (6, "write-only", "tcg-non-eraser"): "9412c797aa5a8a73de60090a71b0cd741bf41e04df7c5bc9df3e96a75aa18ef0",
    (6, "write-only", "tcg-eraser"): "c433b6aaca8abf04c23c2760172ddc587cf9d34d275fa3be360fab5f7994a14e",
    (6, "write-only", "sp-tcg"): "cf291e90b6c2322bee3a62ca01fa7e2ecc4734835354192bd7cf27c265940893",
}


@pytest.mark.parametrize("layers, mode, scheme", sorted(_GOLDEN_QUERY_SHA256))
def test_compiled_query_golden_digest(layers, mode, scheme):
    q = _seeded_query(layers, mode, scheme)
    schedule = [(g.stage, g.level, g.parity, g.gate_count, g.sites) for g in q.schedule]
    blob = "\n".join([dumps_circuit(q.circuit), repr(q.counts), repr(schedule),
                      repr(list(q.stage_moments.items()))])
    assert hashlib.sha256(blob.encode()).hexdigest() == _GOLDEN_QUERY_SHA256[layers, mode, scheme]


def test_each_router_pass_built_once(monkeypatch):
    built = Counter()
    real = network.router_circuit_for
    tree = build_tree(5)
    level_of = {n.input_site: n.level for n in tree.nodes}

    def counting(scheme, direction, sites, dims):
        built[level_of[sites[0]], direction] += 1
        return real(scheme, direction, sites, dims)

    monkeypatch.setattr(network, "router_circuit_for", counting)
    for mode in MODES:
        for scheme in SCHEMES:
            if scheme == "sp-tcg" and mode == "full":
                continue
            built.clear()
            q = compile_query(tree, mode, scheme)
            # one router block per (level, direction) pass, on the level's first
            # node; the loads route down through levels 1..4, the unloads up
            down = range(1, 6 if mode in ("full", "write-only") else 5)
            up = range(1, 6 if mode in ("full", "read-only") else 5)
            if scheme in DIRECTIONAL_SCHEMES:
                want = {(lv, "down") for lv in down} | {(lv, "up") for lv in up}
            else:  # a block that ignores the direction serves both from one pass per level
                want = {(lv, "down") for lv in range(1, 6)}
            assert built == Counter(dict.fromkeys(want, 1))
            assert q.counters["passes_appended"] == len(q.schedule) - 1  # all but the leaf layer
            assert q.counters["passes_built"] < q.counters["passes_appended"]


@pytest.mark.parametrize("direction", ["down", "up"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_relabeled_router_blocks_are_the_per_node_blocks(scheme, direction):
    tree = build_tree(5)
    dims = tree.site_dims()
    for level in range(1, 6):
        p = network._build_pass(tree, dims, scheme, ("router", level, direction))
        for node in tree.level_nodes(level):
            sites = (node.input_site, node.address_site, node.left_site, node.right_site)
            want = network.router_circuit_for(scheme, direction, sites,
                                              tuple(dims[s] for s in sites))
            got = Circuit(want.site_dims)
            for m in p.moments:
                got.add_moment(*(g for g in m.gates if set(g.sites) <= set(sites)))
            assert got.ops == want.ops
            assert dumps_circuit(got) == dumps_circuit(want)


@pytest.mark.parametrize("reverse, to_address", [(False, False), (True, False), (False, True),
                                                  (True, True)])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_copied_transfer_groups_are_the_per_pair_blocks(scheme, reverse, to_address):
    tree = build_tree(5)
    for level in range(1, 6):
        pairs = [(n.input_site, n.address_site) for n in tree.level_nodes(level)]
        key = ("transfer", tuple(pairs), reverse, to_address)
        p = network._build_pass(tree, tree.site_dims(), scheme, key)
        for src, dst in pairs:
            want = network._transfer_moments(scheme, src, dst, reverse, to_address)
            got = [[g for g in m.gates if set(g.sites) <= {src, dst}] for m in p.moments]
            assert got == want


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("layers", [2, 3, 4])
def test_query_text_round_trip(layers, mode, scheme):
    if scheme == "sp-tcg" and mode == "full":
        return
    q = _seeded_query(layers, mode, scheme)
    text = dumps_circuit(q.circuit)
    back = loads_circuit(text)
    assert back.site_dims == q.circuit.site_dims
    assert back.ops == q.circuit.ops
    assert dumps_circuit(back) == text


def test_query_moments_are_frozen_and_shared_per_pass(monkeypatch):
    built = []
    real = network._build_pass

    def spy(tree, site_dims, scheme, key):
        p = real(tree, site_dims, scheme, key)
        built.append((key, p))
        return p

    monkeypatch.setattr(network, "_build_pass", spy)
    q = compile_query(build_tree(3), "full", "tcg-eraser")
    moment = q.circuit.ops[0]
    assert isinstance(moment.gates, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        moment.gates = ()
    # each distinct pass is built once, and a pass used k times contributes
    # the same moment objects k times
    keys = [key for key, _ in built]
    assert len(keys) == len(set(keys))
    in_query = Counter(map(id, q.circuit.ops))
    uses = {key: in_query[id(p.moments[0])] for key, p in built}
    assert max(uses.values()) > 1
    for key, p in built:
        assert all(in_query[id(m)] == uses[key] for m in p.moments)
    assert sum(uses[key] * len(p.moments) for key, p in built) == len(q.circuit.ops)
    assert sum(n for key, n in uses.items() if key[0] != "leaf") == q.counters["passes_appended"]


# the counters of an L5 query, as the README states them
@pytest.mark.parametrize("mode, scheme, built, appended", [
    *[("full", s, 27, 52) for s in ("clifford", "tcg-non-eraser", "tcg-eraser")],
    *[(m, s, 26, 46) for m in ("read-only", "write-only")
      for s in ("clifford", "tcg-non-eraser", "tcg-eraser")],
    ("read-only", "sp-tcg", 30, 46),
    ("write-only", "sp-tcg", 30, 46),
])
def test_l5_query_counters(mode, scheme, built, appended):
    q = compile_query(build_tree(5), mode, scheme)
    assert q.counters == {"passes_built": built, "passes_appended": appended}


def test_two_layer_landscape_noiseless_product_law():
    t1 = np.linspace(0, np.pi / 2, 7)
    t2 = np.linspace(0, np.pi / 2, 7)
    surf = two_layer_landscape(t1, t2, "eraser")
    for i, a in enumerate(t1):
        for j, b in enumerate(t2):
            pred = [
                np.sin(a) ** 2 * np.sin(b) ** 2,
                np.sin(a) ** 2 * np.cos(b) ** 2,
                np.cos(a) ** 2 * np.sin(b) ** 2,
                np.cos(a) ** 2 * np.cos(b) ** 2,
            ]
            assert np.abs(surf[i, j] - pred).max() < 1e-9
    assert surf[:, :, 0].max() == pytest.approx(1.0, abs=1e-9)


def test_two_layer_landscape_noisy_maxima_band():
    nm = NoiseModel(reference_rates())
    corners = np.array([0.0, np.pi / 2])
    surf = two_layer_landscape(corners, corners, "eraser", nm)
    maxima = [surf[:, :, d].max() for d in range(4)]
    for m in maxima:
        assert 0.85 <= m <= 0.97
