import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonsim import topology as topology_module
from eonsim.topology import (
    PathOrdering,
    Topology,
    TopologyError,
    k_shortest_paths,
    load_topology,
    ordering_overlap,
)
from reference import ksp_oracle, random_connected_graph, reference_k_shortest_paths


BUNDLED_COUNTS = {
    "nsfnet": (14, 22),
    "cost239": (11, 25),
    "usnet": (24, 43),
    "jpn48": (48, 82),
    "cost239-ptrnet": (11, 25),
    "usnet-ptrnet": (24, 43),
}


@pytest.mark.parametrize("name,expected", sorted(BUNDLED_COUNTS.items()))
def test_bundled_topology_counts(name, expected):
    topo = load_topology(name)
    assert (len(topo.nodes), len(topo.links)) == expected


def test_load_topology_from_file(tmp_path):
    doc = {
        "schema": "eonsim-topology/1",
        "name": "pair",
        "fiber_mode": "dual",
        "slots_per_fiber": 10,
        "nodes": ["A", "B"],
        "links": [{"src": "A", "dst": "B", "length_km": 100}],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    topo = load_topology(path)
    assert topo.nodes == ("A", "B")
    assert len(topo.links) == 1
    assert topo.links[0].length_km == 100


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda d: d["links"].append({"src": "A", "dst": "Z", "length_km": 5}), "unknown node"),
        (lambda d: d["links"].append({"src": "A", "dst": "B", "length_km": 7}), "duplicate"),
        (lambda d: d["links"].__setitem__(0, {"src": "A", "dst": "B", "length_km": 0}), "non-positive"),
        # written as the JSON literals NaN and Infinity, which json.loads accepts
        (lambda d: d["links"][0].update(length_km=float("nan")), "non-finite length nan"),
        (lambda d: d["links"][0].update(length_km=float("inf")), "non-finite length inf"),
        (lambda d: d["links"][0].update(length_km=10**400), r"\(A, B\) has non-finite length inf"),
        (lambda d: d["links"][0].update(length_km="100"), "non-numeric length '100'"),
        (lambda d: d["links"][0].update(length_km=None), "non-numeric length None"),
        (lambda d: d["links"][0].update(length_km=True), "non-numeric length True"),
        (lambda d: d.update(slots_per_fiber="80"), "an integer, got '80'"),
        (lambda d: d.update(slots_per_fiber=80.5), "an integer, got 80.5"),
        (lambda d: d.update(links={"A-B": d["links"][0]}), "must be JSON lists"),
        (lambda d: d.update(links=[["A", "B", 100]]), "link must be a JSON object"),
        (lambda d: [d], "must be a JSON object, got list"),
        (lambda d: d.__setitem__("schema", "nope/9"), "schema"),
        (lambda d: d.update(nodes=["A"], links=[]), "two nodes"),
    ],
)
def test_load_topology_rejects_bad_documents(tmp_path, mutate, match):
    """``mutate`` edits the document in place, or returns one to write instead."""
    doc = {
        "schema": "eonsim-topology/1",
        "name": "pair",
        "fiber_mode": "dual",
        "slots_per_fiber": 10,
        "nodes": ["A", "B"],
        "links": [{"src": "A", "dst": "B", "length_km": 100}],
    }
    replaced = mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc if replaced is None else replaced))
    with pytest.raises(TopologyError, match=match):
        load_topology(path)


def test_parse_failure(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(TopologyError, match="parse"):
        load_topology(path)


def test_diamond_km_ordering(diamond):
    paths = k_shortest_paths(diamond, "A", "D", 3, PathOrdering.KM_THEN_HOPS)
    assert [(p.node_seq, p.length_km) for p in paths] == [
        (("A", "B", "D"), 200.0),
        (("A", "D"), 500.0),
        (("A", "C", "D"), 600.0),
    ]


def test_diamond_hops_ordering(diamond):
    paths = k_shortest_paths(diamond, "A", "D", 3, PathOrdering.HOPS_THEN_KM)
    assert [(p.node_seq, p.hop_count, p.length_km) for p in paths] == [
        (("A", "D"), 1, 500.0),
        (("A", "B", "D"), 2, 200.0),
        (("A", "C", "D"), 2, 600.0),
    ]


def test_single_path_pair(single_link):
    paths = k_shortest_paths(single_link, "A", "B", 5, PathOrdering.KM_THEN_HOPS)
    assert len(paths) == 1
    assert paths[0].node_seq == ("A", "B")
    assert paths[0].rank == 0


def test_disconnected_pair_returns_empty():
    topo = Topology(
        "split", ["A", "B", "C", "D"], [("A", "B", 10), ("C", "D", 10)], 8
    )
    assert k_shortest_paths(topo, "A", "C", 3, PathOrdering.KM_THEN_HOPS) == []


def test_same_node_pair_rejected(single_link):
    with pytest.raises(TopologyError):
        k_shortest_paths(single_link, "A", "A", 1, PathOrdering.KM_THEN_HOPS)


def test_candidate_path_invariants(diamond):
    for ordering in PathOrdering:
        for p in diamond.candidate_paths("A", "D", 3, ordering):
            assert len(set(p.node_seq)) == len(p.node_seq)  # loopless
            assert p.hop_count == len(p.node_seq) - 1 >= 1
            assert p.length_km == pytest.approx(
                sum(diamond.links[l].length_km for l in p.link_ids)
            )
            assert len(p.fiber_ids) == p.hop_count


def test_fiber_ids_direction_aware():
    topo = Topology("pair", ["A", "B"], [("A", "B", 100)], 8, fiber_mode="dual")
    fwd = k_shortest_paths(topo, "A", "B", 1, PathOrdering.KM_THEN_HOPS)[0]
    rev = k_shortest_paths(topo, "B", "A", 1, PathOrdering.KM_THEN_HOPS)[0]
    assert fwd.fiber_ids != rev.fiber_ids

    shared = Topology("pair", ["A", "B"], [("A", "B", 100)], 8, fiber_mode="single")
    fwd = k_shortest_paths(shared, "A", "B", 1, PathOrdering.KM_THEN_HOPS)[0]
    rev = k_shortest_paths(shared, "B", "A", 1, PathOrdering.KM_THEN_HOPS)[0]
    assert fwd.fiber_ids == rev.fiber_ids


def test_cache_returns_same_object(diamond):
    a = diamond.candidate_paths("A", "D", 3, PathOrdering.KM_THEN_HOPS)
    b = diamond.candidate_paths("A", "D", 3, PathOrdering.KM_THEN_HOPS)
    assert a is b


@pytest.mark.parametrize("ordering", ["km", "hops"])
def test_ksp_matches_exhaustive_enumeration(ordering):
    rng = np.random.default_rng(7)
    enum_ordering = (
        PathOrdering.KM_THEN_HOPS if ordering == "km" else PathOrdering.HOPS_THEN_KM
    )
    for trial in range(150):
        nodes, links = random_connected_graph(rng)
        topo = Topology(f"rand{trial}", nodes, links, 8)
        src, dst = nodes[0], nodes[-1]
        if src == dst:
            continue
        k = int(rng.integers(1, 8))
        got = [p.node_seq for p in k_shortest_paths(topo, src, dst, k, enum_ordering)]
        want = ksp_oracle(links, src, dst, k, ordering)
        assert got == want, f"trial {trial}: {got} != {want}"


@pytest.mark.parametrize("ordering", list(PathOrdering))
def test_prefix_stability(ordering):
    rng = np.random.default_rng(11)
    for trial in range(40):
        nodes, links = random_connected_graph(rng)
        topo = Topology(f"rand{trial}", nodes, links, 8)
        src, dst = nodes[0], nodes[-1]
        shorter = [p.node_seq for p in k_shortest_paths(topo, src, dst, 3, ordering)]
        longer = [p.node_seq for p in k_shortest_paths(topo, src, dst, 4, ordering)]
        assert longer[: len(shorter)] == shorter


def _all_pairs_equal_reference(topo, k, ordering):
    for src in topo.nodes:
        for dst in topo.nodes:
            if src != dst:
                got = k_shortest_paths(topo, src, dst, k, ordering)
                assert got == reference_k_shortest_paths(topo, src, dst, k, ordering), (src, dst)


def _warm_cache_equals_reference(topo, k, ordering):
    """Every cached list, the ones an enumeration stores for the reverse pair included."""
    topo.warm_path_cache(k, ordering)
    for src in topo.nodes:
        for dst in topo.nodes:
            if src != dst:
                got = list(topo.candidate_paths(src, dst, k, ordering))
                assert got == reference_k_shortest_paths(topo, src, dst, k, ordering), (src, dst)


BUNDLED_KSP_CASES = [
    ("nsfnet", 50, PathOrdering.HOPS_THEN_KM),
    ("nsfnet", 50, PathOrdering.KM_THEN_HOPS),
    ("cost239", 50, PathOrdering.HOPS_THEN_KM),
    ("cost239", 50, PathOrdering.KM_THEN_HOPS),
    ("usnet", 10, PathOrdering.KM_THEN_HOPS),
]


@pytest.mark.parametrize("name,k,ordering", BUNDLED_KSP_CASES)
def test_ksp_matches_unoptimized_yen_on_bundled(name, k, ordering):
    _all_pairs_equal_reference(load_topology(name), k, ordering)


@pytest.mark.parametrize("name,k,ordering", BUNDLED_KSP_CASES)
def test_warm_cache_matches_unoptimized_yen_on_bundled(name, k, ordering):
    _warm_cache_equals_reference(load_topology(name), k, ordering)


# SHA-256 of every ordered pair's candidate node sequences, in rank order, for
# tables the unoptimized reference is too slow to check in full.  Recorded with
# Yen's algorithm, before the budgeted depth-first enumeration replaced it.
CANDIDATE_TABLE_SHA256 = {
    ("usnet", 50, PathOrdering.HOPS_THEN_KM):
        "5294f9ed2e2dfd5e06da431f3a9396a614400ca185346ea5dbffbf3376f5bbd2",
    ("usnet", 50, PathOrdering.KM_THEN_HOPS):
        "dc7aa29fad0f3515d04f77e5a33d4970b95d32e6898edcffa518cd1d7f0fe77b",
    ("jpn48", 50, PathOrdering.KM_THEN_HOPS):
        "1264bdde56056546ba65b28cfae945b6f00c263e326df138f67c6468a1d258c2",
    ("jpn48", 50, PathOrdering.HOPS_THEN_KM):
        "0467e3ab7fb6c602536975325ba3b76cf675a1791ead1c7389cce25e5cd91f48",
}


@pytest.mark.parametrize("name,k,ordering", sorted(CANDIDATE_TABLE_SHA256, key=str))
def test_candidate_table_is_pinned(name, k, ordering):
    topo = load_topology(name)
    digest = hashlib.sha256()
    for src in topo.nodes:
        for dst in topo.nodes:
            if src != dst:
                seqs = [p.node_seq for p in topo.candidate_paths(src, dst, k, ordering)]
                digest.update(json.dumps([src, dst, seqs]).encode())
    assert digest.hexdigest() == CANDIDATE_TABLE_SHA256[name, k, ordering]


def fractional_graph(rng):
    """Random graph on 5-8 nodes with non-integer lengths, whose km sums depend
    on the order they are added in; half of them draw from a few short
    lengths so that paths tie, or nearly tie, in km."""
    nodes = [chr(ord("A") + i) for i in range(int(rng.integers(5, 9)))]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :] if rng.random() < 0.6]
    if rng.random() < 0.5:
        lengths = rng.choice([0.1, 0.2, 0.3, 0.7, 1.1], len(pairs))
    else:
        lengths = rng.uniform(0.001, 5000.0, len(pairs))
    return Topology("frac", nodes, [(a, b, float(x)) for (a, b), x in zip(pairs, lengths)], 8)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(1, 10),
    st.sampled_from(list(PathOrdering)),
)
@settings(max_examples=200, deadline=None)
def test_ksp_matches_unoptimized_yen_with_fractional_lengths(seed, k, ordering):
    _all_pairs_equal_reference(fractional_graph(np.random.default_rng(seed)), k, ordering)


def test_tied_routes_report_one_length_in_both_directions():
    """B-F-G-E and B-G-D-E both sum to 0.7 + 0.3 + 0.3 in exact arithmetic,
    whose nearest float is 1.2999999999999998; a left-to-right float sum
    gives 1.3 for one order of addition and 1.2999999999999998 for another."""
    links = [("B", "F", 0.7), ("F", "G", 0.3), ("G", "E", 0.3),
             ("B", "G", 0.3), ("G", "D", 0.3), ("D", "E", 0.7)]
    topo = Topology("six", list("BDEFG"), links, 8)
    forward = k_shortest_paths(topo, "B", "E", 3, PathOrdering.KM_THEN_HOPS)
    backward = k_shortest_paths(topo, "E", "B", 3, PathOrdering.KM_THEN_HOPS)
    three_hop = {p.node_seq: p.length_km for p in forward if p.hop_count == 3}
    assert set(three_hop) == {("B", "F", "G", "E"), ("B", "G", "D", "E")}
    assert set(three_hop.values()) == {float(Fraction(0.7) + Fraction(0.3) + Fraction(0.3))}
    for p in backward:
        assert p.length_km == {q.node_seq: q.length_km for q in forward}[p.node_seq[::-1]]


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 10))
@settings(max_examples=100, deadline=None)
def test_km_lengths_are_exact_and_ordered_with_fractional_lengths(seed, k):
    topo = fractional_graph(np.random.default_rng(seed))
    topo.warm_path_cache(k, PathOrdering.KM_THEN_HOPS)
    for src in topo.nodes:
        for dst in topo.nodes:
            if src != dst:
                paths = topo.candidate_paths(src, dst, k, PathOrdering.KM_THEN_HOPS)
                kms = [p.length_km for p in paths]
                assert kms == sorted(kms), (src, dst)
                for p in paths:
                    exact = sum(Fraction(topo.links[l].length_km) for l in p.link_ids)
                    assert p.length_km == float(exact), (src, dst, p.node_seq)


def integral_graph(rng):
    """Random graph on 5-8 nodes with lengths in {1, 2, 3}: many paths tie in
    (hops, km), so ties cross the k-th cut, and a pair's two directions then
    differ only in the node-sequence tiebreak."""
    nodes = [chr(ord("A") + i) for i in range(int(rng.integers(5, 9)))]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :] if rng.random() < 0.6]
    lengths = rng.integers(1, 4, len(pairs))
    return Topology("int", nodes, [(a, b, int(x)) for (a, b), x in zip(pairs, lengths)], 8)


def wide_integral_graph(rng):
    """Random graph on 5-8 nodes with integral lengths drawn from 1..5000: path
    lengths spread widely, so a km-budgeted search raises its budget several
    times before it holds k paths."""
    nodes = [chr(ord("A") + i) for i in range(int(rng.integers(5, 9)))]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :] if rng.random() < 0.6]
    lengths = rng.integers(1, 5001, len(pairs))
    return Topology("wide", nodes, [(a, b, int(x)) for (a, b), x in zip(pairs, lengths)], 8)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(1, 10),
    st.sampled_from(list(PathOrdering)),
    st.sampled_from([integral_graph, wide_integral_graph, fractional_graph]),
)
@settings(max_examples=200, deadline=None)
def test_warm_cache_matches_unoptimized_yen_on_random_graphs(seed, k, ordering, graph):
    _warm_cache_equals_reference(graph(np.random.default_rng(seed)), k, ordering)


@pytest.mark.parametrize("ordering", list(PathOrdering))
@pytest.mark.parametrize(
    "shape,paths_per_pair",
    [
        ([(str(i), str(i + 1), 10 * (i + 1)) for i in range(6)], 1),  # a line
        ([(str(i), str((i + 1) % 7), 10 * (i + 1)) for i in range(7)], 2),  # a ring
    ],
)
def test_fewer_loopless_paths_than_k_are_all_returned(ordering, shape, paths_per_pair):
    """Every budget round prunes less until nothing is left to prune; the
    search must then end with every path, although k is never reached."""
    topo = Topology("sparse", [str(i) for i in range(7)], shape, 8)
    for src in topo.nodes:
        for dst in topo.nodes:
            if src != dst:
                got = k_shortest_paths(topo, src, dst, 50, ordering)
                assert len(got) == paths_per_pair
                assert got == reference_k_shortest_paths(topo, src, dst, 50, ordering)


@pytest.mark.parametrize("ordering", list(PathOrdering))
@pytest.mark.parametrize("offset", [0.0, 0.5, 0.1])
def test_one_enumeration_per_unordered_pair(monkeypatch, ordering, offset):
    nsfnet = load_topology("nsfnet")
    links = [(l.src, l.dst, l.length_km + offset) for l in nsfnet.links]
    topo = Topology("shifted", nsfnet.nodes, links, 8)
    calls = []
    real = topology_module.k_shortest_paths
    monkeypatch.setattr(
        topology_module, "k_shortest_paths", lambda *args: calls.append(args) or real(*args)
    )
    topo.warm_path_cache(5, ordering)
    assert len(calls) == 91
    assert len(topo._path_cache) == 14 * 13


def test_route_table_computes_only_the_pairs_it_is_asked_for(monkeypatch):
    jpn48 = load_topology("jpn48")
    calls = []
    real = topology_module.k_shortest_paths
    monkeypatch.setattr(
        topology_module, "k_shortest_paths", lambda *args: calls.append(args[1:3]) or real(*args)
    )
    src, dst = jpn48.nodes[0], jpn48.nodes[-1]
    routes = jpn48.route_table(3, PathOrdering.HOPS_THEN_KM)
    assert len(routes) == 0 and calls == []
    paths = routes[src, dst]
    assert calls == [(src, dst)]
    assert list(routes) == [(src, dst)]
    assert paths == jpn48.candidate_paths(src, dst, 3, PathOrdering.HOPS_THEN_KM)
    assert routes[src, dst] is paths
    routes[dst, src]  # the same enumeration stored the reverse pair's list
    assert calls == [(src, dst)] and len(routes) == 2


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_primary_criterion_nondecreasing(seed):
    rng = np.random.default_rng(seed)
    nodes, links = random_connected_graph(rng)
    topo = Topology("h", nodes, links, 8)
    src, dst = nodes[0], nodes[-1]
    hops = k_shortest_paths(topo, src, dst, 6, PathOrdering.HOPS_THEN_KM)
    kms = k_shortest_paths(topo, src, dst, 6, PathOrdering.KM_THEN_HOPS)
    assert all(a.hop_count <= b.hop_count for a, b in zip(hops, hops[1:]))
    assert all(a.length_km <= b.length_km for a, b in zip(kms, kms[1:]))
    for paths in (hops, kms):
        assert [p.rank for p in paths] == list(range(len(paths)))


def test_ordering_overlap_diagnostic(diamond):
    # same 3 routes under both orderings at k=3: nothing unique
    assert ordering_overlap(diamond, "A", "D", 3) == 0.0
    # at k=1 the orderings disagree: A-D (hops) vs A-B-D (km)
    assert ordering_overlap(diamond, "A", "D", 1) == 1.0


def test_constructor_validation():
    with pytest.raises(TopologyError, match="self-loop"):
        Topology("bad", ["A", "B"], [("A", "A", 5)], 8)
    with pytest.raises(TopologyError, match="slots"):
        Topology("bad", ["A", "B"], [("A", "B", 5)], 0)
    with pytest.raises(TopologyError, match="fiber_mode"):
        Topology("bad", ["A", "B"], [("A", "B", 5)], 8, fiber_mode="triple")
    with pytest.raises(TopologyError, match="duplicate node"):
        Topology("bad", ["A", "A"], [], 8)


@pytest.mark.parametrize("length", [2**53 + 1, np.int64(2**53 + 1), 10**20 + 1])
def test_an_integral_length_a_float_cannot_hold_is_rejected(length):
    with pytest.raises(TopologyError, match=rf"\(A, B\) has length {length}, which a float"):
        Topology("x", ["A", "B"], [("A", "B", length)], 8)
    # a large integer that a float holds exactly is kept
    assert Topology("x", ["A", "B"], [("A", "B", 2**60)], 8).links[0].length_km == 2**60


def test_zero_overrides_are_rejected_not_ignored():
    from eonsim.presets import get_preset

    with pytest.raises(TopologyError, match="slots"):
        load_topology("nsfnet", slots_per_fiber=0)
    with pytest.raises(TopologyError, match="slots"):
        get_preset("deeprmsa").load_topology("nsfnet", slots_per_fiber=0)
    with pytest.raises(TopologyError, match="fiber_mode"):
        load_topology("nsfnet", fiber_mode="")


def test_dual_fiber_count_doubles():
    dual = load_topology("nsfnet")
    single = load_topology("nsfnet", fiber_mode="single")
    assert dual.num_fibers == 2 * len(dual.links)
    assert single.num_fibers == len(single.links)
