import hashlib
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonsim import topology as topology_module
from eonsim.topology import (
    CandidatePaths,
    PathOrdering,
    Topology,
    TopologyError,
    k_shortest_paths,
    load_topology,
    ordering_overlap,
)
from reference import (
    ksp_oracle,
    node_seq,
    random_connected_graph,
    reference_k_shortest_paths,
)


BUNDLED_COUNTS = {
    "nsfnet": (14, 22),
    "cost239": (11, 25),
    "usnet": (24, 43),
    "jpn48": (48, 82),
    "cost239-ptrnet": (11, 25),
    "usnet-ptrnet": (24, 43),
}


def hop_lengths(topo, nodes):
    """The km length of each link along the node sequence ``nodes``, found by its end nodes."""
    lengths = {frozenset((link.src, link.dst)): link.length_km for link in topo.links}
    return [lengths[frozenset(hop)] for hop in zip(nodes, nodes[1:])]


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
    assert [
        (node_seq(diamond, "A", f), km) for km, f in zip(paths.lengths_km, paths.fiber_ids)
    ] == [
        (("A", "B", "D"), 200.0),
        (("A", "D"), 500.0),
        (("A", "C", "D"), 600.0),
    ]


def test_diamond_hops_ordering(diamond):
    paths = k_shortest_paths(diamond, "A", "D", 3, PathOrdering.HOPS_THEN_KM)
    assert [
        (node_seq(diamond, "A", f), len(f), km) for km, f in zip(paths.lengths_km, paths.fiber_ids)
    ] == [
        (("A", "D"), 1, 500.0),
        (("A", "B", "D"), 2, 200.0),
        (("A", "C", "D"), 2, 600.0),
    ]


def test_single_path_pair(single_link):
    paths = k_shortest_paths(single_link, "A", "B", 5, PathOrdering.KM_THEN_HOPS)
    assert len(paths) == 1
    assert node_seq(single_link, "A", paths.fiber_ids[0]) == ("A", "B")


def test_disconnected_pair_returns_empty():
    topo = Topology(
        "split", ["A", "B", "C", "D"], [("A", "B", 10), ("C", "D", 10)], 8
    )
    paths = k_shortest_paths(topo, "A", "C", 3, PathOrdering.KM_THEN_HOPS)
    assert len(paths) == 0 and paths == CandidatePaths((), ())


def test_same_node_pair_rejected(single_link):
    with pytest.raises(TopologyError):
        k_shortest_paths(single_link, "A", "A", 1, PathOrdering.KM_THEN_HOPS)


def test_candidate_path_invariants(diamond):
    for ordering in PathOrdering:
        paths = diamond.candidate_paths("A", "D", 3, ordering)
        for km, fiber_ids in zip(paths.lengths_km, paths.fiber_ids):
            nodes = node_seq(diamond, "A", fiber_ids)
            assert nodes[-1] == "D"
            assert len(set(nodes)) == len(nodes)  # loopless
            assert len(fiber_ids) == len(nodes) - 1 >= 1
            assert km == pytest.approx(sum(hop_lengths(diamond, nodes)))
            assert isinstance(fiber_ids, bytes)  # 10 fibers, one byte each


def test_fiber_ids_direction_aware():
    topo = Topology("pair", ["A", "B"], [("A", "B", 100)], 8, fiber_mode="dual")
    fwd = k_shortest_paths(topo, "A", "B", 1, PathOrdering.KM_THEN_HOPS)
    rev = k_shortest_paths(topo, "B", "A", 1, PathOrdering.KM_THEN_HOPS)
    assert fwd.fiber_ids != rev.fiber_ids

    shared = Topology("pair", ["A", "B"], [("A", "B", 100)], 8, fiber_mode="single")
    fwd = k_shortest_paths(shared, "A", "B", 1, PathOrdering.KM_THEN_HOPS)
    rev = k_shortest_paths(shared, "B", "A", 1, PathOrdering.KM_THEN_HOPS)
    assert fwd.fiber_ids == rev.fiber_ids


def test_cache_returns_same_object(diamond):
    a = diamond.candidate_paths("A", "D", 3, PathOrdering.KM_THEN_HOPS)
    b = diamond.candidate_paths("A", "D", 3, PathOrdering.KM_THEN_HOPS)
    assert a is b


def test_path_cache_retains_under_90_bytes_per_path():
    """A pair's record holds a tuple of km lengths, shared by both directions,
    and a tuple of each path's fiber ids, one byte each on nsfnet's 44 fibers,
    and nothing derivable from them: nsfnet's k=50 hop-ordered cache of 9,100
    paths fits in about 73 bytes a path (133 with a record per path and a km
    float per direction; 306 with node sequences, hop counts and tuples of
    fiber ids; 418 with link ids and ranks as well)."""
    topo = load_topology("nsfnet")
    tracemalloc.start()
    try:
        topo.warm_path_cache(50, PathOrdering.HOPS_THEN_KM)
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    paths = sum(
        len(topo.candidate_paths(src, dst, 50, PathOrdering.HOPS_THEN_KM))
        for src in topo.nodes for dst in topo.nodes if src != dst
    )
    assert paths == 9100
    assert retained / paths < 90
    assert all(
        type(f) is bytes for cached in topo._path_cache.values() for f in cached.fiber_ids
    )


def test_fiber_ids_fall_back_to_a_tuple_past_256_fibers(wide_ring):
    assert wide_ring.num_fibers == 260
    ids = set()
    for src, dst in [("0", "64"), ("0", "129"), ("129", "0"), ("127", "128"), ("100", "30")]:
        paths = wide_ring.candidate_paths(src, dst, 2, PathOrdering.HOPS_THEN_KM)
        assert len(paths) == 2
        for fiber_ids in paths.fiber_ids:
            assert type(fiber_ids) is tuple
            nodes = node_seq(wide_ring, src, fiber_ids)
            assert nodes[-1] == dst
            assert list(fiber_ids) == [wide_ring._hops[hop] for hop in zip(nodes, nodes[1:])]
            ids.update(fiber_ids)
    assert max(ids) >= 256


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
        paths = k_shortest_paths(topo, src, dst, k, enum_ordering)
        got = [node_seq(topo, src, f) for f in paths.fiber_ids]
        want = ksp_oracle(links, src, dst, k, ordering)
        assert got == want, f"trial {trial}: {got} != {want}"


@pytest.mark.parametrize("ordering", list(PathOrdering))
def test_prefix_stability(ordering):
    rng = np.random.default_rng(11)
    for trial in range(40):
        nodes, links = random_connected_graph(rng)
        topo = Topology(f"rand{trial}", nodes, links, 8)
        src, dst = nodes[0], nodes[-1]
        shorter = k_shortest_paths(topo, src, dst, 3, ordering)
        longer = k_shortest_paths(topo, src, dst, 4, ordering)
        n = len(shorter)
        assert longer.lengths_km[:n] == shorter.lengths_km
        assert longer.fiber_ids[:n] == shorter.fiber_ids


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
                got = topo.candidate_paths(src, dst, k, ordering)
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
                paths = topo.candidate_paths(src, dst, k, ordering)
                seqs = [node_seq(topo, src, f) for f in paths.fiber_ids]
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
    lengths = {
        node_seq(topo, "B", f): km for km, f in zip(forward.lengths_km, forward.fiber_ids)
    }
    three_hop = {nodes: km for nodes, km in lengths.items() if len(nodes) == 4}
    assert set(three_hop) == {("B", "F", "G", "E"), ("B", "G", "D", "E")}
    assert set(three_hop.values()) == {float(Fraction(0.7) + Fraction(0.3) + Fraction(0.3))}
    for km, f in zip(backward.lengths_km, backward.fiber_ids):
        assert km == lengths[node_seq(topo, "E", f)[::-1]]


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 10))
@settings(max_examples=100, deadline=None)
def test_km_lengths_are_exact_and_ordered_with_fractional_lengths(seed, k):
    topo = fractional_graph(np.random.default_rng(seed))
    topo.warm_path_cache(k, PathOrdering.KM_THEN_HOPS)
    for src in topo.nodes:
        for dst in topo.nodes:
            if src != dst:
                paths = topo.candidate_paths(src, dst, k, PathOrdering.KM_THEN_HOPS)
                kms = list(paths.lengths_km)
                assert kms == sorted(kms), (src, dst)
                for km, f in zip(kms, paths.fiber_ids):
                    nodes = node_seq(topo, src, f)
                    exact = sum(map(Fraction, hop_lengths(topo, nodes)))
                    assert km == float(exact), (src, dst, nodes)


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
    hop_counts = list(map(len, hops.fiber_ids))
    assert hop_counts == sorted(hop_counts)
    assert list(kms.lengths_km) == sorted(kms.lengths_km)


def test_ordering_overlap_diagnostic(diamond):
    # same 3 routes under both orderings at k=3: nothing unique
    assert ordering_overlap(diamond, "A", "D", 3) == 0.0
    # at k=1 the orderings disagree: A-D (hops) vs A-B-D (km)
    assert ordering_overlap(diamond, "A", "D", 1) == 1.0


@pytest.mark.parametrize("name", ["nsfnet", "usnet-ptrnet"])  # dual and single fibers
def test_ordering_overlap_equals_the_overlap_of_node_sequences(name):
    topo = load_topology(name)
    for src in topo.nodes:
        for dst in topo.nodes:
            if src != dst:
                km, hops = (
                    {node_seq(topo, src, f)
                     for f in topo.candidate_paths(src, dst, 5, ordering).fiber_ids}
                    for ordering in (PathOrdering.KM_THEN_HOPS, PathOrdering.HOPS_THEN_KM)
                )
                want = len(km ^ hops) / len(km | hops)
                assert ordering_overlap(topo, src, dst, 5) == want, (src, dst)


@pytest.mark.parametrize("name", ["nsfnet", "usnet-ptrnet"])  # dual and single fibers
def test_a_pair_record_shares_its_lengths_with_the_reverse_pair(name):
    """A record's ``len()`` is its number of paths, and each path's km float
    is one object, held by the forward and the reverse pair's record alike.
    A tie in (hops, km) at the k-th cut can keep a route in one direction's
    list only; every other route is checked."""
    topo = load_topology(name)
    for ordering in PathOrdering:
        topo.warm_path_cache(5, ordering)
        for src in topo.nodes:
            for dst in topo.nodes:
                if src == dst:
                    continue
                fwd = topo.candidate_paths(src, dst, 5, ordering)
                rev = topo.candidate_paths(dst, src, 5, ordering)
                assert len(fwd) == len(fwd.lengths_km) == len(fwd.fiber_ids) == 5
                km_of = {
                    node_seq(topo, src, f): km for km, f in zip(fwd.lengths_km, fwd.fiber_ids)
                }
                shared = 0
                for km, f in zip(rev.lengths_km, rev.fiber_ids):
                    route = node_seq(topo, dst, f)[::-1]
                    if route in km_of:
                        assert km is km_of[route], (src, dst, route)
                        shared += 1
                assert shared, (src, dst)


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
