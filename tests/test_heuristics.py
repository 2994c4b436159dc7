import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonsim import heuristics
from eonsim.heuristics import HeuristicKind, decide
from eonsim.presets import get_preset
from eonsim.service import ModulationTable, demand_for_path
from eonsim.simulator import ActiveLightpaths, run_trial
from eonsim.spectrum import SpectrumState
from eonsim.topology import CandidatePaths, PathOrdering, Topology
from eonsim.traffic import ServiceRequest
from reference import block_mask, node_seq, reference_decision

TABLE = ModulationTable.default()


def request(rate=None, slots=None, rid=0):
    return ServiceRequest(
        id=rid, src="A", dst="D", arrival_time=0.0, holding_time=1.0,
        rate_gbps=rate, slots=slots,
    )


@pytest.fixture
def two_route_topo():
    """Two disjoint 2-hop routes A-B-D (200 km) and A-C-D (600 km)."""
    return Topology(
        "tworoutes",
        ["A", "B", "C", "D"],
        [("A", "B", 100), ("B", "D", 100), ("A", "C", 300), ("C", "D", 300)],
        slots_per_fiber=10,
    )


def candidates_of(topo, k=4, ordering=PathOrdering.HOPS_THEN_KM):
    return topo.candidate_paths("A", "D", k, ordering)


def rank(cands, fiber_ids):
    """The rank of the candidate whose fibers a placement names."""
    return cands.fiber_ids.index(fiber_ids)


def test_empty_network_all_kinds_pick_rank0(diamond):
    state = SpectrumState.for_topology(diamond)
    cands = candidates_of(diamond)
    for kind in HeuristicKind:
        placement = decide(kind, request(slots=2), cands, state)
        assert placement is not None, kind
        fiber_ids, mask = placement
        assert rank(cands, fiber_ids) == 0, kind
        assert mask == block_mask(0, 2), kind


def test_active_lightpaths_record_and_release_the_pair_decide_returns(two_route_topo):
    state = SpectrumState.for_topology(two_route_topo)
    active = ActiveLightpaths(state)
    req = request(slots=2)
    placement = decide(HeuristicKind.KSP_FF, req, candidates_of(two_route_topo), state)
    active.add(req, placement)
    fiber_ids, mask = placement
    assert active.records == {req.id: (fiber_ids, mask, None)}
    assert [state.occ[f] for f in fiber_ids] == [mask] * len(fiber_ids)
    active.release_due(math.inf)
    assert active.records == {} and not any(state.occ)


def test_ksp_ff_vs_ff_ksp(two_route_topo):
    """Path 0 first-fit starts at 7, path 1 at 2: rank-first vs spectrum-first."""
    topo = two_route_topo
    state = SpectrumState.for_topology(topo)
    cands = candidates_of(topo)
    p0, p1 = cands.fiber_ids[:2]
    assert node_seq(topo, "A", p0) == ("A", "B", "D")
    # occupy path0 slots 0-6 and path1 slots 0-1
    state.allocate(p0, block_mask(0, 7))
    state.allocate(p1, block_mask(0, 2))

    fiber_ids, mask = decide(HeuristicKind.KSP_FF, request(slots=2), cands, state)
    assert rank(cands, fiber_ids) == 0 and mask == block_mask(7, 2)

    fiber_ids, mask = decide(HeuristicKind.FF_KSP, request(slots=2), cands, state)
    assert rank(cands, fiber_ids) == 1 and mask == block_mask(2, 2)


def test_all_paths_occupied_blocks(two_route_topo):
    topo = two_route_topo
    state = SpectrumState.for_topology(topo)
    cands = candidates_of(topo)
    for fiber_ids in cands.fiber_ids:
        state.allocate(fiber_ids, block_mask(0, 10))
    for kind in HeuristicKind:
        assert decide(kind, request(slots=1), cands, state) is None, kind


def test_empty_candidate_list_blocks():
    state = SpectrumState(2, 10)
    for kind in HeuristicKind:
        assert decide(kind, request(slots=1), CandidatePaths((), ()), state) is None, kind


def test_ksp_bf_takes_first_path_best_fit(two_route_topo):
    topo = two_route_topo
    state = SpectrumState.for_topology(topo)
    cands = candidates_of(topo)
    p0 = cands.fiber_ids[0]
    # path0 runs: 3 free at 0, 2 free at 8; best fit for 2 is at 8
    state.allocate(p0, block_mask(3, 5))
    fiber_ids, mask = decide(HeuristicKind.KSP_BF, request(slots=2), cands, state)
    assert rank(cands, fiber_ids) == 0
    assert mask == block_mask(8, 2)


def test_bf_ksp_prefers_tightest_run_across_paths(two_route_topo):
    topo = two_route_topo
    state = SpectrumState.for_topology(topo)
    cands = candidates_of(topo)
    p0, p1 = cands.fiber_ids[:2]
    # path0 tightest run for 2 slots has size 3; path1 has an exact-2 run
    state.allocate(p0, block_mask(3, 7))   # run size 3 at 0
    state.allocate(p1, block_mask(0, 4))   # runs: 6 at 4
    state.allocate(p1, block_mask(6, 2))   # runs: 2 at 4, 2 at 8
    fiber_ids, mask = decide(HeuristicKind.BF_KSP, request(slots=2), cands, state)
    assert rank(cands, fiber_ids) == 1
    assert mask == block_mask(4, 2)  # size-2 run, lowest start, over rank


def test_bf_ksp_tie_ladder_prefers_lower_start_then_rank(two_route_topo):
    topo = two_route_topo
    state = SpectrumState.for_topology(topo)
    cands = candidates_of(topo)
    p0, p1 = cands.fiber_ids[:2]
    # both paths expose an exact-size-2 run; path1's starts lower
    state.allocate(p0, block_mask(0, 6))   # p0 run: 4 at 6 -> not exact
    state.allocate(p0, block_mask(8, 2))   # p0 runs: 2 at 6
    state.allocate(p1, block_mask(0, 2))   # p1 runs: ...
    state.allocate(p1, block_mask(4, 6))   # p1 run: 2 at 2
    fiber_ids, mask = decide(HeuristicKind.BF_KSP, request(slots=2), cands, state)
    assert (rank(cands, fiber_ids), mask) == (1, block_mask(2, 2))


def test_kme_ff_minimizes_post_allocation_entropy(two_route_topo):
    topo = two_route_topo
    state = SpectrumState.for_topology(topo)
    cands = candidates_of(topo)
    p0, p1 = cands.fiber_ids[:2]
    # placing on p0 would split its free space; p1 placement stays flush
    state.allocate(p0, block_mask(4, 2))
    state.allocate(p1, block_mask(0, 4))
    fiber_ids, mask = decide(HeuristicKind.KME_FF, request(slots=2), cands, state)
    # p0 first-fit at 0 leaves runs {2 at 2, 4 at 6} per link (entropy high);
    # p1 first-fit at 4 leaves one run {4 at 6} per link (entropy low)
    assert rank(cands, fiber_ids) == 1
    assert mask == block_mask(4, 2)


def kme_ff_against_reference(topo, cands, state, req):
    """decide's kme-ff choice and reference_decision's, as (rank, slot mask)."""
    grids = [[bool(occ >> i & 1) for i in range(state.n_slots)] for occ in state.occ]
    ref_fiber_ids, start, size = reference_decision("kme-ff", req, cands, grids, [], 12.5, 0)
    fiber_ids, mask = decide(HeuristicKind.KME_FF, req, cands, state)
    return (rank(cands, fiber_ids), mask), (rank(cands, ref_fiber_ids), block_mask(start, size))


def test_kme_ff_exact_tie_goes_to_the_earlier_rank(two_route_topo):
    """Identical run layouts on both paths tie exactly; the fold settles it for rank 0."""
    topo = two_route_topo
    state = SpectrumState.for_topology(topo)
    cands = candidates_of(topo)
    for fiber_ids in cands.fiber_ids:
        state.allocate(fiber_ids, block_mask(2, 1))
        state.allocate(fiber_ids, block_mask(6, 2))
    with mock.patch(
        "eonsim.heuristics.entropy_after_placement", wraps=heuristics.entropy_after_placement
    ) as exact:
        got, expected = kme_ff_against_reference(topo, cands, state, request(slots=2))
    assert got == expected == (0, block_mask(0, 2))
    assert exact.call_count == 2  # both candidates were inside the margin


def test_kme_ff_settles_float_near_ties_as_the_reference_does():
    """Permuting a path's later runs keeps its entropy as a real number, but not
    always as a float fold; the exact fold then decides, in rank order."""
    rng = np.random.default_rng(11)
    n_slots = 64
    topo = Topology(
        "tworoutes", ["A", "B", "C", "D"],
        [("A", "B", 100), ("B", "D", 100), ("A", "C", 300), ("C", "D", 300)],
        slots_per_fiber=n_slots,
    )
    cands = candidates_of(topo)
    ranks = set()
    for _case in range(200):
        runs, used = [], 0
        while used + 9 < n_slots:
            runs.append(int(rng.integers(1, 9)))
            used += runs[-1] + 1
        shuffled = [runs[0]] + [int(r) for r in rng.permutation(runs[1:])]
        state = SpectrumState.for_topology(topo)
        for fiber_ids, layout in zip(cands.fiber_ids, (runs, shuffled)):
            occ, pos = 0, 0
            for length in layout:  # each run followed by one occupied slot
                pos += length
                occ |= 1 << pos
                pos += 1
            occ |= state.full_mask & ~((1 << pos) - 1)  # the rest occupied
            for f in fiber_ids:
                state.occ[f] = occ
        got, expected = kme_ff_against_reference(
            topo, cands, state, request(slots=int(rng.integers(1, runs[0] + 1)))
        )
        assert got == expected
        ranks.add(got[0])
    assert ranks == {0, 1}  # some float folds came out lower on the permuted path


def test_kca_ff_picks_least_congested_path(two_route_topo):
    topo = two_route_topo
    state = SpectrumState.for_topology(topo)
    cands = candidates_of(topo)
    p0, p1 = cands.fiber_ids[:2]
    state.allocate(p0, block_mask(0, 6))  # 60% occupied
    state.allocate(p1, block_mask(0, 2))  # 20% occupied
    fiber_ids, mask = decide(HeuristicKind.KCA_FF, request(slots=2), cands, state)
    assert rank(cands, fiber_ids) == 1
    assert mask == block_mask(2, 2)  # first fit on the chosen path


def test_modulation_infeasible_paths_skipped():
    # direct route is too long for any modulation; detour works
    topo = Topology(
        "reach",
        ["A", "B", "D"],
        [("A", "D", 11_000), ("A", "B", 400), ("B", "D", 400)],
        slots_per_fiber=10,
    )
    cands = topo.candidate_paths("A", "D", 2, PathOrdering.HOPS_THEN_KM)
    assert len(cands.fiber_ids[0]) == 1  # the infeasible one ranks first
    state = SpectrumState.for_topology(topo)
    fiber_ids, _mask = decide(HeuristicKind.KSP_FF, request(rate=50), cands, state, TABLE)
    assert rank(cands, fiber_ids) == 1
    # the 800 km detour runs at 8QAM: 75 Gbps takes 2 slots there, 3 at QPSK
    fiber_ids, mask = decide(HeuristicKind.KSP_FF, request(rate=75), cands, state, TABLE)
    assert rank(cands, fiber_ids) == 1
    assert mask == block_mask(0, 2)


def test_ksp_ff_k1_equals_shortest_path_first_fit(diamond):
    """With one candidate, every policy degenerates to first-fit (or best-fit)
    on the shortest path, for any grid state."""
    from eonsim.spectrum import first_fit, run_shifts

    rng = np.random.default_rng(31)
    cands1 = diamond.candidate_paths("A", "D", 1, PathOrdering.HOPS_THEN_KM)
    shortest = cands1.fiber_ids[0]
    for _ in range(200):
        state = SpectrumState.for_topology(diamond)
        for f in range(state.n_fibers):
            state.occ[f] = int(rng.integers(0, 2**8))
        size = int(rng.integers(1, 4))
        got = decide(HeuristicKind.KSP_FF, request(slots=size), cands1, state)
        start = first_fit(state.occ, shortest, state.full_mask, run_shifts(size))
        if start < 0:
            assert got is None
        else:
            assert got == (shortest, block_mask(start, size))


def test_determinism_and_purity(two_route_topo):
    rng = np.random.default_rng(5)
    topo = two_route_topo
    state = SpectrumState.for_topology(topo)
    cands = candidates_of(topo)
    # random occupancy
    for f in range(state.n_fibers):
        state.occ[f] = int(rng.integers(0, 2**10))
    before = list(state.occ)
    for kind in HeuristicKind:
        first = decide(kind, request(slots=2), cands, state)
        second = decide(kind, request(slots=2), cands, state)
        assert first == second
        assert state.occ == before


def test_ff_ksp_never_starts_above_ksp_ff():
    """Whenever ksp-ff succeeds, ff-ksp's start index is <= ksp-ff's."""
    rng = np.random.default_rng(17)
    topo = Topology(
        "multi",
        ["A", "B", "C", "E", "D"],
        [
            ("A", "B", 100), ("B", "D", 100),
            ("A", "C", 200), ("C", "D", 200),
            ("A", "E", 300), ("E", "D", 300),
        ],
        slots_per_fiber=12,
    )
    cands = candidates_of(topo, k=3)
    for _ in range(300):
        state = SpectrumState.for_topology(topo)
        for f in range(state.n_fibers):
            state.occ[f] = int(rng.integers(0, 2**12))
        req = request(slots=int(rng.integers(1, 4)))
        ksp = decide(HeuristicKind.KSP_FF, req, cands, state)
        ff = decide(HeuristicKind.FF_KSP, req, cands, state)
        if ksp is None:
            assert ff is None
        else:
            # the lowest set bit of a slot mask is 2 ** start
            assert ff[1] & -ff[1] <= ksp[1] & -ksp[1]


def test_decisions_always_allocatable():
    """decide never proposes a block violating continuity or contiguity."""
    rng = np.random.default_rng(23)
    topo = Topology(
        "multi",
        ["A", "B", "C", "D"],
        [("A", "B", 100), ("B", "D", 100), ("A", "C", 300), ("C", "D", 300), ("A", "D", 500)],
        slots_per_fiber=16,
    )
    cands = candidates_of(topo, k=3)
    for _ in range(400):
        state = SpectrumState.for_topology(topo)
        for f in range(state.n_fibers):
            state.occ[f] = int(rng.integers(0, 2**16))
        req = request(rate=float(rng.integers(25, 101)))
        for kind in HeuristicKind:
            placement = decide(kind, req, cands, state, TABLE)
            if placement is not None:
                trial = SpectrumState.for_topology(topo)
                trial.occ = list(state.occ)
                trial.allocate(*placement)


MULTI = Topology(
    "multi",
    ["A", "B", "C", "D"],
    # rank 0 is beyond every reach; the others run 16QAM and 8QAM
    [("A", "B", 100), ("B", "D", 100), ("A", "C", 600), ("C", "D", 600), ("A", "D", 11_000)],
    slots_per_fiber=16,
)
MULTI_CANDIDATES = candidates_of(MULTI, k=3)


@pytest.mark.parametrize("kind", list(HeuristicKind), ids=lambda k: k.value)
@given(
    occ=st.lists(st.integers(0, 2**16 - 1), min_size=MULTI.num_fibers, max_size=MULTI.num_fibers),
    demand=st.one_of(
        st.builds(lambda slots: (request(slots=slots), None), st.integers(1, 6)),
        st.builds(lambda rate: (request(rate=rate), TABLE), st.sampled_from([25.0, 50.0, 100.0, 200.0])),
    ),
    guard=st.integers(0, 1),
)
@settings(max_examples=150, deadline=None)
def test_every_policy_places_one_free_block_of_the_paths_demand(kind, occ, demand, guard):
    """A placement is a candidate's fibers and one contiguous run of exactly the
    demand that candidate's length sets, inside the grid and free on every fiber."""
    req, table = demand
    state = SpectrumState.for_topology(MULTI)
    state.occ = list(occ)
    placement = decide(kind, req, MULTI_CANDIDATES, state, table, guard)
    if placement is None:
        return
    fiber_ids, mask = placement
    assert fiber_ids in MULTI_CANDIDATES.fiber_ids
    r = rank(MULTI_CANDIDATES, fiber_ids)
    size = demand_for_path(req, MULTI_CANDIDATES.lengths_km[r], table, guard)
    start = (mask & -mask).bit_length() - 1
    assert size is not None and start >= 0
    assert mask == block_mask(start, size)
    assert start + size <= state.n_slots
    assert not any(occ[f] & mask for f in fiber_ids)
    assert state.occ == occ  # decide only reads the state


def test_heuristic_names_roundtrip():
    for kind in HeuristicKind:
        assert HeuristicKind.from_name(kind.value) is kind
    with pytest.raises(ValueError, match="unknown heuristic"):
        HeuristicKind.from_name("super-fit")


# Per-seed blocked counts of every policy on one small point per demand
# model (seeds 0-2, 500 warm-up and 2000 measured requests, k=5).  Four
# of the six policies run in no benchmark workload, so these pins are
# what shows a spectrum-search change leaves their decisions unchanged.
PINNED_BLOCKS = {
    ("deeprmsa", "nsfnet", 300.0, PathOrdering.HOPS_THEN_KM): {
        "ksp-ff": [44, 51, 41],
        "ff-ksp": [49, 61, 40],
        "ksp-bf": [46, 59, 49],
        "bf-ksp": [63, 65, 59],
        "kme-ff": [67, 66, 56],
        "kca-ff": [108, 108, 96],
    },
    ("ptrnet-80", "usnet", 200.0, PathOrdering.KM_THEN_HOPS): {
        "ksp-ff": [180, 170, 175],
        "ff-ksp": [141, 139, 122],
        "ksp-bf": [181, 167, 173],
        "bf-ksp": [169, 172, 172],
        "kme-ff": [167, 140, 141],
        "kca-ff": [166, 165, 163],
    },
}


@pytest.mark.parametrize("point", list(PINNED_BLOCKS), ids=lambda p: f"{p[0]}-{p[1]}")
def test_per_seed_blocked_counts_are_pinned(point):
    preset_name, topology, load, ordering = point
    preset = get_preset(preset_name)
    topo = preset.load_topology(topology)
    for name, expected in PINNED_BLOCKS[point].items():
        config = preset.sim_config(
            topo, HeuristicKind(name), 5, ordering, load,
            warmup_requests=500, measured_requests=2000,
        )
        assert [run_trial(config, seed).blocked_count for seed in range(3)] == expected, name
