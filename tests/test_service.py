import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonsim.heuristics import HeuristicKind, decide
from eonsim.service import (
    ModulationFormat,
    ModulationTable,
    demand_for_path,
    slots_required,
)
from eonsim.spectrum import (
    SpectrumState,
    best_fit_run,
    entropy_after_placement,
    first_fit,
    path_congestion,
    run_shifts,
)
from eonsim.topology import PathOrdering
from eonsim.traffic import ServiceRequest
from reference import block_mask

TABLE = ModulationTable.default()


def select(table, length_km):
    """Format the table's compiled length lookup resolves ``length_km`` to."""
    return table._by_length[length_km]


def request(rate=None, slots=None):
    return ServiceRequest(
        id=0, src="A", dst="D", arrival_time=0.0, holding_time=1.0,
        rate_gbps=rate, slots=slots,
    )


# --- modulation selection ---------------------------------------------------

@pytest.mark.parametrize(
    "length,expected",
    [
        (600, "16QAM"),
        (625, "16QAM"),  # inclusive reach boundary
        (626, "8QAM"),
        (1250, "8QAM"),
        (1251, "QPSK"),
        (2500, "QPSK"),
        (2501, "BPSK"),
        (10_000, "BPSK"),
    ],
)
def test_select_modulation(length, expected):
    assert select(TABLE, length).name == expected


def test_select_modulation_beyond_reach():
    assert select(TABLE, 12_000) is None


def test_table_validation():
    with pytest.raises(ValueError, match="strictly decrease"):
        ModulationTable(
            [ModulationFormat("a", 1, 1000), ModulationFormat("b", 2, 1000)]
        )
    with pytest.raises(ValueError, match="positive"):
        ModulationTable([ModulationFormat("a", 1, -5)])
    # a slot at 0 bits per symbol carries nothing: refused when the table is built,
    # not at the first rate request's demand
    with pytest.raises(ValueError, match="bits_per_symbol"):
        ModulationTable([ModulationFormat("a", 0, 9000), ModulationFormat("b", 2, 1000)])
    # no float holds it, so no demand could divide by it
    with pytest.raises(ValueError, match="bits_per_symbol"):
        ModulationTable([ModulationFormat("a", 1, 9000), ModulationFormat("b", 10**400, 1000)])


def test_table_roundtrip_json(tmp_path):
    p = tmp_path / "mods.json"
    p.write_text(
        '{"formats": [{"name": "X", "bits_per_symbol": 1, "max_reach_km": 5000},'
        '{"name": "Y", "bits_per_symbol": 2, "max_reach_km": 1000}]}'
    )
    table = ModulationTable.from_json(p)
    assert select(table, 900).name == "Y"
    assert select(table, 4000).name == "X"


# --- slots required ----------------------------------------------------------

@pytest.mark.parametrize(
    "rate,bits,expected",
    [
        (100, 2, 4),   # ceil(100 / 25)
        (25, 4, 1),    # ceil(25 / 50)
        (12.5, 1, 1),  # exact fit
        (26, 4, 1),
        (51, 4, 2),
        (100, 1, 8),
        (1, 4, 1),     # demand never drops below one slot
    ],
)
def test_slots_required(rate, bits, expected):
    assert slots_required(rate, bits) == expected


@given(st.integers(25, 100), st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=200, deadline=None)
def test_slots_monotone_in_bits(rate, bits):
    if bits < 4:
        assert slots_required(rate, bits) >= slots_required(rate, bits + 1)
    assert slots_required(rate, 1) >= slots_required(rate, bits)


@given(st.integers(25, 99), st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=200, deadline=None)
def test_slots_monotone_in_rate(rate, bits):
    assert slots_required(rate + 1, bits) >= slots_required(rate, bits)


@given(st.floats(1, 12_000))
@settings(max_examples=100, deadline=None)
def test_short_paths_never_beat_bpsk(length):
    fmt = select(TABLE, length)
    if length <= 625:
        assert fmt.bits_per_symbol == 4
    if fmt is not None:
        for rate in (25, 63, 100):
            assert slots_required(rate, fmt.bits_per_symbol) <= slots_required(rate, 1)


# --- demand resolution --------------------------------------------------------

def paths_for(topology):
    return topology.candidate_paths("A", "D", 3, PathOrdering.KM_THEN_HOPS)


def test_demand_uses_path_modulation(diamond):
    short = paths_for(diamond).lengths_km[0]  # 200 km -> 16QAM
    assert short == 200
    # only 16QAM carries 100 Gbps in 2 slots: 8QAM needs 3, QPSK 4, BPSK 8
    assert demand_for_path(request(rate=100), short, TABLE) == 2
    assert demand_for_path(request(rate=100), short, TABLE, guard_slots=1) == 3


def test_demand_fixed_width_skips_table(diamond):
    assert demand_for_path(request(slots=3), paths_for(diamond).lengths_km[0], None) == 3


def test_demand_guard_slots(diamond):
    km = paths_for(diamond).lengths_km[0]
    assert demand_for_path(request(slots=3), km, None, guard_slots=1) == 4


def test_demand_infeasible_beyond_reach():
    from eonsim.topology import Topology

    topo = Topology("long", ["A", "D"], [("A", "D", 11_000)], 8)
    km = topo.candidate_paths("A", "D", 1, PathOrdering.KM_THEN_HOPS).lengths_km[0]
    assert demand_for_path(request(rate=50), km, TABLE) is None


# --- candidate evaluation -------------------------------------------------------
#
# What the policies score a candidate on: its demand, first- and best-fit
# blocks, congestion and the fragmentation entropy after a placement.

def test_evaluate_empty_network(diamond):
    state = SpectrumState.for_topology(diamond)
    paths = paths_for(diamond)
    fiber_ids = paths.fiber_ids[0]
    slots = demand_for_path(request(rate=100), paths.lengths_km[0], TABLE)
    free = state.path_free(fiber_ids)
    assert first_fit(state.occ, fiber_ids, state.full_mask, run_shifts(slots)) == 0
    assert best_fit_run(free, state.n_slots, slots) == (0, state.n_slots)
    assert path_congestion(state, fiber_ids) == 0.0
    assert entropy_after_placement(state, fiber_ids, 0, slots) > 0.0


def test_evaluate_infeasible_path_is_marked():
    from eonsim.topology import Topology

    topo = Topology("long", ["A", "D"], [("A", "D", 11_000)], 8)
    state = SpectrumState.for_topology(topo)
    cands = topo.candidate_paths("A", "D", 1, PathOrdering.KM_THEN_HOPS)
    for kind in HeuristicKind:
        assert decide(kind, request(rate=50), cands, state, TABLE) is None, kind


def test_evaluate_fixed_width_demand_exceeds_free_run(single_link):
    state = SpectrumState.for_topology(single_link)
    cands = single_link.candidate_paths("A", "B", 1, PathOrdering.KM_THEN_HOPS)
    fiber_ids = cands.fiber_ids[0]
    # leave only a 2-slot free run
    state.allocate(fiber_ids, block_mask(0, 4))
    state.allocate(fiber_ids, block_mask(6, 4))
    assert demand_for_path(request(slots=3), cands.lengths_km[0], None) == 3
    assert first_fit(state.occ, fiber_ids, state.full_mask, run_shifts(3)) == -1
    for kind in HeuristicKind:
        assert decide(kind, request(slots=3), cands, state) is None, kind


def test_evaluate_is_pure(diamond):
    state = SpectrumState.for_topology(diamond)
    state.allocate(paths_for(diamond).fiber_ids[1], block_mask(2, 3))
    before = list(state.occ)
    for fiber_ids in paths_for(diamond).fiber_ids:
        state.path_free(fiber_ids)
        path_congestion(state, fiber_ids)
        entropy_after_placement(state, fiber_ids, 0, 2)
    assert state.occ == before
