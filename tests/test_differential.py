"""Differential check of every policy and the defragmentation bound.

The package's event loop and replay rebuild run side by side with the
naive reference in ``reference.py`` on small random networks, and must
agree after every arrival: the outcome, every active placement and the
occupancy of every fiber.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eonsim.heuristics import HeuristicKind
from eonsim.service import ModulationFormat, ModulationTable
from eonsim.simulator import SimConfig, run_stream
from eonsim.topology import PathOrdering, Topology
from eonsim.traffic import TrafficConfig, generate_stream
from observe import observe_bound_trial
from reference import block_mask, pack_bits, random_connected_graph, reference_trial

#: (bits per symbol, reach in km) of the default table, scaled per example
BASE_FORMATS = ((1, 10_000.0), (2, 2_500.0), (3, 1_250.0), (4, 625.0))

FIRST_FIT_KINDS = [HeuristicKind.KSP_FF, HeuristicKind.FF_KSP]
SCAN_ALL_KINDS = [HeuristicKind.KSP_BF, HeuristicKind.BF_KSP, HeuristicKind.KME_FF, HeuristicKind.KCA_FF]


@st.composite
def scenarios(draw, kinds):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes, links = random_connected_graph(rng, max_nodes=5)
    topology = Topology(
        "random", nodes, links,
        slots_per_fiber=draw(st.integers(4, 12)),
        fiber_mode=draw(st.sampled_from(["dual", "single"])),
    )
    load = draw(st.floats(1.0, 8.0))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([0.1, 0.3, 1.0]))
        formats = [(bits, reach * scale) for bits, reach in BASE_FORMATS]
        table = ModulationTable([ModulationFormat(f"m{b}", b, r) for b, r in formats])
        traffic = TrafficConfig(load, rate_gbps_range=(25, 100))
    else:
        formats, table = [], None
        choices = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        traffic = TrafficConfig(
            load, rate_gbps_range=None, fixed_slot_choices=tuple(choices)
        )
    warmup = draw(st.integers(0, 10))
    config = SimConfig(
        topology=topology,
        heuristic=draw(st.sampled_from(kinds)),
        k=draw(st.integers(1, 4)),
        ordering=draw(st.sampled_from(list(PathOrdering))),
        traffic=traffic,
        warmup_requests=warmup,
        measured_requests=draw(st.integers(20, 60)),
        modulation=table,
        guard_slots=draw(st.integers(0, 2)),
    )
    stream = generate_stream(traffic, config.total_requests, nodes, draw(st.integers(0, 999)))
    return config, formats, stream


def package_events(config, stream, bound):
    """(outcomes, per-arrival occupancies, per-arrival placements) of the package."""
    occupancies, placements = [], []

    def record(state, active):
        occupancies.append(list(state.occ))
        placements.append({rid: (rec[0], rec[1]) for rid, rec in active.records.items()})

    if not bound:
        blocked = run_stream(config, stream, on_event=record)
        outcomes = [
            "direct" if r.id in placed else "blocked" for r, placed in zip(stream, placements)
        ]
        assert blocked == outcomes[config.warmup_requests :].count("blocked")
        return outcomes, occupancies, placements

    result, outcomes = observe_bound_trial(config, stream, on_event=record)
    measured = outcomes[config.warmup_requests :]
    assert result.direct_count == measured.count("direct")
    assert result.defrag_count == measured.count("defrag")
    assert result.blocked_count == measured.count("blocked")
    return outcomes, occupancies, placements


def assert_matches_reference(config, formats, stream, bound):
    topology = config.topology

    def candidates_of(request):
        return topology.candidate_paths(request.src, request.dst, config.k, config.ordering)

    expected = reference_trial(
        config.heuristic.value, stream, candidates_of, topology.num_fibers,
        topology.slots_per_fiber, formats, 12.5, config.guard_slots, bound,
    )
    outcomes, occupancies, placements = package_events(config, stream, bound)
    assert len(outcomes) == len(expected) == len(stream)
    for i, (outcome, grids, placed) in enumerate(expected):
        assert outcomes[i] == outcome, i
        assert placements[i] == {rid: (f, block_mask(s, n)) for rid, (f, s, n) in placed.items()}, i
        assert occupancies[i] == [pack_bits(g) for g in grids], i


@given(scenarios(FIRST_FIT_KINDS), st.booleans())
@settings(max_examples=300, deadline=None)
def test_first_fit_loop_and_rebuild_match_reference(scenario, bound):
    assert_matches_reference(*scenario, bound)


@given(scenarios(SCAN_ALL_KINDS))
@settings(max_examples=200, deadline=None)
def test_scan_all_loop_matches_reference(scenario):
    assert_matches_reference(*scenario, bound=False)
