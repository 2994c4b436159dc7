import math
import warnings
from unittest import mock

import pytest

from eonsim import bounds
from eonsim.bounds import (
    CrossingNotBracketedError,
    bound_sweep,
    capacity_gain,
    crossing_load,
    defrag_bound_trial,
    write_bound_trials_csv,
    write_gain_report,
)
from eonsim.heuristics import HeuristicKind
from eonsim.presets import get_preset
from eonsim.service import ModulationFormat, ModulationTable
from eonsim.simulator import (
    LoadPoint,
    SimConfig,
    SimConfigError,
    TrialResult,
    run_stream,
    run_trial,
    sweep,
)
from eonsim.spectrum import run_shifts
from eonsim.topology import PathOrdering, Topology
from eonsim.traffic import ServiceRequest, TrafficConfig, generate_stream
from observe import observe_bound_trial
from reference import block_mask, dominance_gap, pack_bits, reference_rebuild

ORDER = PathOrdering.HOPS_THEN_KM


def req(rid, arrival, holding=10.0, slots=1, src="A", dst="B"):
    return ServiceRequest(
        id=rid, src=src, dst=dst, arrival_time=arrival, holding_time=holding, slots=slots
    )


def wire(slots=4):
    return Topology("wire", ["A", "B"], [("A", "B", 100)], slots_per_fiber=slots,
                    fiber_mode="single")


def wire_config(topology, n_measured, **kw):
    base = dict(
        topology=topology,
        heuristic=HeuristicKind.KSP_FF,
        k=1,
        ordering=ORDER,
        traffic=TrafficConfig(
            1.0, rate_gbps_range=None, fixed_slot_choices=(1,)
        ),
        warmup_requests=0,
        measured_requests=n_measured,
    )
    base.update(kw)
    return SimConfig(**base)


def active_counts(trial, cfg, stream):
    """A trial's outcome on ``stream`` and the lightpath count after each arrival.

    ``trial`` is ``run_stream``, whose outcome is its measured block
    count, or ``defrag_bound_trial``, whose outcome is its result.
    """
    counts = []

    def record(state, active):
        counts.append(len(active.records))

    if trial is run_stream:
        return run_stream(cfg, stream, on_event=record), counts
    return observe_bound_trial(cfg, stream, on_event=record)[0], counts


# --- rebuild order -----------------------------------------------------------

def rebuild_entry(topology, request):
    """The rebuild entry ``defrag_bound_trial`` makes for a fixed-slot request, with k=1."""
    candidates = topology.candidate_paths(request.src, request.dst, 1, ORDER)
    fiber_ids, slots = candidates.fiber_ids[0], request.slots
    rank0 = (fiber_ids, slots, run_shifts(slots))
    return (-slots * len(fiber_ids), request, candidates, rank0)


def placed_blocks(cfg, requests):
    """``_rebuild`` on the requests' entries in arrival order: [(id, slot mask)] as placed."""
    rebuilt = bounds._rebuild(cfg, [rebuild_entry(cfg.topology, r) for r in requests])
    return [(rid, mask) for rid, (_f, mask, _entry) in rebuilt[1].items()]


def test_sort_descending_by_product():
    line = Topology("line", ["A", "B", "C"], [("A", "B", 100), ("B", "C", 100)],
                    slots_per_fiber=8, fiber_mode="single")
    b = req(0, 1.0, slots=3)  # 3 slots x 1 hop = 3
    a = req(1, 2.0, slots=2, dst="C")  # 2 slots x 2 hops = 4
    assert placed_blocks(wire_config(line, 1), [b, a]) == [
        (1, block_mask(0, 2)), (0, block_mask(2, 3))
    ]


def test_sort_tie_breaks_on_arrival():
    x = req(0, 1.0, slots=1)
    b = req(1, 2.0, slots=2)
    a = req(2, 5.0, slots=2)
    assert placed_blocks(wire_config(wire(8), 1), [x, b, a]) == [
        (1, block_mask(0, 2)), (2, block_mask(2, 2)), (0, block_mask(4, 1))
    ]


# --- defrag trial semantics ------------------------------------------------------

def test_hand_traced_defrag_on_four_slots():
    """Fragmented single link: defrag repacks and admits the big request."""
    topo = wire(4)
    cfg = wire_config(topo, n_measured=3)
    stream = [
        req(0, arrival=1.0, holding=1.5, slots=1),  # expires at 2.5
        req(1, arrival=2.0, holding=50.0, slots=1),  # takes slot 1, long lived
        req(2, arrival=3.0, holding=50.0, slots=3),  # needs 3 contiguous
    ]
    result, outcomes = observe_bound_trial(cfg, stream)
    assert outcomes == ("direct", "direct", "defrag")
    assert result.blocked_count == 0
    assert result.defrag_count == 1


def test_defrag_rebuild_actually_repacks():
    """After adoption the rebuilt placements hold: big request first, gap filled."""
    topo = wire(4)
    cfg = wire_config(topo, n_measured=3)
    stream = [
        req(0, arrival=1.0, holding=1.5, slots=1),
        req(1, arrival=2.0, holding=50.0, slots=1),
        req(2, arrival=3.0, holding=50.0, slots=3),
    ]
    # replicate by running the plain loop first: direct allocation must fail
    assert run_stream(cfg, stream) == 1  # without defrag the 3-slot request blocks

    result, counts = active_counts(defrag_bound_trial, cfg, stream)
    assert result.blocked_count == 0
    assert max(counts) == 2


def test_pigeonhole_block_survives_defrag():
    """Demand exceeding link capacity blocks even with reconfiguration."""
    topo = wire(4)
    cfg = wire_config(topo, n_measured=3)
    stream = [
        req(0, arrival=1.0, holding=50.0, slots=2),
        req(1, arrival=2.0, holding=50.0, slots=2),
        req(2, arrival=3.0, holding=50.0, slots=2),  # 6 slots total > 4
    ]
    result, outcomes = observe_bound_trial(cfg, stream)
    assert outcomes == ("direct", "direct", "blocked")
    assert result.blocked_count == 1


def rebuilds_checked_against_reference(cfg, stream, formats):
    """Run a bound trial on ``stream``, checking every rebuild against the reference.

    Returns each arrival's outcome and each rebuild's placements as
    {id: (fiber_ids, start, size)}.
    """
    topo = cfg.topology
    real_rebuild = bounds._rebuild
    rebuilds = []

    def candidates_of(request):
        return topo.candidate_paths(request.src, request.dst, cfg.k, cfg.ordering)

    def checked_rebuild(config, entries):
        requests = [entry[1] for entry in entries]
        rebuilt = real_rebuild(config, entries)
        expected = reference_rebuild(
            cfg.heuristic.value, requests, candidates_of, topo.num_fibers,
            topo.slots_per_fiber, formats, 12.5, cfg.guard_slots,
        )
        assert (rebuilt is None) == (expected is None)
        if rebuilt is not None:
            state, records = rebuilt
            grids, placed = expected
            got = {rid: (f, mask) for rid, (f, mask, _entry) in records.items()}
            assert got == {rid: (f, block_mask(s, n)) for rid, (f, s, n) in placed.items()}
            by_id = {entry[1].id: entry for entry in entries}  # each record keeps its entry
            assert all(entry is by_id[rid] for rid, (_f, _b, entry) in records.items())
            assert state.occ == [pack_bits(g) for g in grids]
            rebuilds.append(got)
        return rebuilt

    with mock.patch("eonsim.bounds._rebuild", checked_rebuild):
        _result, outcomes = observe_bound_trial(cfg, stream)
    return outcomes, rebuilds


def test_rebuild_skips_rank0_beyond_every_reach():
    """A stand-in demand orders the rebuild but is never placed on rank 0.

    A->D's one-hop rank-0 path is beyond every reach, so its requests
    use A-B-D; B->D's rank-0 path is in reach and takes the inline fit.
    """
    topo = Topology("tri", ["A", "B", "D"], [("A", "D", 5000), ("A", "B", 100), ("B", "D", 100)],
                    slots_per_fiber=8, fiber_mode="single")
    formats = [(1, 1000.0), (2, 500.0)]
    table = ModulationTable([ModulationFormat(f"m{b}", b, r) for b, r in formats])
    cfg = wire_config(topo, n_measured=4, k=2, modulation=table,
                      traffic=TrafficConfig(1.0, rate_gbps_range=(25, 100)))

    def rate_req(rid, arrival, holding, rate, src="A"):
        return ServiceRequest(id=rid, src=src, dst="D", arrival_time=arrival,
                              holding_time=holding, rate_gbps=rate)

    stream = [
        rate_req(0, 1.0, 3.5, 50.0),  # A-B-D [0, 2), gone before request 3
        rate_req(1, 2.0, 50.0, 50.0, src="B"),  # B-D [2, 4)
        rate_req(2, 3.0, 50.0, 50.0),  # A-B-D [4, 6)
        rate_req(3, 5.0, 50.0, 100.0),  # 4 slots: free {0, 1, 6, 7} is fragmented
    ]
    outcomes, rebuilds = rebuilds_checked_against_reference(cfg, stream, formats)
    assert outcomes == ("direct",) * 3 + ("defrag",)
    a_b_d = topo.candidate_paths("A", "D", 2, ORDER).fiber_ids[1]
    b_d = topo.candidate_paths("B", "D", 2, ORDER).fiber_ids[0]
    # stand-in footprints 8 and 4 put requests 3 and 2 ahead of request 1's 2
    assert rebuilds == [
        {3: (a_b_d, block_mask(0, 4)), 2: (a_b_d, block_mask(4, 2)), 1: (b_d, block_mask(6, 2))}
    ]


def test_ff_ksp_rebuild_prefers_a_later_rank_at_slot_zero():
    """Under ff-ksp a rank-0 fit past slot 0 loses to a later rank's fit at slot 0."""
    topo = Topology("tri", ["A", "B", "D"], [("A", "D", 100), ("A", "B", 100), ("B", "D", 100)],
                    slots_per_fiber=4, fiber_mode="single")
    cfg = wire_config(topo, n_measured=7, k=2, heuristic=HeuristicKind.FF_KSP)
    stream = [
        req(0, 1.0, holding=50.0, dst="D"),  # A-D slot 0
        req(1, 2.0, holding=50.0, dst="D"),  # A-B-D slot 0
        req(2, 3.0, holding=0.5, dst="D"),  # A-D slot 1, gone before request 6
        req(3, 3.1, holding=0.4, dst="D"),  # A-B-D slot 1, gone before request 6
        req(4, 3.2, holding=50.0, dst="D"),  # A-D slot 2
        req(5, 3.3, holding=50.0, dst="D"),  # A-B-D slot 2
        req(6, 4.0, holding=50.0, slots=2, dst="D"),  # both paths free only {1, 3}
    ]
    outcomes, rebuilds = rebuilds_checked_against_reference(cfg, stream, [])
    assert outcomes == ("direct",) * 6 + ("defrag",)
    a_d, a_b_d = topo.candidate_paths("A", "D", 2, ORDER).fiber_ids
    # request 6 takes A-D [0, 2); request 0 then fits A-D only at slot 2
    assert rebuilds == [
        {
            6: (a_d, block_mask(0, 2)), 0: (a_b_d, block_mask(0, 1)), 1: (a_b_d, block_mask(1, 1)),
            4: (a_d, block_mask(2, 1)), 5: (a_b_d, block_mask(2, 1)),
        }
    ]


def test_first_request_on_empty_network_is_direct():
    topo = wire(4)
    cfg = wire_config(topo, n_measured=1)
    result, outcomes = observe_bound_trial(cfg, [req(0, 1.0)])
    assert outcomes == ("direct",)
    assert result.defrag_count == 0


def outcomes_without_rebuild(cfg, stream):
    """Each arrival's outcome in a bound trial on ``stream``, failing if it calls ``_rebuild``."""
    with mock.patch("eonsim.bounds._rebuild", side_effect=AssertionError("a rebuild ran")):
        return observe_bound_trial(cfg, stream)[1]


def test_oversized_request_blocks_without_rebuild():
    """A request larger than the whole grid cannot trigger useless rebuilds."""
    topo = wire(4)
    cfg = wire_config(topo, n_measured=2)
    stream = [req(0, 1.0, slots=1), req(1, 2.0, slots=5)]
    assert outcomes_without_rebuild(cfg, stream) == ("direct", "blocked")


@pytest.mark.parametrize("heuristic", bounds.INNER_HEURISTICS)
def test_request_beyond_every_reach_blocks_without_rebuild(heuristic):
    """A rate request no candidate path can carry blocks without a rebuild."""
    topo = Topology("tri", ["A", "B", "D"], [("A", "B", 100), ("A", "D", 5000), ("B", "D", 5000)],
                    slots_per_fiber=8, fiber_mode="single")
    table = ModulationTable([ModulationFormat("m1", 1, 1000.0), ModulationFormat("m2", 2, 500.0)])
    cfg = wire_config(topo, n_measured=2, k=2, heuristic=heuristic, modulation=table,
                      traffic=TrafficConfig(1.0, rate_gbps_range=(25, 100)))
    stream = [
        ServiceRequest(id=0, src="A", dst="B", arrival_time=1.0, holding_time=50.0,
                       rate_gbps=50.0),  # A-B is in reach
        ServiceRequest(id=1, src="A", dst="D", arrival_time=2.0, holding_time=50.0,
                       rate_gbps=50.0),  # A-D and A-B-D are both beyond 1000 km
    ]
    assert outcomes_without_rebuild(cfg, stream) == ("direct", "blocked")


def test_inner_heuristic_restricted():
    cfg = wire_config(wire(4), n_measured=1, heuristic=HeuristicKind.KME_FF)
    with pytest.raises(SimConfigError, match="inner heuristic"):
        defrag_bound_trial(cfg, seed=0)


def test_defrag_counts_partition_measured_window():
    preset = get_preset("deeprmsa")
    topo = preset.load_topology("nsfnet")
    cfg = preset.sim_config(
        topo, HeuristicKind.KSP_FF, 5, ORDER, 380.0,
        warmup_requests=500, measured_requests=2000,
    )
    stream = generate_stream(cfg.traffic, cfg.total_requests, topo.nodes, 3)
    result, outcomes = observe_bound_trial(cfg, stream, seed=3)
    assert result.direct_count + result.defrag_count + result.blocked_count == 2000
    assert len(outcomes) == 2500
    assert result.defrag_count > 0


@pytest.mark.parametrize("load", [300.0, 380.0])
def test_counted_outcomes_match_recorded_ones(load):
    """The trial counts its measured outcomes itself; the counts must
    equal those read off every arrival through the event loop's hooks.

    The warm-up is long enough to see rebuilds, which must not count.
    """
    preset = get_preset("deeprmsa")
    topo = preset.load_topology("nsfnet")
    cfg = preset.sim_config(
        topo, HeuristicKind.KSP_FF, 5, ORDER, load,
        warmup_requests=1000, measured_requests=800,
    )
    warmup_defrags = 0
    for seed in (0, 1, 2):
        counted = defrag_bound_trial(cfg, seed)
        stream = generate_stream(cfg.traffic, cfg.total_requests, topo.nodes, seed)
        observed, outcomes = observe_bound_trial(cfg, stream, seed=seed)
        assert observed == counted  # observing the trial does not change it
        measured = outcomes[cfg.warmup_requests :]
        assert (counted.blocked_count, counted.direct_count, counted.defrag_count) == (
            measured.count("blocked"),
            measured.count("direct"),
            measured.count("defrag"),
        )
        warmup_defrags += outcomes[: cfg.warmup_requests].count("defrag")
    assert warmup_defrags > 0


def test_a_bound_trial_can_block_more_than_its_heuristic():
    """The bound holds for mean SBP, not per seed: a pinned counterexample.

    This is the tiny ``eonsim bound`` run of CI (nsfnet on 8 slots, k=2,
    10 + 50 requests).  On seed 0 one rebuild is adopted, and the greedy
    rebuild's state then blocks more later requests than ksp-ff does on
    the same stream.  The ``bounds`` module docstring and the README
    state the bound for the mean over trials only.
    """
    preset = get_preset("deeprmsa")
    topo = preset.load_topology("nsfnet", slots_per_fiber=8)
    cfg = preset.sim_config(
        topo, HeuristicKind.KSP_FF, 2, ORDER, 300.0, warmup_requests=10, measured_requests=50
    )
    heuristic, bound = run_trial(cfg, 0), defrag_bound_trial(cfg, 0)
    assert (heuristic.blocked_count, bound.blocked_count, bound.defrag_count) == (22, 23, 1)


def test_no_blocking_means_bound_equals_heuristic():
    preset = get_preset("deeprmsa")
    topo = preset.load_topology("nsfnet")
    cfg = preset.sim_config(
        topo, HeuristicKind.KSP_FF, 5, ORDER, 120.0,
        warmup_requests=200, measured_requests=1500,
    )
    for seed in (0, 1):
        stream = generate_stream(cfg.traffic, cfg.total_requests, topo.nodes, seed)
        h, h_counts = active_counts(run_stream, cfg, stream)
        b, b_counts = active_counts(defrag_bound_trial, cfg, stream)
        assert h == b.blocked_count == 0
        assert max(h_counts) == max(b_counts)


def test_bound_dominates_heuristic_small_scale():
    preset = get_preset("deeprmsa")
    topo = preset.load_topology("nsfnet")
    cfg = preset.sim_config(
        topo, HeuristicKind.KSP_FF, 5, ORDER, 380.0,
        warmup_requests=500, measured_requests=2500, trials=3,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        heur = sweep(cfg, [380.0])
        bound = sweep(cfg, [380.0], trial_runner=defrag_bound_trial)
    mean_diff, se = dominance_gap(heur.points[0], bound.points[0])
    assert mean_diff <= max(2 * se, 0.0) + 1e-12
    assert bound.points[0].mean_sbp < heur.points[0].mean_sbp


def test_rebuild_entries_arrive_in_arrival_order():
    """``_rebuild`` sorts on the footprint alone, so its input must be in (arrival, id) order."""
    preset = get_preset("deeprmsa")
    topo = preset.load_topology("nsfnet")
    cfg = preset.sim_config(
        topo, HeuristicKind.KSP_FF, 5, ORDER, 380.0,
        warmup_requests=500, measured_requests=1500, trials=1,
    )
    real_rebuild = bounds._rebuild
    orders = []

    def recorded_rebuild(config, entries):
        orders.append([(entry[1].arrival_time, entry[1].id) for entry in entries])
        return real_rebuild(config, entries)

    with mock.patch("eonsim.bounds._rebuild", recorded_rebuild):
        defrag_bound_trial(cfg, seed=0)
    assert len(orders) > 5
    for order in orders:
        assert order == sorted(order) and len(set(order)) == len(order)


# --- crossing interpolation ---------------------------------------------------------

def point(load, sbp, trials=4, measured=10_000):
    results = tuple(
        TrialResult(seed=s, blocked_count=round(sbp * measured), total_measured=measured)
        for s in range(trials)
    )
    return LoadPoint(load_erlangs=load, results=results)


def test_crossing_log_linear_interpolation():
    pts = [point(100, 4e-4), point(120, 2e-3)]
    expected = 100 + 20 * (math.log(1e-3) - math.log(4e-4)) / (
        math.log(2e-3) - math.log(4e-4)
    )
    assert crossing_load(pts, 1e-3) == pytest.approx(expected)


def test_crossing_exact_hit_on_grid_point():
    pts = [point(100, 1e-4), point(150, 1e-3), point(200, 1e-2)]
    assert crossing_load(pts, 1e-3) == pytest.approx(150.0)


def test_crossing_uses_last_bracket():
    # noisy low-load wobble: 2e-3, then dip, then the real crossing
    pts = [point(80, 2e-4), point(100, 8e-4), point(120, 6e-4), point(140, 4e-3)]
    got = crossing_load(pts, 1e-3)
    assert 120 < got < 140


def test_crossing_not_bracketed_raises_diagnostic():
    pts = [point(100, 2e-3), point(120, 5e-3)]
    with pytest.raises(CrossingNotBracketedError, match="heur-curve"):
        crossing_load(pts, 1e-4, label="heur-curve")


def test_crossing_handles_zero_sbp_floor():
    pts = [point(100, 0.0), point(140, 4e-3)]
    got = crossing_load(pts, 1e-3)
    assert 100 < got < 140


def test_gain_report_math(tmp_path):
    from eonsim.bounds import CapacityGainReport

    report = CapacityGainReport(target_sbp=1e-3, heuristic_load=250.0, bound_load=300.0)
    assert report.relative_gain == pytest.approx(0.2)
    out = tmp_path / "gain.json"
    write_gain_report(report, out)
    import json

    doc = json.loads(out.read_text())
    assert doc["relative_gain"] == pytest.approx(0.2)


# --- CSV output -----------------------------------------------------------------------

def test_bound_csv_writers(tmp_path):
    topo = wire(8)
    cfg = wire_config(
        topo, n_measured=200,
        traffic=TrafficConfig(4.0, rate_gbps_range=None,
                              fixed_slot_choices=(1, 2, 3)),
        trials=2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = sweep(cfg, [4.0], trial_runner=defrag_bound_trial)
    path = tmp_path / "bound_trials.csv"
    write_bound_trials_csv(result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "load_erlangs,trial,seed,blocked,total,sbp,direct,defrag"
    assert len(lines) == 3

    # plain trials have no bound counts, so they cannot fill the bound columns
    plain = sweep(cfg, [4.0])
    with pytest.raises(AttributeError, match="direct_count"):
        write_bound_trials_csv(plain, tmp_path / "plain.csv")


def test_bound_sweep_end_to_end_tiny():
    """bound_sweep brackets a 10% target on a deliberately tiny system."""
    topo = wire(8)
    cfg = wire_config(
        topo, n_measured=600,
        traffic=TrafficConfig(3.0, rate_gbps_range=None,
                              fixed_slot_choices=(1, 2, 3)),
        trials=3,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        heuristic, bound = bound_sweep(cfg, [1.0, 1.5, 2.0])
    gain = capacity_gain(heuristic, bound, 0.1)
    assert gain.bound_load >= gain.heuristic_load
    assert gain.relative_gain >= 0.0
    for hp, bp in zip(heuristic.points, bound.points):
        assert bp.mean_sbp <= hp.mean_sbp + 1e-12


def test_bound_sweep_keeps_sweeps_when_crossing_not_bracketed():
    cfg = wire_config(wire(8), n_measured=200, trials=2)
    with pytest.warns(UserWarning, match="noisy"):
        heuristic, bound = bound_sweep(cfg, [0.5, 1.0])
    assert [p.trials for p in bound.points] == [2, 2]
    assert [p.load_erlangs for p in heuristic.points] == [0.5, 1.0]
    with pytest.raises(CrossingNotBracketedError, match="heuristic"):
        capacity_gain(heuristic, bound, 0.1)


def test_bound_sweep_rejects_scan_all_policy_before_any_trial(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(bounds, "sweep", no_trials)
    monkeypatch.setattr(bounds, "defrag_bound_trial", no_trials)
    cfg = wire_config(wire(4), n_measured=1, heuristic=HeuristicKind.KME_FF)
    with pytest.raises(SimConfigError, match="inner heuristic"):
        bound_sweep(cfg, [1.0, 2.0])
