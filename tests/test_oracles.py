"""Blocking probabilities against closed forms on a single link.

On one fiber of N slots the event loop is a loss system with a known
blocking probability:

* with 1-slot demands every policy is M/M/N/N, so its SBP is Erlang B,
  E(N, A), and every policy admits exactly the same requests;
* Erlang B depends on the holding-time distribution only through its
  mean (insensitivity), so with holding-time truncation the SBP is
  E(N, r A), where r is the truncated mean's ratio to the untruncated;
* with multi-slot demands a full rebuild can pack any set whose total
  fits in N slots, so the defragmentation bound is the multi-rate loss
  system whose per-class blocking follows the Kaufman-Roberts
  recursion.  An online first-fit policy fragments the spectrum and
  blocks measurably more.

Across several links, with one slot per fiber and one route per node
pair (k=1), the network is a product-form loss network whose SBP
follows from enumerating the sets of routes with disjoint fibers.

On a network small enough to list every set of active lightpaths, each
online policy's SBP is exact from the Markov chain over those sets.

The seeds, trial counts and the tolerance in standard errors are fixed
here once; they are not tuned to make a run pass.
"""
import functools
import math

import pytest

from eonsim.bounds import defrag_bound_trial
from eonsim.heuristics import HeuristicKind
from eonsim.simulator import SimConfig, sweep
from eonsim.topology import PathOrdering, Topology
from eonsim.traffic import TrafficConfig
from reference import (
    TRUNCATED_MEAN_ANALYTIC,
    erlang_b,
    kaufman_roberts,
    markov_sbp,
    product_form_sbp,
    reference_k_shortest_paths,
)

N_SLOTS = 20
TRIALS = 8
WARMUP = 3000
MEASURED = 40_000
#: allowed distance from the closed form, in standard errors of the mean SBP
TOLERANCE_SE = 4.0


def link_point(kind, load, slot_choices, trial_runner=None, truncate_holding=False):
    """One swept load on a 2-node single-fiber link of ``N_SLOTS`` slots."""
    topology = Topology(
        "link", ["A", "B"], [("A", "B", 100)], slots_per_fiber=N_SLOTS, fiber_mode="single"
    )
    return swept_point(topology, kind, load, slot_choices, trial_runner, truncate_holding)


def swept_point(
    topology, kind, load, slot_choices, trial_runner=None, truncate_holding=False,
    trials=TRIALS, base_seed=0, k=1,
):
    """One swept load on ``topology``, with ``k`` candidates and fixed-width demands."""
    config = SimConfig(
        topology=topology,
        heuristic=kind,
        k=k,
        ordering=PathOrdering.HOPS_THEN_KM,
        traffic=TrafficConfig(
            load, rate_gbps_range=None, fixed_slot_choices=slot_choices,
            truncate_holding=truncate_holding,
        ),
        warmup_requests=WARMUP,
        measured_requests=MEASURED,
        trials=trials,
        base_seed=base_seed,
    )
    hooks = {} if trial_runner is None else {"trial_runner": trial_runner}
    # results do not depend on jobs, so two processes only halve the wait
    return sweep(config, [load], jobs=2, **hooks).points[0]


def standard_error(point):
    return point.std_sbp / math.sqrt(point.trials)


def test_single_slot_demands_block_as_erlang_b():
    load = 15.0
    points = {kind: link_point(kind, load, (1,)) for kind in HeuristicKind}
    blocked = {
        kind: [r.blocked_count for r in point.results] for kind, point in points.items()
    }
    # every policy admits whenever any slot is free, so all block the same requests
    assert len({tuple(counts) for counts in blocked.values()}) == 1, blocked
    point = points[HeuristicKind.KSP_FF]
    expected = erlang_b(N_SLOTS, load)
    assert expected == pytest.approx(0.045593, abs=5e-7)
    assert abs(point.mean_sbp - expected) <= TOLERANCE_SE * standard_error(point)


def test_truncated_holding_blocks_as_erlang_b_of_the_truncated_mean():
    load = 15.0
    point = link_point(HeuristicKind.KSP_FF, load, (1,), truncate_holding=True)
    expected = erlang_b(N_SLOTS, TRUNCATED_MEAN_ANALYTIC * load)
    assert expected == pytest.approx(0.002513, abs=5e-7)
    assert abs(point.mean_sbp - expected) <= TOLERANCE_SE * standard_error(point)


def test_bound_blocks_as_kaufman_roberts_and_first_fit_does_not():
    load, sizes = 4.0, (1, 2, 3, 4)
    per_class = kaufman_roberts(N_SLOTS, {size: load / len(sizes) for size in sizes})
    # demands are drawn uniformly, so request blocking is the class mean
    expected = sum(per_class.values()) / len(sizes)
    assert expected == pytest.approx(0.047406, abs=5e-7)

    bound = link_point(HeuristicKind.KSP_FF, load, sizes, trial_runner=defrag_bound_trial)
    assert abs(bound.mean_sbp - expected) <= TOLERANCE_SE * standard_error(bound)
    first_fit = link_point(HeuristicKind.KSP_FF, load, sizes)
    assert first_fit.mean_sbp - expected > TOLERANCE_SE * standard_error(first_fit)


@pytest.mark.parametrize("fiber_mode,expected", [("single", 0.43182), ("dual", 0.28806)])
def test_ring_with_one_slot_per_fiber_blocks_as_its_product_form(fiber_mode, expected):
    """A 4-node ring of three 100 km links and one 250 km link, 1 slot per
    fiber, k=1: each ordered pair has one route, taken from the reference
    KSP.  Seeds 2000-2015 were fixed before the first run."""
    topology = Topology(
        "ring", ["A", "B", "C", "D"],
        [("A", "B", 100), ("B", "C", 100), ("C", "D", 100), ("D", "A", 250)],
        slots_per_fiber=1, fiber_mode=fiber_mode,
    )
    routes = [
        reference_k_shortest_paths(topology, src, dst, 1, PathOrdering.HOPS_THEN_KM).fiber_ids[0]
        for src in topology.nodes
        for dst in topology.nodes
        if src != dst
    ]
    load = 2.0
    exact = product_form_sbp(routes, load)
    assert round(exact, 5) == expected
    point = swept_point(topology, HeuristicKind.KSP_FF, load, (1,), trials=16, base_seed=2000)
    assert abs(point.mean_sbp - exact) <= TOLERANCE_SE * standard_error(point)


#: Single-fiber networks for the Markov-chain oracle, at 2 E with demands of 1 or 2
#: slots: name -> (topology, k, first of 16 seeds, {policy: exact SBP to 5 decimals}).
#: The seeds were fixed before the first run.
MARKOV_CASES = {
    "triangle": (
        Topology(
            "triangle", ["A", "B", "C"], [("A", "B", 100), ("B", "C", 100), ("A", "C", 250)],
            slots_per_fiber=3, fiber_mode="single",
        ),
        2,
        4000,
        {"ksp-ff": 0.13206, "ksp-bf": 0.13206, "kme-ff": 0.13879, "ff-ksp": 0.14825,
         "kca-ff": 0.14938, "bf-ksp": 0.17967},
    ),
    "line": (
        Topology(
            "line", ["A", "B", "C"], [("A", "B", 100), ("B", "C", 100)],
            slots_per_fiber=4, fiber_mode="single",
        ),
        1,
        5000,
        {"ksp-ff": 0.21401, "ksp-bf": 0.21243},
    ),
}
MARKOV_LOAD, MARKOV_SLOTS = 2.0, (1, 2)
MARKOV_POLICIES = [(case, kind) for case, spec in MARKOV_CASES.items() for kind in spec[3]]


@functools.cache
def markov_exact(case, kind):
    """The chain's SBP, solved once per module run."""
    topology, k, _seed, _sbps = MARKOV_CASES[case]
    return markov_sbp(kind, topology, k, MARKOV_SLOTS, MARKOV_LOAD)


@pytest.mark.parametrize("case,kind", MARKOV_POLICIES)
def test_markov_chain_gives_the_exact_sbp(case, kind):
    assert round(markov_exact(case, kind), 5) == MARKOV_CASES[case][3][kind]


@pytest.mark.parametrize("case,kind", MARKOV_POLICIES)
def test_online_policy_blocks_as_its_markov_chain(case, kind):
    topology, k, base_seed, _sbps = MARKOV_CASES[case]
    point = swept_point(
        topology, HeuristicKind(kind), MARKOV_LOAD, MARKOV_SLOTS, trials=16,
        base_seed=base_seed, k=k,
    )
    exact = markov_exact(case, kind)
    assert abs(point.mean_sbp - exact) <= TOLERANCE_SE * standard_error(point)
