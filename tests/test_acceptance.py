"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (visible with ``pytest -s``);
a failed assertion is the FAIL line.  The heavy criteria reuse shared
session-scoped sweeps.  Loads are pinned from calibration runs so every
test is deterministic; seeds are fixed.

Run with::

    pytest tests/test_acceptance.py -s -v
"""
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from eonsim.bounds import crossing_load, defrag_bound_trial
from eonsim.cli import main
from eonsim.heuristics import HeuristicKind
from eonsim.presets import get_preset
from eonsim.simulator import estimate_warmup, run_stream, sweep, warmup_slope
from eonsim.spectrum import best_fit_run, first_fit, run_shifts
from eonsim.topology import PathOrdering, Topology, k_shortest_paths
from eonsim.traffic import TRUNCATED_MEAN_RATIO, generate_stream
from reference import (
    active_slot_links,
    best_fit_oracle,
    dominance_gap,
    first_fit_oracle,
    ksp_oracle,
    node_seq,
    occupied_slot_count,
    pack_bits,
    path_free_mask,
    random_connected_graph,
)

HOPS = PathOrdering.HOPS_THEN_KM
KM = PathOrdering.KM_THEN_HOPS


def report(criterion: int, name: str) -> None:
    print(f"\nACCEPTANCE {criterion} ({name}): PASS")


# --- shared sweeps (criteria 5 and 6) ----------------------------------------


def _paired_curves(preset_name, topology_name, loads, trials, heuristic, k=50):
    preset = get_preset(preset_name)
    topo = preset.load_topology(topology_name)
    cfg = preset.sim_config(
        topo, heuristic, k, HOPS, loads[0], trials=trials, base_seed=100
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        heur = sweep(cfg, loads, jobs=2)
        bound = sweep(cfg, loads, jobs=2, trial_runner=defrag_bound_trial)
    return heur, bound


@pytest.fixture(scope="module")
def deeprmsa_curves():
    return _paired_curves(
        "deeprmsa", "nsfnet", [240, 270, 300, 330, 360], 10, HeuristicKind.KSP_FF
    )


@pytest.fixture(scope="module")
def ptrnet40_curves():
    return _paired_curves(
        "ptrnet-40", "nsfnet", [190, 210, 230, 250, 270], 10, HeuristicKind.KSP_FF
    )


@pytest.fixture(scope="module")
def maskrsa_curves():
    return _paired_curves(
        "maskrsa", "nsfnet", [105, 115], 5, HeuristicKind.KSP_FF
    )


# --- criterion 1: holding-time truncation constant ------------------------------


def test_criterion_1_truncation_constant(capsys):
    t0 = time.perf_counter()
    code = main(["truncation-demo", "--samples", "1000000", "--seed", "11"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    out = capsys.readouterr().out
    ratio_line = next(l for l in out.splitlines() if l.startswith("mean ratio"))
    ratio = float(ratio_line.split()[2])
    assert abs(ratio - TRUNCATED_MEAN_RATIO) < 0.005
    assert elapsed < 1.0, f"truncation demo took {elapsed:.2f}s"
    report(1, "truncation constant 0.687 within ±0.005, under 1 s")


# --- criterion 2: warm-up whisker-max slope --------------------------------------


def test_criterion_2_warmup_slope():
    loads = list(range(50, 1001, 50))
    estimates = [estimate_warmup(load, trials=100, seed=20) for load in loads]
    slope, intercept = warmup_slope(estimates)
    assert 6.0 <= slope <= 8.0, f"whisker-max slope {slope:.2f} outside 7 ± 1"
    whisker_100 = next(e for e in estimates if e.load_erlangs == 100).whisker_max
    assert 450 <= whisker_100 <= 1000, (
        f"whisker max at load 100 is {whisker_100}, expected near 7x100"
    )
    report(2, f"warm-up slope {slope:.2f} in 7 ± 1")


# --- criterion 3: SBP non-increasing in K ------------------------------------------


def test_criterion_3_k_monotonicity():
    preset = get_preset("deeprmsa")
    topo = preset.load_topology("nsfnet")
    means = {}
    for k in (2, 5, 10, 20, 50):
        cfg = preset.sim_config(
            topo, HeuristicKind.KSP_FF, k, HOPS, 300.0, trials=10, base_seed=500
        )
        result = sweep(cfg, [300.0], jobs=2)
        means[k] = result.points[0].mean_sbp
    ks = [2, 5, 10, 20, 50]
    assert 1e-3 < means[5] < 1e-1, "calibrated load should sit near 1e-2 SBP"
    for a, b in zip(ks, ks[1:]):
        assert means[a] >= means[b], (
            f"mean SBP rose from k={a} ({means[a]:.5f}) to k={b} ({means[b]:.5f})"
        )
    report(3, "mean SBP non-increasing over K in {2,5,10,20,50}")


# --- criterion 4: hop ordering beats km ordering --------------------------------------


def test_criterion_4_ordering_effect():
    preset = get_preset("deeprmsa")
    topo = preset.load_topology("nsfnet")
    means = {}
    for ordering in (KM, HOPS):
        cfg = preset.sim_config(
            topo, HeuristicKind.KSP_FF, 5, ordering, 240.0, trials=10, base_seed=500
        )
        result = sweep(cfg, [240.0], jobs=2)
        means[ordering] = result.points[0].mean_sbp
    assert 3e-3 < means[KM] < 3e-2, "calibrated load should give km-ordering SBP near 1e-2"
    assert means[HOPS] <= 0.7 * means[KM], (
        f"hops ordering SBP {means[HOPS]:.5f} not 30% below km {means[KM]:.5f}"
    )
    report(
        4,
        f"hops ordering SBP {means[HOPS]:.4f} vs km {means[KM]:.4f} "
        f"({1 - means[HOPS] / means[KM]:.0%} lower)",
    )


# --- criterion 5: bound dominance everywhere tested --------------------------------------


def test_criterion_5_bound_dominance(deeprmsa_curves, ptrnet40_curves, maskrsa_curves):
    tested = {
        "deeprmsa/nsfnet": deeprmsa_curves,
        "ptrnet-40/nsfnet": ptrnet40_curves,
        "maskrsa/nsfnet": maskrsa_curves,
    }
    for case, (heur, bound) in tested.items():
        for hp, bp in zip(heur.points, bound.points):
            mean_diff, se = dominance_gap(hp, bp)
            assert mean_diff <= 2 * se + 1e-12, (
                f"{case} load {hp.load_erlangs}: bound SBP exceeds heuristic "
                f"by {mean_diff:.2e} (> 2 se = {2 * se:.2e})"
            )
    report(5, "bound mean SBP <= heuristic mean SBP at every tested point")


# --- criterion 6: capacity-gain brackets ----------------------------------------------------


def test_criterion_6_capacity_gain(deeprmsa_curves, ptrnet40_curves):
    heur, bound = deeprmsa_curves
    flex_gain = (
        crossing_load(bound.points, 1e-3, label="deeprmsa bound")
        - crossing_load(heur.points, 1e-3, label="deeprmsa heuristic")
    ) / crossing_load(heur.points, 1e-3, label="deeprmsa heuristic")
    assert 0.15 <= flex_gain <= 0.45, f"flex-grid capacity gain {flex_gain:.1%}"

    heur40, bound40 = ptrnet40_curves
    fixed_gain = (
        crossing_load(bound40.points, 1e-3, label="ptrnet-40 bound")
        - crossing_load(heur40.points, 1e-3, label="ptrnet-40 heuristic")
    ) / crossing_load(heur40.points, 1e-3, label="ptrnet-40 heuristic")
    assert fixed_gain < 0.12, f"fixed 1-slot capacity gain {fixed_gain:.1%}"
    report(
        6,
        f"capacity gain at 0.1% SBP: flex-grid {flex_gain:.1%} in [15%,45%], "
        f"1-slot {fixed_gain:.1%} < 12%",
    )


# --- criterion 7: oracle suites ---------------------------------------------------------------


def test_criterion_7a_ksp_oracle_thousand_instances():
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        nodes, links = random_connected_graph(rng)
        topo = Topology(f"r{trial}", nodes, links, 8)
        src = nodes[int(rng.integers(0, len(nodes)))]
        dst_choices = [n for n in nodes if n != src]
        dst = dst_choices[int(rng.integers(0, len(dst_choices)))]
        k = int(rng.integers(1, 9))
        name = "hops" if trial % 2 == 0 else "km"
        ordering = HOPS if name == "hops" else KM
        got = [node_seq(topo, src, p) for p in k_shortest_paths(topo, src, dst, k, ordering)]
        assert got == ksp_oracle(links, src, dst, k, name), f"instance {trial}"
    report(7, "KSP equals exhaustive enumeration on 1000 random instances")


def test_criterion_7b_fit_oracle_ten_thousand_masks():
    rng = np.random.default_rng(77)
    for _ in range(10_000):
        n = int(rng.integers(1, 513))
        density = rng.random()
        occ = (rng.random(n) < density).astype(int).tolist()
        size = int(rng.integers(1, 17))
        free = path_free_mask([pack_bits(occ)], n)
        start = first_fit([pack_bits(occ)], [0], (1 << n) - 1, run_shifts(size))
        assert (start if start >= 0 else None) == first_fit_oracle(occ, size)
        bf = best_fit_run(free, n, size)
        assert (bf[0] if bf else None) == best_fit_oracle(occ, size)
    report(7, "first/best fit equal brute-force scans on 10,000 masks")


def test_criterion_7c_conservation_fuzz_100k():
    preset = get_preset("deeprmsa")
    topo = preset.load_topology("nsfnet")
    cfg = preset.sim_config(
        topo, HeuristicKind.KSP_FF, 5, HOPS, 300.0,
        warmup_requests=0, measured_requests=100_000,
    )
    stream = generate_stream(cfg.traffic, 100_000, topo.nodes, seed=31337)
    events = 0

    def check(state, active):
        nonlocal events
        assert occupied_slot_count(state) == active_slot_links(active)
        events += 1

    blocked = run_stream(cfg, stream, on_event=check)
    assert events == 100_000
    assert blocked > 0, "fuzz load should actually exercise blocking"
    report(7, "slot conservation held at all 100,000 fuzz events")


# --- criterion 8: published-point comparison (needs external tables) ---------------------------


PUBLISHED_TABLE = Path(__file__).parent / "data" / "published_5spff_km.csv"


def test_criterion_8_published_curves():
    """Compare our 5-SP-FF(km) means with published points, when available.

    The published per-load tables are not shipped with this repository;
    drop a CSV with columns preset,topology,load_erlangs,sbp at
    tests/data/published_5spff_km.csv to activate the check.  Each of
    our means must then match the published value within two standard
    deviations of our trials.
    """
    if not PUBLISHED_TABLE.is_file():
        pytest.skip(
            "published per-load tables unavailable; criteria 1-7 stand as the "
            "acceptance suite"
        )
    import csv

    rows = list(csv.DictReader(PUBLISHED_TABLE.open()))
    assert rows, "published table is empty"
    for row in rows:
        preset = get_preset(row["preset"])
        topo = preset.load_topology(row["topology"])
        load = float(row["load_erlangs"])
        cfg = preset.sim_config(
            topo, HeuristicKind.KSP_FF, 5, KM, load, trials=10, base_seed=100
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            point = sweep(cfg, [load], jobs=2).points[0]
        published = float(row["sbp"])
        spread = 2 * point.std_sbp
        assert abs(point.mean_sbp - published) <= spread, (
            f"{row['preset']}/{row['topology']} load {load}: ours "
            f"{point.mean_sbp:.4g} vs published {published:.4g} (2 std = {spread:.4g})"
        )
    report(8, "5-SP-FF(km) matches published points within two standard deviations")
