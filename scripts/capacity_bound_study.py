#!/usr/bin/env python3
"""Capacity headroom of the defragmentation bound over the best heuristic.

Runs paired-seed heuristic and bound sweeps for one case of study and
reports the extra load supportable at the target SBP (default 0.1%).

Example:
  python scripts/capacity_bound_study.py --preset deeprmsa --topology nsfnet \
      --loads 240:360:30 --trials 10
"""
import argparse
import sys
import warnings

from eonsim.bounds import CrossingNotBracketedError, bound_sweep
from eonsim.cli import non_negative_int, parse_loads, positive_int, sbp
from eonsim.heuristics import HeuristicKind
from eonsim.presets import get_preset
from eonsim.topology import PathOrdering


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="deeprmsa")
    parser.add_argument("--topology", default="nsfnet")
    parser.add_argument("--heuristic", default="ksp-ff", choices=["ksp-ff", "ff-ksp"])
    parser.add_argument("--k", type=positive_int, default=50)
    parser.add_argument("--loads", default="240:360:30")
    parser.add_argument("--trials", type=positive_int, default=10)
    parser.add_argument("--seed", type=non_negative_int, default=100)
    parser.add_argument("--target-sbp", type=sbp, default=1e-3)
    parser.add_argument("--jobs", type=positive_int, default=2)
    args = parser.parse_args()

    preset = get_preset(args.preset)
    topo = preset.load_topology(args.topology)
    loads = parse_loads(args.loads)
    cfg = preset.sim_config(
        topo, HeuristicKind.from_name(args.heuristic), args.k,
        PathOrdering.HOPS_THEN_KM, loads[0], trials=args.trials, base_seed=args.seed,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = bound_sweep(cfg, loads, jobs=args.jobs, target_sbp=args.target_sbp)

    print(f"{args.preset}/{args.topology}, {args.heuristic} k={args.k}:")
    for hp, bp in zip(result.heuristic.points, result.bound.points):
        print(f"  load {hp.load_erlangs:6g}: heuristic {hp.mean_sbp:.5f}  "
              f"bound {bp.mean_sbp:.5f}")
    try:
        gain = result.gain
    except CrossingNotBracketedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(
        f"  load at {gain.target_sbp:g} SBP: heuristic {gain.heuristic_load:.1f} E, "
        f"bound {gain.bound_load:.1f} E -> gain {gain.relative_gain:+.1%}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
