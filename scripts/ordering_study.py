#!/usr/bin/env python3
"""Quantify what path ordering does to path geometry and blocking.

For each requested topology: mean path length (hops and km) of the
candidate sets under both orderings at K=5 and K=50, the fraction of
routes unique to one ordering, and ksp-ff blocking at a chosen load
under both orderings.

Example:
  python scripts/ordering_study.py --topologies nsfnet,cost239 --load 260
"""
import argparse
import math
import sys
import warnings

import numpy as np

from eonsim.cli import non_negative_int, positive_int, positive_load
from eonsim.heuristics import HeuristicKind
from eonsim.presets import get_preset
from eonsim.simulator import sweep
from eonsim.topology import PathOrdering, ordering_overlap


def path_stats(topo, k, ordering):
    hops, kms = [], []
    for src in topo.nodes:
        for dst in topo.nodes:
            if src == dst:
                continue
            for p in topo.candidate_paths(src, dst, k, ordering):
                hops.append(p.hop_count)
                kms.append(p.length_km)
    return np.mean(hops), np.std(hops), np.mean(kms), np.std(kms)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="deeprmsa")
    parser.add_argument("--topologies", default="nsfnet,cost239")
    parser.add_argument("--load", type=positive_load, default=260.0)
    parser.add_argument("--trials", type=positive_int, default=10)
    parser.add_argument("--seed", type=non_negative_int, default=0)
    parser.add_argument("--jobs", type=positive_int, default=2)
    args = parser.parse_args()

    preset = get_preset(args.preset)
    for name in args.topologies.split(","):
        topo = preset.load_topology(name)
        print(f"== {name} ==")
        for k in (5, 50):
            for ordering in PathOrdering:
                mh, sh, mk, sk = path_stats(topo, k, ordering)
                print(
                    f"  k={k:2d} {ordering.value:4s}: hops {mh:.2f}±{sh:.2f}, "
                    f"km {mk:.0f}±{sk:.0f}"
                )
            overlaps = [
                ordering_overlap(topo, s, d, k)
                for s in topo.nodes for d in topo.nodes if s != d
            ]
            print(f"  k={k:2d} routes unique to one ordering: {np.mean(overlaps):.1%}")

        for ordering in PathOrdering:
            cfg = preset.sim_config(
                topo, HeuristicKind.KSP_FF, 5, ordering, args.load,
                trials=args.trials, base_seed=args.seed,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                p = sweep(cfg, [args.load], jobs=args.jobs).points[0]
            std = "n/a" if math.isnan(p.std_sbp) else f"{p.std_sbp:.5f}"  # one trial
            print(f"  5-sp-ff {ordering.value:4s} @ {args.load:g} E: "
                  f"SBP {p.mean_sbp:.5f} ± {std}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
