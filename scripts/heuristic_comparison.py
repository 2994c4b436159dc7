#!/usr/bin/env python3
"""Compare the six allocation policies across K or across traffic load.

Two modes, mirroring the standard benchmark methodology:

  by-k     fixed load, K swept over a range, all heuristics
  by-load  fixed K (default 50), loads swept, all heuristics

Example:
  python scripts/heuristic_comparison.py by-k --topology nsfnet --load 300 \
      --k-values 2:26:4 --trials 10 --out results/heur_k.csv
"""
import argparse
import csv
import math
import sys
import warnings

from eonsim.cli import non_negative_int, parse_loads, positive_int, positive_load
from eonsim.heuristics import HeuristicKind
from eonsim.presets import get_preset
from eonsim.simulator import sweep
from eonsim.topology import PathOrdering


def run_point(preset, topo, kind, k, load, trials, seed, jobs):
    cfg = preset.sim_config(
        topo, kind, k, PathOrdering.HOPS_THEN_KM, load, trials=trials, base_seed=seed
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return sweep(cfg, [load], jobs=jobs).points[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["by-k", "by-load"])
    parser.add_argument("--preset", default="deeprmsa")
    parser.add_argument("--topology", default="nsfnet")
    parser.add_argument("--load", type=positive_load, default=300.0, help="fixed load for by-k")
    parser.add_argument("--k", type=positive_int, default=50, help="fixed K for by-load")
    parser.add_argument("--k-values", default="2:26:4", help="K range for by-k")
    parser.add_argument("--loads", default="240:360:30", help="load range for by-load")
    parser.add_argument("--heuristics", default=",".join(h.value for h in HeuristicKind))
    parser.add_argument("--trials", type=positive_int, default=10)
    parser.add_argument("--seed", type=non_negative_int, default=0)
    parser.add_argument("--jobs", type=positive_int, default=2)
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args()

    preset = get_preset(args.preset)
    topo = preset.load_topology(args.topology)
    kinds = [HeuristicKind.from_name(n) for n in args.heuristics.split(",")]

    rows = []
    if args.mode == "by-k":
        k_values = [int(v) for v in parse_loads(args.k_values)]
        points = [(k, args.load) for k in k_values]
    else:
        points = [(args.k, load) for load in parse_loads(args.loads)]
    for kind in kinds:
        for k, load in points:
            p = run_point(preset, topo, kind, k, load, args.trials, args.seed, args.jobs)
            undefined = math.isnan(p.std_sbp)  # one trial: empty field, as in summary.csv
            rows.append((kind.value, k, load, p.mean_sbp, "" if undefined else p.std_sbp))
            std = "n/a" if undefined else f"{p.std_sbp:.5f}"
            print(f"{kind.value:8s} k={k:3d} load={load:g}: SBP {p.mean_sbp:.5f} ± {std}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["heuristic", "k", "load_erlangs", "mean_sbp", "std_sbp"])
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
