"""Experiment runner CLI.

Subcommands::

    sweep            SBP against traffic load for one heuristic
    bound            paired heuristic/defragmentation-bound sweeps + capacity gain
    warmup           MSER-5 warm-up length distribution against load
    truncation-demo  effect of holding-time truncation on the sample mean
    paths            candidate-path audit for a topology
    presets          print the resolved problem-setting presets
    rerun            replay a saved run manifest

Every data-producing run writes a ``manifest.json`` (resolved
parameters, tool and numpy versions and the SHA-256 of any input file,
no timestamps) that ``rerun`` replays byte-for-byte, refusing when an
input file or numpy's version has changed; wall-clock metadata goes to
``run_meta.json``.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    CrossingNotBracketedError,
    bound_sweep,
    require_inner_heuristic,
    write_bound_trials_csv,
    write_gain_report,
    write_outcomes_csv,
)
from .heuristics import HeuristicKind
from .presets import PRESETS, PresetError, get_preset
from .simulator import (
    SimConfigError,
    check_loads,
    estimate_warmup,
    sweep,
    warmup_slope,
    write_summary_csv,
    write_trials_csv,
)
from .topology import PathOrdering, TopologyError, load_topology, ordering_overlap
from .traffic import HOLDING_TIME_MEAN, TRUNCATED_MEAN_RATIO, TrafficConfigError, sample_holding_times


class CliError(ValueError):
    """Configuration-level CLI failure (exit code 2)."""


#: Most loads a ``start:stop:step`` range may expand to.
MAX_RANGE_LOADS = 10_000


def parse_loads(spec: str) -> list[float]:
    """Parse ``start:stop:step`` (inclusive stop) or a comma list of loads.

    The result is never empty, and every load is finite and > 0.  A
    range yields at most :data:`MAX_RANGE_LOADS` loads, and its step
    must advance every value it is added to.
    """
    spec = spec.strip()
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = (float(p) for p in parts)
            if not all(map(math.isfinite, (start, stop, step))):
                raise ValueError("need finite start, stop and step")
            if step <= 0 or stop < start:
                raise ValueError("need step > 0 and stop >= start")
            loads = []
            value = start
            while value <= stop + 1e-9:
                if len(loads) == MAX_RANGE_LOADS:
                    raise ValueError(f"the range holds more than {MAX_RANGE_LOADS} loads")
                loads.append(round(value, 9))
                if value + step == value:
                    raise ValueError(f"step {step:g} does not advance the value {value:g}")
                value += step
        else:
            loads = [float(p) for p in spec.split(",") if p.strip()]
        if not loads:
            raise ValueError("empty list")
        if not all(math.isfinite(load) and load > 0 for load in loads):
            raise ValueError("every load must be finite and > 0")
        return loads
    except ValueError as exc:
        raise CliError(f"malformed --loads {spec!r}: {exc}") from None


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise CliError(f"output path {out} is not writable: {exc}") from None
    return out


def _input_hashes(manifest_args: dict) -> dict:
    """SHA-256 of the contents of each input argument that names a file."""
    hashes = {}
    for key in ("topology", "modulation_file"):
        value = manifest_args.get(key)
        if value is not None and Path(value).is_file():
            hashes[key] = hashlib.sha256(Path(value).read_bytes()).hexdigest()
    return hashes


def _write_manifest(out: Path, subcommand: str, manifest_args: dict) -> None:
    doc = {
        "tool": "eonsim",
        "version": __version__,
        "numpy_version": np.__version__,
        "subcommand": subcommand,
        "args": manifest_args,
        "input_sha256": _input_hashes(manifest_args),
    }
    (out / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_meta(out: Path, started: float, paths_s: float | None = None) -> None:
    finished = time.time()
    doc = {
        "started_unix": started,
        "finished_unix": finished,
        "duration_s": round(finished - started, 3),
    }
    if paths_s is not None:
        doc["paths_s"] = round(paths_s, 3)
    (out / "run_meta.json").write_text(json.dumps(doc, indent=2) + "\n")


def _sim_config(args, preset, topology, load0: float):
    overrides = dict(
        warmup_requests=args.warmup,
        measured_requests=args.measured,
        trials=args.trials,
        base_seed=args.seed,
        guard_slots=args.guard_slots,
    )
    if args.modulation_file:
        from .service import ModulationTable

        try:
            overrides["modulation"] = ModulationTable.from_json(args.modulation_file)
        except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CliError(f"bad --modulation-file {args.modulation_file}: {exc!r}") from None
    return preset.sim_config(
        topology,
        HeuristicKind.from_name(args.heuristic),
        args.k,
        PathOrdering(args.ordering),
        load0,
        **overrides,
    )


def _manifest_args(args) -> dict:
    """Every parsed option of the subcommand, as ``rerun`` replays it."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func")}


def _warm_paths(topology, k: int, ordering: PathOrdering) -> float:
    """Compute every candidate-path list up front; return the seconds taken."""
    t0 = time.perf_counter()
    topology.warm_path_cache(k, ordering)
    return time.perf_counter() - t0


def _run_config(args):
    """Validated config and loads of a run, before its output directory exists."""
    preset = get_preset(args.preset)
    topology = preset.load_topology(
        args.topology, slots_per_fiber=args.slots, fiber_mode=args.fiber_mode
    )
    loads = parse_loads(args.loads)
    check_loads(loads)
    return _sim_config(args, preset, topology, loads[0]), loads


def cmd_sweep(args) -> int:
    started = time.time()
    config, loads = _run_config(args)
    out = _out_dir(args)
    paths_s = _warm_paths(config.topology, config.k, config.ordering)
    result = sweep(config, loads, jobs=args.jobs)
    write_trials_csv(result, out / "trials.csv")
    write_summary_csv(result, out / "summary.csv")
    _write_manifest(out, "sweep", _manifest_args(args))
    _write_meta(out, started, paths_s)
    for p in result.points:
        std = "n/a" if math.isnan(p.std_sbp) else f"{p.std_sbp:.2g}"  # one trial: undefined
        print(
            f"load {p.load_erlangs:g}: mean SBP {p.mean_sbp:.4g} "
            f"(std {std}, {p.blocked_total} blocks over {p.trials} trials)"
        )
    print(f"wrote {out / 'trials.csv'} and {out / 'summary.csv'}")
    return 0


def cmd_bound(args) -> int:
    started = time.time()
    config, loads = _run_config(args)
    require_inner_heuristic(config)
    out = _out_dir(args)
    paths_s = _warm_paths(config.topology, config.k, config.ordering)
    result = bound_sweep(
        config, loads, jobs=args.jobs, target_sbp=args.target_sbp,
        record_outcomes=args.record_outcomes,
    )
    write_trials_csv(result.heuristic, out / "heuristic_trials.csv")
    write_summary_csv(result.heuristic, out / "heuristic_summary.csv")
    write_bound_trials_csv(result.bound, out / "bound_trials.csv")
    write_summary_csv(result.bound, out / "bound_summary.csv")
    if args.record_outcomes:
        write_outcomes_csv(result.bound, out / "outcomes.csv")

    _write_manifest(out, "bound", _manifest_args(args))
    _write_meta(out, started, paths_s)

    for hp, bp in zip(result.heuristic.points, result.bound.points):
        print(
            f"load {hp.load_erlangs:g}: heuristic SBP {hp.mean_sbp:.4g}, "
            f"bound SBP {bp.mean_sbp:.4g}"
        )
    try:
        report = result.gain
    except CrossingNotBracketedError as exc:
        print(f"capacity gain unavailable: {exc}", file=sys.stderr)
        return 3
    write_gain_report(report, out / "gain_report.json")
    print(
        f"load at {report.target_sbp:g} SBP: heuristic {report.heuristic_load:.1f} E, "
        f"bound {report.bound_load:.1f} E, relative gain {report.relative_gain:+.1%}"
    )
    return 0


def cmd_warmup(args) -> int:
    started = time.time()
    loads = parse_loads(args.loads)
    out = _out_dir(args)
    estimates = [
        estimate_warmup(load, args.trials, seed=args.seed) for load in loads
    ]
    with open(out / "warmup_points.csv", "w", newline="") as fh:
        fh.write("load_erlangs,trial,truncation_requests\n")
        for est in estimates:
            for i, p in enumerate(est.truncation_points):
                fh.write(f"{est.load_erlangs:.12g},{i},{p}\n")
    with open(out / "warmup_summary.csv", "w", newline="") as fh:
        fh.write("load_erlangs,q1,median,q3,whisker_max\n")
        for est in estimates:
            fh.write(
                f"{est.load_erlangs:.12g},{est.q1:.12g},{est.median:.12g},"
                f"{est.q3:.12g},{est.whisker_max:.12g}\n"
            )
    slope, intercept = (math.nan, math.nan)
    if len(estimates) >= 2:
        slope, intercept = warmup_slope(estimates)
        (out / "warmup_fit.json").write_text(
            json.dumps({"slope": round(slope, 6), "intercept": round(intercept, 6)}, indent=2)
            + "\n"
        )
    _write_manifest(out, "warmup", _manifest_args(args))
    _write_meta(out, started)
    for est in estimates:
        print(
            f"load {est.load_erlangs:g}: median {est.median:g}, "
            f"whisker max {est.whisker_max:g} requests"
        )
    if len(estimates) >= 2:
        print(f"whisker-max fit: {slope:.2f} requests per Erlang (intercept {intercept:.0f})")
    return 0


def cmd_truncation_demo(args) -> int:
    rng_plain, rng_trunc = (
        np.random.default_rng(s) for s in np.random.SeedSequence(args.seed).spawn(2)
    )
    plain = sample_holding_times(1.0, False, rng_plain, args.samples)
    truncated = sample_holding_times(1.0, True, rng_trunc, args.samples)
    ratio = truncated.mean() / plain.mean()
    print(f"samples: {args.samples}")
    print(f"untruncated mean: {plain.mean():.6f}")
    print(f"truncated mean: {truncated.mean():.6f}")
    print(f"mean ratio: {ratio:.6f} (analytic {TRUNCATED_MEAN_RATIO:.6f})")
    print(f"load reduction: {1 - ratio:.1%}")
    return 0


def cmd_paths(args) -> int:
    started = time.time()
    topology = load_topology(args.topology)
    ordering = PathOrdering(args.ordering)
    paths_s = _warm_paths(topology, args.k, ordering)
    rows = []
    counts = []
    overlaps = []
    hops, kms = [], []
    for src in topology.nodes:
        for dst in topology.nodes:
            if src == dst:
                continue
            paths = topology.candidate_paths(src, dst, args.k, ordering)
            counts.append(len(paths))
            hops.extend(p.hop_count for p in paths)
            kms.extend(p.length_km for p in paths)
            if args.diagnose_orderings:
                overlaps.append(ordering_overlap(topology, src, dst, args.k))
            rows.append((src, dst, len(paths), paths[0].hop_count if paths else 0,
                         paths[0].length_km if paths else 0.0))
    n_pairs = len(counts)
    full = sum(1 for c in counts if c >= args.k)
    print(f"topology {topology.name}: {n_pairs} ordered pairs, k={args.k}, ordering={args.ordering}")
    print(f"pairs with k paths: {full}/{n_pairs}; min paths {min(counts)}, mean {np.mean(counts):.1f}")
    if hops:
        print(
            f"candidate paths: {len(hops)}; hops {np.mean(hops):.2f}±{np.std(hops):.2f}, "
            f"km {np.mean(kms):.0f}±{np.std(kms):.0f} (mean±std)"
        )
    if overlaps:
        print(
            f"ordering-unique path fraction (km vs hops): mean {np.mean(overlaps):.1%}, "
            f"max {np.max(overlaps):.1%}"
        )
    if args.out:
        out = _out_dir(args)
        with open(out / "paths.csv", "w", newline="") as fh:
            fh.write("src,dst,paths,best_hops,best_km\n")
            for src, dst, n, hops, km in rows:
                fh.write(f"{src},{dst},{n},{hops},{km:.12g}\n")
        _write_manifest(out, "paths", _manifest_args(args))
        _write_meta(out, started, paths_s)
        print(f"wrote {out / 'paths.csv'}")
    return 0


def cmd_presets(args) -> int:
    names = [args.preset] if args.preset else sorted(PRESETS)
    for name in names:
        p = get_preset(name)
        demand = (
            f"{p.rate_gbps_range[0]}-{p.rate_gbps_range[1]} Gbps uniform"
            if p.rate_gbps_range
            else f"fixed slots {sorted(set(p.fixed_slot_choices))}"
        )
        print(
            f"{p.name}: fiber={p.fiber_mode}, slots={p.slots_per_fiber}, "
            f"demand={demand}, modulation={'on' if p.rate_gbps_range else 'off'}, "
            f"truncation={'on' if p.truncate_holding else 'off'}, "
            f"mean holding={HOLDING_TIME_MEAN:g}"
        )
        if p.topology_aliases:
            print(f"    topology aliases: {dict(p.topology_aliases)}")
    return 0


def cmd_rerun(args) -> int:
    try:
        doc = json.loads(Path(args.manifest).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read manifest {args.manifest}: {exc}") from None
    sub = doc.get("subcommand")
    stored = doc.get("args", {})
    recorded, current = doc.get("input_sha256", {}), _input_hashes(stored)
    changed = sorted(k for k in recorded.keys() | current.keys() if recorded.get(k) != current.get(k))
    if changed:
        raise CliError(
            "input changed since the recorded run: "
            + ", ".join(f"--{k.replace('_', '-')} {stored.get(k)}" for k in changed)
        )
    # Generator methods may change their draws between numpy releases (NEP 19)
    recorded_numpy = doc.get("numpy_version")
    if recorded_numpy is None:
        warnings.warn(
            f"{args.manifest} records no numpy version; "
            f"its streams are reproduced only if it ran under numpy {np.__version__}"
        )
    elif recorded_numpy != np.__version__:
        raise CliError(
            f"numpy changed since the recorded run: recorded {recorded_numpy}, "
            f"installed {np.__version__}"
        )
    argv = [sub]
    for key, value in stored.items():
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    if args.out:
        # redirect artifacts without touching the stored parameters
        try:
            idx = argv.index("--out")
            argv[idx + 1] = args.out
        except ValueError:
            argv.extend(["--out", args.out])
    print(f"rerunning: eonsim {' '.join(argv)}")
    return main(argv)


def _available_cpus() -> int:
    """CPUs this process may run on, honouring its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def sbp(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be strictly between 0 and 1, got {value:g}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common_run_flags(sub):
    sub.add_argument("--preset", required=True, choices=sorted(PRESETS))
    sub.add_argument("--topology", required=True,
                     help="bundled topology name or path to a topology JSON file")
    sub.add_argument("--heuristic", default="ksp-ff",
                     choices=[k.value for k in HeuristicKind])
    sub.add_argument("--k", type=positive_int, default=5)
    sub.add_argument("--ordering", choices=["km", "hops"], default="hops")
    sub.add_argument("--loads", required=True,
                     help="start:stop:step (inclusive) or comma-separated list")
    sub.add_argument("--trials", type=positive_int, default=10)
    sub.add_argument("--seed", type=non_negative_int, default=0)
    sub.add_argument("--warmup", type=non_negative_int, default=3000,
                     help="warm-up requests before the measured window")
    sub.add_argument("--measured", type=positive_int, default=10000,
                     help="measured requests per trial")
    sub.add_argument("--slots", type=positive_int, default=None,
                     help="override the preset's slots per fiber")
    sub.add_argument("--fiber-mode", choices=["dual", "single"], default=None,
                     help="override the preset's fiber mode")
    sub.add_argument("--guard-slots", type=non_negative_int, default=0,
                     help="extra guard slots appended to every demand")
    sub.add_argument("--modulation-file", default=None,
                     help="JSON file overriding the default modulation table")
    sub.add_argument("--jobs", type=positive_int, default=_available_cpus(),
                     help="most trials run at once, this process being one of them, "
                          "so JOBS-1 workers are forked (none for a one-trial run); "
                          "results do not depend on it (default: available CPUs)")
    sub.add_argument("--out", required=True, help="output directory for artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eonsim",
        description="Elastic optical network RMSA benchmarking experiments",
    )
    parser.add_argument("--version", action="version", version=f"eonsim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("sweep", help="SBP against traffic load")
    _add_common_run_flags(s)
    s.set_defaults(func=cmd_sweep)

    s = subs.add_parser("bound", help="defragmentation blocking bound and capacity gain")
    _add_common_run_flags(s)
    s.add_argument("--target-sbp", type=sbp, default=1e-3)
    s.add_argument("--record-outcomes", action="store_true",
                   help="also write a per-request outcome CSV")
    s.set_defaults(func=cmd_bound)

    s = subs.add_parser("warmup", help="MSER-5 warm-up length distribution")
    s.add_argument("--loads", required=True)
    s.add_argument("--trials", type=positive_int, default=100)
    s.add_argument("--seed", type=non_negative_int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_warmup)

    s = subs.add_parser("truncation-demo", help="holding-time truncation statistics")
    s.add_argument("--samples", type=positive_int, default=1_000_000)
    s.add_argument("--seed", type=non_negative_int, default=0)
    s.set_defaults(func=cmd_truncation_demo)

    s = subs.add_parser("paths", help="candidate-path audit")
    s.add_argument("--topology", required=True)
    s.add_argument("--k", type=positive_int, default=5)
    s.add_argument("--ordering", choices=["km", "hops"], default="hops")
    s.add_argument("--diagnose-orderings", action="store_true",
                   help="also report path overlap between km and hops orderings")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_paths)

    s = subs.add_parser("presets", help="print resolved problem-setting presets")
    s.add_argument("--preset", default=None)
    s.set_defaults(func=cmd_presets)

    s = subs.add_parser("rerun", help="replay a saved manifest")
    s.add_argument("--manifest", required=True)
    s.add_argument("--out", default=None, help="redirect artifacts to a new directory")
    s.set_defaults(func=cmd_rerun)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():  # one plain line per warning, no source location
            warnings.showwarning = _print_warning
            return args.func(args)
    except (CliError, PresetError, TopologyError, TrafficConfigError, SimConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrossingNotBracketedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
