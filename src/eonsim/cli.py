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
import csv
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    CrossingNotBracketedError,
    bound_sweep,
    capacity_gain,
    require_inner_heuristic,
    write_bound_trials_csv,
    write_gain_report,
)
from .heuristics import HeuristicKind
from .presets import PRESETS, PresetError, get_preset
from .service import ModulationTable
from .simulator import (
    SimConfigError,
    check_loads,
    estimate_warmup,
    sweep,
    warmup_horizon,
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


def _bad_loads(spec: str, exc: Exception) -> CliError:
    """The error for a ``--loads`` that parses but that a run cannot use."""
    return CliError(f"bad --loads {spec!r}: {exc}")


def _out_dir(args) -> Path:
    """``--out``, once the nearest part of it that exists is a writable directory.

    Nothing is created here: a run makes ``--out`` just before it writes
    its first artifact, so a run that stops before then leaves nothing.
    """
    out = Path(args.out)
    existing = next((d for d in (out, *out.parents) if os.path.lexists(d)), out)
    try:
        with tempfile.TemporaryFile(dir=existing):
            pass
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


def _write_records(out: Path, args, started: float, paths_s: float | None = None) -> None:
    """``manifest.json``, holding every option of ``args.command``, then ``run_meta.json``."""
    stored = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    doc = {
        "tool": "eonsim",
        "version": __version__,
        "numpy_version": np.__version__,
        "subcommand": args.command,
        "args": stored,
        "input_sha256": _input_hashes(stored),
    }
    (out / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    finished = time.time()
    doc = {
        "started_unix": started,
        "finished_unix": finished,
        "duration_s": round(finished - started, 3),
    }
    if paths_s is not None:
        doc["paths_s"] = round(paths_s, 3)
    (out / "run_meta.json").write_text(json.dumps(doc, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A table of the CLI's own, each row ending in a bare newline."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
    try:
        check_loads(loads)
    except SimConfigError as exc:
        raise _bad_loads(args.loads, exc) from None
    overrides = {}
    if args.modulation_file:
        try:
            overrides["modulation"] = ModulationTable.from_json(args.modulation_file)
        except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CliError(f"bad --modulation-file {args.modulation_file}: {exc!r}") from None
    try:
        config = preset.sim_config(
            topology,
            HeuristicKind.from_name(args.heuristic),
            args.k,
            PathOrdering(args.ordering),
            loads[0],
            warmup_requests=args.warmup,
            measured_requests=args.measured,
            trials=args.trials,
            base_seed=args.seed,
            guard_slots=args.guard_slots,
            **overrides,
        )
    except TrafficConfigError as exc:  # a preset's traffic is valid, so the first load is not
        raise _bad_loads(args.loads, exc) from None
    return config, loads


def cmd_sweep(args) -> int:
    started = time.time()
    config, loads = _run_config(args)
    out = _out_dir(args)
    paths_s = _warm_paths(config.topology, config.k, config.ordering)
    try:
        result = sweep(config, loads, jobs=args.jobs)
    except TrafficConfigError as exc:  # only drawing arrivals shows that they overflow
        raise _bad_loads(args.loads, exc) from None
    out.mkdir(parents=True, exist_ok=True)
    write_trials_csv(result, out / "trials.csv")
    write_summary_csv(result, out / "summary.csv")
    _write_records(out, args, started, paths_s)
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
    try:
        heuristic, bound = bound_sweep(config, loads, jobs=args.jobs)
    except TrafficConfigError as exc:  # only drawing arrivals shows that they overflow
        raise _bad_loads(args.loads, exc) from None
    out.mkdir(parents=True, exist_ok=True)
    write_trials_csv(heuristic, out / "heuristic_trials.csv")
    write_summary_csv(heuristic, out / "heuristic_summary.csv")
    write_bound_trials_csv(bound, out / "bound_trials.csv")
    write_summary_csv(bound, out / "bound_summary.csv")
    _write_records(out, args, started, paths_s)
    for hp, bp in zip(heuristic.points, bound.points):
        print(
            f"load {hp.load_erlangs:g}: heuristic SBP {hp.mean_sbp:.4g}, "
            f"bound SBP {bp.mean_sbp:.4g}"
        )
    try:
        report = capacity_gain(heuristic, bound, args.target_sbp)
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
    try:  # every load is checked before any is run; overflowing arrivals show only once drawn
        check_loads(loads)
        for load in loads:
            warmup_horizon(load)
        out = _out_dir(args)
        estimates = [estimate_warmup(load, args.trials, seed=args.seed) for load in loads]
    except SimConfigError as exc:
        raise _bad_loads(args.loads, exc) from None
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "warmup_points.csv", ["load_erlangs", "trial", "truncation_requests"],
               ((f"{est.load_erlangs:.12g}", i, p)
                for est in estimates for i, p in enumerate(est.truncation_points)))
    fields = ["load_erlangs", "q1", "median", "q3", "whisker_max"]  # WarmupEstimate attributes
    _write_csv(out / "warmup_summary.csv", fields,
               ([f"{getattr(est, name):.12g}" for name in fields] for est in estimates))
    slope, intercept = (math.nan, math.nan)
    if len(estimates) >= 2:
        slope, intercept = warmup_slope(estimates)
        (out / "warmup_fit.json").write_text(
            json.dumps({"slope": round(slope, 6), "intercept": round(intercept, 6)}, indent=2)
            + "\n"
        )
    _write_records(out, args, started)
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
    out = _out_dir(args) if args.out else None
    paths_s = _warm_paths(topology, args.k, ordering)
    rows = []
    overlaps = []
    hops, kms = [], []
    for src, dst in itertools.permutations(topology.nodes, 2):
        paths = topology.candidate_paths(src, dst, args.k, ordering)
        hops.extend(map(len, paths.fiber_ids))
        kms.extend(paths.lengths_km)
        if args.diagnose_orderings:
            overlaps.append(ordering_overlap(topology, src, dst, args.k))
        rows.append((src, dst, len(paths), len(paths.fiber_ids[0]) if paths else 0,
                     paths.lengths_km[0] if paths else 0.0))
    counts = [n for _src, _dst, n, _hops, _km in rows]
    n_pairs = len(rows)
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
    if out:
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "paths.csv", ["src", "dst", "paths", "best_hops", "best_km"],
                   ((src, dst, n, hops, f"{km:.12g}") for src, dst, n, hops, km in rows))
        _write_records(out, args, started, paths_s)
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
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("args"), dict)
        and isinstance(doc.get("input_sha256", {}), dict)
    ):
        raise CliError(
            f"malformed manifest {args.manifest}: need an object with an args object "
            "and, if any, an input_sha256 object"
        )
    sub, stored = doc.get("subcommand"), doc["args"]
    if sub not in ("sweep", "bound", "warmup", "paths"):  # those that write a manifest
        raise CliError(f"manifest {args.manifest} names subcommand {sub!r}, which writes none")
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
    if args.out:  # redirect artifacts; --out keeps its place in the stored arguments
        stored["out"] = args.out
    argv = [sub]
    for key, value in stored.items():
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    parsed, unknown = build_parser().parse_known_args(argv)
    if unknown:
        raise CliError(f"manifest {args.manifest} stores {' '.join(unknown)}, unknown to this eonsim")
    print(f"rerunning: eonsim {' '.join(argv)}")
    return parsed.func(parsed)


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
    except (CrossingNotBracketedError, OSError, MemoryError) as exc:  # failed while running
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
