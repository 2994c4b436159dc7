"""Workloads, timed passes and output checks of the eonsim benchmark.

A run sets up one workload (preset, topology, candidate paths), then
repeats *passes* until its time is up.  A pass is the whole workload
as a user would run it: one ``sweep`` per policy over the workload's
loads and trials, each followed by writing its trials CSV.  Every pass
of a run simulates exactly the same trials, so its counts and CSV
hashes must repeat; they are also compared with the pinned reference
(``reference.json``) when the run uses the seed the reference was
pinned at.

With tracing on, the run makes one untraced pass and then traced passes
with ``jobs=1``; the traced outputs must equal the untraced ones, which
for a pool workload also checks that results do not depend on
``jobs``.

Only the library's public API is driven: ``presets.get_preset``,
``Topology.warm_path_cache``, ``simulator.sweep`` (with
``bounds.defrag_bound_trial`` as the trial runner for the bound) and
the two trials-CSV writers.
"""
from __future__ import annotations

import hashlib
import os
import resource
import statistics
import tempfile
import traceback
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from time import perf_counter

from eonsim import bounds, simulator
from eonsim.bounds import DefragTrialResult, write_bound_trials_csv
from eonsim.heuristics import HeuristicKind
from eonsim.presets import get_preset
from eonsim.simulator import sweep, write_trials_csv
from eonsim.topology import PathOrdering

from tracer import Tracer, layer_metrics, ratio, topology_metrics

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Seed the reference outputs are pinned at.
DEFAULT_SEED = 0
#: Trial seeds of workload seed ``s`` are ``s * SEED_STRIDE + i``, so the
#: trial sets of different workload seeds never overlap.
SEED_STRIDE = 1000
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark scenario: a sweep per policy over fixed loads."""

    name: str
    preset: str
    topology: str
    heuristics: tuple[str, ...]
    k: int
    ordering: str
    loads: tuple[float, ...]
    trials: int
    jobs: int
    bound: bool = False
    warmup_requests: int = 3000
    measured_requests: int = 10000

    @property
    def trials_per_sweep(self) -> int:
        return len(self.loads) * self.trials


WORKLOADS = {
    w.name: w
    for w in (
        # The headline online curve (about 5e-4 to 5e-2 SBP): cheap trials,
        # so demand, stream generation and the loop's release/add weigh most.
        Workload(
            name="sweep-nsfnet-ksp",
            preset="deeprmsa",
            topology="nsfnet",
            heuristics=("ksp-ff",),
            k=50,
            ordering="hops",
            loads=(240.0, 300.0, 360.0),
            trials=4,
            jobs=1,
        ),
        # The lower bound: most time goes to replay rebuilds, the only
        # workload that runs them.
        Workload(
            name="bound-nsfnet",
            preset="deeprmsa",
            topology="nsfnet",
            heuristics=("ksp-ff",),
            k=50,
            ordering="hops",
            loads=(300.0, 330.0, 360.0),
            trials=4,
            jobs=1,
            bound=True,
        ),
        # Scan-all policies on fixed slot demands: spectrum search and
        # entropy dominate, the modulation table is bypassed, and it is the
        # only workload on km ordering and on the process pool.
        Workload(
            name="scan-usnet-fixed",
            preset="ptrnet-80",
            topology="usnet",
            heuristics=("bf-ksp", "kme-ff"),
            k=10,
            ordering="km",
            loads=(160.0, 200.0),
            trials=1,
            jobs=2,
        ),
    )
}


@dataclass(frozen=True)
class TimedTrial(DefragTrialResult):
    """A trial result plus the host seconds and peak RSS of its process."""

    host_s: float = 0.0
    pid: int = 0
    maxrss_kb: int = 0


def _timed(run, config, seed) -> TimedTrial:
    t0 = perf_counter()
    result = run(config, seed)
    host_s = perf_counter() - t0
    return TimedTrial(
        **{f.name: getattr(result, f.name) for f in fields(result)},
        host_s=host_s,
        pid=os.getpid(),
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )


# Module-level trial runners, so pool workers can unpickle them.  The
# library function is looked up at call time, so a tracer sees it.
def timed_run_trial(config, seed) -> TimedTrial:
    return _timed(simulator.run_trial, config, seed)


def timed_bound_trial(config, seed) -> TimedTrial:
    return _timed(bounds.defrag_bound_trial, config, seed)


def set_up(wl: Workload):
    """Resolve the preset, load the topology and compute candidate paths."""
    t0 = perf_counter()
    preset = get_preset(wl.preset)
    topology = preset.load_topology(wl.topology)
    topology.warm_path_cache(wl.k, PathOrdering(wl.ordering))
    return perf_counter() - t0, preset, topology


@dataclass
class Pass:
    """Outputs and host timings of one pass over a workload."""

    sweeps: dict[str, dict] = field(default_factory=dict)  # policy -> exact outputs
    sweep_s: float = 0.0  # seconds inside sweep()
    wall_s: float = 0.0  # sweep() plus writing the trials CSVs
    trial_s: float = 0.0  # summed per-trial host seconds, wherever they ran
    requests: int = 0  # simulated requests, warm-up included
    worker_rss_kb: int = 0  # summed peak RSS of one sweep's pool workers
    rebuilds: int | None = None  # rebuild attempts, known only when traced

    def outputs(self) -> dict:
        out = {"sweeps": self.sweeps}
        if self.rebuilds is not None:
            out["rebuilds"] = self.rebuilds
        return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sweep_outputs(trials: list[TimedTrial], csv_sha256: str, bound: bool) -> dict:
    out = {
        "blocked_total": sum(r.blocked_count for r in trials),
        "blocked": [r.blocked_count for r in trials],
        "csv_sha256": csv_sha256,
    }
    if bound:
        out["direct"] = [r.direct_count for r in trials]
        out["defrag"] = [r.defrag_count for r in trials]
    return out


def run_pass(wl: Workload, preset, topology, base_seed: int, jobs: int, outdir: Path) -> Pass:
    """Sweep every policy of the workload once; a raising sweep is recorded."""
    runner = timed_bound_trial if wl.bound else timed_run_trial
    write_csv = write_bound_trials_csv if wl.bound else write_trials_csv
    result_pass = Pass()
    for name in wl.heuristics:
        config = preset.sim_config(
            topology,
            HeuristicKind.from_name(name),
            wl.k,
            PathOrdering(wl.ordering),
            wl.loads[0],
            trials=wl.trials,
            base_seed=base_seed,
            warmup_requests=wl.warmup_requests,
            measured_requests=wl.measured_requests,
        )
        csv_path = outdir / f"{name}.csv"
        t0 = perf_counter()
        try:
            result = sweep(config, wl.loads, jobs=jobs, trial_runner=runner)
            t1 = perf_counter()
            write_csv(result, csv_path)
            t2 = perf_counter()
        except Exception as exc:  # a failing trial is counted, not fatal
            traceback.print_exc()
            result_pass.sweeps[name] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        result_pass.sweep_s += t1 - t0
        result_pass.wall_s += t2 - t0
        trials = [r for point in result.points for r in point.results]
        result_pass.trial_s += sum(r.host_s for r in trials)
        result_pass.requests += len(trials) * config.total_requests
        workers = {r.pid: r.maxrss_kb for r in trials if r.pid != os.getpid()}
        result_pass.worker_rss_kb = max(result_pass.worker_rss_kb, sum(workers.values()))
        result_pass.sweeps[name] = _sweep_outputs(trials, _sha256(csv_path), wl.bound)
    return result_pass


def mismatches(observed: dict, expected: dict) -> set[str]:
    """Policies whose exact outputs differ; every policy if rebuild counts differ."""
    labels = observed["sweeps"].keys() | expected["sweeps"].keys()
    if "rebuilds" in observed and "rebuilds" in expected:
        if observed["rebuilds"] != expected["rebuilds"]:
            return set(labels)
    return {
        label for label in labels
        if observed["sweeps"].get(label) != expected["sweeps"].get(label)
    }


def _median_metrics(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def _check(passes: list[Pass], expected: dict | None, failing: list[set[str]]) -> str:
    """Compare each pass with ``expected``, adding mismatches to ``failing``."""
    if expected is None:
        return "skipped"
    ok = True
    for p, bad in zip(passes, failing):
        found = mismatches(p.outputs(), expected)
        bad |= found
        ok = ok and not found
    return "pass" if ok else "fail"


def run_workload(
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    reference: dict | None = None,
) -> dict:
    """Run one workload and return its result: checks, counts and metrics.

    ``reference`` is this workload's pinned entry; it is used only when
    its seed equals ``seed``.
    """
    base_seed = seed * SEED_STRIDE
    with warnings.catch_warnings(), tempfile.TemporaryDirectory(
        dir=ROOT, prefix=".perfbench-"
    ) as tmp:
        warnings.filterwarnings("ignore", message=r"load .* blocking events")
        outdir = Path(tmp)
        if trace:
            with Tracer() as setup_tracer:
                setup_s, preset, topology = set_up(wl)
            setups = [setup_s]
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                setup_s, preset, topology = set_up(wl)
                setups.append(setup_s)

        start = perf_counter()
        untraced = [run_pass(wl, preset, topology, base_seed, wl.jobs, outdir)]
        traced: list[tuple[Pass, Tracer]] = []
        while trace:
            with Tracer() as tracer:
                p = run_pass(wl, preset, topology, base_seed, 1, outdir)
            p.rebuilds = int(tracer.total("rebuild", "calls"))
            traced.append((p, tracer))
            if perf_counter() - start >= seconds:
                break
        while not trace and perf_counter() - start < seconds:
            untraced.append(run_pass(wl, preset, topology, base_seed, wl.jobs, outdir))

    traced_passes = [p for p, _ in traced]
    passes = untraced + traced_passes
    # policies whose sweep raised fail outright; the checks below add mismatches
    failing = [{label for label, out in p.sweeps.items() if "error" in out} for p in passes]
    pinned = reference if reference and reference.get("seed") == seed else None
    first = untraced[0].outputs()
    checks = {
        "pinned": _check(passes, pinned, failing),
        "repeat": _check(untraced[1:], first, failing[1 : len(untraced)])
        if len(untraced) > 1
        else "skipped",
        "trace_invariance": _check(traced_passes, first, failing[len(untraced) :])
        if trace
        else "skipped",
    }
    checks["jobs_invariance"] = checks["trace_invariance"] if wl.jobs > 1 else "skipped"

    attempted = len(passes) * len(wl.heuristics) * wl.trials_per_sweep
    failed = sum(len(bad) for bad in failing) * wl.trials_per_sweep

    if trace:
        u = untraced[0]
        metrics = topology_metrics(setup_tracer)
        metrics.update(_median_metrics([layer_metrics(t) for _, t in traced]))
        metrics["simulator.pool_efficiency"] = ratio(u.trial_s, wl.jobs * u.sweep_s)
        metrics["trace.overhead_ratio"] = ratio(
            statistics.median(p.trial_s for p in traced_passes), u.trial_s
        )
    else:
        # Host speed here swings by tens of percent within seconds, so pass
        # times are pooled over the whole run (a time-weighted mean): over a
        # run that is steadier than the median or minimum of a few passes.
        setup_s = statistics.median(setups)
        metrics = {
            "setup_s": setup_s,
            "wall_s": setup_s + statistics.mean(p.wall_s for p in untraced),
            "requests_per_s": ratio(
                sum(p.requests for p in untraced), sum(p.sweep_s for p in untraced)
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + max(p.worker_rss_kb for p in untraced)
            )
            / 1024,
        }

    record = {
        "workload": wl.name,
        "seed": seed,
        "base_seed": base_seed,
        "trace": trace,
        "untraced_passes": len(untraced),
        "traced_passes": len(traced_passes),
        "setup_s": setups,
        "pass_wall_s": [p.wall_s for p in passes],
        "outputs": first,
        "rebuilds": traced_passes[0].rebuilds if traced_passes else None,
        "checks": checks,
        "failed_frac": failed / attempted,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "record": record,
    }


def pin(wl: Workload, seed: int) -> dict:
    """Reference outputs of ``wl`` at ``seed``: untraced outputs plus rebuilds."""
    result = run_workload(wl, seed, seconds=0, trace=True)
    if not result["correct"]:
        raise RuntimeError(f"{wl.name}: traced and untraced outputs differ; not pinning")
    record = result["record"]
    return {"seed": seed, **record["outputs"], "rebuilds": record["rebuilds"]}
