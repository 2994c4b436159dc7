"""Discrete-event loop producing service blocking probability.

A trial processes warm-up plus measured requests in arrival order.
Before each arrival, every lightpath whose expiry time is strictly
earlier than the arrival is released; the heuristic then either admits
the request (allocating its block on every path fiber) or blocks it.
Blocked requests consume nothing and are not retried.  Only blocks
inside the measured window count toward SBP; network state persists
across the warm-up boundary.

The warm-up estimator simulates a non-blocking network and applies
MSER-5 (marginal standard error rule, batch size 5) to the series of
active-connection counts sampled at arrivals.
"""
from __future__ import annotations

import csv
import heapq
import math
import os
import threading
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

import numpy as np

from .heuristics import HeuristicKind, decide
from .service import ModulationTable
from .spectrum import SlotBlock, SpectrumState
from .topology import CandidatePath, PathOrdering, Topology
from .traffic import HOLDING_TIME_MEAN, RequestStream, ServiceRequest, TrafficConfig, generate_stream

#: ``sweep`` warns when a load pools fewer blocking events than this
MIN_BLOCKING_EVENTS = 100


class SimConfigError(ValueError):
    """Invalid simulation configuration."""


@dataclass(frozen=True, eq=False)
class SimConfig:
    topology: Topology
    heuristic: HeuristicKind
    k: int
    ordering: PathOrdering
    traffic: TrafficConfig
    warmup_requests: int = 3000
    measured_requests: int = 10000
    trials: int = 10
    base_seed: int = 0
    modulation: ModulationTable | None = None
    guard_slots: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise SimConfigError(f"k must be >= 1, got {self.k}")
        if self.warmup_requests < 0:
            raise SimConfigError(f"warmup_requests must be >= 0, got {self.warmup_requests}")
        if self.measured_requests < 1:
            raise SimConfigError(
                f"measured_requests must be >= 1, got {self.measured_requests}"
            )
        if self.trials < 1:
            raise SimConfigError(f"trials must be >= 1, got {self.trials}")
        if self.guard_slots < 0:
            raise SimConfigError(f"guard_slots must be >= 0, got {self.guard_slots}")
        if self.traffic.rate_gbps_range is not None and self.modulation is None:
            raise SimConfigError("rate-based traffic requires a modulation table")

    @property
    def total_requests(self) -> int:
        return self.warmup_requests + self.measured_requests

    def with_load(self, load_erlangs: float) -> "SimConfig":
        return replace(self, traffic=replace(self.traffic, load_erlangs=load_erlangs))


@dataclass(frozen=True)
class TrialResult:
    seed: int
    blocked_count: int
    total_measured: int

    def __post_init__(self):
        if self.total_measured < 1:
            raise ValueError(f"total_measured must be >= 1, got {self.total_measured}")
        if not 0 <= self.blocked_count <= self.total_measured:
            raise ValueError("blocked_count out of range")

    @property
    def sbp(self) -> float:
        return self.blocked_count / self.total_measured


class ActiveLightpaths:
    """Expiry-ordered set of admitted lightpaths plus their placements."""

    __slots__ = ("_state", "expiries", "records")

    def __init__(self, state: SpectrumState):
        self._state = state
        # heap of (expiry time, request id)
        self.expiries: list[tuple[float, int]] = []
        # request id -> (fiber_ids, block, rebuild entry or None), in admission order
        self.records: dict[int, tuple[Sequence[int], SlotBlock, tuple | None]] = {}

    def add(self, request: ServiceRequest, placement: tuple, entry: tuple | None = None) -> None:
        """Allocate ``decide``'s (fiber ids, slot block) placement and record it."""
        fiber_ids, block = placement
        self._state.allocate(fiber_ids, block)
        self.records[request.id] = (fiber_ids, block, entry)
        heapq.heappush(self.expiries, (request.expiry_time, request.id))

    def release_due(self, now: float) -> None:
        """Release every lightpath with expiry strictly before ``now``."""
        heap, records, release = self.expiries, self.records, self._state.release
        while heap and heap[0][0] < now:
            _expiry, req_id = heapq.heappop(heap)
            fiber_ids, block, _entry = records.pop(req_id)
            release(fiber_ids, block)

    def adopt_rebuild(
        self, state: SpectrumState, records: dict[int, tuple], request: ServiceRequest
    ) -> None:
        """Adopt a rebuilt network state that also hosts the blocked ``request``.

        ``records`` must hold exactly the active ids plus the request's,
        which must not be active.  Active records keep their admission
        order, and the request's is recorded last.
        """
        active = self.records
        if request.id in active or records.keys() != active.keys() | {request.id}:
            raise ValueError("rebuilt records do not cover the active set and the request")
        self._state.occ = state.occ
        active.update(records)
        heapq.heappush(self.expiries, (request.expiry_time, request.id))


def run_stream(
    config: SimConfig,
    stream: RequestStream | Sequence[ServiceRequest],
    *,
    on_event: Callable[[SpectrumState, ActiveLightpaths], None] | None = None,
    on_block: Callable[[int, ServiceRequest, Sequence[CandidatePath], ActiveLightpaths], bool]
    | None = None,
    rebuild_entry: Callable[[ServiceRequest, Sequence[CandidatePath]], tuple] | None = None,
) -> int:
    """Run the event loop over an explicit request stream.

    Returns how many requests after the first ``config.warmup_requests``
    were blocked.

    ``on_block(index, request, candidates, active)`` is called when the
    policy blocks a request, and returns True if it admitted the request
    itself; the defragmentation bound rebuilds the network there.
    ``rebuild_entry(request, candidates)`` is evaluated once per admitted
    request and kept on its active record for ``on_block`` to read.
    ``on_event`` is called after each arrival is resolved; tests use it
    to assert conservation invariants at every event.
    """
    if len(stream) <= config.warmup_requests:
        raise SimConfigError("stream shorter than the warm-up period")
    state = SpectrumState.for_topology(config.topology)
    active = ActiveLightpaths(state)
    routes = config.topology.route_table(config.k, config.ordering)
    kind, table = config.heuristic, config.modulation
    guard, warmup = config.guard_slots, config.warmup_requests
    expiries, release_due, add = active.expiries, active.release_due, active.add

    blocked = 0
    for i, request in enumerate(stream):
        now = request.arrival_time
        if expiries and expiries[0][0] < now:  # something is due
            release_due(now)
        candidates = routes[request.src, request.dst]
        placement = decide(kind, request, candidates, state, table, guard)
        if placement is not None:
            add(request, placement, rebuild_entry(request, candidates) if rebuild_entry else None)
        elif on_block is None or not on_block(i, request, candidates, active):
            if i >= warmup:
                blocked += 1
        if on_event is not None:
            on_event(state, active)

    return blocked


def run_trial(config: SimConfig, seed: int) -> TrialResult:
    """One seeded trial: generate the stream, run it, report SBP."""
    stream = generate_stream(
        config.traffic, config.total_requests, config.topology.nodes, seed
    )
    return TrialResult(seed, run_stream(config, stream), config.measured_requests)


@dataclass(frozen=True)
class LoadPoint:
    load_erlangs: float
    results: tuple[TrialResult, ...]

    @property
    def trials(self) -> int:
        return len(self.results)

    @property
    def blocked_total(self) -> int:
        return sum(r.blocked_count for r in self.results)

    @property
    def mean_sbp(self) -> float:
        return float(np.mean([r.sbp for r in self.results]))

    @property
    def std_sbp(self) -> float:
        """Sample standard deviation of the trial SBPs; NaN for one trial."""
        if len(self.results) < 2:
            return math.nan
        return float(np.std([r.sbp for r in self.results], ddof=1))


@dataclass(frozen=True)
class LoadSweepResult:
    points: tuple[LoadPoint, ...]


def _exit_with_parent() -> None:
    """Wait until the parent process has ended, then end this worker."""
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

    wait([parent_process().sentinel])
    os._exit(1)


def _drain(
    config: SimConfig,
    runner: Callable[[SimConfig, int], TrialResult],
    counter,
    tasks: Sequence[tuple[float, int]],
) -> list[tuple[int, TrialResult]]:
    """Run ``tasks[i]`` for each index ``i`` taken from ``counter`` until none is left.

    ``counter`` holds the next untaken index in ``.value`` under
    ``get_lock()``.  A raising trial moves it past the last task, so every
    other drain stops after its current trial.
    """
    done = []
    try:
        while True:
            with counter.get_lock():
                index = counter.value
                if index >= len(tasks):
                    return done
                counter.value = index + 1
            load, seed = tasks[index]
            done.append((index, runner(config.with_load(load), seed)))
    except BaseException:
        counter.value = len(tasks)  # a shared Value's setter takes its lock
        raise


def _work(config: SimConfig, runner, counter, tasks, sender) -> None:
    """A worker process: send back ``_drain``'s list, or its error (its repr if unpicklable)."""
    threading.Thread(target=_exit_with_parent, daemon=True).start()  # or outlive a killed parent
    try:
        reply = _drain(config, runner, counter, tasks)
    except BaseException as exc:  # the sweeping process raises it
        reply = exc
    try:
        sender.send(reply)
    except Exception:
        sender.send(RuntimeError(repr(reply)))


def _collect(receivers, counter, end: int, replies: dict) -> None:
    """Map each receiver to its worker's reply; any but a list moves ``counter`` to ``end``."""
    from multiprocessing.connection import wait

    while len(replies) < len(receivers):
        for receiver in wait([r for r in receivers if r not in replies]):
            try:
                replies[receiver] = receiver.recv()
            except EOFError:  # the worker died
                from concurrent.futures.process import BrokenProcessPool
                replies[receiver] = BrokenProcessPool("a sweep worker terminated abruptly")
            except Exception as exc:  # a reply that does not unpickle here
                replies[receiver] = exc
            if not isinstance(replies[receiver], list):
                counter.value = end


def check_loads(loads: Sequence[float]) -> None:
    """Reject a load list ``sweep`` cannot run: empty or not strictly increasing."""
    if not loads:
        raise SimConfigError("need at least one load")
    if any(b <= a for a, b in zip(loads, loads[1:])):
        raise SimConfigError(f"loads must be strictly increasing, got {list(loads)}")


def sweep(
    config: SimConfig,
    loads: Sequence[float],
    *,
    jobs: int = 1,
    trial_runner: Callable[[SimConfig, int], TrialResult] = run_trial,
    curve: str | None = None,
) -> LoadSweepResult:
    """Paired-seed trials across traffic loads.

    Every load runs ``config.trials`` trials on the same seed set
    (base_seed + trial index), so
    curves at different loads or k values are directly comparable.
    Loads must be strictly increasing.  A warning is emitted for any
    load whose pooled blocking-event count is below
    ``MIN_BLOCKING_EVENTS``, too few for a stable SBP estimate; it names
    ``curve`` when one is given, for callers that sweep several curves.

    ``jobs`` is the most trials run at once, the calling process being
    one of them: ``jobs > 1`` forks up to ``jobs - 1`` worker processes,
    never more than there are trials beyond the first, so a one-trial
    sweep forks none.  ``trial_runner`` must then pickle: a module-level
    function, or a ``functools.partial`` of one.  Only a forking sweep
    imports ``multiprocessing``, and ``numpy.random`` before it forks, so
    workers inherit it (5.5 MB of a first sweep's worker RSS).  Results
    are placed by trial, so they do not depend on ``jobs`` or on which
    process ran a trial.  A trial that raises, or a worker that dies, stops
    every other process after its current trial, and the error propagates.
    """
    check_loads(loads)
    seeds = [config.base_seed + t for t in range(config.trials)]
    tasks = [(load, seed) for load in loads for seed in seeds]
    workers = min(jobs, len(tasks)) - 1
    if workers > 0:
        from multiprocessing import Pipe, Process, Value  # 1.5 MB of RSS, only when forking
        import numpy.random  # noqa: F401  forked workers inherit it, as they do the path cache

        config.topology.warm_path_cache(config.k, config.ordering)
        counter = Value("q", 0)
        procs, receivers, replies = [], [], {}
        collector = threading.Thread(target=_collect, args=(receivers, counter, len(tasks), replies))
        try:
            for _ in range(workers):
                receiver, sender = Pipe(duplex=False)
                procs.append(Process(target=_work, args=(config, trial_runner, counter, tasks, sender)))
                procs[-1].start()
                sender.close()  # a later fork must not inherit it, or this worker's EOF never comes
                receivers.append(receiver)
            collector.start()  # only after the last fork: forking a threaded process is unsafe
            done = _drain(config, trial_runner, counter, tasks)
        finally:
            counter.value = len(tasks)  # should a start fail, started workers stop
            if collector.ident is not None:
                collector.join()
            for proc in procs:
                proc.join()
        for reply in replies.values():
            if not isinstance(reply, list):
                raise reply
            done += reply
    else:  # one process: a plain counter, no shared memory and no lock
        done = _drain(config, trial_runner, SimpleNamespace(value=0, get_lock=nullcontext), tasks)
    results = [result for _index, result in sorted(done, key=lambda pair: pair[0])]

    n = len(seeds)
    points = []
    for i, load in enumerate(loads):
        point = LoadPoint(load, tuple(results[i * n : (i + 1) * n]))
        if point.blocked_total < MIN_BLOCKING_EVENTS:
            label = f" ({curve})" if curve else ""
            warnings.warn(
                f"load {load:g}{label}: only {point.blocked_total} blocking events across "
                f"{point.trials} trials; SBP estimate is noisy",
                stacklevel=2,
            )
        points.append(point)
    return LoadSweepResult(tuple(points))


def write_trials_csv(result: LoadSweepResult, path) -> None:
    """One row per (load, trial): load_erlangs, trial, seed, blocked, total, sbp."""
    _write_trials(result, path, {})


def _write_trials(result: LoadSweepResult, path, extra: dict[str, str]) -> None:
    """``write_trials_csv``'s rows, then a column per ``extra`` name: the
    value of the result attribute it maps to."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["load_erlangs", "trial", "seed", "blocked", "total", "sbp", *extra])
        for point in result.points:
            load = f"{point.load_erlangs:.12g}"
            for trial, r in enumerate(point.results):
                row = [load, trial, r.seed, r.blocked_count, r.total_measured, f"{r.sbp:.12g}"]
                writer.writerow(row + [getattr(r, attr) for attr in extra.values()])


def write_summary_csv(result: LoadSweepResult, path) -> None:
    """One row per load; ``std_sbp`` is empty when one trial leaves it undefined."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["load_erlangs", "trials", "mean_sbp", "std_sbp", "blocked_total"])
        for p in result.points:
            writer.writerow(
                [
                    f"{p.load_erlangs:.12g}",
                    p.trials,
                    f"{p.mean_sbp:.12g}",
                    "" if math.isnan(p.std_sbp) else f"{p.std_sbp:.12g}",
                    p.blocked_total,
                ]
            )


# --- warm-up estimation -------------------------------------------------

#: Simulated horizon per trial, as a multiple of the target load.  The
#: transient spans roughly 5x the load in requests; 16x leaves the
#: truncation-point search a long stationary tail to compare against,
#: and calibrates the whisker-max fit to about 7 requests per Erlang.
WARMUP_HORIZON_FACTOR = 16.0

#: Most requests a warm-up trial may simulate (1000 E, the top of the README's study, needs 16k)
MAX_WARMUP_REQUESTS = 10_000_000


def nonblocking_active_series(
    load_erlangs: float, n_requests: int, rng: np.random.Generator
) -> np.ndarray:
    """Active-connection count after each arrival when nothing blocks.

    :class:`SimConfigError` when an arrival time is past any float.
    """
    lam = load_erlangs / HOLDING_TIME_MEAN
    with np.errstate(over="ignore"):  # an overflow is reported just below
        arrivals = np.cumsum(rng.exponential(1.0 / lam, n_requests))
    if not math.isfinite(arrivals[-1]):
        raise SimConfigError(f"load {load_erlangs} gives arrival times past any float")
    expiries = arrivals + rng.exponential(HOLDING_TIME_MEAN, n_requests)
    departed = np.searchsorted(np.sort(expiries), arrivals, side="left")
    return np.arange(1, n_requests + 1) - departed


def mser5_truncation(series: Sequence[float]) -> int:
    """MSER truncation point, in observations, on batch-of-5 means.

    Minimizes sse(d) / (m - d)^2 over truncation points d in the first
    half of the batch series (the standard guard against the statistic
    degenerating in the tail); ties resolve to the smallest d.
    """
    batch = 5
    x = np.asarray(series, dtype=float)
    m = len(x) // batch
    if m < 2:
        return 0
    z = x[: m * batch].reshape(m, batch).mean(axis=1)
    s1 = np.cumsum(z[::-1])[::-1]  # s1[d] = sum z[d:]
    s2 = np.cumsum((z * z)[::-1])[::-1]
    n_d = m - np.arange(m)
    sse = np.maximum(s2 - s1 * s1 / n_d, 0.0)
    g = sse / (n_d * n_d)
    limit = m // 2 + 1
    return batch * int(np.argmin(g[:limit]))


def warmup_horizon(load_erlangs: float) -> int:
    """Requests ``estimate_warmup`` simulates per trial at a finite load > 0 whose
    arrival rate is not 0, at most :data:`MAX_WARMUP_REQUESTS`;
    :class:`SimConfigError` otherwise."""
    if not (math.isfinite(load_erlangs) and load_erlangs > 0):
        raise SimConfigError(f"load must be finite and > 0, got {load_erlangs}")
    if load_erlangs / HOLDING_TIME_MEAN == 0:
        raise SimConfigError(f"load {load_erlangs} gives an arrival rate of 0")
    if WARMUP_HORIZON_FACTOR * load_erlangs > MAX_WARMUP_REQUESTS:
        raise SimConfigError(
            f"load {load_erlangs:g} needs more than {MAX_WARMUP_REQUESTS} requests "
            "per warm-up trial"
        )
    n = max(1000, int(math.ceil(WARMUP_HORIZON_FACTOR * load_erlangs)))
    return n + (-n) % 5


@dataclass(frozen=True)
class WarmupEstimate:
    load_erlangs: float
    truncation_points: tuple[int, ...]
    q1: float
    median: float
    q3: float
    whisker_max: float


def estimate_warmup(
    load_erlangs: float,
    trials: int,
    *,
    seed: int = 0,
) -> WarmupEstimate:
    """Distribution of MSER-5 truncation points for one target load.

    Simulates ``trials`` non-blocking trials and reports quartiles plus
    the upper whisker (largest point within 1.5 IQR above the third
    quartile), the statistic the warm-up rule-of-thumb fit uses.
    """
    n = warmup_horizon(load_erlangs)
    if trials < 1:
        raise SimConfigError(f"trials must be >= 1, got {trials}")
    children = np.random.SeedSequence([seed, int(load_erlangs * 1000)]).spawn(trials)
    points = []
    for child in children:
        series = nonblocking_active_series(load_erlangs, n, np.random.default_rng(child))
        points.append(mser5_truncation(series))
    arr = np.asarray(points, dtype=float)
    q1, median, q3 = (float(q) for q in np.percentile(arr, [25, 50, 75]))
    fence = q3 + 1.5 * (q3 - q1)
    whisker_max = float(arr[arr <= fence].max()) if (arr <= fence).any() else q3
    return WarmupEstimate(
        load_erlangs=load_erlangs,
        truncation_points=tuple(int(p) for p in points),
        q1=q1,
        median=median,
        q3=q3,
        whisker_max=whisker_max,
    )


def warmup_slope(estimates: Iterable[WarmupEstimate]) -> tuple[float, float]:
    """Least-squares slope and intercept of whisker max against load."""
    pts = sorted(estimates, key=lambda e: e.load_erlangs)
    loads = np.array([e.load_erlangs for e in pts])
    tops = np.array([e.whisker_max for e in pts])
    slope, intercept = np.polyfit(loads, tops, 1)
    return float(slope), float(intercept)
