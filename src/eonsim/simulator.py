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
import multiprocessing
import os
import threading
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing.connection import wait
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

import numpy as np

from .heuristics import Decision, HeuristicKind, decide
from .service import ModulationTable
from .spectrum import SlotBlock, SpectrumState
from .topology import CandidatePath, PathOrdering, Topology
from .traffic import HOLDING_TIME_MEAN, ServiceRequest, TrafficConfig, generate_stream

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
    sbp: float

    def __post_init__(self):
        if not 0 <= self.blocked_count <= self.total_measured:
            raise ValueError("blocked_count out of range")
        if not 0.0 <= self.sbp <= 1.0:
            raise ValueError(f"sbp out of range: {self.sbp}")


class ActiveLightpaths:
    """Expiry-ordered set of admitted lightpaths plus their placements."""

    __slots__ = ("_state", "expiries", "records")

    def __init__(self, state: SpectrumState):
        self._state = state
        # heap of (expiry time, request id)
        self.expiries: list[tuple[float, int]] = []
        # request id -> (request, fiber_ids, block, sort key or None)
        self.records: dict[int, tuple[ServiceRequest, tuple[int, ...], SlotBlock, tuple | None]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def add(self, request: ServiceRequest, decision: Decision, key: tuple | None = None) -> None:
        path, block = decision
        self._state.allocate(path.fiber_ids, block)
        self.insert_allocated(request, path.fiber_ids, block, key)

    def insert_allocated(
        self,
        request: ServiceRequest,
        fiber_ids: tuple[int, ...],
        block: SlotBlock,
        key: tuple | None = None,
    ) -> None:
        """Record a lightpath whose slots are already held in the state."""
        self.records[request.id] = (request, fiber_ids, block, key)
        heapq.heappush(self.expiries, (request.expiry_time, request.id))

    def release_due(self, now: float) -> int:
        """Release every lightpath with expiry strictly before ``now``."""
        released = 0
        heap, records, release = self.expiries, self.records, self._state.release
        while heap and heap[0][0] < now:
            _expiry, req_id = heapq.heappop(heap)
            _request, fiber_ids, block, _key = records.pop(req_id)
            release(fiber_ids, block)
            released += 1
        return released

    def replace_placements(
        self, state: SpectrumState, placements: dict[int, tuple[tuple[int, ...], SlotBlock]]
    ) -> None:
        """Adopt a rebuilt network state with new placements for the same set.

        Expiry bookkeeping and sort keys are untouched: the heap references
        request ids, and the rebuilt placements cover exactly the active ids.
        """
        records = self.records
        if placements.keys() != records.keys():
            raise ValueError("rebuilt placements do not cover the active set")
        self._state.occ = state.occ
        for req_id, (fiber_ids, block) in placements.items():
            request, _fibers, _block, key = records[req_id]
            records[req_id] = (request, fiber_ids, block, key)


def run_stream(
    config: SimConfig,
    stream: Sequence[ServiceRequest],
    *,
    on_event: Callable[[SpectrumState, ActiveLightpaths], None] | None = None,
    on_block: Callable[[int, ServiceRequest, Sequence[CandidatePath], ActiveLightpaths], bool]
    | None = None,
    sort_key: Callable[[ServiceRequest, Sequence[CandidatePath]], tuple] | None = None,
) -> TrialResult:
    """Run the event loop over an explicit request stream.

    ``on_block(index, request, candidates, active)`` is called when the
    policy blocks a request, and returns True if it admitted the request
    itself; the defragmentation bound rebuilds the network there.
    ``sort_key(request, candidates)`` is evaluated once per admitted
    request and kept on its active record for ``on_block`` to read.
    ``on_event`` is called after each arrival is resolved; tests use it
    to assert conservation invariants at every event.
    """
    measured = len(stream) - config.warmup_requests
    if measured < 1:
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
        decision = decide(kind, request, candidates, state, table, guard)
        if decision is not None:
            add(request, decision, sort_key(request, candidates) if sort_key else None)
        elif on_block is None or not on_block(i, request, candidates, active):
            if i >= warmup:
                blocked += 1
        if on_event is not None:
            on_event(state, active)

    return TrialResult(
        seed=-1,
        blocked_count=blocked,
        total_measured=measured,
        sbp=blocked / measured,
    )


def run_trial(config: SimConfig, seed: int) -> TrialResult:
    """One seeded trial: generate the stream, run it, report SBP."""
    stream = generate_stream(
        config.traffic, config.total_requests, config.topology.nodes, seed
    )
    result = run_stream(config, stream)
    return replace(result, seed=seed)


@dataclass(frozen=True)
class LoadPoint:
    load_erlangs: float
    mean_sbp: float
    std_sbp: float
    results: tuple[TrialResult, ...]

    @property
    def trials(self) -> int:
        return len(self.results)

    @property
    def blocked_total(self) -> int:
        return sum(r.blocked_count for r in self.results)


@dataclass(frozen=True)
class LoadSweepResult:
    points: tuple[LoadPoint, ...]


def summarize_trials(load: float, results: Sequence[TrialResult]) -> LoadPoint:
    sbps = [r.sbp for r in results]
    mean = float(np.mean(sbps))
    std = float(np.std(sbps, ddof=1)) if len(sbps) >= 2 else math.nan
    return LoadPoint(load, mean, std, tuple(results))


#: ``(config, runner, counter, tasks)`` of this pool worker's sweep
_WORKER_SHARE: tuple | None = None


def _exit_with_parent() -> None:
    """Wait until the parent process has ended, then end this worker."""
    wait([multiprocessing.parent_process().sentinel])
    os._exit(1)


def _init_worker(config: SimConfig, runner, counter, tasks) -> None:
    global _WORKER_SHARE
    _WORKER_SHARE = (config, runner, counter, tasks)
    # a worker whose sweeping process was killed would otherwise run on
    threading.Thread(target=_exit_with_parent, daemon=True).start()


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
        with counter.get_lock():
            counter.value = len(tasks)
        raise


def _drain_worker_share() -> list[tuple[int, TrialResult]]:
    return _drain(*_WORKER_SHARE)


def _stop_if_failed(counter, end: int, share: Future) -> None:
    # a worker that died without raising could not move the counter itself
    if share.exception() is not None:
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
    function, or a ``functools.partial`` of one.  Results are placed by
    trial, so they do not depend on ``jobs`` or on which process ran a
    trial.  A trial that raises, or a worker that dies, stops every other
    process after its current trial, and the error propagates.
    """
    check_loads(loads)
    seeds = [config.base_seed + t for t in range(config.trials)]
    tasks = [(load, seed) for load in loads for seed in seeds]
    workers = min(jobs, len(tasks)) - 1
    if workers > 0:
        config.topology.warm_path_cache(config.k, config.ordering)
        counter = multiprocessing.Value("q", 0)
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(config, trial_runner, counter, tasks),
        ) as pool:
            shares = [pool.submit(_drain_worker_share) for _ in range(workers)]
            for share in shares:
                share.add_done_callback(partial(_stop_if_failed, counter, len(tasks)))
            done = _drain(config, trial_runner, counter, tasks)
            for share in shares:
                done += share.result()
    else:  # one process: a plain counter, no shared memory and no lock
        done = _drain(config, trial_runner, SimpleNamespace(value=0, get_lock=nullcontext), tasks)
    results = [result for _index, result in sorted(done, key=lambda pair: pair[0])]

    n = len(seeds)
    points = []
    for i, load in enumerate(loads):
        point = summarize_trials(load, results[i * n : (i + 1) * n])
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["load_erlangs", "trial", "seed", "blocked", "total", "sbp"])
        for point in result.points:
            for trial, r in enumerate(point.results):
                writer.writerow(
                    [
                        f"{point.load_erlangs:.12g}",
                        trial,
                        r.seed,
                        r.blocked_count,
                        r.total_measured,
                        f"{r.sbp:.12g}",
                    ]
                )


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


def nonblocking_active_series(
    load_erlangs: float, n_requests: int, rng: np.random.Generator
) -> np.ndarray:
    """Active-connection count after each arrival when nothing blocks."""
    lam = load_erlangs / HOLDING_TIME_MEAN
    arrivals = np.cumsum(rng.exponential(1.0 / lam, n_requests))
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
    if not (math.isfinite(load_erlangs) and load_erlangs > 0):
        raise SimConfigError(f"load must be finite and > 0, got {load_erlangs}")
    if trials < 1:
        raise SimConfigError(f"trials must be >= 1, got {trials}")
    n = max(1000, int(math.ceil(WARMUP_HORIZON_FACTOR * load_erlangs)))
    n += (-n) % 5
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
