"""Lower-bound SBP estimation by replay-based defragmentation.

The bound trial runs the ordinary event loop, but whenever direct
allocation fails it is allowed one full reconfiguration: rebuild an
empty network and re-place every active request, plus the newly blocked
one, in descending order of resource footprint (slot demand times
shortest-path hop count), ties to the earlier arrival.  If the rebuild
hosts everything, the trial adopts the rebuilt state and the request is
admitted; otherwise the request counts as blocked and the pre-rebuild
state is kept.  A request the inner heuristic cannot place even on an
empty network blocks without a rebuild.

Relaxing only the no-reconfiguration constraint keeps every adopted
state physically realizable (continuity and contiguity still hold),
and gives the estimator more freedom than any online policy, so its
mean SBP lower-bounds theirs; the acceptance suite checks that at its
tested loads, within two standard errors of the paired difference.  It
does not hold per seed or per trial: the rebuild is greedy and changes
the later trajectory, so a bound trial can block more than its inner
heuristic on the same stream, and a short saturated run can show that
in the mean too.  The reallocation heuristic must be a strong one for
the bound to be tight; ksp-ff and ff-ksp are accepted.

A rebuild re-places hundreds of requests, and most land first-fit on
their rank-0 candidate.  Each request's rebuild entry, made once when it
is admitted, therefore carries that candidate's fibers, demand and
``run_shifts``; the rebuild runs ``spectrum.first_fit`` on it, the same
routine ``decide`` uses, and calls the inner heuristic's ``decide``
only for the requests that placement cannot settle.  It returns
active-lightpath records, entry included, for the trial to adopt.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .heuristics import HeuristicKind, decide
from .service import demand_for_path
from .simulator import (
    ActiveLightpaths,
    LoadPoint,
    LoadSweepResult,
    SimConfig,
    SimConfigError,
    TrialResult,
    _write_trials,
    run_stream,
    sweep,
)
from .spectrum import SpectrumState, first_fit, run_shifts
from .traffic import ServiceRequest, generate_stream

INNER_HEURISTICS = (HeuristicKind.KSP_FF, HeuristicKind.FF_KSP)


class CrossingNotBracketedError(RuntimeError):
    """The swept loads do not bracket the target SBP for a curve."""


@dataclass(frozen=True)
class DefragTrialResult(TrialResult):
    defrag_count: int = 0

    @property
    def direct_count(self) -> int:
        """Measured requests admitted without a rebuild."""
        return self.total_measured - self.blocked_count - self.defrag_count


def require_inner_heuristic(config: SimConfig) -> None:
    if config.heuristic not in INNER_HEURISTICS:
        raise SimConfigError(
            f"bound trials require an inner heuristic in "
            f"{[k.value for k in INNER_HEURISTICS]}, got {config.heuristic.value}"
        )


def defrag_bound_trial(config: SimConfig, seed: int) -> DefragTrialResult:
    """One seeded bound trial: the plain event loop plus a rebuild on every block."""
    require_inner_heuristic(config)
    stream = generate_stream(
        config.traffic, config.total_requests, config.topology.nodes, seed
    )
    table, guard = config.modulation, config.guard_slots
    empty = SpectrumState.for_topology(config.topology)  # never written
    defrag = 0  # rebuild admissions in the measured window

    def rebuild_entry(request: ServiceRequest, candidates) -> tuple:
        """Negated footprint, the request, its candidates, its rank-0 placement.

        The footprint is the slot demand on the rank-0 candidate times
        its hop count.  A rate request's demand is pinned to that path's
        modulation; when even that path is beyond every reach, the
        lowest-order format stands in so the footprint stays defined,
        and the rank-0 placement is None: the request cannot use that
        path.  Otherwise the placement is the path's fiber ids, the
        demand and ``run_shifts(demand)``, for ``_rebuild``'s rank-0
        first fit.
        """
        fiber_ids = candidates.fiber_ids[0]
        slots = demand_for_path(request, candidates.lengths_km[0], table, guard)
        if slots is None:
            slots = table._slots[request.rate_gbps, table.formats[-1].bits_per_symbol, guard]
            rank0 = None
        else:
            rank0 = (fiber_ids, slots, run_shifts(slots))
        return (-slots * len(fiber_ids), request, candidates, rank0)

    def on_block(i: int, request: ServiceRequest, candidates, active: ActiveLightpaths) -> bool:
        nonlocal defrag
        # no rebuild can host a request that fails on an empty network
        if decide(config.heuristic, request, candidates, empty, table, guard) is not None:
            entry = rebuild_entry(request, candidates)
            rebuilt = _rebuild(config, [rec[2] for rec in active.records.values()] + [entry])
            if rebuilt is not None:
                active.adopt_rebuild(*rebuilt, request)
                defrag += i >= config.warmup_requests
                return True
        return False

    blocked = run_stream(config, stream, on_block=on_block, rebuild_entry=rebuild_entry)
    return DefragTrialResult(
        seed=seed,
        blocked_count=blocked,
        total_measured=len(stream) - config.warmup_requests,
        defrag_count=defrag,
    )


def _rebuild(
    config: SimConfig, entries: list[tuple]
) -> tuple[SpectrumState, dict[int, tuple[Sequence[int], int, tuple]]] | None:
    """Re-place every request on an empty network, largest footprint first.

    ``entries`` are the requests' rebuild entries from
    ``defrag_bound_trial``, in admission order with the blocked request
    last.  Requests are admitted in arrival order, so a stable sort on
    the footprint alone breaks its ties to the earlier arrival.
    Returns the rebuilt state and the active-lightpath records keyed by
    request id, each ``(fiber_ids, slot mask, entry)`` in placement order,
    or None as soon as any request cannot be hosted.

    Each request first runs ``first_fit`` on its rank-0 candidate with
    the entry's precompiled fibers and shifts.  Under ksp-ff any fit
    there is ``decide``'s placement; under ff-ksp only a fit at slot 0
    is, since a later candidate may start lower.  Every other request
    takes the (fiber ids, slot mask) pair the inner heuristic's
    ``decide`` returns, and one loop places either.
    """
    temp = SpectrumState.for_topology(config.topology)
    occ, full = temp.occ, temp.full_mask
    kind, table, guard = config.heuristic, config.modulation, config.guard_slots
    # a rank-0 fit is decide's choice when it starts below this: under ff-ksp, only at 0
    rank0_limit = 1 if kind is HeuristicKind.FF_KSP else temp.n_slots
    records: dict[int, tuple[Sequence[int], int, tuple]] = {}
    entries.sort(key=itemgetter(0))
    for entry in entries:
        _footprint, request, candidates, rank0 = entry
        start = -1
        if rank0 is not None:
            fiber_ids, demand, shifts = rank0
            start = first_fit(occ, fiber_ids, full, shifts)
        if 0 <= start < rank0_limit:
            mask = ((1 << demand) - 1) << start
        else:
            placement = decide(kind, request, candidates, temp, table, guard)
            if placement is None:
                return None
            fiber_ids, mask = placement
        for f in fiber_ids:  # the block is free on every fiber
            occ[f] |= mask
        records[request.id] = (fiber_ids, mask, entry)
    return temp, records


@dataclass(frozen=True)
class CapacityGainReport:
    target_sbp: float
    heuristic_load: float
    bound_load: float

    @property
    def relative_gain(self) -> float:
        return (self.bound_load - self.heuristic_load) / self.heuristic_load


def crossing_load(
    points: Sequence[LoadPoint], target_sbp: float, *, label: str = "curve"
) -> float:
    """Load at which the mean-SBP curve crosses ``target_sbp``.

    Piecewise-linear interpolation of log(SBP) against load, using the
    last upward bracket.  Zero means (no blocking observed) are clamped
    to a tenth of one pooled blocking event before taking logs.
    """
    if len(points) < 2:
        raise CrossingNotBracketedError(f"{label}: need at least two swept loads")
    loads = [p.load_erlangs for p in points]
    floor_candidates = [
        0.1 / (p.trials * p.results[0].total_measured) for p in points
    ]
    means = [
        max(p.mean_sbp, f) for p, f in zip(points, floor_candidates)
    ]
    bracket = None
    for i in range(len(points) - 1):
        if means[i] <= target_sbp <= means[i + 1] and means[i] < means[i + 1]:
            bracket = i
    if bracket is None:
        raise CrossingNotBracketedError(
            f"{label}: no swept interval brackets SBP {target_sbp:g}; "
            f"mean SBP by load: "
            + ", ".join(f"{l:g}->{m:.3g}" for l, m in zip(loads, means))
        )
    i = bracket
    t = (math.log(target_sbp) - math.log(means[i])) / (
        math.log(means[i + 1]) - math.log(means[i])
    )
    return loads[i] + t * (loads[i + 1] - loads[i])


def capacity_gain(
    heuristic: LoadSweepResult, bound: LoadSweepResult, target_sbp: float
) -> CapacityGainReport:
    """Extra load the bound supports over the heuristic at ``target_sbp``.

    Raises :class:`CrossingNotBracketedError` when the swept loads do
    not bracket the target on either curve.
    """
    return CapacityGainReport(
        target_sbp=target_sbp,
        heuristic_load=crossing_load(heuristic.points, target_sbp, label="heuristic"),
        bound_load=crossing_load(bound.points, target_sbp, label="bound"),
    )


def bound_sweep(
    config: SimConfig, loads: Sequence[float], *, jobs: int = 1
) -> tuple[LoadSweepResult, LoadSweepResult]:
    """Paired-seed sweeps of the inner heuristic and the bound estimator.

    Returns the ``(heuristic, bound)`` curves, for :func:`capacity_gain`.
    A heuristic the bound cannot use is rejected before any trial runs.
    """
    require_inner_heuristic(config)
    return (
        sweep(config, loads, jobs=jobs, curve="heuristic"),
        sweep(config, loads, jobs=jobs, trial_runner=defrag_bound_trial, curve="bound"),
    )


def write_bound_trials_csv(result: LoadSweepResult, path) -> None:
    """Sweep schema plus per-trial direct/defrag counts."""
    _write_trials(result, path, {"direct": "direct_count", "defrag": "defrag_count"})


def write_gain_report(report: CapacityGainReport, path) -> None:
    """Small structured-text (JSON) capacity-gain summary."""
    import json

    with open(path, "w") as fh:
        json.dump(
            {
                "target_sbp": report.target_sbp,
                "heuristic_load_erlangs": round(report.heuristic_load, 6),
                "bound_load_erlangs": round(report.bound_load, 6),
                "relative_gain": round(report.relative_gain, 6),
            },
            fh,
            indent=2,
        )
        fh.write("\n")
