"""The six benchmark allocation policies over a candidate-path list.

Every policy consumes the same pre-computed, pre-ordered candidate
list and returns either a (path, slot block) decision or None when no
candidate can host the request.  Policies differ in how they compose
path order with spectrum search:

* ksp-ff / ksp-bf: first candidate (by rank) with any fit; place
  first-fit / best-fit on that path.
* ff-ksp: spectrum-first; over all candidates, the feasible block with
  the lowest start index wins (ties to earlier rank).
* bf-ksp: over all candidates, the best-fit block sitting in the
  smallest free run wins (ties: lower start, then earlier rank).
* kme-ff: candidate minimizing summed per-link fragmentation entropy
  after a hypothetical first-fit placement (ties to earlier rank).
  Candidates are scored by ``spectrum.entropy_estimate``; only those
  within twice its error bound of the lowest score get the exact fold.
* kca-ff: candidate minimizing path congestion (ties to earlier rank),
  placed first-fit.

All six run in one candidate loop, with one fit routine per fit rule:
``spectrum.first_fit`` and ``spectrum.best_fit_run``.

Decisions are pure functions of the borrowed state: no mutation, and
identical inputs always produce identical outputs.
"""
from __future__ import annotations

import enum
from typing import NamedTuple, Sequence

from .service import ModulationTable, demand_for_path
from .spectrum import (
    SlotBlock,
    SpectrumState,
    best_fit_run,
    entropy_after_placement,
    entropy_estimate,
    entropy_estimate_error,
    first_fit,
    path_congestion,
    run_shifts,
    slot_block,
)
from .topology import CandidatePath


class HeuristicKind(enum.Enum):
    KSP_FF = "ksp-ff"
    FF_KSP = "ff-ksp"
    KSP_BF = "ksp-bf"
    BF_KSP = "bf-ksp"
    KME_FF = "kme-ff"
    KCA_FF = "kca-ff"

    @classmethod
    def from_name(cls, name: str) -> "HeuristicKind":
        try:
            return cls(name)
        except ValueError:
            raise ValueError(
                f"unknown heuristic {name!r}; expected one of "
                f"{[k.value for k in cls]}"
            ) from None


# Looking a member up on an Enum class runs Python-level code; decide uses
# these module-level aliases instead, since it runs for every request.
_KSP_FF, _FF_KSP, _KSP_BF, _BF_KSP, _KME_FF, _KCA_FF = HeuristicKind


class Decision(NamedTuple):
    """The chosen path and slot block; ``block.size`` is the demand."""

    path: CandidatePath
    block: SlotBlock


def decide(
    kind: HeuristicKind,
    request,
    candidates: Sequence[CandidatePath],
    state: SpectrumState,
    table: ModulationTable | None = None,
    guard_slots: int = 0,
) -> Decision | None:
    """Apply one policy to a request; None means blocked.

    One pass in rank order: ksp-ff and ksp-bf return the first candidate
    that fits; the others keep the smallest policy key, so ties go to
    the earlier rank.

    kme-ff keys on ``entropy_estimate``, within eps of the exact fold,
    so the exact argmin lies within 2 eps of the lowest estimate; after
    the loop only those candidates are folded exactly, in rank order.
    eps is taken over all the state's fibers, which bound a loopless path.
    """
    best_fit = kind is _KSP_BF or kind is _BF_KSP
    occ, full, n_slots = state.occ, state.full_mask, state.n_slots
    best_key = best = None
    scored = []  # kme-ff: (estimate, path, start, demand) in rank order
    for path in candidates:
        demand = demand_for_path(request, path, table, guard_slots)
        if demand is None:
            continue
        if best_fit:
            fit = best_fit_run(state.path_free(path.fiber_ids), n_slots, demand)
            if fit is None:
                continue
            start, run_len = fit
        else:
            start = first_fit(occ, path.fiber_ids, full, run_shifts(demand))
            if start < 0:
                continue
        if kind is _KSP_FF or kind is _KSP_BF:
            return Decision(path, slot_block(start, demand))
        if kind is _FF_KSP:
            key = start
        elif kind is _BF_KSP:
            key = (run_len, start)
        elif kind is _KME_FF:
            key = entropy_estimate(state, path.fiber_ids, start, demand)
            scored.append((key, path, start, demand))
        elif kind is _KCA_FF:
            key = path_congestion(state, path.fiber_ids)
        else:
            raise ValueError(f"unhandled heuristic kind {kind}")
        if best_key is None or key < best_key:
            best_key, best = key, (path, start, demand)
            if start == 0 and kind is _FF_KSP:  # no later candidate starts lower
                break
    if best is None:
        return None
    if len(scored) > 1:
        margin = 2 * entropy_estimate_error(n_slots, state.n_fibers)
        near = [s[1:] for s in scored if s[0] - best_key <= margin]
        if len(near) > 1:
            best_key = None
            for path, start, demand in near:  # a closure over state would slow every policy
                key = entropy_after_placement(state, path.fiber_ids, start, demand)
                if best_key is None or key < best_key:
                    best_key, best = key, (path, start, demand)
    path, start, demand = best
    return Decision(path, slot_block(start, demand))
