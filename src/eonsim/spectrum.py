"""Per-fiber spectrum occupancy and contiguous-block search primitives.

Occupancy is stored packed: one arbitrary-precision integer per fiber,
bit ``i`` set meaning slot ``i`` is occupied.  All operations are
defined purely in terms of the equivalent boolean vectors; the packed
form only buys speed.

Each fiber's fragmentation entropy is cached with the occupancy it was
folded at, so a candidate placement is scored from the split run's
bounds alone; the exact rescan settles only near-ties (see
``heuristics.decide``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence


class SpectrumAssignmentError(ValueError):
    """Allocation over occupied slots, or release of slots not held."""


@dataclass(frozen=True, slots=True)
class SlotBlock:
    """A contiguous run of slots starting at a 0-based index.

    ``mask`` has bit ``i`` set for each slot ``i`` of the block; it is
    computed once, at construction.  Placements share blocks through
    :func:`slot_block`.
    """

    start: int
    size: int
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.start < 0 or self.size < 1:
            raise ValueError(f"invalid slot block ({self.start}, {self.size})")
        object.__setattr__(self, "mask", ((1 << self.size) - 1) << self.start)


#: The shared block for ``(start, size)``.  Blocks are immutable, so one
#: per pair serves every trial; there are at most slots x sizes of them,
#: and a bad pair raises on every call, since exceptions are not cached.
slot_block = lru_cache(maxsize=None)(SlotBlock)


@lru_cache(maxsize=None)
def run_shifts(size: int) -> tuple[int, ...]:
    """Shifts that reduce a free mask to the starts of ``size``-slot runs.

    While bit i marks a free run of ``run`` slots, ``free &= free >> s``
    (s <= run) makes it mark a run of ``run + s``; doubling reaches
    ``size`` in about log2(size) steps.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    shifts, run = [], 1
    while run < size:
        shifts.append(min(run, size - run))
        run += shifts[-1]
    return tuple(shifts)


def first_fit(occ: Sequence[int], fiber_ids: Sequence[int], full: int, shifts: Sequence[int]) -> int:
    """Lowest start of a block free on every fiber of a path, or -1.

    ``occ`` holds the packed per-fiber occupancies, ``full`` the grid's
    all-slots mask and ``shifts`` is ``run_shifts(size)`` for the block
    size.  With no fit the mask is 0, and ``(0 & -0).bit_length() - 1``
    is -1.
    """
    used = 0
    for f in fiber_ids:
        used |= occ[f]
    fits = ~used & full
    for shift in shifts:
        fits &= fits >> shift
    return (fits & -fits).bit_length() - 1


def best_fit_run(free: int, n_slots: int, size: int) -> tuple[int, int] | None:
    """Start and length of the smallest maximal free run that fits ``size``.

    Ties between equal-sized runs go to the lowest start.  ``fits`` marks
    every start of ``size`` free slots; those whose previous slot is not
    free start the maximal runs that can hold the block, and only they
    are walked.  Bits of ``free`` at or above ``n_slots`` are ignored.
    """
    free &= (1 << n_slots) - 1
    fits = free
    for shift in run_shifts(size):
        fits &= fits >> shift
    fits &= ~(free << 1)
    occ = ~free
    best = None
    while fits:
        low = fits & -fits
        start = low.bit_length() - 1
        after = occ >> start
        length = (after & -after).bit_length() - 1
        if best is None or length < best[1]:
            best = (start, length)
            if length == size:
                break
        fits ^= low
    return best


@lru_cache(maxsize=None)
def _run_terms(n_slots: int) -> tuple[float, ...]:
    """``p ln p`` of a free run of n slots at index n + 1, p = n / n_slots.

    Index 1 is the empty run's 0.0 and index 0 is unused.  The offset
    matches the bit counts that find a run: a run plus the occupied slot
    that ends it.
    """
    return (0.0, 0.0) + tuple((n / n_slots) * math.log(n / n_slots) for n in range(1, n_slots + 1))


def free_entropy(free: int, n_slots: int) -> float:
    """Fragmentation entropy of one fiber's free mask (bit i set: slot i free).

    H = -sum_i (D_i/D) ln(D_i/D) over the maximal free runs D_i, in
    ascending start order, with D the grid size (natural log).  Adding
    the lowest set bit clears the lowest run and carries into the slot
    above it, so each run costs a few integer operations.  Bits at or
    above ``n_slots`` are ignored.
    """
    table = _run_terms(n_slots)
    free &= (1 << n_slots) - 1
    h = 0.0
    while free:
        step = free + (free & -free)
        h -= table[(free ^ step).bit_count()]  # the run and its carry bit
        free &= step
    return h


class SpectrumState:
    """Mutable occupancy for every fiber of one simulation trial.

    Owned by a single trial's event loop; trials never share state.
    """

    __slots__ = ("n_fibers", "n_slots", "full_mask", "occ", "_entropy_occ", "_entropy")

    def __init__(self, n_fibers: int, n_slots: int):
        self.n_fibers = n_fibers
        self.n_slots = n_slots
        self.full_mask = (1 << n_slots) - 1
        self.occ = [0] * n_fibers
        # per fiber: the occupancy its entropy was last folded at, and that entropy
        self._entropy_occ = [0] * n_fibers
        self._entropy = [0.0] * n_fibers

    @classmethod
    def for_topology(cls, topology) -> "SpectrumState":
        return cls(topology.num_fibers, topology.slots_per_fiber)

    def path_free(self, fiber_ids: Sequence[int]) -> int:
        occ = 0
        for f in fiber_ids:
            occ |= self.occ[f]
        return ~occ & self.full_mask

    def allocate(self, fiber_ids: Sequence[int], block: SlotBlock) -> None:
        """Occupy ``block`` on every fiber of the path (continuity)."""
        mask = block.mask
        if block.start + block.size > self.n_slots:
            raise SpectrumAssignmentError(
                f"block {block} exceeds grid of {self.n_slots} slots"
            )
        occ = self.occ
        for f in fiber_ids:
            if occ[f] & mask:
                raise SpectrumAssignmentError(
                    f"allocate over occupied slots on fiber {f}: {block}"
                )
        for f in fiber_ids:
            occ[f] |= mask

    def release(self, fiber_ids: Sequence[int], block: SlotBlock) -> None:
        mask = block.mask
        occ = self.occ
        for f in fiber_ids:
            if occ[f] & mask != mask:
                raise SpectrumAssignmentError(
                    f"release of slots not occupied on fiber {f}: {block}"
                )
        for f in fiber_ids:
            occ[f] &= ~mask


def entropy_after_placement(
    state: SpectrumState, fiber_ids: Sequence[int], start: int, size: int
) -> float:
    """Summed per-link fragmentation entropy after a hypothetical placement.

    Each fiber is rescanned with the block of ``size`` slots at ``start``
    occupied (:func:`free_entropy`), and the fibers' entropies are added
    in path order.  Raises SpectrumAssignmentError when the block is not
    free on every fiber or does not fit the grid.
    """
    if start < 0 or start + size > state.n_slots:
        raise SpectrumAssignmentError(f"block ({start}, {size}) exceeds grid of {state.n_slots} slots")
    mask = ((1 << size) - 1) << start
    total = 0.0
    for f in fiber_ids:
        occ = state.occ[f]
        if occ & mask:
            raise SpectrumAssignmentError(f"block ({start}, {size}) is not free on fiber {f}")
        total += free_entropy(~(occ | mask), state.n_slots)
    return total


def entropy_estimate(
    state: SpectrumState, fiber_ids: Sequence[int], start: int, size: int
) -> float:
    """:func:`entropy_after_placement` to within :func:`entropy_estimate_error`.

    Per fiber, the cached entropy of its current occupancy (refolded when
    that occupancy has changed) gets the ``p ln p`` term of the free run
    that the block splits added back and the terms of the run's two
    remnants subtracted.  The run's bounds come off the occupancy with
    bit operations, so a fiber costs O(1) once its cache is current.  The
    block must be free on every fiber; that is not checked.
    """
    end = start + size
    n_slots = state.n_slots
    table = _run_terms(n_slots)
    below = (1 << start) - 1
    grid_end = 1 << (n_slots - end)  # ends the run at the grid's edge
    occ, cached_occ, cached = state.occ, state._entropy_occ, state._entropy
    total = 0.0
    for f in fiber_ids:
        o = occ[f]
        if cached_occ[f] != o:
            cached_occ[f] = o
            cached[f] = free_entropy(~o, n_slots)
        lo = (o & below).bit_length()  # the split run's first slot
        tail = o >> end | grid_end
        right = (tail & -tail).bit_length()  # 1 + the right remnant's length
        total += cached[f] + table[end + right - lo] - table[start + 1 - lo] - table[right]
    return total


@lru_cache(maxsize=None)
def entropy_estimate_error(n_slots: int, n_fibers: int) -> float:
    """A bound on |entropy_estimate - entropy_after_placement| over ``n_fibers`` fibers.

    Both are float sums of the same ``p ln p`` table entries with the
    same real value (the estimate adds back the split run's term, which
    the cached fold subtracted), so only the additions round.  With unit
    roundoff u = 2**-53, a sum whose every term passes through at most m
    roundings is within gamma_m = m u / (1 - m u) times the sum of the
    terms' absolute values of the real sum (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 4.2).  Here
    m <= n_slots/2 + 4 + n_fibers: at most ceil(n_slots/2) free runs per
    fiber, three patch terms and n_fibers per-fiber values in the path
    sum.  A fiber's run terms are an entropy over at most n_slots parts
    whose weights sum to at most 1, so their absolute values sum to at
    most ln(n_slots) + 1/e, and each patch term is at most 1/e: below
    n_fibers (ln(n_slots) + 2) in all.  Each value is thus within
    gamma_m n_fibers (ln(n_slots) + 2) of the real sum, and the two
    within twice that.  Evaluating with 2**-52 for u covers gamma_m's
    denominator and the rounding of the bound itself.
    """
    m = n_slots / 2 + 4 + n_fibers
    return 2 * m * 2.0**-52 * n_fibers * (math.log(n_slots) + 2)


def path_congestion(state: SpectrumState, fiber_ids: Sequence[int]) -> float:
    """Maximum occupied-slot fraction over the path's fibers."""
    if not fiber_ids:
        raise ValueError("path has no links")
    return max(state.occ[f].bit_count() for f in fiber_ids) / state.n_slots
