"""Per-fiber spectrum occupancy and contiguous-block search primitives.

Occupancy is stored packed: one arbitrary-precision integer per fiber,
bit ``i`` set meaning slot ``i`` is occupied.  All operations are
defined purely in terms of the equivalent boolean vectors; the packed
form only buys speed.

Each fiber's maximal free runs, with their ``p ln p`` entropy terms and
prefix partial entropies, are kept in a lazily built record.  When the
fiber's occupancy integer has changed, only the runs around the changed
slots are rescanned and spliced in, so the entropy after a hypothetical
placement costs a bisection and a short fold rather than a rescan of
every fiber on the path.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import accumulate
from operator import sub
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


def free_runs(free: int, n_slots: int) -> list[tuple[int, int]]:
    """Maximal free runs as (start, length), ascending by start.

    Bits of ``free`` at or above ``n_slots`` are ignored.
    """
    runs = []
    occ_beyond = ~free  # bits >= n_slots read as occupied
    pos = 0
    while True:
        rest = free >> pos
        if not rest:
            return runs
        start = pos + ((rest & -rest).bit_length() - 1)
        if start >= n_slots:
            return runs
        after = occ_beyond >> start
        length = (after & -after).bit_length() - 1
        if start + length > n_slots:
            length = n_slots - start
        runs.append((start, length))
        pos = start + length


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
    """``p ln p`` of a free run of each length n, p = n / n_slots (index 0 unused)."""
    return (0.0,) + tuple((n / n_slots) * math.log(n / n_slots) for n in range(1, n_slots + 1))


class SpectrumState:
    """Mutable occupancy for every fiber of one simulation trial.

    Owned by a single trial's event loop; trials never share state.
    """

    __slots__ = ("n_fibers", "n_slots", "full_mask", "occ", "_runs")

    def __init__(self, n_fibers: int, n_slots: int):
        self.n_fibers = n_fibers
        self.n_slots = n_slots
        self.full_mask = (1 << n_slots) - 1
        self.occ = [0] * n_fibers
        # per fiber: (occupancy, run starts, run ends, run terms, prefix entropies)
        self._runs = [None] * n_fibers

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

    def _rebuild_runs(self, f: int) -> tuple:
        """Fiber ``f``'s run record, patched to its current occupancy.

        Only the old runs that touch a slot changed since the record was
        made, adjacency included, are rescanned, over the window they and
        the changed slots span; a missing record reads as a fully occupied
        fiber.  The prefix entropies are refolded from the first replaced
        run, the same left fold as a full build, so they are bit-identical.
        """
        occ = self.occ[f]
        old, starts, ends, terms, prefix = self._runs[f] or (self.full_mask, [], [], [], [0.0])
        changed = old ^ occ
        if changed:
            lo = (changed & -changed).bit_length() - 1
            hi = changed.bit_length()
            i0 = bisect_left(ends, lo)
            i1 = bisect_right(starts, hi, i0)
            if i0 < i1:
                lo, hi = min(lo, starts[i0]), max(hi, ends[i1 - 1])
            runs = free_runs((~occ & self.full_mask) >> lo, hi - lo)
            table = _run_terms(self.n_slots)
            starts[i0:i1] = [lo + start for start, _length in runs]
            ends[i0:i1] = [lo + start + length for start, length in runs]
            terms[i0:i1] = [table[length] for _start, length in runs]
            prefix[i0:] = accumulate(terms[i0:], sub, initial=prefix[i0])
        record = self._runs[f] = (occ, starts, ends, terms, prefix)
        return record


def entropy_after_placement(
    state: SpectrumState, fiber_ids: Sequence[int], start: int, size: int
) -> float:
    """Summed per-link fragmentation entropy after a hypothetical placement.

    A fiber's entropy is H = -sum_i (D_i/D) ln(D_i/D) over its maximal
    free runs D_i in ascending start order, D the grid size (natural log).
    The block of ``size`` slots at ``start`` splits one run into at most
    two remnants; starting from that run's prefix partial, the remnants'
    and the later runs' terms are subtracted in the same order as a
    left-to-right scan, so the result is bit-identical to rescanning the
    fiber.  Raises
    SpectrumAssignmentError when the block is not inside one free run of
    every fiber.
    """
    end = start + size
    table = _run_terms(state.n_slots)
    records, occ = state._runs, state.occ
    total = 0.0
    for f in fiber_ids:
        record = records[f]
        if record is None or record[0] != occ[f]:  # stale since the last placement
            record = state._rebuild_runs(f)
        _occ, starts, ends, terms, prefix = record
        j = bisect_right(starts, start) - 1
        if j < 0 or ends[j] < end:
            raise SpectrumAssignmentError(f"block ({start}, {size}) is not free on fiber {f}")
        h = prefix[j]
        if start > starts[j]:
            h -= table[start - starts[j]]
        if ends[j] > end:
            h -= table[ends[j] - end]
        total += reduce(sub, terms[j + 1:], h)
    return total


def path_congestion(state: SpectrumState, fiber_ids: Sequence[int]) -> float:
    """Maximum occupied-slot fraction over the path's fibers."""
    if not fiber_ids:
        raise ValueError("path has no links")
    return max(state.occ[f].bit_count() for f in fiber_ids) / state.n_slots

