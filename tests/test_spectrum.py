import math
import signal
from itertools import accumulate
from operator import sub

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonsim.spectrum import (
    SlotBlock,
    SpectrumAssignmentError,
    SpectrumState,
    best_fit_run,
    entropy_after_placement,
    first_fit,
    free_runs,
    path_congestion,
    run_shifts,
    slot_block,
)
from reference import (
    best_fit_oracle,
    entropy_oracle,
    first_fit_oracle,
    fragmentation_entropy,
    maximal_free_runs_oracle,
    occupied_slot_count,
    pack_bits,
    path_free_mask,
)


def free_of(occupied_bits):
    n = len(occupied_bits)
    return path_free_mask([pack_bits(occupied_bits)], n), n


def first_fit_start(grids, size):
    """``first_fit`` on a path whose fibers hold ``grids``; None for no fit."""
    n = len(grids[0])
    occ = [pack_bits(g) for g in grids]
    start = first_fit(occ, range(len(grids)), (1 << n) - 1, run_shifts(size))
    return None if start < 0 else start


# --- path free mask -------------------------------------------------------

def path_free_bits(grids):
    """Free slots of a path whose fibers hold ``grids``, via SpectrumState.path_free."""
    state = SpectrumState(len(grids), len(grids[0]))
    state.occ = [pack_bits(g) for g in grids]
    free = state.path_free(range(len(grids)))
    return [bool(free >> i & 1) for i in range(state.n_slots)]


def test_path_free_is_intersection():
    # link frees {0,1,2} and {1,2,3} on 4 slots -> path free {1,2}
    g1 = [0, 0, 0, 1]
    g2 = [1, 0, 0, 0]
    assert path_free_bits([g1, g2]) == [False, True, True, False]


def test_path_free_single_link_identity():
    g = [1, 0, 1, 0, 0]
    assert path_free_bits([g]) == [False, True, False, True, True]


def test_path_free_empty_network():
    grids = [[0] * 8, [0] * 8, [0] * 8]
    assert path_free_bits(grids) == [True] * 8


# --- first fit -------------------------------------------------------------

def test_first_fit_example():
    assert first_fit_start([[1, 1, 0, 0, 1, 0, 0, 0]], 2) == 2


def test_first_fit_whole_grid():
    assert first_fit_start([[0] * 10], 10) == 0


def test_first_fit_no_contiguous_pair():
    assert first_fit_start([[0, 1, 0, 1, 0]], 2) is None


def test_first_fit_needs_the_block_free_on_every_fiber():
    # each fiber alone has a 2-slot run at 0; only slots 4-5 are free on both
    assert first_fit_start([[0, 0, 1, 1, 0, 0], [0, 1, 0, 0, 0, 0]], 2) == 4


# --- best fit --------------------------------------------------------------

def test_best_fit_prefers_smallest_run():
    # runs: size 3 at 0, size 2 at 5
    free, n = free_of([0, 0, 0, 1, 1, 0, 0, 1])
    assert best_fit_run(free, n, 2) == (5, 2)


def test_best_fit_tie_goes_to_lowest_start():
    # runs: size 2 at 0, size 2 at 4
    free, n = free_of([0, 0, 1, 1, 0, 0, 1])
    assert best_fit_run(free, n, 2) == (0, 2)


def test_best_fit_cannot_fit():
    free, n = free_of([1, 0, 1, 1])
    assert best_fit_run(free, n, 2) is None


# --- oracle equivalence ----------------------------------------------------

def test_fit_functions_match_bruteforce_scan():
    rng = np.random.default_rng(3)
    for _ in range(800):
        n = int(rng.integers(1, 65))
        occ = list((rng.random(n) < rng.random()).astype(int))
        free = path_free_mask([pack_bits(occ)], n)
        size = int(rng.integers(1, n + 2))
        assert first_fit_start([occ], size) == first_fit_oracle(occ, size)
        bf = best_fit_run(free, n, size)
        assert (bf[0] if bf else None) == best_fit_oracle(occ, size)


@given(st.lists(st.booleans(), min_size=1, max_size=200), st.integers(1, 16))
@settings(max_examples=300, deadline=None)
def test_fit_functions_match_oracle_hypothesis(occ, size):
    n = len(occ)
    free = path_free_mask([pack_bits(occ)], n)
    assert first_fit_start([occ], size) == first_fit_oracle(occ, size)
    bf = best_fit_run(free, n, size)
    assert (bf[0] if bf else None) == best_fit_oracle(occ, size)


def test_best_fit_run_start_and_length_exhaustive():
    """Every free mask of up to 10 slots, with junk bits past the grid, and every size.

    bf-ksp ranks candidates by the run length, so it is checked as well as the start.
    """
    for n in range(1, 11):
        for mask in range(1 << n):
            occ = [not mask >> i & 1 for i in range(n)]
            runs = dict(maximal_free_runs_oracle(occ))
            for size in range(1, n + 2):
                start = best_fit_oracle(occ, size)
                expected = None if start is None else (start, runs[start])
                for junk in (0, 1, 0b101, 0b111):
                    assert best_fit_run(mask | junk << n, n, size) == expected, (n, mask, size, junk)


# --- entropy ----------------------------------------------------------------

def test_entropy_fully_free_is_zero():
    free, n = free_of([0] * 8)
    assert fragmentation_entropy(free, n) == 0.0


def test_entropy_two_quarter_blocks_is_ln2():
    # two free runs each a quarter of the grid: -2 * (1/4) * ln(1/4) = ln 2
    import math

    occ = [1] * 4 + [0] * 4 + [1] * 4 + [0] * 4
    free, n = free_of(occ)
    assert fragmentation_entropy(free, n) == pytest.approx(math.log(2))


def test_entropy_matches_analytic_value():
    import math

    occ = [0, 0, 0, 0, 1, 0, 0, 0]  # runs 4 and 3, D=8
    free, n = free_of(occ)
    h = fragmentation_entropy(free, n)
    assert h == pytest.approx(-(4 / 8) * math.log(4 / 8) - (3 / 8) * math.log(3 / 8))


def test_entropy_fully_occupied_is_zero():
    free, n = free_of([1] * 8)
    assert fragmentation_entropy(free, n) == 0.0


@given(st.lists(st.booleans(), min_size=1, max_size=120))
@settings(max_examples=200, deadline=None)
def test_entropy_matches_oracle_and_zero_iff_whole_or_empty(occ):
    free = path_free_mask([pack_bits(occ)], len(occ))
    h = fragmentation_entropy(free, len(occ))
    assert h == pytest.approx(entropy_oracle(occ))
    runs = free_runs(free, len(occ))
    if h == 0.0:
        assert len(runs) == 0 or (len(runs) == 1 and runs[0][1] == len(occ))
    if len(runs) >= 2:
        assert h > 0.0


def _out_of_time(signum, frame):
    raise TimeoutError("free_runs did not return")


def test_free_runs_ignores_bits_past_the_grid():
    """Free bits at or above n_slots end the scan instead of stalling it.

    A CPU-time alarm turns a scan that never returns into a failure.
    """
    previous = signal.signal(signal.SIGVTALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_VIRTUAL, 1.0)
    try:
        assert free_runs(0b110000, 4) == []
        assert free_runs(0b111100, 4) == [(2, 2)]
        assert free_runs(0b1011 | 1 << 70, 4) == [(0, 2), (3, 1)]
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)


# --- shared slot blocks -----------------------------------------------------

def test_shared_block_equals_and_hashes_like_a_fresh_one():
    shared = slot_block(2, 3)
    assert slot_block(2, 3) is shared
    assert shared == SlotBlock(2, 3) and hash(shared) == hash(SlotBlock(2, 3))
    assert shared.mask == SlotBlock(2, 3).mask == 0b11100
    assert shared != slot_block(3, 2)


def test_shared_block_rejects_attribute_assignment():
    with pytest.raises(AttributeError):
        slot_block(0, 1).start = 5
    assert slot_block(0, 1).start == 0


@pytest.mark.parametrize("start,size", [(-1, 2), (0, 0)])
def test_bad_shared_block_raises_on_every_call(start, size):
    for _ in range(2):  # an exception is not cached
        with pytest.raises(ValueError):
            slot_block(start, size)


# --- allocate / release -----------------------------------------------------

def test_allocate_release_roundtrip():
    state = SpectrumState(2, 8)
    block = SlotBlock(2, 3)
    state.allocate([0, 1], block)
    assert occupied_slot_count(state) == 6
    state.release([0, 1], block)
    assert state.occ == [0, 0]


def test_allocate_over_occupied_rejected():
    state = SpectrumState(2, 8)
    state.allocate([0], SlotBlock(0, 4))
    with pytest.raises(SpectrumAssignmentError):
        state.allocate([0, 1], SlotBlock(3, 2))
    # failed allocation must not half-apply
    assert state.occ[1] == 0


def test_release_unheld_rejected():
    state = SpectrumState(1, 8)
    with pytest.raises(SpectrumAssignmentError):
        state.release([0], SlotBlock(0, 1))


def test_continuity_allocation_touches_every_link():
    state = SpectrumState(3, 8)
    state.allocate([0, 1, 2], SlotBlock(0, 4))
    assert state.occ == [pack_bits([True] * 4 + [False] * 4)] * 3


def test_block_exceeding_grid_rejected():
    state = SpectrumState(1, 8)
    with pytest.raises(SpectrumAssignmentError, match="exceeds"):
        state.allocate([0], SlotBlock(6, 4))


@given(
    st.integers(0, 2**24 - 1),
    st.integers(0, 23),
    st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_allocate_release_identity(occ_mask, start, size):
    n = 24
    if start + size > n:
        start = n - size
    state = SpectrumState(1, n)
    state.occ[0] = occ_mask
    block = SlotBlock(start, size)
    if occ_mask & block.mask:
        with pytest.raises(SpectrumAssignmentError):
            state.allocate([0], block)
        assert state.occ[0] == occ_mask
    else:
        state.allocate([0], block)
        state.release([0], block)
        assert state.occ[0] == occ_mask


# --- entropy after placement (per-fiber run cache) --------------------------

def grid_of(state, f):
    return [bool(state.occ[f] >> i & 1) for i in range(state.n_slots)]


def placed_entropy_oracle(state, fiber_ids, block):
    """Summed entropy_oracle of each fiber's grid with ``block`` occupied."""
    placed = range(block.start, block.start + block.size)
    total = 0.0
    for f in fiber_ids:
        total += entropy_oracle([b or i in placed for i, b in enumerate(grid_of(state, f))])
    return total


@given(st.sampled_from([1, 63, 64, 65, 320]), st.data())
@settings(max_examples=150, deadline=None)
def test_entropy_after_placement_tracks_every_occupancy_change(n_slots, data):
    n_fibers = 3
    state = SpectrumState(n_fibers, n_slots)
    fibers = st.lists(st.integers(0, n_fibers - 1), min_size=1, max_size=n_fibers, unique=True)
    held = []  # (fiber_ids, block) placed through allocate and not yet released
    for _step in range(data.draw(st.integers(1, 10))):
        op = data.draw(st.sampled_from(["allocate", "release", "write", "swap"]))
        if op == "allocate":
            size = data.draw(st.integers(1, n_slots))
            block = SlotBlock(data.draw(st.integers(0, n_slots - size)), size)
            path = data.draw(fibers)
            if not any(state.occ[f] & block.mask for f in path):
                state.allocate(path, block)
                held.append((path, block))
        elif op == "release" and held:
            state.release(*held.pop(data.draw(st.integers(0, len(held) - 1))))
        elif op == "write":
            f = data.draw(st.integers(0, n_fibers - 1))
            state.occ[f] = data.draw(st.integers(0, state.full_mask))
            held = [(path, block) for path, block in held if f not in path]
        elif op == "swap":  # a new occupancy list, as a defragmentation rebuild installs
            state.occ = [data.draw(st.integers(0, state.full_mask)) for _ in range(n_fibers)]
            held = []
        for _check in range(3):
            path = data.draw(fibers)
            size = data.draw(st.integers(1, n_slots))
            occupied = grid_of(state, path[0])
            for f in path[1:]:
                occupied = [a or b for a, b in zip(occupied, grid_of(state, f))]
            starts = [
                s
                for run_start, length in maximal_free_runs_oracle(occupied)
                for s in range(run_start, run_start + length - size + 1)
            ]
            if not starts:
                continue
            block = SlotBlock(data.draw(st.sampled_from(starts)), size)
            expected = placed_entropy_oracle(state, path, block)
            assert entropy_after_placement(state, path, block.start, block.size) == expected


def scratch_record(state, f):
    """Fiber ``f``'s run record built by one scan of the whole fiber."""
    occupied = [bool(state.occ[f] >> i & 1) for i in range(state.n_slots)]
    runs = maximal_free_runs_oracle(occupied)
    n = state.n_slots
    terms = [(length / n) * math.log(length / n) for _start, length in runs]
    return (
        state.occ[f],
        [start for start, _length in runs],
        [start + length for start, length in runs],
        terms,
        list(accumulate(terms, sub, initial=0.0)),
    )


@given(st.sampled_from([1, 63, 64, 65, 80, 320]), st.data())
@settings(max_examples=150, deadline=None)
def test_patched_run_record_equals_one_built_from_scratch(n_slots, data):
    """After every step, each record patched so far equals a full rebuild, floats by ==.

    A fiber is patched only on some steps, so one patch may span several
    occupancy changes, as between two lookups of a real trial.
    """
    n_fibers = 3
    state = SpectrumState(n_fibers, n_slots)
    held = []
    for _step in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(["allocate", "release", "write", "swap"]))
        if op == "allocate":
            size = data.draw(st.integers(1, n_slots))
            block = SlotBlock(data.draw(st.integers(0, n_slots - size)), size)
            path = data.draw(st.lists(st.integers(0, n_fibers - 1), min_size=1, unique=True))
            if not any(state.occ[f] & block.mask for f in path):
                state.allocate(path, block)
                held.append((path, block))
        elif op == "release" and held:
            state.release(*held.pop(data.draw(st.integers(0, len(held) - 1))))
        elif op == "write":
            f = data.draw(st.integers(0, n_fibers - 1))
            state.occ[f] = data.draw(st.integers(0, state.full_mask))
            held = [(path, block) for path, block in held if f not in path]
        elif op == "swap":
            state.occ = [data.draw(st.integers(0, state.full_mask)) for _ in range(n_fibers)]
            held = []
        for f in range(n_fibers):
            if data.draw(st.booleans()):
                assert state._rebuild_runs(f) == scratch_record(state, f)


def test_entropy_after_placement_rejects_block_over_occupied_slots():
    state = SpectrumState(3, 8)
    state.allocate([1], SlotBlock(3, 1))
    state.occ[2] = state.full_mask
    ok = SlotBlock(2, 3)
    assert entropy_after_placement(state, [0], 2, 3) == placed_entropy_oracle(state, [0], ok)
    for fiber_ids, block in [
        ([0, 1], ok),  # slot 3 held on fiber 1
        ([0], SlotBlock(6, 3)),  # past the grid's end
        ([2], SlotBlock(0, 1)),  # fully occupied fiber
    ]:
        with pytest.raises(SpectrumAssignmentError):
            entropy_after_placement(state, fiber_ids, block.start, block.size)
    # a rejected block is rejected again after the rejecting fiber's record is cached
    with pytest.raises(SpectrumAssignmentError):
        entropy_after_placement(state, [1], 3, 1)


# --- congestion -------------------------------------------------------------

def test_congestion_is_max_fraction():
    state = SpectrumState(2, 100)
    state.allocate([0], SlotBlock(0, 10))
    state.allocate([1], SlotBlock(0, 40))
    assert path_congestion(state, [0, 1]) == pytest.approx(0.40)


def test_congestion_empty_and_full():
    state = SpectrumState(1, 10)
    assert path_congestion(state, [0]) == 0.0
    state.allocate([0], SlotBlock(0, 10))
    assert path_congestion(state, [0]) == 1.0


def test_pack_unpack_roundtrip():
    # pack_bits follows the package's convention: bit i is slot i
    bits = [True, False, True, True, False]
    mask = pack_bits(bits)
    assert mask == SlotBlock(0, 1).mask | SlotBlock(2, 2).mask
    assert [bool(mask >> i & 1) for i in range(5)] == bits
