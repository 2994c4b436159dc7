import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonsim.spectrum import (
    SpectrumAssignmentError,
    SpectrumState,
    best_fit_run,
    entropy_after_placement,
    entropy_estimate,
    entropy_estimate_error,
    first_fit,
    free_entropy,
    path_congestion,
    run_shifts,
)
from reference import (
    best_fit_oracle,
    block_mask,
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
    assert free_entropy(free, len(occ)) == entropy_oracle(occ)
    runs = maximal_free_runs_oracle(occ)
    if h == 0.0:
        assert len(runs) == 0 or (len(runs) == 1 and runs[0][1] == len(occ))
    if len(runs) >= 2:
        assert h > 0.0


def _out_of_time(signum, frame):
    raise TimeoutError("free_entropy did not return")


def test_free_entropy_ignores_bits_past_the_grid():
    """Free bits at or above n_slots, including the infinite ones of a
    complemented occupancy, end the scan instead of stalling it.

    A CPU-time alarm turns a scan that never returns into a failure.
    """
    previous = signal.signal(signal.SIGVTALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_VIRTUAL, 1.0)
    try:
        assert free_entropy(0b110000, 4) == 0.0
        assert free_entropy(~0b0011, 4) == free_entropy(0b1100, 4) == entropy_oracle([1, 1, 0, 0])
        assert free_entropy(0b1011 | 1 << 70, 4) == entropy_oracle([0, 0, 1, 0])
        assert free_entropy(~0, 4) == 0.0
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)


# --- allocate / release -----------------------------------------------------

def test_allocate_release_roundtrip():
    state = SpectrumState(2, 8)
    mask = block_mask(2, 3)
    assert mask == 0b11100
    state.allocate([0, 1], mask)
    assert occupied_slot_count(state) == 6
    state.release([0, 1], mask)
    assert state.occ == [0, 0]


@pytest.mark.parametrize(
    "mask,message",
    [
        (0, "not one non-empty block"),
        (-1, "not one non-empty block"),
        (1 << 8, r"block \(8, 1\) exceeds grid of 8 slots"),
        (0b101, "not one non-empty block"),
    ],
    ids=["empty", "negative", "past-grid", "two-runs"],
)
def test_allocate_rejects_a_mask_that_is_not_one_block_in_the_grid(mask, message):
    state = SpectrumState(2, 8)
    with pytest.raises(SpectrumAssignmentError, match=message):
        state.allocate([0, 1], mask)
    assert state.occ == [0, 0]


def test_allocate_over_occupied_rejected():
    state = SpectrumState(2, 8)
    state.allocate([0], block_mask(0, 4))
    with pytest.raises(SpectrumAssignmentError, match=r"fiber 0: block \(3, 2\)"):
        state.allocate([0, 1], block_mask(3, 2))
    # failed allocation must not half-apply
    assert state.occ[1] == 0


def test_release_unheld_rejected():
    state = SpectrumState(1, 8)
    with pytest.raises(SpectrumAssignmentError):
        state.release([0], block_mask(0, 1))


def test_continuity_allocation_touches_every_link():
    state = SpectrumState(3, 8)
    state.allocate([0, 1, 2], block_mask(0, 4))
    assert state.occ == [pack_bits([True] * 4 + [False] * 4)] * 3


def test_block_exceeding_grid_rejected():
    state = SpectrumState(1, 8)
    with pytest.raises(SpectrumAssignmentError, match="exceeds"):
        state.allocate([0], block_mask(6, 4))


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
    mask = block_mask(start, size)
    if occ_mask & mask:
        with pytest.raises(SpectrumAssignmentError):
            state.allocate([0], mask)
        assert state.occ[0] == occ_mask
    else:
        state.allocate([0], mask)
        state.release([0], mask)
        assert state.occ[0] == occ_mask


# --- entropy after placement, exact and estimated -----------------------------

def grid_of(state, f):
    return [bool(state.occ[f] >> i & 1) for i in range(state.n_slots)]


def placed_entropy_oracle(state, fiber_ids, block):
    """Summed entropy_oracle of each fiber's grid with ``block``, a (start, size), occupied."""
    start, size = block
    placed = range(start, start + size)
    total = 0.0
    for f in fiber_ids:
        total += entropy_oracle([b or i in placed for i, b in enumerate(grid_of(state, f))])
    return total


def occupancy_walk(state, data, fibers):
    """Change ``state`` a drawn number of times, yielding after each change.

    A change is an allocate, a release of a held block, a direct write to
    one fiber's occupancy or a new occupancy list, as a defragmentation
    rebuild installs.
    """
    n_fibers, n_slots = state.n_fibers, state.n_slots
    held = []  # (fiber_ids, slot mask) placed through allocate and not yet released
    for _step in range(data.draw(st.integers(1, 10))):
        op = data.draw(st.sampled_from(["allocate", "release", "write", "swap"]))
        if op == "allocate":
            size = data.draw(st.integers(1, n_slots))
            mask = block_mask(data.draw(st.integers(0, n_slots - size)), size)
            path = data.draw(fibers)
            if not any(state.occ[f] & mask for f in path):
                state.allocate(path, mask)
                held.append((path, mask))
        elif op == "release" and held:
            state.release(*held.pop(data.draw(st.integers(0, len(held) - 1))))
        elif op == "write":
            f = data.draw(st.integers(0, n_fibers - 1))
            state.occ[f] = data.draw(st.integers(0, state.full_mask))
            held = [(path, mask) for path, mask in held if f not in path]
        elif op == "swap":
            state.occ = [data.draw(st.integers(0, state.full_mask)) for _ in range(n_fibers)]
            held = []
        yield


def draw_free_block(state, path, data):
    """A (start, size) block free on every fiber of ``path``, or None when no size-1 slot is."""
    size = data.draw(st.integers(1, state.n_slots))
    occupied = grid_of(state, path[0])
    for f in path[1:]:
        occupied = [a or b for a, b in zip(occupied, grid_of(state, f))]
    starts = [
        s
        for run_start, length in maximal_free_runs_oracle(occupied)
        for s in range(run_start, run_start + length - size + 1)
    ]
    if not starts:
        return None
    return data.draw(st.sampled_from(starts)), size


@given(st.sampled_from([1, 63, 64, 65, 320]), st.data())
@settings(max_examples=150, deadline=None)
def test_entropy_after_placement_tracks_every_occupancy_change(n_slots, data):
    state = SpectrumState(3, n_slots)
    fibers = st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True)
    for _ in occupancy_walk(state, data, fibers):
        for _check in range(3):
            path = data.draw(fibers)
            block = draw_free_block(state, path, data)
            if block is not None:
                expected = placed_entropy_oracle(state, path, block)
                assert entropy_after_placement(state, path, *block) == expected


SLOT_COUNTS = [1, 63, 64, 65, 80, 320]


@given(st.sampled_from(SLOT_COUNTS), st.data())
@settings(max_examples=300, deadline=None)
def test_entropy_estimate_is_within_half_its_error_bound(n_slots, data):
    """The estimate of a free block on a path of 1-10 fibers, against the exact fold."""
    state = SpectrumState(10, n_slots)
    state.occ = [data.draw(st.integers(0, state.full_mask)) for _ in range(10)]
    path = data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=10, unique=True))
    block = draw_free_block(state, path, data)
    if block is None:
        return
    exact = entropy_after_placement(state, path, *block)
    estimate = entropy_estimate(state, path, *block)
    assert abs(estimate - exact) <= entropy_estimate_error(n_slots, len(path)) / 2


@given(st.sampled_from(SLOT_COUNTS), st.data())
@settings(max_examples=150, deadline=None)
def test_entropy_estimate_cache_tracks_every_occupancy_change(n_slots, data):
    """Each fiber's cached entropy is refolded once its occupancy changes, however it changed."""
    state = SpectrumState(3, n_slots)
    fibers = st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True)
    for _ in occupancy_walk(state, data, fibers):
        for _check in range(3):
            path = data.draw(fibers)
            block = draw_free_block(state, path, data)
            if block is None:
                continue
            exact = entropy_after_placement(state, path, *block)
            estimate = entropy_estimate(state, path, *block)
            assert abs(estimate - exact) <= entropy_estimate_error(n_slots, len(path)) / 2
            for f in path:
                assert state._entropy_occ[f] == state.occ[f]
                assert state._entropy[f] == free_entropy(~state.occ[f], n_slots)


def test_entropy_after_placement_rejects_block_over_occupied_slots():
    state = SpectrumState(3, 8)
    state.allocate([1], block_mask(3, 1))
    state.occ[2] = state.full_mask
    ok = (2, 3)
    assert entropy_after_placement(state, [0], 2, 3) == placed_entropy_oracle(state, [0], ok)
    for fiber_ids, block in [
        ([0, 1], ok),  # slot 3 held on fiber 1
        ([0], (6, 3)),  # past the grid's end
        ([2], (0, 1)),  # fully occupied fiber
    ]:
        with pytest.raises(SpectrumAssignmentError):
            entropy_after_placement(state, fiber_ids, *block)
    # a rejected block is rejected again after the rejecting fiber's record is cached
    with pytest.raises(SpectrumAssignmentError):
        entropy_after_placement(state, [1], 3, 1)


# --- congestion -------------------------------------------------------------

def test_congestion_is_max_fraction():
    state = SpectrumState(2, 100)
    state.allocate([0], block_mask(0, 10))
    state.allocate([1], block_mask(0, 40))
    assert path_congestion(state, [0, 1]) == pytest.approx(0.40)


def test_congestion_empty_and_full():
    state = SpectrumState(1, 10)
    assert path_congestion(state, [0]) == 0.0
    state.allocate([0], block_mask(0, 10))
    assert path_congestion(state, [0]) == 1.0


def test_pack_unpack_roundtrip():
    # pack_bits follows the package's convention: bit i is slot i
    bits = [True, False, True, True, False]
    mask = pack_bits(bits)
    assert mask == block_mask(0, 1) | block_mask(2, 2)
    assert [bool(mask >> i & 1) for i in range(5)] == bits
