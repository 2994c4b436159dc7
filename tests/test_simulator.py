import dataclasses
import functools
import importlib
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
import traceback
import tracemalloc
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from eonsim.bounds import defrag_bound_trial
from eonsim.heuristics import HeuristicKind
from eonsim.presets import get_preset
from eonsim.simulator import (
    LoadPoint,
    SimConfig,
    SimConfigError,
    TrialResult,
    estimate_warmup,
    mser5_truncation,
    nonblocking_active_series,
    run_stream,
    run_trial,
    sweep,
    warmup_slope,
    write_summary_csv,
    write_trials_csv,
)
from eonsim.topology import PathOrdering
from eonsim.traffic import ServiceRequest, TrafficConfig
from reference import active_slot_links, block_mask, occupied_slot_count

ORDER = PathOrdering.HOPS_THEN_KM


def fixed_slot_traffic(load=10.0, **kw):
    kw.setdefault("rate_gbps_range", None)
    kw.setdefault("fixed_slot_choices", (1,))
    return TrafficConfig(load, **kw)


def small_config(topology, **kw):
    base = dict(
        topology=topology,
        heuristic=HeuristicKind.KSP_FF,
        k=3,
        ordering=ORDER,
        traffic=fixed_slot_traffic(),
        warmup_requests=0,
        measured_requests=100,
        trials=2,
        base_seed=0,
    )
    base.update(kw)
    return SimConfig(**base)


def nsfnet_config(load, **kw):
    preset = get_preset("deeprmsa")
    topo = preset.load_topology("nsfnet")
    defaults = dict(warmup_requests=1000, measured_requests=4000, trials=3, base_seed=0)
    defaults.update(kw)
    return preset.sim_config(topo, HeuristicKind.KSP_FF, 5, ORDER, load, **defaults)


def run_with_peak(cfg, stream):
    """run_stream's measured block count and the most lightpaths active after any arrival."""
    peak = 0

    def record(state, active):
        nonlocal peak
        peak = max(peak, len(active.records))

    return run_stream(cfg, stream, on_event=record), peak


# --- config validation -------------------------------------------------------

def test_zero_measured_requests_rejected(single_link):
    with pytest.raises(SimConfigError, match="measured_requests"):
        small_config(single_link, measured_requests=0)


def test_rate_traffic_requires_modulation(single_link):
    with pytest.raises(SimConfigError, match="modulation"):
        small_config(single_link, traffic=TrafficConfig(10.0))


# --- event loop semantics ------------------------------------------------------

def test_capacity_exhaustion_single_link(single_link):
    """11 one-slot eternal requests on a 10-slot link block exactly once."""
    stream = [
        ServiceRequest(i, "A", "B", arrival_time=float(i + 1),
                       holding_time=math.inf, slots=1)
        for i in range(11)
    ]
    cfg = small_config(single_link, measured_requests=11)
    blocked, peak = run_with_peak(cfg, stream)
    assert blocked == 1
    assert peak == 10


def test_expiry_strictly_before_arrival(single_link):
    """A lightpath expiring exactly at the arrival instant is not yet released."""
    cfg = small_config(single_link, measured_requests=3)
    mk = lambda i, t, hold: ServiceRequest(i, "A", "B", arrival_time=t,
                                           holding_time=hold, slots=10)
    # r0 holds the whole grid over (1, 3]; r1 at t=3 sees it still active
    stream = [mk(0, 1.0, 2.0), mk(1, 3.0, 1.0), mk(2, 3.5, 1.0)]
    assert run_stream(cfg, stream) == 1  # r1 blocked, r2 admitted after expiry


def test_blocked_requests_consume_nothing(single_link):
    cfg = small_config(single_link, measured_requests=3)
    mk = lambda i, t, slots: ServiceRequest(i, "A", "B", arrival_time=t,
                                            holding_time=100.0, slots=slots)
    stream = [mk(0, 1.0, 9), mk(1, 2.0, 2), mk(2, 3.0, 1)]
    blocked, peak = run_with_peak(cfg, stream)
    # the 2-slot request blocks; the later 1-slot request still fits
    assert blocked == 1
    assert peak == 2


def test_trial_determinism():
    cfg = nsfnet_config(300)
    a = run_trial(cfg, seed=7)
    b = run_trial(cfg, seed=7)
    assert a == b
    c = run_trial(cfg, seed=8)
    assert a != c


@pytest.mark.parametrize("trial", [run_trial, defrag_bound_trial], ids=["ksp-ff", "bound"])
def test_trial_memory_does_not_grow_with_stream_length(trial):
    """A trial builds each request as its loop reaches it, so its peak
    allocation is far below a request tuple per request (about 248 B each
    when the whole stream was built up front)."""
    preset = get_preset("deeprmsa")
    topo = preset.load_topology("nsfnet")
    cfg = preset.sim_config(
        topo, HeuristicKind.KSP_FF, 5, ORDER, 300.0,
        warmup_requests=3000, measured_requests=50_000,
    )
    # paths and compiled demands are cached across trials; fill them first
    topo.warm_path_cache(cfg.k, cfg.ordering)
    trial(dataclasses.replace(cfg, warmup_requests=100, measured_requests=500), 0)
    tracemalloc.start()
    try:
        trial(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / cfg.total_requests < 120, f"{peak / cfg.total_requests:.0f} B per request"


def test_warmup_blocks_not_counted(single_link):
    """Blocks inside the warm-up window never reach the counters."""
    mk = lambda i, t: ServiceRequest(i, "A", "B", arrival_time=t,
                                     holding_time=math.inf, slots=10)
    stream = [mk(0, 1.0), mk(1, 2.0), mk(2, 3.0)]
    cfg = small_config(single_link, warmup_requests=2, measured_requests=1)
    # request 1 blocks during warm-up (grid held by request 0), request 2 in window
    assert run_stream(cfg, stream) == 1


def test_state_persists_across_warmup_boundary(single_link):
    mk = lambda i, t: ServiceRequest(i, "A", "B", arrival_time=t,
                                     holding_time=math.inf, slots=10)
    stream = [mk(0, 1.0), mk(1, 2.0)]
    cfg = small_config(single_link, warmup_requests=1, measured_requests=1)
    assert run_stream(cfg, stream) == 1  # warm-up allocation still occupies the grid


def test_conservation_invariant_fuzz(diamond):
    """Occupied slots == sum over active lightpaths of hops x block size."""
    cfg = SimConfig(
        topology=diamond,
        heuristic=HeuristicKind.KSP_FF,
        k=3,
        ordering=ORDER,
        traffic=fixed_slot_traffic(6.0, fixed_slot_choices=(1, 2, 3)),
        warmup_requests=0,
        measured_requests=3000,
        modulation=None,
    )
    checked = 0

    def check(state, active):
        nonlocal checked
        assert occupied_slot_count(state) == active_slot_links(active)
        checked += 1

    from eonsim.traffic import generate_stream

    stream = generate_stream(cfg.traffic, 3000, diamond.nodes, seed=3)
    blocked = run_stream(cfg, stream, on_event=check)
    assert checked == 3000
    assert blocked > 0  # the fuzz load actually stresses the grid


def test_conservation_holds_with_tuple_fiber_ids(wide_ring):
    """The ring's 260 fibers need tuples of fiber ids, not bytes."""
    from eonsim.traffic import generate_stream

    cfg = small_config(
        wide_ring, k=2, traffic=fixed_slot_traffic(400.0, fixed_slot_choices=(1, 2, 3)),
        measured_requests=400, modulation=None,
    )
    checked = 0

    def check(state, active):
        nonlocal checked
        assert occupied_slot_count(state) == active_slot_links(active)
        assert all(type(fibers) is tuple for fibers, _mask, _entry in active.records.values())
        checked += 1

    stream = generate_stream(cfg.traffic, 400, wide_ring.nodes, seed=5)
    blocked = run_stream(cfg, stream, on_event=check)
    assert checked == 400
    assert blocked > 0  # the load fills the grid


def test_all_slots_free_after_all_expiries(diamond):
    from eonsim.traffic import generate_stream

    cfg = SimConfig(
        topology=diamond,
        heuristic=HeuristicKind.KSP_FF,
        k=3,
        ordering=ORDER,
        traffic=fixed_slot_traffic(4.0),
        warmup_requests=0,
        measured_requests=500,
    )
    stream = generate_stream(cfg.traffic, 500, diamond.nodes, seed=1)
    from eonsim.spectrum import SpectrumState
    from eonsim.simulator import ActiveLightpaths
    from eonsim.heuristics import decide

    state = SpectrumState.for_topology(diamond)
    active = ActiveLightpaths(state)
    for req in stream:
        active.release_due(req.arrival_time)
        decision = decide(cfg.heuristic, req, diamond.candidate_paths(req.src, req.dst, 3, ORDER), state)
        if decision:
            active.add(req, decision)
    active.release_due(math.inf)
    assert occupied_slot_count(state) == 0
    assert len(active.records) == 0


def test_adopt_rebuild_needs_the_active_set_plus_the_request(diamond):
    """A rebuild is adopted only when it records every active lightpath and
    the blocked request, which must not be active; each record keeps its
    place, the request comes last."""
    from eonsim.simulator import ActiveLightpaths
    from eonsim.spectrum import SpectrumState

    fiber_ids = diamond.candidate_paths("A", "D", 1, ORDER).fiber_ids[0]
    first, second, new = (ServiceRequest(i, "A", "D", float(i), 10.0, slots=1) for i in range(3))
    state = SpectrumState.for_topology(diamond)
    active = ActiveLightpaths(state)
    active.add(first, (fiber_ids, block_mask(0, 1)), "k0")
    active.add(second, (fiber_ids, block_mask(1, 1)), "k1")
    rebuilt = SpectrumState.for_topology(diamond)
    for f in fiber_ids:
        rebuilt.occ[f] = 0b111
    # in the rebuild's placement order, not in admission order
    records = {i: (fiber_ids, block_mask(2 - i, 1), f"k{i}") for i in (1, 2, 0)}
    for missing in (new.id, first.id):
        with pytest.raises(ValueError, match="do not cover"):
            short = {i: r for i, r in records.items() if i != missing}
            active.adopt_rebuild(rebuilt, short, new)
    with pytest.raises(ValueError, match="do not cover"):  # the request is already active
        active.adopt_rebuild(rebuilt, {i: records[i] for i in (0, 1)}, second)
    active.adopt_rebuild(rebuilt, records, new)
    assert list(active.records.items()) == [
        (i, (fiber_ids, block_mask(2 - i, 1), f"k{i}")) for i in range(3)
    ]
    assert sorted(active.expiries) == [(10.0 + i, i) for i in range(3)]
    active.release_due(math.inf)
    assert len(active.records) == 0 and occupied_slot_count(state) == 0


# --- sweeps ---------------------------------------------------------------------

def test_sbp_increases_with_load():
    cfg = nsfnet_config(250)
    with pytest.warns(UserWarning, match="load 250: only") as caught:
        result = sweep(cfg, [250, 300, 350])
    # 300 E and 350 E pool enough blocking events not to warn
    assert [str(w.message).split(":")[0] for w in caught] == ["load 250"]
    means = [p.mean_sbp for p in result.points]
    assert means[0] < means[1] < means[2]


def test_higher_k_never_hurts_paired_seeds():
    cfg5 = nsfnet_config(300, trials=3)
    cfg50 = nsfnet_config(300, trials=3)
    import dataclasses

    cfg50 = dataclasses.replace(cfg50, k=50)
    r5 = sweep(cfg5, [300])
    r50 = sweep(cfg50, [300])
    assert r50.points[0].mean_sbp <= r5.points[0].mean_sbp
    # paired seeds used for both runs
    assert [t.seed for t in r5.points[0].results] == [t.seed for t in r50.points[0].results]


@pytest.mark.parametrize(
    "topology_name,load",
    [("cost239", 600.0), ("usnet", 400.0)],
)
def test_higher_k_never_hurts_other_topologies(topology_name, load):
    import dataclasses

    preset = get_preset("deeprmsa")
    topo = preset.load_topology(topology_name)
    cfg = preset.sim_config(
        topo, HeuristicKind.KSP_FF, 2, ORDER, load,
        warmup_requests=500, measured_requests=2000, trials=3, base_seed=1,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lo = sweep(cfg, [load])
        hi = sweep(dataclasses.replace(cfg, k=8), [load])
    assert hi.points[0].mean_sbp <= lo.points[0].mean_sbp


def test_sweep_validates_loads(single_link):
    cfg = small_config(single_link)
    with pytest.raises(SimConfigError, match="strictly increasing"):
        sweep(cfg, [10.0, 10.0])
    with pytest.raises(SimConfigError, match="at least one"):
        sweep(cfg, [])


def test_sweep_warns_on_few_blocking_events():
    cfg = nsfnet_config(100, trials=2, measured_requests=500, warmup_requests=200)
    with pytest.warns(UserWarning, match="blocking events"):
        sweep(cfg, [100])


def test_sweep_single_load_statistics():
    cfg = nsfnet_config(320, trials=4, measured_requests=1500, warmup_requests=500)
    result = sweep(cfg, [320])
    point = result.points[0]
    assert point.trials == 4
    assert len(point.results) == 4
    assert point.std_sbp >= 0.0
    assert 0.0 <= point.mean_sbp <= 1.0


def test_single_trial_point_has_nan_std():
    cfg = nsfnet_config(300)
    r = run_trial(cfg, 0)
    point = LoadPoint(300, (r,))
    assert math.isnan(point.std_sbp)


def test_trial_sbp_is_blocked_over_measured():
    assert TrialResult(seed=4, blocked_count=3, total_measured=8).sbp == 3 / 8


@pytest.mark.parametrize("blocked,total", [(0, 0), (0, -1), (-1, 5), (6, 5)])
def test_trial_result_rejects_impossible_counts(blocked, total):
    # nothing measured leaves SBP undefined; the others cannot be counted
    with pytest.raises(ValueError):
        TrialResult(seed=0, blocked_count=blocked, total_measured=total)


def test_load_point_statistics_come_from_its_trials():
    results = tuple(TrialResult(s, b, 40) for s, b in enumerate([1, 4, 2]))
    point = LoadPoint(250.0, results)
    sbps = [1 / 40, 4 / 40, 2 / 40]
    assert point.trials == 3
    assert point.blocked_total == 7
    assert point.mean_sbp == float(np.mean(sbps))
    assert point.std_sbp == float(np.std(sbps, ddof=1))


def test_parallel_sweep_matches_serial():
    """Pooled sweeps equal serial ones, for plain trials and for the bound.

    The serial sweep runs first, so the parent's compiled demand lookups
    are warm when the configuration is sent to the workers.
    """
    from eonsim.bounds import defrag_bound_trial

    cfg = nsfnet_config(320, trials=2, measured_requests=1000, warmup_requests=300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        serial = sweep(cfg, [320, 340], jobs=1)
        parallel = sweep(cfg, [320, 340], jobs=2)
        parallel3 = sweep(cfg, [320, 340], jobs=3)
        bound_serial = sweep(cfg, [320, 340], jobs=1, trial_runner=defrag_bound_trial)
        bound_parallel = sweep(
            cfg, [320, 340], jobs=2, trial_runner=defrag_bound_trial
        )
    assert serial == parallel == parallel3
    assert bound_serial == bound_parallel
    assert sum(r.defrag_count for p in bound_serial.points for r in p.results) > 0


# Sweeps a 2-load x 2-trial ksp-ff curve and its bound at jobs=1 and jobs=2 under
# the start method named in argv[2], and prints whether each pair is equal.
START_METHOD_PROBE = """
import multiprocessing, sys, warnings
sys.path.insert(0, sys.argv[1])
from eonsim.bounds import defrag_bound_trial
from eonsim.heuristics import HeuristicKind
from eonsim.presets import get_preset
from eonsim.simulator import run_trial, sweep
from eonsim.topology import PathOrdering

multiprocessing.set_start_method(sys.argv[2])
preset = get_preset("deeprmsa")
config = preset.sim_config(
    preset.load_topology("nsfnet", slots_per_fiber=8), HeuristicKind.KSP_FF, 2,
    PathOrdering("hops"), 300, warmup_requests=10, measured_requests=50, trials=2,
)
warnings.simplefilter("ignore")
for runner in (run_trial, defrag_bound_trial):
    serial = sweep(config, [300, 330], jobs=1, trial_runner=runner)
    print(runner.__name__, sweep(config, [300, 330], jobs=2, trial_runner=runner) == serial)
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pooled_sweep_matches_serial_under_other_start_methods(method):
    """Workers that do not fork from the sweeping process get everything they need
    from their arguments."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-I", "-c", START_METHOD_PROBE, src, method],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["run_trial True", "defrag_bound_trial True"]


def test_one_trial_sweep_starts_no_pool(monkeypatch):
    """With a single trial ``jobs=2`` runs it in the calling process."""
    cfg = nsfnet_config(320, trials=1, measured_requests=500, warmup_requests=100)

    def refuse(*args, **kwargs):
        raise AssertionError("a one-trial sweep must not start a pool")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        serial = sweep(cfg, [320], jobs=1)
        monkeypatch.setattr(multiprocessing, "Process", refuse)
        monkeypatch.setattr(multiprocessing, "Value", refuse)
        assert sweep(cfg, [320], jobs=2) == serial


# Trial runners for pooled sweeps, written to a file so that workers import
# them by name.  Each trial creates a marker file named "load-seed" in
# ``started_dir`` as it starts, and fails if that file exists already.
# A trial run by a process of role ``failing`` ("sweeping process" or
# "worker"; None for neither) writes its marker's name to the file "failing"
# beside ``started_dir`` and fails as ``how`` says: "raise" raises, "exit"
# ends the process as a kill would, and "unpicklable" raises an error that
# cannot be pickled.  Either process can take the first trial, so a failing
# trial is picked by the role of the process that runs it, not by its seed.
_MARKED_TRIALS = textwrap.dedent("""
    import multiprocessing, os, threading, time
    from pathlib import Path

    from eonsim.simulator import TrialResult

    def run(started_dir, failing, how, sleep_s, config, seed):
        marker = f"{config.traffic.load_erlangs:g}-{seed}"
        Path(started_dir, marker).open("x").close()
        role = "sweeping process" if multiprocessing.parent_process() is None else "worker"
        if role == failing:
            Path(started_dir).with_name("failing").write_text(marker)
            if how == "exit":
                os._exit(1)
            if how == "unpicklable":
                raise RuntimeError(f"trial {seed} failed in the {role}", threading.Lock())
            raise RuntimeError(f"trial {seed} failed in the {role}")
        time.sleep(sleep_s)
        return TrialResult(seed, seed % 3, 3)
""")


def _marked_trials(tmp_path, monkeypatch):
    (tmp_path / "marked_trials.py").write_text(_MARKED_TRIALS)
    monkeypatch.syspath_prepend(str(tmp_path))
    return importlib.import_module("marked_trials")


@pytest.mark.parametrize(
    "failing,how,error,match",
    [
        ("sweeping process", "raise", RuntimeError, r"trial \d+ failed in the sweeping process"),
        ("worker", "raise", RuntimeError, r"trial \d+ failed in the worker"),
        ("worker", "exit", BrokenProcessPool, "terminated abruptly"),
    ],
    ids=["sweeping-process", "worker", "worker-exits"],
)
def test_a_failing_trial_stops_a_pooled_sweep(tmp_path, monkeypatch, failing, how, error, match):
    """The error propagates, and no process starts a trial after it.

    The first trial that a process of role ``failing`` runs fails.  Every
    other trial takes long enough that the other process is still in its
    current one when the failure stops the sweep.
    """
    marked = _marked_trials(tmp_path, monkeypatch)
    started = tmp_path / "started"
    started.mkdir()
    cfg = nsfnet_config(100, trials=20, base_seed=5)
    runner = functools.partial(marked.run, str(started), failing, how, 0.5)
    with pytest.raises(error, match=match) as raised:
        sweep(cfg, [100.0], jobs=2, trial_runner=runner)
    failed = (tmp_path / "failing").read_text()
    if error is RuntimeError:
        assert str(raised.value) == f"trial {failed.split('-')[1]} failed in the {failing}"
    names = sorted(p.name for p in started.iterdir())
    assert failed in names
    assert len(names) <= 2, names  # the failing trial and the other process's current one


def test_a_worker_error_carries_the_worker_traceback(tmp_path, monkeypatch):
    """A worker's error reaches the sweep with the worker's traceback as its
    cause, so the formatted error names the trial function that raised."""
    marked = _marked_trials(tmp_path, monkeypatch)
    started = tmp_path / "started"
    started.mkdir()
    cfg = nsfnet_config(100, trials=20, base_seed=5)
    runner = functools.partial(marked.run, str(started), "worker", "raise", 0.5)
    with pytest.raises(RuntimeError, match="failed in the worker") as raised:
        sweep(cfg, [100.0], jobs=2, trial_runner=runner)
    formatted = "".join(traceback.format_exception(raised.value))
    assert 'marked_trials.py", line' in formatted and ", in run\n" in formatted, formatted
    assert "raise RuntimeError(f\"trial {seed} failed in the {role}\")" in formatted


def test_an_unpicklable_worker_error_stops_a_pooled_sweep(tmp_path):
    """A worker's error that cannot be pickled reaches the sweep as its repr.

    The sweep runs in its own process, so a sweep that never returns fails
    the test by its timeout.  The worker's first trial fails, as in
    ``test_a_failing_trial_stops_a_pooled_sweep``.
    """
    (tmp_path / "marked_trials.py").write_text(_MARKED_TRIALS)
    started = tmp_path / "started"
    started.mkdir()
    script = textwrap.dedent("""
        import functools, sys
        import marked_trials
        from eonsim.heuristics import HeuristicKind
        from eonsim.presets import get_preset
        from eonsim.simulator import sweep
        from eonsim.topology import PathOrdering

        preset = get_preset("deeprmsa")
        config = preset.sim_config(
            preset.load_topology("nsfnet"), HeuristicKind.KSP_FF, 2,
            PathOrdering.HOPS_THEN_KM, 100.0, trials=20, base_seed=5,
        )
        runner = functools.partial(marked_trials.run, sys.argv[1], "worker", "unpicklable", 0.5)
        try:
            sweep(config, [100.0], jobs=2, trial_runner=runner)
        except RuntimeError as exc:
            print(exc)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), src])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(started)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    failed = (tmp_path / "failing").read_text()
    seed = failed.split("-")[1]
    expected = f"RuntimeError('trial {seed} failed in the worker', <unlocked _thread.lock"
    assert proc.stdout.startswith(expected), proc.stdout
    names = sorted(p.name for p in started.iterdir())
    assert failed in names
    assert len(names) <= 2, names


def test_pooled_sweep_runs_every_trial_once(tmp_path, monkeypatch):
    """More processes than cores share the task counter without losing an update.

    A trial taken twice fails on its marker file, and one never taken
    leaves a marker missing.
    """
    marked = _marked_trials(tmp_path, monkeypatch)
    cfg = nsfnet_config(100, trials=40)
    loads = [100.0, 200.0, 300.0]
    results = []
    for jobs in (1, 6):
        started = tmp_path / f"jobs{jobs}"
        started.mkdir()
        runner = functools.partial(marked.run, str(started), None, None, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results.append(sweep(cfg, loads, jobs=jobs, trial_runner=runner))
        assert len(list(started.iterdir())) == 120
    assert results[0] == results[1]


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited; an unreaped zombie has exited."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_pool_workers_end_with_their_sweeping_process(tmp_path):
    """A SIGTERM to a ``jobs=2`` sweep leaves no worker running.

    The two trials run in the sweeping process and in its one worker.
    Each spins until it is stopped, so only the worker's own watch on its
    parent can end the worker.  The spin gives up after 60 s, so a
    failing run leaves no process behind for long.
    """
    (tmp_path / "spin_trial.py").write_text(textwrap.dedent("""
        import os, time
        from pathlib import Path

        def run(config, seed):
            Path(os.environ["PID_DIR"], str(os.getpid())).touch()
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                pass
    """))
    script = textwrap.dedent("""
        import spin_trial
        from eonsim.heuristics import HeuristicKind
        from eonsim.presets import get_preset
        from eonsim.simulator import sweep
        from eonsim.topology import PathOrdering

        preset = get_preset("deeprmsa")
        config = preset.sim_config(
            preset.load_topology("nsfnet"), HeuristicKind.KSP_FF, 2,
            PathOrdering.HOPS_THEN_KM, 100.0, trials=2,
        )
        sweep(config, [100.0], jobs=2, trial_runner=spin_trial.run)
    """)
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PID_DIR": str(pid_dir),
           "PYTHONPATH": os.pathsep.join([str(tmp_path), src])}
    proc = subprocess.Popen([sys.executable, "-c", script], env=env)
    pids = []
    try:
        deadline = time.monotonic() + 60
        while len(pids) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            pids = [int(p.name) for p in pid_dir.iterdir()]
        assert len(pids) == 2, f"trials did not start (exit code {proc.poll()})"
        assert [pid == proc.pid for pid in pids].count(True) == 1, (pids, proc.pid)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def test_truncation_matches_reduced_load_without():
    """Truncated holding at load L behaves like untruncated at 0.687 L."""
    from eonsim.traffic import TRUNCATED_MEAN_RATIO

    preset = get_preset("deeprmsa")
    topo = preset.load_topology("nsfnet")
    load = 330.0
    cfg_trunc = preset.sim_config(
        topo, HeuristicKind.KSP_FF, 5, ORDER, load,
        warmup_requests=1500, measured_requests=5000,
    )
    assert cfg_trunc.traffic.truncate_holding
    import dataclasses

    cfg_plain = dataclasses.replace(
        cfg_trunc,
        traffic=dataclasses.replace(
            cfg_trunc.traffic,
            load_erlangs=load * TRUNCATED_MEAN_RATIO,
            truncate_holding=False,
        ),
    )
    n = 10
    diffs = np.array(
        [run_trial(cfg_trunc, s).sbp - run_trial(cfg_plain, s).sbp for s in range(n)]
    )
    se = diffs.std(ddof=1) / math.sqrt(n)
    assert abs(diffs.mean()) <= 2 * se + 1e-12


def erlang_b(servers: int, offered_load: float) -> float:
    """Closed-form loss probability for M/M/s/s, via the standard recursion."""
    b = 1.0
    for s in range(1, servers + 1):
        b = offered_load * b / (s + offered_load * b)
    return b


def test_single_link_blocking_matches_erlang_b():
    """1-slot demands on one shared fiber form an M/M/s/s system: SBP must
    equal Erlang B (contiguity and continuity are vacuous for single slots,
    and both directions compete for the same grid)."""
    from eonsim.topology import Topology

    wire = Topology("wire", ["A", "B"], [("A", "B", 100)], slots_per_fiber=10,
                    fiber_mode="single")
    load = 6.0
    cfg = SimConfig(
        topology=wire,  # 10 shared slots -> 10 servers
        heuristic=HeuristicKind.KSP_FF,
        k=1,
        ordering=ORDER,
        traffic=fixed_slot_traffic(load),
        warmup_requests=500,
        measured_requests=20_000,
    )
    sbps = np.array([run_trial(cfg, seed).sbp for seed in range(6)])
    expected = erlang_b(10, load)
    se = sbps.std(ddof=1) / math.sqrt(len(sbps))
    assert abs(sbps.mean() - expected) < 3 * se + 1e-4, (
        f"simulated {sbps.mean():.5f} vs Erlang B {expected:.5f}"
    )


def test_dual_fiber_link_blocks_like_two_half_load_systems():
    """Dual fiber mode isolates the directions: uniform ordered-pair traffic
    thins the arrivals in half, so each fiber is M/M/s/s at half the load."""
    from eonsim.topology import Topology

    wire = Topology("wire", ["A", "B"], [("A", "B", 100)], slots_per_fiber=10,
                    fiber_mode="dual")
    load = 6.0
    cfg = SimConfig(
        topology=wire,
        heuristic=HeuristicKind.KSP_FF,
        k=1,
        ordering=ORDER,
        traffic=fixed_slot_traffic(load),
        warmup_requests=500,
        measured_requests=20_000,
    )
    sbps = np.array([run_trial(cfg, seed).sbp for seed in range(6)])
    expected = erlang_b(10, load / 2)
    se = sbps.std(ddof=1) / math.sqrt(len(sbps))
    assert abs(sbps.mean() - expected) < 3 * se + 1e-4, (
        f"simulated {sbps.mean():.5f} vs Erlang B at half load {expected:.5f}"
    )


# --- trial CSV writers ------------------------------------------------------------

def test_csv_writers(tmp_path):
    cfg = nsfnet_config(320, trials=2, measured_requests=800, warmup_requests=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = sweep(cfg, [320, 340])
    trials_csv = tmp_path / "trials.csv"
    summary_csv = tmp_path / "summary.csv"
    write_trials_csv(result, trials_csv)
    write_summary_csv(result, summary_csv)
    lines = trials_csv.read_text().strip().splitlines()
    assert lines[0] == "load_erlangs,trial,seed,blocked,total,sbp"
    assert len(lines) == 1 + 4
    summary = summary_csv.read_text().strip().splitlines()
    assert summary[0] == "load_erlangs,trials,mean_sbp,std_sbp,blocked_total"
    assert len(summary) == 3


# --- warm-up estimation -------------------------------------------------------------

def test_mser_constant_series_truncates_at_zero():
    assert mser5_truncation([5.0] * 200) == 0


def test_mser_step_series_truncates_past_the_step():
    series = [0.0] * 50 + [10.0] * 450
    cut = mser5_truncation(series)
    assert 45 <= cut <= 60


def test_mser_short_series():
    assert mser5_truncation([1.0, 2.0]) == 0


def test_active_series_fluctuates_around_load():
    rng = np.random.default_rng(0)
    series = nonblocking_active_series(200.0, 4000, rng)
    tail = series[2000:]
    assert abs(tail.mean() - 200.0) < 15.0


def test_estimate_warmup_summary_fields():
    est = estimate_warmup(100.0, trials=30, seed=1)
    assert est.q1 <= est.median <= est.q3 <= est.whisker_max
    assert len(est.truncation_points) == 30
    assert all(p >= 0 for p in est.truncation_points)


def test_estimate_warmup_deterministic():
    a = estimate_warmup(80.0, trials=10, seed=5)
    b = estimate_warmup(80.0, trials=10, seed=5)
    assert a == b


@pytest.mark.parametrize("load", [0.0, -5.0, math.nan, math.inf])
def test_estimate_warmup_rejects_a_load_that_is_not_finite_and_positive(load):
    with pytest.raises(SimConfigError, match="load"):
        estimate_warmup(load, trials=2)


@pytest.mark.parametrize("load,reason", [(5e-324, "arrival rate of 0"), (1e-310, "arrival times")])
def test_estimate_warmup_rejects_a_load_without_finite_arrival_times(load, reason):
    with pytest.raises(SimConfigError, match=reason):
        estimate_warmup(load, trials=2)


def test_estimate_warmup_rejects_a_horizon_above_the_cap():
    with pytest.raises(SimConfigError, match="warm-up trial"):
        estimate_warmup(1e300, trials=1)


def test_warmup_slope_small_scale():
    """Coarse check that the full-scale acceptance criterion targets ~7."""
    estimates = [
        estimate_warmup(load, trials=40, seed=2) for load in (100, 300, 500)
    ]
    slope, _ = warmup_slope(estimates)
    assert 4.0 < slope < 10.0
