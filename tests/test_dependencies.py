"""The package imports nothing outside the standard library but numpy."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Imports every eonsim module in a fresh, isolated interpreter and prints the
# top-level names of the modules that importing them added.
PROBE = """
import pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import eonsim
for info in pkgutil.iter_modules(eonsim.__path__, "eonsim."):
    __import__(info.name)
print(" ".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_only_runtime_dependency_is_numpy():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "eonsim" in loaded
    foreign = {
        name for name in loaded - {"eonsim"}
        if name not in sys.stdlib_module_names
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert foreign == {"numpy"}, sorted(foreign)


# Imports every eonsim module in a fresh, isolated interpreter, runs a bound
# trial and sweeps that fork no worker, then one that forks a worker, and
# prints which pool modules are loaded after each stage.
POOL_PROBE = """
import pkgutil, sys, warnings
sys.path.insert(0, sys.argv[1])
import eonsim
for info in pkgutil.iter_modules(eonsim.__path__, "eonsim."):
    __import__(info.name)
from eonsim.bounds import defrag_bound_trial
from eonsim.heuristics import HeuristicKind
from eonsim.presets import get_preset
from eonsim.simulator import sweep
from eonsim.topology import PathOrdering

def loaded(stage):
    names = [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules]
    print(stage, *names)

preset = get_preset("deeprmsa")
config = preset.sim_config(
    preset.load_topology("nsfnet", slots_per_fiber=8), HeuristicKind.KSP_FF, 2,
    PathOrdering("hops"), 300, warmup_requests=10, measured_requests=50, trials=1,
)
warnings.simplefilter("ignore")
loaded("imported")
sweep(config, [300], jobs=1)
sweep(config, [300], jobs=2)  # one trial: nothing to fork
defrag_bound_trial(config, 0)
loaded("unforked")
sweep(config, [300, 330], jobs=2)
loaded("forked")
"""


def test_only_a_forking_sweep_loads_the_pool():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", POOL_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "imported",
        "unforked",
        "forked multiprocessing",
    ]


# Before anything loads numpy.random, sweeps two trials at jobs=2 under fork.  Each
# trial records whether numpy.random is loaded as it starts; the sweeping process's
# trial waits for the worker's record, so the worker runs the other trial.
NUMPY_RANDOM_PROBE = """
import functools, multiprocessing, os, sys, time, warnings
sys.path.insert(0, sys.argv[1])
from pathlib import Path
from eonsim.heuristics import HeuristicKind
from eonsim.presets import get_preset
from eonsim.simulator import TrialResult, sweep
from eonsim.topology import PathOrdering

def run(records, parent_pid, config, seed):
    Path(records, str(os.getpid())).write_text(str("numpy.random" in sys.modules))
    deadline = time.monotonic() + 60
    while os.getpid() == parent_pid and len(os.listdir(records)) < 2:
        assert time.monotonic() < deadline, "the worker ran no trial"
        time.sleep(0.01)
    return TrialResult(seed, 0, 1)

multiprocessing.set_start_method("fork")
preset = get_preset("deeprmsa")
config = preset.sim_config(
    preset.load_topology("nsfnet", slots_per_fiber=8), HeuristicKind.KSP_FF, 2,
    PathOrdering("hops"), 300, warmup_requests=10, measured_requests=50, trials=2,
)
print("before", "numpy.random" in sys.modules)
warnings.simplefilter("ignore")
sweep(config, [300], jobs=2, trial_runner=functools.partial(run, sys.argv[2], os.getpid()))
print("worker", *(p.read_text() for p in Path(sys.argv[2]).iterdir() if p.name != str(os.getpid())))
"""


def test_a_forked_worker_inherits_numpy_random(tmp_path):
    """The sweeping process loads numpy.random before it forks, so no worker imports it."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", NUMPY_RANDOM_PROBE, str(ROOT / "src"), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["before False", "worker True"]
