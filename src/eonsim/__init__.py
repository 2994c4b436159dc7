"""eonsim: elastic optical network RMSA simulation and benchmarking."""

from .bounds import bound_sweep, capacity_gain, defrag_bound_trial
from .heuristics import HeuristicKind, decide
from .presets import PRESETS, get_preset
from .service import ModulationTable
from .simulator import SimConfig, estimate_warmup, run_trial, sweep
from .topology import PathOrdering, Topology, k_shortest_paths, load_topology
from .traffic import TrafficConfig, generate_stream

__version__ = "0.1.0"

__all__ = [
    "HeuristicKind",
    "ModulationTable",
    "PRESETS",
    "PathOrdering",
    "SimConfig",
    "Topology",
    "TrafficConfig",
    "bound_sweep",
    "capacity_gain",
    "decide",
    "defrag_bound_trial",
    "estimate_warmup",
    "generate_stream",
    "get_preset",
    "k_shortest_paths",
    "load_topology",
    "run_trial",
    "sweep",
    "__version__",
]
