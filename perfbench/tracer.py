"""Outside-in per-module tracing for the eonsim benchmark.

The tracer times calls into the library's modules without changing any
code under ``src/``: while installed, it replaces the module attributes
and class methods the event loop looks up at call time with timing
wrappers, and restores the originals on exit.  Every timed call records
its caller (the nearest enclosing timed call) and whether it ran inside
a defragmentation rebuild, so a layer's self time is its own time minus
the time of the timed calls it made, and ``decide`` calls made by a
rebuild are kept apart from the online ones.

The wrappers cost about as much as the cheapest wrapped calls, so a
traced run is markedly slower than an untraced one; end-to-end numbers
come only from untraced runs.
"""
from __future__ import annotations

from time import perf_counter

from eonsim import bounds, heuristics, simulator, topology
from eonsim.simulator import ActiveLightpaths
from eonsim.spectrum import SpectrumState

# layer span name -> (owner, attribute) pairs that are looked up at call time
TARGETS = {
    "ksp": [(topology, "k_shortest_paths")],
    "generate": [(simulator, "generate_stream"), (bounds, "generate_stream")],
    "trial": [(simulator, "run_trial"), (bounds, "defrag_bound_trial")],
    "decide": [(simulator, "decide"), (bounds, "decide")],
    "demand": [(heuristics, "demand_for_path"), (bounds, "demand_for_path")],
    "entropy": [(heuristics, "entropy_after_placement")],
    "path_free": [(SpectrumState, "path_free")],
    "first_fit": [(heuristics, "first_fit")],
    "best_fit": [(heuristics, "best_fit_run")],
    "release": [(ActiveLightpaths, "release_due")],
    "add": [(ActiveLightpaths, "add")],
    "rebuild": [(bounds, "_rebuild")],
}

# spans whose result size is summed into ``items``
_SIZED = {"ksp", "generate"}
# spans whose non-None results are counted into ``hits``
_HITS = {"decide", "rebuild"}


class Span:
    """Totals for one (name, caller, inside-rebuild) key."""

    __slots__ = ("calls", "total_s", "self_s", "items", "hits")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0
        self.hits = 0


class Tracer:
    """Context manager that times every call listed in :data:`TARGETS`."""

    def __init__(self):
        self.spans: dict[tuple[str, str | None, bool], Span] = {}
        self._stack: list[list] = []  # [name, seconds spent in timed children]
        self._rebuild_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, sites in TARGETS.items():
            for owner, attr in sites:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        sized = name in _SIZED
        hits = name in _HITS
        is_rebuild = name == "rebuild"

        def timed(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            if is_rebuild:
                self._rebuild_depth += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if is_rebuild:
                    self._rebuild_depth -= 1
            key = (name, parent, self._rebuild_depth > 0)
            span = spans.get(key)
            if span is None:
                span = spans[key] = Span()
            span.calls += 1
            span.total_s += dt
            span.self_s += dt - frame[1]
            if sized:
                span.items += len(out)
            if hits and out is not None:
                span.hits += 1
            if stack:
                stack[-1][1] += dt
            return out

        return timed

    def total(self, name: str, field: str, *, parent=..., in_rebuild=...) -> float:
        """Sum ``field`` over the spans of ``name``, optionally filtered."""
        return sum(
            getattr(span, field)
            for (n, p, r), span in self.spans.items()
            if n == name
            and (parent is ... or p == parent)
            and (in_rebuild is ... or r == in_rebuild)
        )


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was measured."""
    return num / den if den else 0.0


def topology_metrics(tracer: Tracer) -> dict[str, float]:
    """Candidate-path precompute, from a traced set-up."""
    return {
        "topology.ksp_calls": tracer.total("ksp", "calls"),
        "topology.ksp_s": tracer.total("ksp", "total_s"),
        "topology.paths_cached": tracer.total("ksp", "items"),
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and host seconds from one traced pass.

    ``service`` and ``spectrum`` totals cover every caller, rebuilds
    included; ``heuristics`` covers online ``decide`` calls only, and
    ``bounds`` the calls made by rebuilds.
    """
    t = tracer.total
    decide_calls = t("decide", "calls", in_rebuild=False)
    rebuild_calls = t("rebuild", "calls")
    rebuild_s = t("rebuild", "total_s")
    return {
        "traffic.generate_calls": t("generate", "calls"),
        "traffic.generate_s": t("generate", "total_s"),
        "traffic.requests": t("generate", "items"),
        "service.demand_calls": t("demand", "calls"),
        "service.demand_s": t("demand", "total_s"),
        "service.entropy_calls": t("entropy", "calls"),
        "service.entropy_s": t("entropy", "total_s"),
        "spectrum.path_free_calls": t("path_free", "calls"),
        "spectrum.path_free_s": t("path_free", "total_s"),
        "spectrum.first_fit_calls": t("first_fit", "calls"),
        "spectrum.first_fit_s": t("first_fit", "total_s"),
        "spectrum.best_fit_calls": t("best_fit", "calls"),
        "spectrum.best_fit_s": t("best_fit", "total_s"),
        "heuristics.decide_calls": decide_calls,
        "heuristics.decide_s": t("decide", "total_s", in_rebuild=False),
        "heuristics.decide_self_s": t("decide", "self_s", in_rebuild=False),
        "heuristics.admit_ratio": ratio(t("decide", "hits", in_rebuild=False), decide_calls),
        "heuristics.candidates_per_decide": ratio(
            t("demand", "calls", parent="decide", in_rebuild=False), decide_calls
        ),
        "simulator.trials": t("trial", "calls"),
        "simulator.trial_s": t("trial", "total_s"),
        "simulator.loop_self_s": t("trial", "self_s"),
        "simulator.release_calls": t("release", "calls"),
        "simulator.release_s": t("release", "total_s"),
        "simulator.add_s": t("add", "total_s"),
        "bounds.rebuild_calls": rebuild_calls,
        "bounds.rebuild_s": rebuild_s,
        "bounds.rebuild_s_per_call": ratio(rebuild_s, rebuild_calls),
        "bounds.rebuild_adopted_ratio": ratio(t("rebuild", "hits"), rebuild_calls),
        "bounds.replaced_per_rebuild": ratio(
            t("decide", "calls", in_rebuild=True), rebuild_calls
        ),
    }
