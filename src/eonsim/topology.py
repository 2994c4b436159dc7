"""Network topologies and pre-computed K-shortest candidate paths.

A topology is an undirected weighted graph read from a versioned JSON
document.  Each undirected link materializes either two independent
directed fibers (``fiber_mode="dual"``, one per propagation direction)
or a single fiber shared by both directions (``fiber_mode="single"``).

Candidate paths are loopless, computed once per (source, destination,
k, ordering) and cached on the topology.  Two orderings are supported:
ascending km length with hop-count tiebreak, or ascending hop count
with km tiebreak.  Remaining ties are broken by the lexicographic node
sequence so results are deterministic across runs and platforms.

When every link length is an integer (all bundled topologies), path
costs are exact whatever the order they are summed in, and a pair's
paths come from a budgeted depth-first search, iterative-deepening A*
(Korf 1985).  It walks loopless paths out of the source and prunes a
prefix once its cost plus the exact full-graph distance to the
destination exceeds the budget; the distances come from one search out
of the destination per (destination, weighting), cached on the
topology.  The budget starts at the shortest distance and each round
raises it, until the paths within it include every path whose primary
cost is at most the k-th smallest, ties included.  A path and its
reverse have the same hop count and km length, so one enumeration
serves both directions of a node pair.

With non-integer lengths, float sums depend on the order of addition,
and only Yen's root-plus-spur sums round as they always have.  Those
paths come from Yen's algorithm with Lawler's refinement and plain
Dijkstra spur searches, one run per ordered pair.  A prefix map from
each found path's prefixes to the next nodes taken after them gives a
spur node its banned edges in one lookup, and an accepted path spurs
only from its deviation index, the node where it left the path it was
spurred from: an earlier spur would see the same banned edges as the
last spur from that root and rediscover a path already queued.

Either way, the list is the best k of the collected paths under the
full key.
"""
from __future__ import annotations

import enum
import heapq
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

TOPOLOGY_SCHEMA = "eonsim-topology/1"

FIBER_MODES = ("dual", "single")


class TopologyError(ValueError):
    """Malformed topology document or inconsistent graph data."""


class PathOrdering(enum.Enum):
    """Sort key for candidate path lists.

    ``KM_THEN_HOPS`` sorts ascending by km length, ties by hop count.
    ``HOPS_THEN_KM`` sorts ascending by hop count, ties by km length.
    Both fall back to the lexicographic node sequence on full ties.
    """

    KM_THEN_HOPS = "km"
    HOPS_THEN_KM = "hops"


@dataclass(frozen=True)
class Link:
    index: int
    src: str
    dst: str
    length_km: float


@dataclass(frozen=True, slots=True)
class CandidatePath:
    """A loopless route plus cached geometry and fiber bindings.

    ``fiber_ids`` are resolved for the traversal direction implied by
    ``node_seq`` and index into the owning topology's fiber grids.
    """

    node_seq: tuple[str, ...]
    link_ids: tuple[int, ...]
    hop_count: int
    length_km: float
    rank: int
    fiber_ids: tuple[int, ...]


class _Lookup(dict):
    """A dictionary that computes, and keeps, each missing entry."""

    __slots__ = ("_compute",)

    def __init__(self, compute):
        super().__init__()
        self._compute = compute

    def __missing__(self, key):
        value = self[key] = self._compute(key)
        return value


class Topology:
    """Immutable network graph with lazily cached candidate paths."""

    def __init__(
        self,
        name: str,
        nodes: Sequence[str],
        links: Iterable[tuple[str, str, float]],
        slots_per_fiber: int,
        fiber_mode: str = "dual",
    ):
        if slots_per_fiber < 1:
            raise TopologyError(f"slots_per_fiber must be >= 1, got {slots_per_fiber}")
        if fiber_mode not in FIBER_MODES:
            raise TopologyError(f"fiber_mode must be one of {FIBER_MODES}, got {fiber_mode!r}")
        nodes = [str(n) for n in nodes]
        if len(set(nodes)) != len(nodes):
            raise TopologyError("duplicate node ids")
        if len(nodes) < 2:
            raise TopologyError(f"topology needs at least two nodes, got {len(nodes)}")

        self.name = name
        self.nodes: tuple[str, ...] = tuple(nodes)
        self.slots_per_fiber = int(slots_per_fiber)
        self.fiber_mode = fiber_mode

        node_set = set(nodes)
        seen_pairs: set[frozenset[str]] = set()
        link_records: list[Link] = []
        for src, dst, length in links:
            src, dst = str(src), str(dst)
            if src not in node_set or dst not in node_set:
                raise TopologyError(f"link ({src}, {dst}) references unknown node")
            if src == dst:
                raise TopologyError(f"self-loop on node {src}")
            if not math.isfinite(length):
                raise TopologyError(f"link ({src}, {dst}) has non-finite length {length}")
            if length <= 0:
                raise TopologyError(f"link ({src}, {dst}) has non-positive length {length}")
            pair = frozenset((src, dst))
            if pair in seen_pairs:
                raise TopologyError(f"duplicate link between {src} and {dst}")
            seen_pairs.add(pair)
            link_records.append(Link(len(link_records), src, dst, float(length)))
        self.links: tuple[Link, ...] = tuple(link_records)

        adjacency: dict[str, list[tuple[str, int, float]]] = {n: [] for n in nodes}
        # (from node, to node) -> (link id, fiber id, length) of that hop
        hops: dict[tuple[str, str], tuple[int, int, float]] = {}
        for link in self.links:
            adjacency[link.src].append((link.dst, link.index, link.length_km))
            adjacency[link.dst].append((link.src, link.index, link.length_km))
            for a, b in ((link.src, link.dst), (link.dst, link.src)):
                hops[a, b] = (link.index, self.fiber_id(link.index, a), link.length_km)
        for lst in adjacency.values():
            lst.sort()
        self._adjacency = adjacency
        self._hops = hops
        self._path_cache: dict[tuple[str, str, int, PathOrdering], tuple[CandidatePath, ...]] = {}
        lengths = [link.length_km for link in self.links]
        # every path length is then an exactly representable integer
        self._integral = all(x.is_integer() for x in lengths) and sum(lengths) < 2**53
        self._successors: dict[tuple[str, bool], dict[str, list[tuple]]] = {}

    @property
    def num_fibers(self) -> int:
        return 2 * len(self.links) if self.fiber_mode == "dual" else len(self.links)

    def fiber_id(self, link_index: int, from_node: str) -> int:
        """Fiber grid index used when traversing a link starting at ``from_node``."""
        if self.fiber_mode == "single":
            return link_index
        forward = self.links[link_index].src == from_node
        return 2 * link_index + (0 if forward else 1)

    def candidate_paths(
        self, src: str, dst: str, k: int, ordering: PathOrdering
    ) -> tuple[CandidatePath, ...]:
        """Cached K-shortest loopless paths from ``src`` to ``dst``."""
        key = (src, dst, k, ordering)
        cached = self._path_cache.get(key)
        if cached is None:
            cached = tuple(k_shortest_paths(self, src, dst, k, ordering))
            self._path_cache[key] = cached
        return cached

    def route_table(
        self, k: int, ordering: PathOrdering
    ) -> dict[tuple[str, str], tuple[CandidatePath, ...]]:
        """A ``(src, dst) -> candidate_paths(src, dst, k, ordering)`` table.

        An event loop indexes it once per request instead of calling
        ``candidate_paths``.  Each pair is fetched on first use, so a
        short run pays only for the pairs it meets.  The topology keeps
        no table: one kept there would form a reference cycle through
        its fill function and hold a dropped topology until a full
        garbage collection.
        """
        return _Lookup(lambda pair: self.candidate_paths(*pair, k, ordering))

    def warm_path_cache(self, k: int, ordering: PathOrdering) -> None:
        """Pre-compute candidate paths for every ordered node pair."""
        for src in self.nodes:
            for dst in self.nodes:
                if src != dst:
                    self.candidate_paths(src, dst, k, ordering)
        # every pair is cached now; the search steps would serve only another
        # k or ordering, and cost little to rebuild, so free them
        self._successors.clear()

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, nodes={len(self.nodes)}, links={len(self.links)}, "
            f"slots={self.slots_per_fiber}, fiber_mode={self.fiber_mode!r})"
        )


def load_topology(
    source: str | Path,
    *,
    slots_per_fiber: int | None = None,
    fiber_mode: str | None = None,
) -> Topology:
    """Load a topology from a JSON file, or else a bundled one by name.

    ``source`` is read as a path when a file exists there; otherwise it
    names one of the topologies shipped in the package data directory.
    Keyword overrides replace the slot count or fiber mode stored in
    the document, so one physical graph can serve several problem
    settings.
    """
    path = Path(source)
    if not path.is_file():
        data_dir = resources.files("eonsim") / "data"
        path = data_dir / f"{source}.json"
        if not path.is_file():
            bundled = sorted(p.name[: -len(".json")] for p in data_dir.iterdir()
                             if p.name.endswith(".json"))
            raise TopologyError(
                f"no topology file or bundled topology named {str(source)!r}; "
                f"bundled: {bundled}"
            )
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise TopologyError(f"cannot parse topology file {path}: {exc}") from exc
    schema = doc.get("schema")
    if schema != TOPOLOGY_SCHEMA:
        raise TopologyError(f"unsupported topology schema {schema!r}")
    try:
        links = [(l["src"], l["dst"], l["length_km"]) for l in doc["links"]]
        return Topology(
            name=doc.get("name", "unnamed"),
            nodes=doc["nodes"],
            links=links,
            slots_per_fiber=doc["slots_per_fiber"] if slots_per_fiber is None else slots_per_fiber,
            fiber_mode=doc["fiber_mode"] if fiber_mode is None else fiber_mode,
        )
    except KeyError as exc:
        raise TopologyError(f"topology document missing field {exc}") from exc


#: Least factor by which a round of the km-budgeted search raises its budget.
#: Path lengths in km are nearly all distinct, so raising the budget only to
#: the next pruned estimate would take about one round per path.
_KM_BUDGET_GROWTH = 1.1


def _sort_key(ordering: PathOrdering):
    if ordering is PathOrdering.HOPS_THEN_KM:
        return lambda p: (p[0], p[1], p[2])  # (hops, km, node_seq)
    return lambda p: (p[1], p[0], p[2])  # (km, hops, node_seq)


def _search(
    adjacency: dict[str, list[tuple[str, int, float]]],
    src: str,
    hop_weighted: bool,
    banned_nodes: set[str] | tuple = (),
    banned_next: set[str] | tuple = (),
):
    """Yield ``(cost, km, node_path)`` for each node reachable from ``src``.

    Nodes settle in Dijkstra's order.  Paths avoid ``banned_nodes``, and
    ``src`` is not left through ``banned_next``.  Heap entries carry the
    node sequence so equal-cost expansions stay deterministic.
    """
    best: dict[str, float] = {src: 0.0}
    heap: list[tuple[float, float, tuple[str, ...]]] = [(0.0, 0.0, (src,))]
    banned_here = banned_next  # ``src`` settles first, and only once
    while heap:
        cost, km, path = heapq.heappop(heap)
        node = path[-1]
        if cost > best[node]:
            continue
        yield cost, km, path
        for nbr, _link, length in adjacency[node]:
            if nbr in banned_nodes or nbr in banned_here:
                continue
            ncost = cost + (1.0 if hop_weighted else length)
            if ncost < best.get(nbr, math.inf):
                best[nbr] = ncost
                heapq.heappush(heap, (ncost, km + length, path + (nbr,)))
        banned_here = ()


def _successors(topology: Topology, dst: str, hop_weighted: bool):
    """Per node, its ``(estimate, cost, km, next node)`` steps toward ``dst``.

    The estimate is the step's cost plus the next node's full-graph
    distance to ``dst``, and each list is in ascending estimate, so a
    node's first entry holds its own distance.  Nodes cut off from
    ``dst`` have no entry and are never stepped to.  Computed once per
    (destination, weighting) from one search out of ``dst`` and cached
    on the topology; only valid with integral lengths, where a reversed
    path costs the same.
    """
    key = (dst, hop_weighted)
    steps = topology._successors.get(key)
    if steps is None:
        adjacency = topology._adjacency
        dist = {path[-1]: cost for cost, _km, path in _search(adjacency, dst, hop_weighted)}
        steps = topology._successors[key] = {}
        for node in dist:
            node_steps = []
            for nbr, _link, length in adjacency[node]:
                cost = 1.0 if hop_weighted else length
                node_steps.append((cost + dist[nbr], cost, length, nbr))
            steps[node] = sorted(node_steps)
    return steps


def _budgeted_paths(
    topology: Topology, src: str, dst: str, k: int, hop_weighted: bool
) -> list[tuple[int, float, tuple[str, ...]]]:
    """Every loopless path whose primary cost is at most the k-th smallest.

    Iterative-deepening A* (Korf 1985): a depth-first search extends a
    prefix only while its cost plus the exact distance to ``dst`` stays
    within a budget.  The first budget is the shortest distance; each
    round raises it to the smallest estimate it pruned (at least one hop
    more), or in km to at least ``_KM_BUDGET_GROWTH`` times the last
    budget, and records only the paths above the last budget.  Rounds stop once k paths are recorded or
    nothing was pruned, when every loopless path has been seen.
    Returns ``(hops, km, node_seq)`` entries in no particular order.
    """
    successors = _successors(topology, dst, hop_weighted)
    if src not in successors:
        return []
    found: list[tuple[float, int, float, tuple[str, ...]]] = []
    floor, budget = -1.0, successors[src][0][0]
    while True:
        pruned = math.inf
        path = {src: None}  # the prefix's nodes; popitem() drops the last one
        # per node of the prefix: its steps not yet taken, cost and km to it
        stack = [(iter(successors[src]), 0.0, 0.0)]
        while stack:
            depth = len(stack)
            steps, cost, km = stack[-1]
            for estimate, weight, length, nxt in steps:
                if nxt in path:
                    continue
                total = cost + estimate
                if total > budget:
                    if total < pruned:
                        pruned = total
                    break  # the steps after it estimate no less
                if nxt == dst:
                    if total > floor:
                        found.append((total, len(path), km + length, (*path, dst)))
                    continue
                path[nxt] = None
                stack.append((iter(successors[nxt]), cost + weight, km + length))
                break
            if len(stack) == depth:  # every step from this prefix is done
                stack.pop()
                path.popitem()
        if len(found) >= k or pruned == math.inf:
            break
        floor = budget
        budget = pruned if hop_weighted else max(pruned, budget * _KM_BUDGET_GROWTH)
    if len(found) > k:
        kth_primary = sorted(entry[0] for entry in found)[k - 1]
        found = [entry for entry in found if entry[0] <= kth_primary]
    return [(hops, km, node_seq) for _primary, hops, km, node_seq in found]


def _yen_paths(topology: Topology, src: str, dst: str, ordering: PathOrdering):
    """Yield loopless node paths in non-decreasing primary cost.

    Yen's algorithm over the primary criterion of the ordering (hop
    count or km length), with Lawler's refinement.  Ties are yielded in
    a deterministic but not fully sorted order; callers re-sort with the
    complete key.
    """
    adjacency = topology._adjacency
    hops = topology._hops
    hop_weighted = ordering is PathOrdering.HOPS_THEN_KM

    def shortest_from(spur, banned_nodes, banned_next):
        for found in _search(adjacency, spur, hop_weighted, banned_nodes, banned_next):
            if found[2][-1] == dst:
                return found
        return None

    first = shortest_from(src, set(), ())
    if first is None:
        return
    cost, km, path = first
    deviation = 0
    # next nodes the found paths take after each of their prefixes
    next_after: dict[tuple[str, ...], set[str]] = {}
    # candidate heap entries: (primary, km, node_seq, deviation index) with
    # node_seq, unique among candidates, as deterministic tiebreak and payload
    candidates: list[tuple[float, float, tuple[str, ...], int]] = []
    seen: set[tuple[str, ...]] = {path}

    while True:
        yield cost, km, path
        # prefixes before the deviation index, and the next nodes taken
        # after them, are those of the path this one was spurred from
        root_km = sum(hops[path[j], path[j + 1]][2] for j in range(deviation))
        for i in range(deviation, len(path) - 1):
            spur = path[i]
            banned = next_after.setdefault(path[: i + 1], set())
            banned.add(path[i + 1])
            res = shortest_from(spur, set(path[:i]), banned)
            if res is not None:
                spur_cost, spur_km, spur_path = res
                total = path[:i] + spur_path
                if total not in seen:
                    seen.add(total)
                    root_cost = float(i) if hop_weighted else root_km
                    heapq.heappush(candidates, (root_cost + spur_cost, root_km + spur_km, total, i))
            root_km += hops[spur, path[i + 1]][2]
        if not candidates:
            return
        cost, km, path, deviation = heapq.heappop(candidates)


def k_shortest_paths(
    topology: Topology, src: str, dst: str, k: int, ordering: PathOrdering
) -> list[CandidatePath]:
    """Globally best ``min(k, available)`` loopless paths under the ordering.

    Enumeration continues past k while primary-cost ties remain, so the
    returned list is optimal under the full lexicographic key (primary
    criterion, secondary criterion, node sequence).  A disconnected
    pair yields an empty list.

    With integral link lengths the same enumeration also gives the
    ``(dst, src)`` list, which is stored in the topology's path cache
    unless one is cached already.
    """
    if src == dst:
        raise TopologyError("src and dst must differ")
    if src not in topology._adjacency or dst not in topology._adjacency:
        raise TopologyError(f"unknown node in pair ({src}, {dst})")
    if k < 1:
        raise TopologyError(f"k must be >= 1, got {k}")

    if topology._integral:
        hop_weighted = ordering is PathOrdering.HOPS_THEN_KM
        enumerated = _budgeted_paths(topology, src, dst, k, hop_weighted)
        # every (dst, src) path up to the same k-th primary cost
        reverse = [(hops, km, node_path[::-1]) for hops, km, node_path in enumerated]
        topology._path_cache.setdefault(
            (dst, src, k, ordering), tuple(_ranked(topology, reverse, k, ordering))
        )
        return _ranked(topology, enumerated, k, ordering)

    enumerated = []
    kth_primary: float | None = None
    for cost, km, node_path in _yen_paths(topology, src, dst, ordering):
        if kth_primary is not None and cost > kth_primary:
            break
        enumerated.append((len(node_path) - 1, km, node_path))
        if len(enumerated) == k:
            kth_primary = cost
    return _ranked(topology, enumerated, k, ordering)


def _ranked(
    topology: Topology,
    enumerated: list[tuple[int, float, tuple[str, ...]]],
    k: int,
    ordering: PathOrdering,
) -> list[CandidatePath]:
    """The best k of ``(hops, km, node_seq)`` entries under the full key."""
    enumerated.sort(key=_sort_key(ordering))
    hop_table = topology._hops
    out: list[CandidatePath] = []
    for rank, (hops, _km, node_seq) in enumerate(enumerated[:k]):
        link_ids, fiber_ids, lengths = zip(*map(hop_table.get, zip(node_seq, node_seq[1:])))
        out.append(
            CandidatePath(
                node_seq=node_seq,
                link_ids=link_ids,
                hop_count=hops,
                length_km=sum(lengths),
                rank=rank,
                fiber_ids=fiber_ids,
            )
        )
    return out


def ordering_overlap(topology: Topology, src: str, dst: str, k: int) -> float:
    """Fraction of candidate paths unique to one ordering, as a diagnostic.

    0.0 means both orderings select the same k routes (ignoring rank),
    1.0 means completely disjoint route sets.
    """
    km = {p.node_seq for p in topology.candidate_paths(src, dst, k, PathOrdering.KM_THEN_HOPS)}
    hops = {p.node_seq for p in topology.candidate_paths(src, dst, k, PathOrdering.HOPS_THEN_KM)}
    if not km and not hops:
        return 0.0
    union = km | hops
    return len(km.symmetric_difference(hops)) / len(union)
