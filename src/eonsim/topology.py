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

Path costs are exact.  Every finite float is an integer multiple of a
power of two, so the topology stores each link length as an int in
units of ``1 / scale``, where ``scale`` is the largest denominator
among the lengths (1 when every length is an integer, as in all
bundled topologies).  Sums of those ints do not depend on the order of
addition, and a path's ``length_km`` is its unit sum divided by
``scale``, rounded once.

A pair's paths come from a budgeted depth-first search,
iterative-deepening A* (Korf 1985).  It walks loopless paths out of the
source and prunes a prefix once its cost plus the exact full-graph
distance to the destination exceeds the budget; the distances come from
one Dijkstra search out of the destination per (destination,
weighting), cached on the topology.  The budget starts at the shortest
distance and each round raises it, until the paths within it include
every path whose primary cost is at most the k-th smallest, ties
included.  The list is the best k of them under the full key.  A path
and its reverse have the same hop count and km length, so one
enumeration serves both directions of a node pair.

A cached path keeps only its km length and the fiber id of each hop,
as one byte an id when the topology has at most 256 fibers.  Its hop
count is the number of fiber ids.  The node sequence is built for the
sort and then dropped: from the source, the fibers' links give it back.
"""
from __future__ import annotations

import enum
import heapq
import json
import math
import numbers
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
    """A loopless route: its km length and the fiber of each hop.

    ``fiber_ids`` index into the owning topology's fiber grids, one per
    hop in the direction of travel.  They are a ``bytes`` when the
    topology has at most 256 fibers (every bundled one) and a tuple of
    ints otherwise; either iterates as ints.  A path's rank is its index
    in its candidate list.  From a known source, the fiber ids fix the
    node sequence, so it is not stored.
    """

    length_km: float
    fiber_ids: bytes | tuple[int, ...]

    @property
    def hop_count(self) -> int:
        return len(self.fiber_ids)


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
        if not _is_number(slots_per_fiber, numbers.Integral):
            raise TopologyError(f"slots_per_fiber must be an integer, got {slots_per_fiber!r}")
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
            if not _is_number(length, numbers.Real):
                raise TopologyError(f"link ({src}, {dst}) has non-numeric length {length!r}")
            try:
                km = float(length)
            except OverflowError:  # an int past the float range
                km = math.inf
            if not math.isfinite(km):
                raise TopologyError(f"link ({src}, {dst}) has non-finite length {km}")
            if km <= 0:
                raise TopologyError(f"link ({src}, {dst}) has non-positive length {km}")
            if isinstance(length, numbers.Integral) and km != int(length):
                raise TopologyError(
                    f"link ({src}, {dst}) has length {length}, which a float cannot hold exactly"
                )
            pair = frozenset((src, dst))
            if pair in seen_pairs:
                raise TopologyError(f"duplicate link between {src} and {dst}")
            seen_pairs.add(pair)
            link_records.append(Link(len(link_records), src, dst, km))
        self.links: tuple[Link, ...] = tuple(link_records)

        # each length is n / d with d a power of two, so d divides the largest d
        ratios = [link.length_km.as_integer_ratio() for link in self.links]
        self._scale = max((d for _n, d in ratios), default=1)
        adjacency: dict[str, list[tuple[str, int]]] = {n: [] for n in nodes}
        # (from node, to node) -> fiber id of that hop
        hops: dict[tuple[str, str], int] = {}
        for link, (n, d) in zip(self.links, ratios):
            units = n * (self._scale // d)  # the length in 1 / scale km, exactly
            adjacency[link.src].append((link.dst, units))
            adjacency[link.dst].append((link.src, units))
            for a, b in ((link.src, link.dst), (link.dst, link.src)):
                hops[a, b] = self.fiber_id(link.index, a)
        for lst in adjacency.values():
            lst.sort()
        self._adjacency = adjacency
        self._hops = hops
        self._path_cache: dict[tuple[str, str, int, PathOrdering], tuple[CandidatePath, ...]] = {}
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
    if not isinstance(doc, dict):
        raise TopologyError(f"topology document must be a JSON object, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema != TOPOLOGY_SCHEMA:
        raise TopologyError(f"unsupported topology schema {schema!r}")
    try:
        if not isinstance(doc["nodes"], list) or not isinstance(doc["links"], list):
            raise TopologyError("topology nodes and links must be JSON lists")
        if not all(isinstance(l, dict) for l in doc["links"]):
            raise TopologyError("each topology link must be a JSON object")
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


def _is_number(value, kind: type) -> bool:
    """Whether ``value`` is a number of ``kind``; a bool is not one."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _sort_key(ordering: PathOrdering):
    if ordering is PathOrdering.HOPS_THEN_KM:
        return lambda p: (p[0], p[1], p[2])  # (hops, km, node_seq)
    return lambda p: (p[1], p[0], p[2])  # (km, hops, node_seq)


def _distances(
    adjacency: dict[str, list[tuple[str, int]]], src: str, hop_weighted: bool
) -> dict[str, int]:
    """Shortest distance from ``src`` to each node it reaches (Dijkstra)."""
    dist: dict[str, int] = {}
    heap = [(0, src)]
    while heap:
        cost, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = cost
        for nbr, length in adjacency[node]:
            if nbr not in dist:
                heapq.heappush(heap, (cost + (1 if hop_weighted else length), nbr))
    return dist


def _successors(topology: Topology, dst: str, hop_weighted: bool):
    """Per node, its ``(estimate, cost, km, next node)`` steps toward ``dst``.

    The estimate is the step's cost plus the next node's full-graph
    distance to ``dst``, and each list is in ascending estimate, so a
    node's first entry holds its own distance.  Nodes cut off from
    ``dst`` have no entry and are never stepped to.  Computed once per
    (destination, weighting) from one search out of ``dst`` and cached
    on the topology; a reversed path costs the same.
    """
    key = (dst, hop_weighted)
    steps = topology._successors.get(key)
    if steps is None:
        adjacency = topology._adjacency
        dist = _distances(adjacency, dst, hop_weighted)
        steps = topology._successors[key] = {}
        for node in dist:
            node_steps = []
            for nbr, length in adjacency[node]:
                cost = 1 if hop_weighted else length
                node_steps.append((cost + dist[nbr], cost, length, nbr))
            steps[node] = sorted(node_steps)
    return steps


def _budgeted_paths(
    topology: Topology, src: str, dst: str, k: int, hop_weighted: bool
) -> list[tuple[int, int, tuple[str, ...]]]:
    """Every loopless path whose primary cost is at most the k-th smallest.

    Iterative-deepening A* (Korf 1985): a depth-first search extends a
    prefix only while its cost plus the exact distance to ``dst`` stays
    within a budget.  The first budget is the shortest distance; each
    round raises it to the smallest estimate it pruned (at least one hop
    more), or in km to at least the last budget times 1.1, rounded down
    to whole units, and records only the paths above the last budget.
    Path lengths in km are nearly all distinct, so raising a km budget
    only to the next pruned estimate would take about one round per
    path.  Rounds stop once k paths are recorded or nothing was pruned,
    when every loopless path has been seen.  Returns ``(hops, km units,
    node_seq)`` entries in no particular order.
    """
    successors = _successors(topology, dst, hop_weighted)
    if src not in successors:
        return []
    found: list[tuple[int, int, int, tuple[str, ...]]] = []
    floor, budget = -1, successors[src][0][0]
    while True:
        pruned = math.inf
        path = {src: None}  # the prefix's nodes; popitem() drops the last one
        # per node of the prefix: its steps not yet taken, cost and km to it
        stack = [(iter(successors[src]), 0, 0)]
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
        budget = pruned if hop_weighted else max(pruned, budget * 11 // 10)
    if len(found) > k:
        kth_primary = sorted(entry[0] for entry in found)[k - 1]
        found = [entry for entry in found if entry[0] <= kth_primary]
    return [(hops, km, node_seq) for _primary, hops, km, node_seq in found]


def k_shortest_paths(
    topology: Topology, src: str, dst: str, k: int, ordering: PathOrdering
) -> list[CandidatePath]:
    """Globally best ``min(k, available)`` loopless paths under the ordering.

    Enumeration continues past k while primary-cost ties remain, so the
    returned list is optimal under the full lexicographic key (primary
    criterion, secondary criterion, node sequence).  A disconnected
    pair yields an empty list.

    The same enumeration also gives the ``(dst, src)`` list, which is
    stored in the topology's path cache unless one is cached already.
    """
    if src == dst:
        raise TopologyError("src and dst must differ")
    if src not in topology._adjacency or dst not in topology._adjacency:
        raise TopologyError(f"unknown node in pair ({src}, {dst})")
    if k < 1:
        raise TopologyError(f"k must be >= 1, got {k}")

    hop_weighted = ordering is PathOrdering.HOPS_THEN_KM
    enumerated = _budgeted_paths(topology, src, dst, k, hop_weighted)
    # every (dst, src) path up to the same k-th primary cost
    reverse = [(hops, km, node_path[::-1]) for hops, km, node_path in enumerated]
    topology._path_cache.setdefault(
        (dst, src, k, ordering), tuple(_ranked(topology, reverse, k, ordering))
    )
    return _ranked(topology, enumerated, k, ordering)


def _ranked(
    topology: Topology,
    enumerated: list[tuple[int, int, tuple[str, ...]]],
    k: int,
    ordering: PathOrdering,
) -> list[CandidatePath]:
    """The best k of ``(hops, km units, node_seq)`` entries under the full key.

    Each becomes a record of its km length and fiber ids; the node
    sequence serves only as the last tie-break.
    """
    enumerated.sort(key=_sort_key(ordering))
    hop_table = topology._hops
    scale = topology._scale
    # one byte a fiber id when every id fits in one, as a stream narrows its columns
    fiber_seq = bytes if topology.num_fibers <= 256 else tuple
    return [
        CandidatePath(
            length_km=km / scale,  # int / int rounds once, correctly
            fiber_ids=fiber_seq(map(hop_table.get, zip(node_seq, node_seq[1:]))),
        )
        for _hops, km, node_seq in enumerated[:k]
    ]


def ordering_overlap(topology: Topology, src: str, dst: str, k: int) -> float:
    """Fraction of candidate paths unique to one ordering, as a diagnostic.

    0.0 means both orderings select the same k routes (ignoring rank),
    1.0 means completely disjoint route sets.  Routes are compared by
    their fiber ids: from one source, a loopless path's fiber sequence
    fixes its node sequence in either fiber mode.
    """
    km = {p.fiber_ids for p in topology.candidate_paths(src, dst, k, PathOrdering.KM_THEN_HOPS)}
    hops = {p.fiber_ids for p in topology.candidate_paths(src, dst, k, PathOrdering.HOPS_THEN_KM)}
    if not km and not hops:
        return 0.0
    union = km | hops
    return len(km.symmetric_difference(hops)) / len(union)
