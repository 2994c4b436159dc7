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

They come from Yen's algorithm with Lawler's refinement.  A prefix map
from each found path's prefixes to the next nodes taken after them
gives a spur node its banned edges in one lookup, and an accepted path
spurs only from its deviation index, the node where it left the path it
was spurred from: an earlier spur would see the same banned edges as
the last spur from that root and rediscover a path already queued.

When every link length is an integer (all bundled topologies), path
costs are exact whatever the order they are summed in, and three
shortcuts apply:

* one Yen run serves both directions of a node pair: a path and its
  reverse have the same hop count and km length, so the paths found for
  (s, d), reversed, are every (d, s) path up to the same k-th cost;
* spur searches are A* (Hart, Nilsson & Raphael 1968) whose potential
  is the full-graph distance to the destination, from one search out of
  the destination per (destination, weighting), cached on the topology;
* that search's shortest-path tree is the spur path itself whenever its
  path from the spur node avoids the root's nodes and the banned first
  hops (Martins & Pascoal 2003), and then no search runs.

With non-integer lengths, float sums depend on the order of addition,
and the searches keep plain Dijkstra order (a zero potential) so that
near-tied costs round exactly as they always have.
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
            if length <= 0:
                raise TopologyError(f"link ({src}, {dst}) has non-positive length {length}")
            pair = frozenset((src, dst))
            if pair in seen_pairs:
                raise TopologyError(f"duplicate link between {src} and {dst}")
            seen_pairs.add(pair)
            link_records.append(Link(len(link_records), src, dst, float(length)))
        self.links: tuple[Link, ...] = tuple(link_records)

        adjacency: dict[str, list[tuple[str, int, float]]] = {n: [] for n in nodes}
        edges: dict[tuple[str, str], tuple[int, float]] = {}
        for link in self.links:
            adjacency[link.src].append((link.dst, link.index, link.length_km))
            adjacency[link.dst].append((link.src, link.index, link.length_km))
            edges[link.src, link.dst] = edges[link.dst, link.src] = (link.index, link.length_km)
        for lst in adjacency.values():
            lst.sort()
        self._adjacency = adjacency
        self._edges = edges
        self._path_cache: dict[tuple[str, str, int, PathOrdering], tuple[CandidatePath, ...]] = {}
        lengths = [link.length_km for link in self.links]
        # every path length is then an exactly representable integer
        self._integral = all(x.is_integer() for x in lengths) and sum(lengths) < 2**53
        self._trees: dict[tuple[str, bool], tuple[dict[str, float], dict[str, tuple]]] = {}

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


def _sort_key(ordering: PathOrdering):
    if ordering is PathOrdering.HOPS_THEN_KM:
        return lambda p: (p[0], p[1], p[2])  # (hops, km, node_seq)
    return lambda p: (p[1], p[0], p[2])  # (km, hops, node_seq)


def _search(
    adjacency: dict[str, list[tuple[str, int, float]]],
    src: str,
    hop_weighted: bool,
    potential: dict[str, float],
    banned_nodes: set[str] | tuple = (),
    banned_next: set[str] | tuple = (),
):
    """Yield ``(cost, km, node_path)`` for each node reachable from ``src``.

    Nodes settle in order of cost plus ``potential``: A* toward the node
    the potential measures distance to, or Dijkstra's order under a zero
    potential.  Paths avoid ``banned_nodes``, and ``src`` is not left
    through ``banned_next``.  Heap entries carry the node sequence so
    equal-cost expansions stay deterministic.
    """
    best: dict[str, float] = {src: 0.0}
    # (cost + potential, -cost, km, node path): on equal estimates the node
    # farther along goes first, which under a zero potential never decides
    heap: list[tuple[float, float, float, tuple[str, ...]]] = [
        (potential[src], -0.0, 0.0, (src,))
    ]
    banned_here = banned_next  # ``src`` settles first, and only once
    while heap:
        _, neg_cost, km, path = heapq.heappop(heap)
        cost = -neg_cost
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
                heapq.heappush(heap, (ncost + potential[nbr], -ncost, km + length, path + (nbr,)))
        banned_here = ()


def _reverse_tree(topology: Topology, dst: str, hop_weighted: bool):
    """Distances to ``dst`` and a shortest ``(cost, km, path)`` to it, per node.

    Computed once per (destination, weighting) and cached on the topology;
    only valid with integral lengths, where a reversed path costs the same.
    """
    key = (dst, hop_weighted)
    tree = topology._trees.get(key)
    if tree is None:
        zero = dict.fromkeys(topology.nodes, 0.0)
        routes = {
            path[-1]: (cost, km, path[::-1])
            for cost, km, path in _search(topology._adjacency, dst, hop_weighted, zero)
        }
        potential = {node: route[0] for node, route in routes.items()}
        tree = topology._trees[key] = (potential, routes)
    return tree


def _yen_paths(topology: Topology, src: str, dst: str, ordering: PathOrdering):
    """Yield loopless node paths in non-decreasing primary cost.

    Yen's algorithm over the primary criterion of the ordering (hop
    count or km length), with Lawler's refinement.  Ties are yielded in
    a deterministic but not fully sorted order; callers re-sort with the
    complete key.
    """
    adjacency = topology._adjacency
    edges = topology._edges
    hop_weighted = ordering is PathOrdering.HOPS_THEN_KM
    if topology._integral:
        potential, routes = _reverse_tree(topology, dst, hop_weighted)
    else:
        potential, routes = dict.fromkeys(topology.nodes, 0.0), {}

    def shortest_from(spur, banned_nodes, banned_next):
        route = routes.get(spur)
        if route is not None:
            tree_path = route[2]
            if tree_path[1] not in banned_next and banned_nodes.isdisjoint(tree_path):
                return route
        elif spur not in potential:  # not connected to ``dst``
            return None
        for found in _search(adjacency, spur, hop_weighted, potential, banned_nodes, banned_next):
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
        root_km = sum(edges[path[j], path[j + 1]][1] for j in range(deviation))
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
            root_km += edges[spur, path[i + 1]][1]
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

    With integral link lengths the same run also gives the ``(dst,
    src)`` list, which is stored in the topology's path cache unless
    one is cached already.
    """
    if src == dst:
        raise TopologyError("src and dst must differ")
    if src not in topology._adjacency or dst not in topology._adjacency:
        raise TopologyError(f"unknown node in pair ({src}, {dst})")
    if k < 1:
        raise TopologyError(f"k must be >= 1, got {k}")

    enumerated: list[tuple[int, float, tuple[str, ...]]] = []
    kth_primary: float | None = None
    for cost, km, node_path in _yen_paths(topology, src, dst, ordering):
        primary = cost
        if kth_primary is not None and primary > kth_primary:
            break
        enumerated.append((len(node_path) - 1, km, node_path))
        if len(enumerated) == k:
            kth_primary = primary

    if topology._integral:
        # every (dst, src) path up to the same k-th primary cost
        reverse = [(hops, km, node_path[::-1]) for hops, km, node_path in enumerated]
        topology._path_cache.setdefault(
            (dst, src, k, ordering), tuple(_ranked(topology, reverse, k, ordering))
        )
    return _ranked(topology, enumerated, k, ordering)


def _ranked(
    topology: Topology,
    enumerated: list[tuple[int, float, tuple[str, ...]]],
    k: int,
    ordering: PathOrdering,
) -> list[CandidatePath]:
    """The best k of ``(hops, km, node_seq)`` entries under the full key."""
    enumerated.sort(key=_sort_key(ordering))
    edges = topology._edges
    out: list[CandidatePath] = []
    for rank, (hops, km, node_seq) in enumerate(enumerated[:k]):
        link_ids = tuple(edges[node_seq[j], node_seq[j + 1]][0] for j in range(hops))
        fiber_ids = tuple(
            topology.fiber_id(link_ids[j], node_seq[j]) for j in range(hops)
        )
        length = sum(topology.links[l].length_km for l in link_ids)
        out.append(
            CandidatePath(
                node_seq=node_seq,
                link_ids=link_ids,
                hop_count=hops,
                length_km=length,
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
