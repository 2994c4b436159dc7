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


@dataclass(frozen=True)
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
        if not nodes:
            raise TopologyError("topology has no nodes")

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


def _dijkstra(
    adjacency: dict[str, list[tuple[str, int, float]]],
    src: str,
    dst: str,
    hop_weighted: bool,
    banned_nodes: set[str],
    banned_edges: dict[str, set[str]],
) -> tuple[float, float, tuple[str, ...]] | None:
    """Cheapest path avoiding banned nodes and banned ``node -> next`` edges.

    Returns (primary_cost, km_length, node_path) or None.  Heap entries
    carry the node sequence so equal-cost expansions stay deterministic.
    """
    inf = math.inf
    best: dict[str, float] = {src: 0.0}
    heap: list[tuple[float, float, tuple[str, ...]]] = [(0.0, 0.0, (src,))]
    while heap:
        cost, km, path = heapq.heappop(heap)
        node = path[-1]
        if node == dst:
            return cost, km, path
        if cost > best.get(node, inf):
            continue
        banned_next = banned_edges.get(node, ())
        for nbr, _link, length in adjacency[node]:
            if nbr in banned_nodes or nbr in banned_next:
                continue
            step = 1.0 if hop_weighted else length
            ncost = cost + step
            if ncost < best.get(nbr, inf):
                best[nbr] = ncost
                heapq.heappush(heap, (ncost, km + length, path + (nbr,)))
    return None


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
    first = _dijkstra(adjacency, src, dst, hop_weighted, set(), {})
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
            res = _dijkstra(adjacency, spur, dst, hop_weighted, set(path[:i]), {spur: banned})
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
    if not enumerated:
        return []

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
