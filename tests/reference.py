"""Independent brute-force oracles the fast implementations are checked against.

Everything here is written for obviousness, not speed: exhaustive DFS
path enumeration, the unoptimized Yen KSP, linear block-scan searches,
and direct evaluation of definitions.  None of it shares code with the
package internals; only the path layer's data types and the request
record are imported.
"""
from __future__ import annotations

import heapq
import math
from fractions import Fraction

import numpy as np

from eonsim.topology import CandidatePaths, PathOrdering, TopologyError
from eonsim.traffic import ServiceRequest


def all_loopless_paths(links, src, dst):
    """Every loopless node path between src and dst, via exhaustive DFS.

    ``links`` is a sequence of (u, v, length_km) undirected edges.
    Yields (node_tuple, hop_count, length_km).
    """
    adj: dict[str, list[tuple[str, float]]] = {}
    for u, v, length in links:
        adj.setdefault(u, []).append((v, length))
        adj.setdefault(v, []).append((u, length))

    results = []

    def dfs(node, visited, path, km):
        if node == dst:
            results.append((tuple(path), len(path) - 1, km))
            return
        for nbr, length in adj.get(node, ()):
            if nbr not in visited:
                visited.add(nbr)
                path.append(nbr)
                dfs(nbr, visited, path, km + length)
                path.pop()
                visited.remove(nbr)

    if src in adj:
        dfs(src, {src}, [src], 0.0)
    return results


def ksp_oracle(links, src, dst, k, ordering_name):
    """Top-k node sequences under the full lexicographic ordering key."""
    paths = all_loopless_paths(links, src, dst)
    if ordering_name == "hops":
        paths.sort(key=lambda p: (p[1], p[2], p[0]))
    elif ordering_name == "km":
        paths.sort(key=lambda p: (p[2], p[1], p[0]))
    else:
        raise ValueError(ordering_name)
    return [p[0] for p in paths[:k]]



# --- Yen KSP as first written -------------------------------------------------------
#
# The path layer's original Yen implementation, kept as a differential oracle
# for the optimized one: every found path is rescanned for banned edges and
# every root length is re-summed at every spur node.  The adjacency is
# rebuilt from the public link list, with each length exact (an int, or a
# Fraction when it is not integral), so every path cost is exact too.


def _reference_adjacency(topology):
    adjacency = {n: [] for n in topology.nodes}
    for link in topology.links:
        x = link.length_km
        length = int(x) if x.is_integer() else Fraction(x)
        adjacency[link.src].append((link.dst, link.index, length))
        adjacency[link.dst].append((link.src, link.index, length))
    for lst in adjacency.values():
        lst.sort()
    return adjacency


def _reference_sort_key(ordering):
    if ordering is PathOrdering.HOPS_THEN_KM:
        return lambda p: (p[0], p[1], p[2])  # (hops, km, node_seq)
    return lambda p: (p[1], p[0], p[2])  # (km, hops, node_seq)


def _reference_dijkstra(adjacency, src, dst, hop_weighted, banned_nodes, banned_edges):
    best = {src: 0}
    heap = [(0, 0, (src,))]
    while heap:
        cost, km, path = heapq.heappop(heap)
        node = path[-1]
        if node == dst:
            return cost, km, list(path)
        if cost > best.get(node, float("inf")):
            continue
        for nbr, _link, length in adjacency[node]:
            if nbr in banned_nodes or (node, nbr) in banned_edges:
                continue
            step = 1 if hop_weighted else length
            ncost = cost + step
            if ncost < best.get(nbr, float("inf")):
                best[nbr] = ncost
                heapq.heappush(heap, (ncost, km + length, path + (nbr,)))
    return None


def _reference_edge(adjacency, u, v):
    for nbr, link, length in adjacency[u]:
        if nbr == v:
            return link, length
    raise TopologyError(f"no edge between {u} and {v}")


def _reference_yen_paths(adjacency, src, dst, ordering):
    hop_weighted = ordering is PathOrdering.HOPS_THEN_KM
    first = _reference_dijkstra(adjacency, src, dst, hop_weighted, set(), set())
    if first is None:
        return
    cost0, km0, path0 = first
    found = [path0]
    yield cost0, km0, path0

    candidates = []
    seen = {tuple(path0)}

    while True:
        prev = found[-1]
        for i in range(len(prev) - 1):
            spur = prev[i]
            root = prev[: i + 1]
            root_km = sum(
                _reference_edge(adjacency, root[j], root[j + 1])[1] for j in range(len(root) - 1)
            )
            banned_edges = set()
            for p in found:
                if len(p) > i and p[: i + 1] == root:
                    banned_edges.add((p[i], p[i + 1]))
                    banned_edges.add((p[i + 1], p[i]))
            banned_nodes = set(root[:-1])
            res = _reference_dijkstra(adjacency, spur, dst, hop_weighted, banned_nodes, banned_edges)
            if res is None:
                continue
            spur_cost, spur_km, spur_path = res
            total = tuple(root[:-1] + spur_path)
            if total in seen:
                continue
            seen.add(total)
            root_cost = i if hop_weighted else root_km
            heapq.heappush(candidates, (root_cost + spur_cost, root_km + spur_km, total))
        if not candidates:
            return
        cost, km, best_path = heapq.heappop(candidates)
        found.append(list(best_path))
        yield cost, km, list(best_path)


def reference_k_shortest_paths(topology, src, dst, k, ordering):
    """``k_shortest_paths`` as first written: the same contract, unoptimized."""
    if src == dst:
        raise TopologyError("src and dst must differ")
    adjacency = _reference_adjacency(topology)
    if src not in adjacency or dst not in adjacency:
        raise TopologyError(f"unknown node in pair ({src}, {dst})")
    if k < 1:
        raise TopologyError(f"k must be >= 1, got {k}")

    enumerated = []
    kth_primary = None
    for cost, km, node_path in _reference_yen_paths(adjacency, src, dst, ordering):
        primary = cost
        if kth_primary is not None and primary > kth_primary:
            break
        enumerated.append((len(node_path) - 1, km, tuple(node_path)))
        if len(enumerated) == k:
            kth_primary = primary
    enumerated.sort(key=_reference_sort_key(ordering))
    lengths_km, paths = [], []
    for _hops, km, node_seq in enumerated[:k]:
        fiber_ids = tuple(
            topology.fiber_id(_reference_edge(adjacency, a, b)[0], a)
            for a, b in zip(node_seq, node_seq[1:])
        )
        if topology.num_fibers <= 256:  # the record's one-byte form
            fiber_ids = bytes(fiber_ids)
        lengths_km.append(float(km))
        paths.append(fiber_ids)
    return CandidatePaths(tuple(lengths_km), tuple(paths))


def node_seq(topology, src, fiber_ids):
    """The nodes a path of ``fiber_ids`` visits from ``src``, rebuilt by walking their links.

    Each fiber id must be the one ``topology.fiber_id`` gives for its
    link in the direction of travel.
    """
    per_link = 2 if topology.fiber_mode == "dual" else 1
    nodes = [src]
    for f in fiber_ids:
        link = topology.links[f // per_link]
        here = nodes[-1]
        assert here in (link.src, link.dst) and topology.fiber_id(link.index, here) == f, (
            f"fiber {f} does not leave {here}"
        )
        nodes.append(link.dst if here == link.src else link.src)
    return tuple(nodes)


def pack_bits(bits):
    """Occupancy mask of a boolean vector, bit i set when element i is."""
    mask = 0
    for i, b in enumerate(bits):
        if b:
            mask |= 1 << i
    return mask


def block_mask(start, size):
    """The slot mask of a placement: bit i set for each slot i of the block."""
    return sum(1 << i for i in range(start, start + size))


def path_free_mask(occupancies, n_slots):
    """Mask of the slots free on every one of ``occupancies`` (bit set = free)."""
    occ = 0
    for o in occupancies:
        occ |= o
    return ~occ & ((1 << n_slots) - 1)


def first_fit_oracle(occupied_bits, size):
    """Lowest start of a run of >= size free slots, by scanning all starts."""
    n = len(occupied_bits)
    for start in range(n - size + 1):
        if not any(occupied_bits[start : start + size]):
            return start
    return None


def maximal_free_runs_oracle(occupied_bits):
    runs = []
    start = None
    for i, occ in enumerate(list(occupied_bits) + [True]):
        if not occ and start is None:
            start = i
        elif occ and start is not None:
            runs.append((start, i - start))
            start = None
    return runs


def best_fit_oracle(occupied_bits, size):
    """Start of the smallest maximal run fitting size; ties to lowest start."""
    fitting = [r for r in maximal_free_runs_oracle(occupied_bits) if r[1] >= size]
    if not fitting:
        return None
    best = min(fitting, key=lambda r: (r[1], r[0]))
    return best[0]


def entropy_oracle(occupied_bits):
    """-sum (run/D) ln(run/D) over maximal free runs, D the grid length."""
    d = len(occupied_bits)
    h = 0.0
    for _start, length in maximal_free_runs_oracle(occupied_bits):
        h -= (length / d) * math.log(length / d)
    return h


def fragmentation_entropy(free, n_slots):
    """entropy_oracle of a packed free mask (bit i set: slot i free)."""
    return entropy_oracle([not free >> i & 1 for i in range(n_slots)])


def occupied_slot_count(state):
    """Occupied (fiber, slot) pairs over every fiber of a spectrum state."""
    return sum(o.bit_count() for o in state.occ)


def active_slot_links(active):
    """(fiber, slot) pairs the active lightpaths hold: fibers x block size each."""
    return sum(len(fibers) * mask.bit_count() for fibers, mask, _key in active.records.values())


def erlang_b(n, load):
    """Blocking probability E(n, A) of an M/M/n/n loss system (Erlang B).

    Uses the recursion E(0) = 1, E(k) = A E(k-1) / (k + A E(k-1)).
    """
    b = 1.0
    for k in range(1, n + 1):
        b = load * b / (k + load * b)
    return b


def kaufman_roberts(n, loads):
    """Per-class blocking of a multi-rate loss link of ``n`` slots.

    ``loads`` maps a class's slot demand to its offered load in Erlangs.
    The occupancy distribution follows the Kaufman-Roberts recursion
    j q(j) = sum_b a_b b q(j - b); class b blocks in the states
    j > n - b.  Returns {demand: blocking probability}.
    """
    q = [1.0] + [0.0] * n
    for j in range(1, n + 1):
        q[j] = sum(a * b * q[j - b] for b, a in loads.items() if b <= j) / j
    total = sum(q)
    return {b: sum(q[n - b + 1 :]) / total for b in loads}


def product_form_sbp(route_fibers, load):
    """Exact SBP of a loss network with one slot per fiber and one route per request class.

    ``route_fibers`` holds each route's fiber ids; requests are spread
    uniformly over the routes, ``load`` Erlangs in all.  With unit
    capacities a state is a set S of routes whose fibers are pairwise
    disjoint, and its stationary probability is proportional to rho^|S|,
    rho being one route's load (Kelly 1991).  A route blocks in every
    state that uses one of its fibers; the SBP is the mean of the
    routes' blocking probabilities.
    """
    fibers = [frozenset(f) for f in route_fibers]
    rho = load / len(fibers)
    states = []  # (number of routes, fibers in use) of every feasible set of routes

    def visit(first, n_routes, used):
        states.append((n_routes, used))
        for r in range(first, len(fibers)):
            if not fibers[r] & used:
                visit(r + 1, n_routes + 1, used | fibers[r])

    visit(0, 0, frozenset())
    total = sum(rho**n for n, _ in states)
    blocking = [
        1 - sum(rho**n for n, used in states if not route & used) / total for route in fibers
    ]
    return sum(blocking) / len(blocking)


def dominance_gap(heuristic_point, bound_point):
    """Mean and standard error of paired per-seed SBP differences.

    Positive mean says the bound blocked more than the heuristic; the
    bound property requires mean <= 2 standard errors (and <= 0 when
    the paired differences are all identical).
    """
    heur = {r.seed: r.sbp for r in heuristic_point.results}
    bound = {r.seed: r.sbp for r in bound_point.results}
    if set(heur) != set(bound):
        raise ValueError("dominance check requires paired seeds")
    diffs = np.array([bound[s] - heur[s] for s in sorted(heur)])
    se = float(np.std(diffs, ddof=1) / math.sqrt(len(diffs))) if len(diffs) >= 2 else 0.0
    return float(diffs.mean()), se


TRUNCATED_MEAN_ANALYTIC = (1.0 - 3.0 * math.exp(-2.0)) / (1.0 - math.exp(-2.0))


def reference_stream(config, n_requests, nodes, seed):
    """The seeded request stream, drawn as documented and built one request at a time.

    The seed spawns four generators, in order: arrivals, holding times,
    demands, endpoints.  Holding times have the documented mean of 10
    time units, so arrivals come at the load over 10.  Holding times
    above twice the mean are redrawn while truncating; the destination
    index skips the source's.  Every field is read off the numpy arrays
    element by element.
    """
    arr_rng, hold_rng, demand_rng, pair_rng = (
        np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(4)
    )
    mean = 10.0
    arrivals = np.cumsum(arr_rng.exponential(1.0 / (config.load_erlangs / mean), n_requests))
    holdings = hold_rng.exponential(mean, n_requests)
    while config.truncate_holding and (holdings > 2.0 * mean).any():
        long = holdings > 2.0 * mean
        holdings[long] = hold_rng.exponential(mean, int(long.sum()))
    if config.rate_gbps_range is not None:
        lo, hi = config.rate_gbps_range
        rates, slots = demand_rng.integers(lo, hi + 1, n_requests), None
    else:
        choices = np.asarray(config.fixed_slot_choices)
        rates, slots = None, choices[demand_rng.integers(0, len(choices), n_requests)]
    src = pair_rng.integers(0, len(nodes), n_requests)
    other = pair_rng.integers(0, len(nodes) - 1, n_requests)
    stream = []
    for i in range(n_requests):
        dst = other[i] + 1 if other[i] >= src[i] else other[i]
        stream.append(
            ServiceRequest(
                id=i,
                src=nodes[src[i]],
                dst=nodes[dst],
                arrival_time=float(arrivals[i]),
                holding_time=float(holdings[i]),
                rate_gbps=None if rates is None else float(rates[i]),
                slots=None if slots is None else int(slots[i]),
            )
        )
    return stream


def random_connected_graph(rng, max_nodes=6):
    """Random small undirected weighted graph, usually connected.

    Returns (node_names, links).  Builds a random spanning tree first,
    then sprinkles extra edges, so most instances are connected; an
    occasional isolated pair exercises the empty-result contract.
    """
    n = rng.integers(2, max_nodes + 1)
    nodes = [chr(ord("A") + i) for i in range(n)]
    links = []
    seen = set()
    order = list(rng.permutation(n))
    for i, node_idx in enumerate(order[1:], start=1):
        j = order[int(rng.integers(0, i))]
        pair = frozenset((nodes[node_idx], nodes[j]))
        seen.add(pair)
        links.append((nodes[node_idx], nodes[j], float(rng.integers(1, 2000))))
    extra = int(rng.integers(0, n * (n - 1) // 2))
    for _ in range(extra):
        i, j = rng.integers(0, n, 2)
        if i == j:
            continue
        pair = frozenset((nodes[i], nodes[j]))
        if pair in seen:
            continue
        seen.add(pair)
        links.append((nodes[int(i)], nodes[int(j)], float(rng.integers(1, 2000))))
    return nodes, links


# --- naive RMSA event loop and replay rebuild ------------------------------------
#
# Occupancy is one list of booleans per fiber and demand is read straight
# off a reach table, given as (bits_per_symbol, max_reach_km) pairs with
# exact rational arithmetic.  Candidate paths come from the package's path
# layer, which has its own oracle above.


def reference_slots(request, length_km, formats, slot_width_ghz, guard_slots, bits=None):
    """Slots ``request`` needs on a path of ``length_km``, or None when beyond every reach.

    ``bits`` forces a format instead of the highest one whose reach covers
    the path.
    """
    if request.slots is not None:
        return request.slots + guard_slots
    if bits is None:
        reachable = [b for b, reach in formats if reach >= length_km]
        if not reachable:
            return None
        bits = max(reachable)
    quotient = Fraction(request.rate_gbps) / (Fraction(slot_width_ghz) * bits)
    return max(1, math.ceil(quotient)) + guard_slots


def reference_decision(kind, request, candidates, grids, formats, width, guard):
    """(fiber_ids, start, size) chosen by policy ``kind``, or None, per heuristics.py.

    * ksp-ff / ksp-bf: the first candidate with any fit, placed first-fit
      or best-fit;
    * ff-ksp: the lowest first-fit start over all candidates;
    * bf-ksp: the best-fit block in the smallest free run, then the lower
      start;
    * kme-ff: the least summed per-link fragmentation entropy after a
      first-fit placement;
    * kca-ff: the least congestion (the highest occupied fraction of any
      path fiber), placed first-fit.

    Ties among the scan-all policies go to the earlier candidate.
    """
    n_slots = len(grids[0])
    scored = []
    for rank, (length_km, fiber_ids) in enumerate(zip(candidates.lengths_km, candidates.fiber_ids)):
        size = reference_slots(request, length_km, formats, width, guard)
        if size is None:
            continue
        occupied = [any(grids[f][i] for f in fiber_ids) for i in range(n_slots)]
        best_fit = kind in ("ksp-bf", "bf-ksp")
        start = (best_fit_oracle if best_fit else first_fit_oracle)(occupied, size)
        if start is None:
            continue
        if kind in ("ksp-ff", "ksp-bf"):
            return fiber_ids, start, size
        if kind == "ff-ksp":
            score = start
        elif kind == "bf-ksp":
            score = (dict(maximal_free_runs_oracle(occupied))[start], start)
        elif kind == "kme-ff":
            placed = range(start, start + size)
            score = sum(
                entropy_oracle([grids[f][i] or i in placed for i in range(n_slots)])
                for f in fiber_ids
            )
        elif kind == "kca-ff":
            score = max(sum(grids[f]) / n_slots for f in fiber_ids)
        else:
            raise ValueError(kind)
        scored.append((score, rank, fiber_ids, start, size))
    if not scored:
        return None
    _score, _rank, fiber_ids, start, size = min(scored, key=lambda s: s[:2])
    return fiber_ids, start, size


def reference_rebuild(kind, requests, candidates_of, n_fibers, n_slots, formats, width, guard):
    """Replay every request on an empty network, largest slots x hops first.

    Slots and hops are those of the rank-0 candidate; beyond every reach
    the lowest-order format stands in.  Ties go to the earlier arrival,
    then the lower id.  Returns (grids, {id: (fiber_ids, start, size)}),
    or None when some request finds no fit.
    """

    def footprint(request):
        candidates = candidates_of(request)
        km0 = candidates.lengths_km[0]
        slots = reference_slots(request, km0, formats, width, guard)
        if slots is None:
            slots = reference_slots(
                request, km0, formats, width, guard, bits=min(b for b, _ in formats)
            )
        return slots * len(candidates.fiber_ids[0])

    order = sorted(requests, key=lambda r: (-footprint(r), r.arrival_time, r.id))
    grids = [[False] * n_slots for _ in range(n_fibers)]
    placed = {}
    for request in order:
        choice = reference_decision(
            kind, request, candidates_of(request), grids, formats, width, guard
        )
        if choice is None:
            return None
        fiber_ids, start, size = choice
        for f in fiber_ids:
            for i in range(start, start + size):
                grids[f][i] = True
        placed[request.id] = choice
    return grids, placed


def reference_trial(kind, stream, candidates_of, n_fibers, n_slots, formats, width, guard, bound):
    """Outcome and placements after every arrival of a naive trial.

    Lightpaths expiring strictly before an arrival are released first.
    A blocked request triggers a replay rebuild when ``bound`` is set and
    some candidate's demand fits an empty fiber.  Returns one
    (outcome, grids, {id: (fiber_ids, start, size)}) triple per arrival.
    """
    grids = [[False] * n_slots for _ in range(n_fibers)]
    active = {}  # id -> (request, fiber_ids, start, size)
    events = []
    for request in stream:
        for rid, (held, fiber_ids, start, size) in list(active.items()):
            if held.arrival_time + held.holding_time < request.arrival_time:
                for f in fiber_ids:
                    for i in range(start, start + size):
                        grids[f][i] = False
                del active[rid]
        candidates = candidates_of(request)
        choice = reference_decision(kind, request, candidates, grids, formats, width, guard)
        if choice is not None:
            fiber_ids, start, size = choice
            for f in fiber_ids:
                for i in range(start, start + size):
                    grids[f][i] = True
            active[request.id] = (request, *choice)
            outcome = "direct"
        else:
            outcome = "blocked"
            hostable = [
                reference_slots(request, km, formats, width, guard) for km in candidates.lengths_km
            ]
            if bound and any(s is not None and s <= n_slots for s in hostable):
                requests = [held for held, *_ in active.values()] + [request]
                rebuilt = reference_rebuild(
                    kind, requests, candidates_of, n_fibers, n_slots, formats, width, guard
                )
                if rebuilt is not None:
                    grids, placed = rebuilt
                    by_id = {r.id: r for r in requests}
                    active = {rid: (by_id[rid], *placed[rid]) for rid in placed}
                    outcome = "defrag"
        placements = {rid: (fiber_ids, start, size) for rid, (_r, fiber_ids, start, size) in active.items()}
        events.append((outcome, [row[:] for row in grids], placements))
    return events


def markov_sbp(kind, topology, k, slot_choices, load):
    """Exact SBP of online policy ``kind`` on a tiny network, from its Markov chain.

    With Poisson arrivals and exponential holding times of mean 10, the
    set of active ``(fiber_ids, start, size)`` lightpaths is a
    continuous-time Markov chain.  Arrivals come at ``load / 10``, spread
    evenly over the ordered node pairs and the slot choices; each one is
    placed by ``reference_decision`` on its ``k`` hops-ordered reference
    candidates, or blocked.  Each lightpath departs at rate 1 / 10.
    States are explored breadth-first from the empty network.  The
    stationary distribution comes from power iteration on the chain
    uniformized at twice its largest out-rate, so every state keeps a
    self-loop; it stops once an L1 step is below 1e-13.  Arrivals see
    time averages, so the SBP is the stationary mean of the share of
    arrival classes a state blocks.
    """
    mean = 10.0
    classes = [
        (ServiceRequest(0, src, dst, 0.0, mean, slots=size),
         reference_k_shortest_paths(topology, src, dst, k, PathOrdering.HOPS_THEN_KM))
        for src in topology.nodes
        for dst in topology.nodes
        if src != dst
        for size in slot_choices
    ]
    class_rate = load / mean / len(classes)
    states = [frozenset()]
    index = {states[0]: 0}
    sources, targets, rates, blocked_share = [], [], [], []
    for i, state in enumerate(states):  # the list grows as states are found
        grids = [[False] * topology.slots_per_fiber for _ in range(topology.num_fibers)]
        for fiber_ids, start, size in state:
            for f in fiber_ids:
                for s in range(start, start + size):
                    grids[f][s] = True
        moves = [(state - {lightpath}, 1.0 / mean) for lightpath in state]
        blocked = 0
        for request, candidates in classes:
            choice = reference_decision(kind, request, candidates, grids, (), 12.5, 0)
            if choice is None:
                blocked += 1
            else:
                moves.append((state | {choice}, class_rate))
        blocked_share.append(blocked / len(classes))
        for target, rate in moves:
            if target not in index:
                index[target] = len(states)
                states.append(target)
            sources.append(i)
            targets.append(index[target])
            rates.append(rate)

    n = len(states)
    sources, targets, rates = np.array(sources), np.array(targets), np.array(rates)
    out_rate = np.bincount(sources, weights=rates, minlength=n)
    uniform = 2.0 * out_rate.max()
    pi = np.zeros(n)
    pi[0] = 1.0
    while True:
        inflow = np.bincount(targets, weights=pi[sources] * rates, minlength=n)
        step = (inflow - pi * out_rate) / uniform
        pi += step
        if np.abs(step).sum() < 1e-13:
            return float(pi @ np.array(blocked_share))
