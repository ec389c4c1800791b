"""Shortest-path routing over the road graph.

Costs are segment lengths in meters.

The first query on a graph compiles it once into Python tuples for the search
loop (:class:`_Compiled`), over the graph's own node rows (ascending id): each
row's outgoing ``(end row, length)`` pairs with parallel segments collapsed to
the shortest, the coordinates the heuristic reads, and one byte per row that
marks the through nodes.  A through node has exactly two distinct neighbours,
counting both directions, and no self-loop: most such nodes only shape a
street.  It is kept on the graph, so a map that is never routed never builds
it.

The search is A* (Hart, Nilsson & Raphael, IEEE TSSC 1968).  A heap entry's
key is its distance label plus ``scale`` times the straight-line distance to
the target, and equal keys pop in ascending node id.  ``scale`` is
``1 - ε`` (``_EPS``): the slack ``ε * length`` on every segment keeps the keys
strictly increasing along a shortest path even after rounding, so every node
settles with its exact Dijkstra label, and before every node it can precede on
a shortest path.  ``scale`` is zero, and the search is Dijkstra's, on a graph
whose shortest segment is too short for that slack to cover rounding (see
:func:`_heuristic_scale`).  The search stops when the target settles.

Only junctions enter the heap: every node that is not a through node, and the
query's source and target.  This is the degree-2 case of node contraction
(Geisberger et al., "Contraction Hierarchies", WEA 2008), done at query time.
When a settled node relaxes a segment into a through node, the label is
carried along the chain with the same left-to-right additions,
``((d[u] + w1) + w2) + ...``, and written to each through node it lowers; the
first junction after the chain is relaxed as usual.  A carry ends early at a
through node whose label is already no larger (the source holds 0.0) or where
the chain only leads back.  A through node's label is the smaller of the two
sums carried in from its chain's ends, and the larger sum reaches only nodes
with smaller labels still, so every label is bit for bit the one the all-node
search computes, and the junctions settle in its (key, id) order.  The compile
marks no through node on a graph with the heuristic off: there an addition may
absorb a segment (``d + w == d``, at the latest once a sum overflows to
infinity), and carrying would reorder equal labels.

The route is rebuilt from the labels and the graph's incoming adjacency by
one rule on them: walking back from the target, the predecessor of ``v`` is
the smallest-id node ``u`` that settled before ``v`` and has
``d[u] + w(u, v) == d[v]``, for the shortest of its segments into ``v`` (the
first in adjacency order among equal lengths).  Rounding is monotone and no
label exceeds ``d[u]`` plus ``u``'s shortest segment into ``v``, so if a longer
parallel segment meets the equation, the shortest one does too.  This is the
predecessor a Dijkstra search keeps when it breaks equal-cost ties toward the
smaller id, so both search orders give the same route, bit for bit.  Where no
addition absorbs, which holds on every graph with through nodes, the equation
gives ``d[u] < d[v]``, and the all-node search settles a smaller label first:
so the rule needs no settle rank, which through nodes do not have.  A label
the search has not made final is larger than the exact one, and it meets the
equation only if the exact one does, for a node that has then settled and
holds it.  Where an addition absorbs, labels can be equal; every node there is
a junction, and settle rank orders them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .osm import RoadGraph, SegmentRef

_EPS = 2.0**-16  # relative slack taken off the straight-line heuristic


class NoRouteError(Exception):
    def __init__(self, from_node: int, to_node: int) -> None:
        super().__init__(f"no route from node {from_node} to node {to_node}")
        self.from_node = from_node
        self.to_node = to_node


@dataclass(frozen=True)
class Route:
    """A directed path; ``refs[i]`` is the segment that drives ``node_ids[i]`` to
    ``node_ids[i + 1]``, the one :func:`connecting_ref` picks (n nodes, n - 1 refs)."""

    node_ids: tuple[int, ...]
    total_cost: float
    refs: tuple[SegmentRef, ...] = ()


@dataclass(frozen=True)
class _Compiled:
    """A road graph's node rows as the search loop reads them."""

    out: tuple[tuple[tuple[int, float], ...], ...]  # row -> ((end row, shortest length), ...)
    through: bytes  # row -> 1 for a through node, else 0
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    scale: float  # heuristic factor: 1 - ε, or 0.0 when the heuristic is off


def _heuristic_scale(xs: list[float], ys: list[float], lengths: list[float]) -> float:
    """``1 - ε``, or 0.0 when the slack ``ε * length`` could drown in rounding.

    The computed heuristic and lengths are within a few units of 2**-53 of
    their true values, relative to the map's extent and to the labels and keys,
    which no shortest path makes larger than the sum of all segment lengths.
    The slack must beat these errors on every segment; the test below asks for
    a factor of about four over the worst case.
    """
    extent = max(map(abs, xs + ys), default=0.0)
    try:
        total = math.fsum(lengths)
    except OverflowError:  # finite lengths whose sum passes the largest float
        total = math.inf
    shortest = min(lengths, default=math.inf)
    if math.isfinite(extent + total) and _EPS * shortest > 2.0**-46 * (extent + total):
        return 1.0 - _EPS
    return 0.0


def _rows(row: np.ndarray, items: list, n: int) -> tuple[tuple, ...]:
    """``items`` grouped by ``row``, which is sorted, into one tuple for each of ``n`` rows."""
    cut = np.searchsorted(row, np.arange(n + 1)).tolist()
    return tuple(tuple(items[a:b]) for a, b in zip(cut, cut[1:]))


def _compile(graph: RoadGraph) -> _Compiled:
    n = len(graph.ids)
    # one edge per (start, end) pair: the shortest segment, then the first in adjacency
    # order, which is the smallest key (way, index, forward) as connecting_ref picks it
    # (two segments of one piece of a way never share a start and an end)
    adj = graph.out_seg
    pair = graph.start[adj] * n + graph.end[adj]
    order = np.lexsort((graph.length[adj], pair))  # stable: ties keep adjacency order
    pair = pair[order]
    seg = adj[order][np.diff(pair, prepend=-1) != 0]
    u, v, w = graph.start[seg], graph.end[seg], graph.length[seg]
    out = _rows(u, list(zip(v.tolist(), w.tolist())), n)
    xs, ys = graph.x.tolist(), graph.y.tolist()
    scale = _heuristic_scale(xs, ys, w.tolist())
    # through nodes: two distinct neighbours over both directions (a graph has no
    # self-loop: a segment that ends where it starts has zero length)
    pairs = np.concatenate((u * n + v, v * n + u))
    pairs.sort()
    distinct = pairs[np.diff(pairs, prepend=-1) != 0]
    through = np.bincount(distinct // n, minlength=n) == 2
    if not scale:  # off: zeros keep every key equal to its label, even at a non-finite coordinate
        xs = ys = [0.0] * n
        through[:] = False  # a sum may absorb a segment here, so labels alone do not give the settle order
    return _Compiled(out, through.tobytes(), tuple(xs), tuple(ys), scale)


def shortest_path(graph: RoadGraph, from_node: int, to_node: int) -> Route:
    """Shortest directed path from ``from_node`` to ``to_node``.

    A* over the compiled graph with a straight-line heuristic, or Dijkstra's
    order (the same loop with a zero heuristic) on a map with a segment too
    short for the heuristic's slack; only junctions settle, and labels are
    carried through chains of through nodes.  See the module docstring.
    Equal-cost alternatives are broken by a rule on the labels: each node's
    predecessor is the smallest-id node, settled before it, whose label plus
    the connecting cost equals its own.  So a grid with symmetric geometry
    routes deterministically, and the route is the one a Dijkstra search that
    prefers the smaller-id predecessor would return.  ``from == to`` yields
    the single-node route with zero cost; unreachable targets raise
    :class:`NoRouteError` naming both endpoints.
    """
    for node in (from_node, to_node):
        if node not in graph.nodes:
            raise ValueError(f"unknown node {node}")
    if from_node == to_node:
        return Route((from_node,), 0.0)
    g = graph._router
    if g is None:
        g = graph._router = _compile(graph)
    out, scale = g.out, g.scale
    src, dst = graph.nodes[from_node], graph.nodes[to_node]

    n = len(out)
    dist: list[float | None] = [None] * n
    rank: list[int | None] = [None] * n  # settle order of the junctions
    xs, ys, xt, yt = g.xs, g.ys, g.xs[dst], g.ys[dst]
    through = g.through
    hypot, push, pop = math.hypot, heapq.heappush, heapq.heappop
    dist[src] = 0.0
    heap: list[tuple[float, int]] = [(0.0, src)]
    settled = 0
    while heap:
        u = pop(heap)[1]
        if rank[u] is not None:
            continue
        rank[u] = settled
        settled += 1
        if u == dst:
            break
        du = dist[u]
        for v, w in out[u]:
            nd, p = du + w, u
            # carry the label along a chain of through nodes to the junction that ends it; a through
            # node that already holds a label no larger ends the carry (the source holds 0.0)
            while through[v] and v != dst:
                dv = dist[v]
                if dv is not None and nd >= dv:
                    break
                dist[v] = nd
                for x, w in out[v]:
                    if x != p:
                        nd, p, v = nd + w, v, x
                        break
                else:
                    break  # the chain's end leads nowhere new
            else:
                if rank[v] is not None:
                    continue
                dv = dist[v]
                if dv is None or nd < dv:
                    dist[v] = nd
                    push(heap, (nd + scale * hypot(xs[v] - xt, ys[v] - yt), v))
    if rank[dst] is None:
        raise NoRouteError(from_node, to_node)

    # the route, from the graph's incoming adjacency: of the segments into ``v`` that meet the rule,
    # the one with the smallest (start row, length), the first in adjacency order among equal pairs
    in_start, in_seg, start, length = graph.in_start.item, graph.in_seg.item, graph.start.item, graph.length.item
    path, segs = [dst], []
    v = dst
    while v != src:
        dv, rv, best = dist[v], rank[v], None
        for i in range(in_start(v), in_start(v + 1)):
            k = in_seg(i)
            u, w = start(k), length(k)
            if ((du := dist[u]) is not None and du + w == dv and (du < dv or rank[u] is not None and rank[u] < rv)
                    and (best is None or (u, w) < best[:2])):
                best = u, w, k
        v, _, k = best
        path.append(v)
        segs.append(k)
    return Route(tuple(graph.ids[row] for row in reversed(path)), dist[dst],
                 tuple(SegmentRef(graph, k) for k in reversed(segs)))


def connecting_ref(graph: RoadGraph, a: int, b: int) -> SegmentRef | None:
    """Cheapest directed traversal from a to b, deterministic among parallels."""
    best: SegmentRef | None = None
    for ref in graph.outgoing(a):
        if ref.end_node != b:
            continue
        if best is None or (ref.length, ref.key) < (best.length, best.key):
            best = ref
    return best
