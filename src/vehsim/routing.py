"""Shortest-path routing over the road graph.

Costs are segment lengths in meters.

The first query on a graph compiles it once into an integer graph
(:class:`_Compiled`): node rows in ascending id order, each row's outgoing
``(end row, length)`` pairs with parallel segments collapsed to the shortest,
the reverse adjacency, and the coordinates the heuristic reads.  It is kept
on the graph, so a map that is never routed never builds it.

The search is A* (Hart, Nilsson & Raphael, IEEE TSSC 1968).  A heap entry's
key is its distance label plus ``scale`` times the straight-line distance to
the target, and equal keys pop in ascending node id.  ``scale`` is
``1 - ε`` (``_EPS``): the slack ``ε * length`` on every segment keeps the keys
strictly increasing along a shortest path even after rounding, so every node
settles with its exact Dijkstra label, and before every node it can precede on
a shortest path.  ``scale`` is zero, and the search is Dijkstra's, on a graph
whose shortest segment is too short for that slack to cover rounding (see
:func:`_heuristic_scale`).  The search stops when the target settles.

The route is rebuilt from the labels by one rule on them: walking back from
the target, the predecessor of ``v`` is the smallest-id node ``u`` that
settled before ``v`` and has ``d[u] + w(u, v) == d[v]``.  This is the
predecessor a Dijkstra search keeps when it breaks equal-cost ties toward the
smaller id, so both search orders give the same route, bit for bit.  With
positive costs that no addition absorbs, "settled before ``v``" is the same as
``(d[u], u) < (d[v], v)``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

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
    ``node_ids[i + 1]``, resolved once by :func:`connecting_ref` (n nodes, n - 1 refs)."""

    node_ids: tuple[int, ...]
    total_cost: float
    refs: tuple[SegmentRef, ...] = ()


@dataclass(frozen=True)
class _Compiled:
    """A road graph as integer rows; row order is ascending node id."""

    ids: tuple[int, ...]
    rows: dict[int, int]  # node id -> row
    out: tuple[tuple[tuple[int, float], ...], ...]  # row -> ((end row, shortest length), ...)
    into: tuple[tuple[int, ...], ...]  # row -> rows with a segment into it, ascending
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
    total = math.fsum(lengths)
    shortest = min(lengths, default=math.inf)
    if math.isfinite(extent + total) and _EPS * shortest > 2.0**-46 * (extent + total):
        return 1.0 - _EPS
    return 0.0


def _compile(graph: RoadGraph) -> _Compiled:
    ids = tuple(sorted(graph.nodes))
    rows = {node_id: row for row, node_id in enumerate(ids)}
    out: list[tuple[tuple[int, float], ...]] = []
    into: list[list[int]] = [[] for _ in ids]
    for u, node_id in enumerate(ids):  # ascending u, so each into[v] is sorted
        edges: dict[int, float] = {}
        for ref in graph.outgoing(node_id):
            v = rows[ref.end_node]
            if v not in edges or ref.length < edges[v]:
                edges[v] = ref.length
        for v in edges:
            into[v].append(u)
        out.append(tuple(edges.items()))
    xs = [graph.nodes[node_id].x for node_id in ids]
    ys = [graph.nodes[node_id].y for node_id in ids]
    scale = _heuristic_scale(xs, ys, [w for edges in out for _, w in edges])
    if not scale:  # off: zeros keep every key equal to its label, even at a non-finite coordinate
        xs = ys = [0.0] * len(ids)
    return _Compiled(ids, rows, tuple(out), tuple(map(tuple, into)), tuple(xs), tuple(ys), scale)


def shortest_path(graph: RoadGraph, from_node: int, to_node: int) -> Route:
    """Shortest directed path from ``from_node`` to ``to_node``.

    A* over the compiled graph with a straight-line heuristic, or Dijkstra's
    order (the same loop with a zero heuristic) on a map with a segment too
    short for the heuristic's slack; see the module docstring.
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
    src, dst = g.rows[from_node], g.rows[to_node]

    n = len(g.ids)
    dist: list[float | None] = [None] * n
    rank: list[int | None] = [None] * n  # settle order
    xs, ys, xt, yt = g.xs, g.ys, g.xs[dst], g.ys[dst]
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
            if rank[v] is not None:
                continue
            nd = du + w
            dv = dist[v]
            if dv is None or nd < dv:
                dist[v] = nd
                push(heap, (nd + scale * hypot(xs[v] - xt, ys[v] - yt), v))
    if rank[dst] is None:
        raise NoRouteError(from_node, to_node)

    path = [dst]
    v = dst
    while v != src:
        dv, rv = dist[v], rank[v]
        v = next(u for u in g.into[v]
                 if rank[u] is not None and rank[u] < rv and dist[u] + dict(out[u])[v] == dv)
        path.append(v)
    node_ids = [g.ids[row] for row in reversed(path)]
    refs = tuple(connecting_ref(graph, a, b) for a, b in zip(node_ids, node_ids[1:]))
    return Route(tuple(node_ids), dist[dst], refs)


def connecting_ref(graph: RoadGraph, a: int, b: int) -> SegmentRef | None:
    """Cheapest directed traversal from a to b, deterministic among parallels."""
    best: SegmentRef | None = None
    for ref in graph.outgoing(a):
        if ref.end_node != b:
            continue
        if best is None or (ref.length, ref.key) < (best.length, best.key):
            best = ref
    return best
