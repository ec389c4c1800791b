"""Shortest-path routing over the road graph.

Costs default to segment length in meters and are computed at request time
from an injectable cost function, so a scenario can reroute against live
state (e.g. congestion-aware weights) without rebuilding the graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from .osm import RoadGraph, SegmentRef


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


def shortest_path(
    graph: RoadGraph,
    from_node: int,
    to_node: int,
    cost: Callable[[SegmentRef], float] | None = None,
) -> Route:
    """Minimal-cost directed path from ``from_node`` to ``to_node``.

    Equal-cost alternatives are broken toward the smaller-id predecessor, so a
    grid with symmetric geometry routes deterministically.  ``from == to``
    yields the single-node route with zero cost; unreachable targets raise
    :class:`NoRouteError` naming both endpoints.
    """
    for node in (from_node, to_node):
        if node not in graph.nodes:
            raise ValueError(f"unknown node {node}")
    if from_node == to_node:
        return Route((from_node,), 0.0)
    weight = cost if cost is not None else (lambda ref: ref.length)

    dist: dict[int, float] = {from_node: 0.0}
    pred: dict[int, int] = {}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, from_node)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == to_node:
            break
        for ref in graph.outgoing(u):
            v = ref.end_node
            if v in done:
                continue
            nd = d + weight(ref)
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] and u < pred[v]:
                pred[v] = u  # deterministic tie-break among equal-cost paths
    if to_node not in done:
        raise NoRouteError(from_node, to_node)

    path = [to_node]
    while path[-1] != from_node:
        path.append(pred[path[-1]])
    path.reverse()
    refs = tuple(connecting_ref(graph, a, b) for a, b in zip(path, path[1:]))
    return Route(tuple(path), dist[to_node], refs)


def connecting_ref(graph: RoadGraph, a: int, b: int) -> SegmentRef | None:
    """Cheapest directed traversal from a to b, deterministic among parallels."""
    best: SegmentRef | None = None
    for ref in graph.outgoing(a):
        if ref.end_node != b:
            continue
        if best is None or (ref.length, ref.key) < (best.length, best.key):
            best = ref
    return best
