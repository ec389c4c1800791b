"""Shortest paths: correctness against brute force, tie-breaks, route helpers."""

import itertools

import numpy as np
import pytest

from vehsim.osm import build_graph
from vehsim.routing import NoRouteError, Route, connecting_ref, shortest_path

from conftest import chain_graph


def test_identity_route():
    graph = chain_graph(100.0, 3)
    route = shortest_path(graph, 2, 2)
    assert route == Route((2,), 0.0)


def test_chain_cost_is_sum_of_segment_lengths():
    graph = chain_graph(150.0, 5)
    route = shortest_path(graph, 1, 5)
    assert route.node_ids == (1, 2, 3, 4, 5)
    assert route.total_cost == pytest.approx(600.0)


def test_equal_cost_diamond_prefers_smaller_predecessor():
    # 1 -> 2 -> 4 and 1 -> 3 -> 4 are both 200 m; the way via node 2 must win.
    nodes = [(1, 0.0, 0.0), (2, 100.0, 0.0), (3, 0.0, 100.0), (4, 100.0, 100.0)]
    ways = [
        (11, [1, 2], {"one_way": True}),
        (12, [1, 3], {"one_way": True}),
        (13, [2, 4], {"one_way": True}),
        (14, [3, 4], {"one_way": True}),
    ]
    graph = build_graph(nodes, ways)
    route = shortest_path(graph, 1, 4)
    assert route.node_ids == (1, 2, 4)
    assert route.total_cost == pytest.approx(200.0)


def test_one_way_restriction_forces_detour():
    # Direct edge 1 -> 2 exists only in that direction; going back must loop.
    nodes = [(1, 0.0, 0.0), (2, 100.0, 0.0), (3, 50.0, 80.0)]
    ways = [
        (11, [1, 2], {"one_way": True}),
        (12, [2, 3], {"one_way": True}),
        (13, [3, 1], {"one_way": True}),
    ]
    graph = build_graph(nodes, ways)
    assert shortest_path(graph, 1, 2).total_cost == pytest.approx(100.0)
    back = shortest_path(graph, 2, 1)
    assert back.node_ids == (2, 3, 1)
    assert back.total_cost > 100.0


def test_unreachable_target_raises_with_node_ids():
    nodes = [(1, 0.0, 0.0), (2, 100.0, 0.0), (3, 200.0, 0.0)]
    graph = build_graph(nodes, [(11, [1, 2], {"one_way": True}), (12, [2, 3], {"one_way": True})])
    with pytest.raises(NoRouteError) as err:
        shortest_path(graph, 3, 1)
    assert "3" in str(err.value) and "1" in str(err.value)
    assert err.value.from_node == 3
    assert err.value.to_node == 1


def test_unknown_node_is_an_argument_error():
    graph = chain_graph(100.0, 2)
    with pytest.raises(ValueError, match="unknown node"):
        shortest_path(graph, 1, 42)


def _brute_force_min_cost(graph, src, dst):
    """Enumerate all simple paths via DFS; None when no path exists."""
    best = None
    stack = [(src, 0.0, {src})]
    while stack:
        node, cost, seen = stack.pop()
        if node == dst:
            best = cost if best is None else min(best, cost)
            continue
        for ref in graph.outgoing(node):
            nxt = ref.end_node
            if nxt in seen:
                continue
            stack.append((nxt, cost + ref.length, seen | {nxt}))
    return best


def _random_digraph(rng):
    n = int(rng.integers(4, 13))
    coords = set()
    while len(coords) < n:
        coords.add((float(rng.integers(0, 500)), float(rng.integers(0, 500))))
    nodes = [(i + 1, x, y) for i, (x, y) in enumerate(sorted(coords))]
    ways = []
    way_id = 100
    for a, b in itertools.permutations([nid for nid, _, _ in nodes], 2):
        if rng.random() < 0.25:
            ways.append((way_id, [a, b], {"one_way": True}))
            way_id += 1
    if not ways:  # ensure the graph is parseable
        ways.append((way_id, [nodes[0][0], nodes[1][0]], {"one_way": True}))
    return build_graph(nodes, ways)


def test_shortest_path_matches_brute_force_enumeration():
    rng = np.random.default_rng(4242)
    checked = 0
    for _ in range(20):
        graph = _random_digraph(rng)
        ids = sorted(graph.nodes)
        src, dst = ids[0], ids[-1]
        expected = _brute_force_min_cost(graph, src, dst)
        if expected is None:
            with pytest.raises(NoRouteError):
                shortest_path(graph, src, dst)
        else:
            route = shortest_path(graph, src, dst)
            assert route.total_cost == pytest.approx(expected, abs=1e-9)
            # each hop carries the segment connecting_ref picks, and the hops
            # cost what the route claims
            hops = zip(route.node_ids, route.node_ids[1:])
            assert route.refs == tuple(connecting_ref(graph, a, b) for a, b in hops)
            walked = sum(ref.length for ref in route.refs)
            assert walked == pytest.approx(route.total_cost, abs=1e-9)
            checked += 1
    assert checked >= 5  # random graphs at p=0.25 are usually connected


def test_connecting_ref_breaks_parallel_way_ties_by_key():
    nodes = [(1, 0.0, 0.0), (2, 100.0, 0.0)]
    ways = [(20, [1, 2], {"one_way": True}), (15, [1, 2], {"one_way": True})]
    graph = build_graph(nodes, ways)
    ref = connecting_ref(graph, 1, 2)
    assert ref.key == (15, 0, True)  # equal lengths: smaller way id wins
    assert connecting_ref(graph, 2, 1) is None
    assert shortest_path(graph, 1, 2).refs[0].key == (15, 0, True)


def test_custom_cost_function_reroutes():
    # Geometrically longer top route becomes cheapest when the direct way is penalized.
    nodes = [(1, 0.0, 0.0), (2, 100.0, 0.0), (3, 50.0, 60.0)]
    ways = [
        (11, [1, 2], {"one_way": True}),
        (12, [1, 3], {"one_way": True}),
        (13, [3, 2], {"one_way": True}),
    ]
    graph = build_graph(nodes, ways)

    def avoid_way_11(ref):
        return ref.length * (100.0 if ref.segment.way_id == 11 else 1.0)

    assert shortest_path(graph, 1, 2).node_ids == (1, 2)
    assert shortest_path(graph, 1, 2, cost=avoid_way_11).node_ids == (1, 3, 2)
