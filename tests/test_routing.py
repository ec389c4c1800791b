"""Shortest paths: correctness against brute force and a Dijkstra oracle, tie-breaks, route helpers."""

import heapq
import itertools
import math
import struct

import numpy as np
import pytest

import vehsim.routing as vehsim_routing
from vehsim.osm import build_graph, parse_osm
from vehsim.routing import _EPS, NoRouteError, Route, connecting_ref, shortest_path

from conftest import chain_graph, grid_osm_xml


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


# --- differential tests against the plain Dijkstra search ---------------------


def _reference_shortest_path(graph, from_node, to_node):
    """The dict-based Dijkstra search ``shortest_path`` replaced, kept as the oracle (over lengths only)."""
    for node in (from_node, to_node):
        if node not in graph.nodes:
            raise ValueError(f"unknown node {node}")
    if from_node == to_node:
        return Route((from_node,), 0.0)

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
            nd = d + ref.length
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


def _outcome(search, graph, a, b):
    """Route nodes, total cost as bytes and refs; or the error's type and text."""
    try:
        route = search(graph, a, b)
    except (NoRouteError, ValueError) as exc:
        return type(exc), str(exc)
    return route.node_ids, struct.pack("<d", route.total_cost), route.refs


def _assert_matches_reference(graph, pairs):
    checked = 0
    for a, b in pairs:
        expected = _outcome(_reference_shortest_path, graph, a, b)
        assert _outcome(shortest_path, graph, a, b) == expected, (a, b)
        checked += 1
    return checked


def _heuristic_on(graph):
    """Whether the graph's compiled router searches with the straight-line heuristic."""
    scale = graph._router.scale
    assert scale in (0.0, 1.0 - _EPS)
    return scale > 0.0


def _all_pairs(graph):
    return itertools.permutations(sorted(graph.nodes), 2)


def _grid_graph(n, spacing, lanes):
    ids = [[7 * (r * n + c) % (n * n) + 1 for c in range(n)] for r in range(n)]  # ids unlike rows
    nodes = [(ids[r][c], c * spacing, r * spacing) for r in range(n) for c in range(n)]
    opts = {"lanes_forward": lanes, "lanes_backward": lanes}
    ways = [(100 + r, ids[r], opts) for r in range(n)]
    ways += [(200 + c, [ids[r][c] for r in range(n)], opts) for c in range(n)]
    return build_graph(nodes, ways)


def _jittered_lattice(rng, n, spacing):
    """An n x n street lattice with jittered corners and a bent shape node on every street."""
    node_ids = iter(rng.permutation(np.arange(1, 4 * n * n)).tolist())
    corner, nodes = {}, []
    for r, c in itertools.product(range(n), range(n)):
        corner[r, c] = next(node_ids)
        nodes.append((corner[r, c], c * spacing + rng.uniform(-0.2, 0.2) * spacing,
                      r * spacing + rng.uniform(-0.2, 0.2) * spacing))
    xy = {node_id: (x, y) for node_id, x, y in nodes}
    ways = []
    for r, c in itertools.product(range(n), range(n)):
        for r2, c2 in ((r, c + 1), (r + 1, c)):
            if r2 == n or c2 == n:
                continue
            a, b = corner[r, c], corner[r2, c2]
            shape = next(node_ids)
            (ax, ay), (bx, by) = xy[a], xy[b]
            nodes.append((shape, (ax + bx) / 2 + rng.uniform(-5, 5), (ay + by) / 2 + rng.uniform(-5, 5)))
            refs = [a, shape, b] if rng.random() < 0.5 else [b, shape, a]
            ways.append((len(ways) + 1, refs, {"one_way": bool(rng.random() < 0.2)}))
    return build_graph(nodes, ways)


def _random_multigraph(rng, scale, offset):
    """Random digraph on integer points times ``scale``, shifted by ``offset``: one-way,
    two-way and parallel ways (equal-length duplicates and detours through a shape node)."""
    n = int(rng.integers(4, 13))
    coords = set()
    while len(coords) < n:
        coords.add((int(rng.integers(0, 500)), int(rng.integers(0, 500))))
    points = rng.permutation(sorted(coords)).tolist()
    nodes = [(i + 1, offset + x * scale, offset + y * scale) for i, (x, y) in enumerate(points)]
    ids = [node_id for node_id, _, _ in nodes]
    ways, way_id = [], 100
    for a, b in itertools.permutations(ids, 2):
        if rng.random() < 0.2:
            copies = 2 if rng.random() < 0.3 else 1  # an equal-length parallel way
            for _ in range(copies):
                ways.append((way_id, [a, b], {"one_way": bool(rng.random() < 0.7)}))
                way_id += 1
            if rng.random() < 0.2:  # a parallel detour through a shape node
                shape = len(nodes) + 1
                nodes.append((shape, offset + int(rng.integers(0, 500)) * scale,
                              offset + int(rng.integers(0, 500)) * scale))
                ways.append((way_id, [a, shape, b], {"one_way": True}))
                way_id += 1
    if not ways:
        ways.append((way_id, ids[:2], {"one_way": True}))
    return build_graph(nodes, ways)


def test_grid_all_pairs_match_dijkstra_with_exact_ties():
    graph = parse_osm(grid_osm_xml(8, 200.0))
    assert _assert_matches_reference(graph, _all_pairs(graph)) == 64 * 63
    assert _heuristic_on(graph)


def test_four_lane_grid_all_pairs_match_dijkstra_with_exact_ties():
    graph = _grid_graph(5, 100.0, lanes=2)
    assert _assert_matches_reference(graph, _all_pairs(graph)) == 25 * 24
    assert _heuristic_on(graph)


def test_jittered_lattice_with_shape_nodes_matches_dijkstra():
    rng = np.random.default_rng(17)
    for _ in range(2):
        graph = _jittered_lattice(rng, 5, 120.0)
        assert _assert_matches_reference(graph, _all_pairs(graph)) == 65 * 64
        assert _heuristic_on(graph)


@pytest.mark.parametrize("scale", [1.0, 1e-2, 1e-6])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_random_multigraphs_match_dijkstra(scale, offset):
    rng = np.random.default_rng([31, int(-math.log10(scale)), int(offset)])
    checked, heuristic = 0, set()
    for _ in range(40):
        graph = _random_multigraph(rng, scale, offset)
        checked += _assert_matches_reference(graph, _all_pairs(graph))
        heuristic.add(_heuristic_on(graph))
    assert checked > 2000
    # the heuristic stays on unless the segments are micrometres long a kilometre off the origin
    assert heuristic == {not (scale == 1e-6 and offset == 1e6)}


def _micro_map(step):
    """A 4 x 4 lattice of ``step``-long streets, ids running against the geometry, tied to a node
    1 km east by a two-way road, so keys toward that node are a million steps large."""
    n = 4
    nodes = [(100 - (r * n + c), c * step, r * step) for r in range(n) for c in range(n)]
    ways = [(10 + r, [100 - (r * n + c) for c in range(n)]) for r in range(n)]
    ways += [(20 + c, [100 - (r * n + c) for r in range(n)]) for c in range(n)]
    nodes.append((1, 1000.0, 0.0))
    ways.append((30, [100 - (n - 1), 1]))
    return build_graph(nodes, ways)


def test_micro_segment_map_turns_the_heuristic_off_and_matches_dijkstra():
    graph = _micro_map(1e-9)
    assert _assert_matches_reference(graph, _all_pairs(graph)) == 17 * 16
    assert not _heuristic_on(graph)
    # the same map with millimetre streets keeps it
    graph = _micro_map(1e-3)
    assert _assert_matches_reference(graph, _all_pairs(graph)) == 17 * 16
    assert _heuristic_on(graph)


def test_errors_match_dijkstra():
    graph = build_graph([(1, 0.0, 0.0), (2, 100.0, 0.0), (3, 200.0, 0.0)],
                        [(11, [1, 2], {"one_way": True})])
    for a, b in [(1, 3), (3, 1), (2, 1), (1, 42), (42, 1), (42, 42), (3, 3)]:
        assert _outcome(shortest_path, graph, a, b) == _outcome(_reference_shortest_path, graph, a, b)


def test_router_is_compiled_once_on_the_first_query():
    graph = parse_osm(grid_osm_xml(3, 100.0))
    assert graph._router is None  # parsing, drawing or stepping a map does not build it
    shortest_path(graph, 1000, 1202)
    router = graph._router
    shortest_path(graph, 1202, 1000)
    assert graph._router is router


# --- chains of through nodes ---------------------------------------------------


def _through_ids(graph):
    """Ids of the nodes the compiled router carries labels through."""
    router = graph._router
    return {graph.ids[row] for row, flag in enumerate(router.through) if flag}


def _street_network(rng):
    """A 3 x 3 lattice of junctions whose streets carry 0-5 shape nodes each, drawn either way and
    two-way, one-way or one-way against the drawing order; plus a chain that loops back to its own
    junction, a dead-end chain, a chain tied with a direct segment of equal length, and an isolated
    ring of shape nodes."""
    node_ids = iter(rng.permutation(np.arange(1, 200)).tolist())
    nodes, ways = [], []
    junction = {}
    for r, c in itertools.product(range(3), range(3)):
        junction[r, c] = next(node_ids)
        nodes.append((junction[r, c], c * 100.0 + rng.uniform(-10, 10), r * 100.0 + rng.uniform(-10, 10)))
    xy = {node_id: (x, y) for node_id, x, y in nodes}

    def street(a, b, shapes, opts):
        (ax, ay), (bx, by) = xy[a], xy[b]
        refs = [a]
        for i in range(1, shapes + 1):
            node_id = next(node_ids)
            f = i / (shapes + 1)
            nodes.append((node_id, ax + f * (bx - ax) + rng.uniform(-3, 3), ay + f * (by - ay) + rng.uniform(-3, 3)))
            refs.append(node_id)
        refs.append(b)
        ways.append((len(ways) + 1, refs, opts))
        return refs

    directions = [{}, {"one_way": True}, {"lanes_forward": 0, "lanes_backward": 1}]
    for r, c in itertools.product(range(3), range(3)):
        for r2, c2 in ((r, c + 1), (r + 1, c)):
            if r2 < 3 and c2 < 3:
                a, b = junction[r, c], junction[r2, c2]
                if rng.random() < 0.5:
                    a, b = b, a
                street(a, b, int(rng.integers(0, 6)), dict(directions[int(rng.integers(0, 3))]))
    # a chain from the centre back to itself
    centre = junction[1, 1]
    loop = [next(node_ids) for _ in range(3)]
    cx, cy = xy[centre]
    nodes += [(loop[0], cx + 30, cy + 10), (loop[1], cx + 40, cy + 40), (loop[2], cx + 10, cy + 30)]
    ways.append((len(ways) + 1, [centre, *loop, centre], {"one_way": bool(rng.random() < 0.5)}))
    # a dead end off a corner
    ends = [next(node_ids) for _ in range(3)]
    x0, y0 = xy[junction[0, 0]]
    nodes += [(node_id, x0 - 40.0 * (i + 1), y0 - 5.0 * i) for i, node_id in enumerate(ends)]
    ways.append((len(ways) + 1, [junction[0, 0], *ends], {}))
    # a shape node exactly halfway along a direct segment: both routes between its ends cost 200 m
    a, mid, b = next(node_ids), next(node_ids), next(node_ids)
    x2, y2 = xy[junction[2, 2]]
    nodes += [(a, x2 + 100.0, y2), (mid, x2 + 200.0, y2), (b, x2 + 300.0, y2)]
    ways += [(len(ways) + 1, [junction[2, 2], a], {}), (len(ways) + 2, [a, b], {}),
             (len(ways) + 3, [a, mid, b], {}), (len(ways) + 4, [b, junction[2, 2]], {"one_way": True})]
    # a ring nothing else reaches
    ring = [next(node_ids) for _ in range(5)]
    nodes += [(node_id, 1000.0 + 50.0 * math.cos(i), 50.0 * math.sin(i)) for i, node_id in enumerate(ring)]
    ways.append((len(ways) + 1, [*ring, ring[0]], {"one_way": bool(rng.random() < 0.5)}))
    return build_graph(nodes, ways), ring, loop, ends


def test_street_chains_of_shape_nodes_match_dijkstra():
    rng = np.random.default_rng(2008)
    checked = 0
    for _ in range(6):
        graph, ring, loop, ends = _street_network(rng)
        checked += _assert_matches_reference(graph, _all_pairs(graph))
        assert _heuristic_on(graph)
        through = _through_ids(graph)
        assert set(ring) | set(loop) | set(ends[:-1]) <= through and ends[-1] not in through
        assert len(through) > len(graph.nodes) // 2
        # the ring is reached from nowhere and reaches nowhere
        for a, b in ((ring[0], ends[-1]), (ends[-1], ring[0])):
            with pytest.raises(NoRouteError):
                shortest_path(graph, a, b)
    assert checked > 6 * 2000


def test_grid_corner_target_is_a_through_node():
    graph = _grid_graph(4, 100.0, lanes=1)
    corners = {7 * k % 16 + 1 for k in (0, 3, 12, 15)}  # _grid_graph's id of row-major cell k
    route = shortest_path(graph, 7 * 5 % 16 + 1, 1)  # from cell (1, 1) to the corner at the origin
    assert _through_ids(graph) == corners
    assert route.total_cost == 200.0
    assert _assert_matches_reference(graph, [(a, b) for a in graph.nodes for b in corners if a != b]) == 60


def test_infinite_segment_in_a_chain_matches_dijkstra():
    # 1.5e308 apart on both axes: the chain's middle segment is infinitely long, so the heuristic is off
    nodes = [(1, 0.0, 0.0), (2, 100.0, 0.0), (3, 0.0, 100.0), (4, 100.0, 100.0),
             (5, -1e308, 50.0), (6, 0.5e308, 1.5e308), (7, 0.5e308, 1.4e308)]
    ways = [(11, [1, 2, 4, 3, 1]), (12, [1, 5, 6, 7, 4]), (13, [2, 7], {"one_way": True}),
            (14, [3, 6], {"one_way": True})]
    graph = build_graph(nodes, ways)
    assert graph.length.max() == math.inf
    assert _assert_matches_reference(graph, _all_pairs(graph)) == 7 * 6
    assert not _heuristic_on(graph)
    assert shortest_path(graph, 5, 6).total_cost == math.inf


def test_only_junctions_and_the_query_ends_leave_the_heap(monkeypatch):
    graph = _jittered_lattice(np.random.default_rng(5), 5, 120.0)
    shortest_path(graph, graph.ids[0], graph.ids[1])
    through = {graph.nodes[node_id] for node_id in _through_ids(graph)}
    assert len(through) == 40 + 4  # the bent shape node of every street, and the four corners
    popped, pop = [], heapq.heappop

    def counting_pop(heap):
        item = pop(heap)
        popped.append(item[1])
        return item

    pairs = list(_all_pairs(graph))
    with monkeypatch.context() as patch:
        patch.setattr(vehsim_routing.heapq, "heappop", counting_pop)
        for a, b in pairs:
            popped.clear()
            try:
                shortest_path(graph, a, b)
            except NoRouteError:
                pass
            assert set(popped) & through <= {graph.nodes[a], graph.nodes[b]}, (a, b)


def _shaped_way(shapes):
    """One two-way street of ``shapes`` shape nodes between two junctions of a small cross."""
    nodes = [(i, 10.0 * i, 0.5 * (i % 3)) for i in range(1, shapes + 3)]
    last = shapes + 2
    nodes += [(1000, 10.0, 50.0), (1001, 10.0, -50.0), (1002, 10.0 * last, 50.0), (1003, 10.0 * last, -50.0)]
    ways = [(1, list(range(1, last + 1))), (2, [1000, 1, 1001]), (3, [1002, last, 1003])]
    return build_graph(nodes, ways)


def _stored_entries(router):
    """Values the compiled router holds: every adjacency entry's fields and the per-row columns."""
    adjacency = sum(len(entry) for row in router.out for entry in row)
    return adjacency + len(router.through) + len(router.xs) + len(router.ys)


def test_compiled_router_grows_linearly_with_a_long_way():
    sizes = {}
    for shapes in (25, 50, 100, 200):
        graph = _shaped_way(shapes)
        route = shortest_path(graph, 1000, 1003)
        assert len(route.node_ids) == shapes + 4
        assert _through_ids(graph) == set(range(2, shapes + 2))
        sizes[len(graph.length)] = _stored_entries(graph._router)
    segments = sorted(sizes)
    per_segment = [(sizes[b] - sizes[a]) / (b - a) for a, b in zip(segments, segments[1:])]
    assert len(set(per_segment)) == 1 and per_segment[0] < 8


def test_overflowing_multigraphs_match_dijkstra():
    # points up to 1.5e308 apart: segment lengths and route sums reach inf, where adding a segment
    # leaves a label unchanged; no node is carried there, since labels alone then do not order
    # equal-label nodes as the search settles them
    rng = np.random.default_rng(1968)
    checked = 0
    for _ in range(100):
        graph = _random_multigraph(rng, 3e305, 0.0)
        checked += _assert_matches_reference(graph, _all_pairs(graph))
        assert not _heuristic_on(graph) and not _through_ids(graph)
    assert checked > 5000
