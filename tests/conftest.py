"""Shared builders for the test suite: synthetic corridors and grid maps, traces, a host queue."""

from __future__ import annotations

import heapq
import math

from vehsim.osm import EARTH_RADIUS_M, TrafficSignal, build_graph
from vehsim.scenario import Trace

_DEG = math.pi / 180.0


def corridor_graph(length_m: float = 1000.0, *, lanes: int = 1, way_id: int = 1,
                   node_a: int = 1, node_b: int = 2, signals: list[TrafficSignal] = ()):
    """One straight one-way road along +x from (0, 0)."""
    return build_graph(
        nodes=[(node_a, 0.0, 0.0), (node_b, length_m, 0.0)],
        ways=[(way_id, [node_a, node_b], {"one_way": True, "lanes_forward": lanes})],
        signals=signals,
    )


def trace_of(samples) -> Trace:
    """A :class:`Trace` of (t, vehicle_id, x, y[, v, acc]) rows, without radio values."""
    rows = [(*row, 0.0, 0.0)[:6] for row in samples]  # v and acc default to 0
    t, vid, x, y, v, acc = zip(*rows) if rows else ((),) * 6
    return Trace(t, vid, x, y, v, acc, [math.nan] * len(rows), [None] * len(rows))


def chain_graph(spacing_m: float, count: int, *, way_id: int = 1, lanes: int = 1,
                one_way: bool = True, signals: list[TrafficSignal] = ()):
    """One way through ``count`` equally spaced nodes (ids 1..count) along +x."""
    nodes = [(i + 1, i * spacing_m, 0.0) for i in range(count)]
    opts = {"lanes_forward": lanes, "one_way": one_way}
    return build_graph(nodes=nodes, ways=[(way_id, [n for n, _, _ in nodes], opts)], signals=signals)


def corridor_osm_xml(length_m: float = 1000.0, *, count: int = 2, lat0: float = 0.0,
                     lon0: float = 7.0, one_way: bool = True) -> str:
    """OSM XML for one straight east-west way of ``count`` nodes (ids 1..count).

    All nodes share ``lat0``, so the projected corridor runs along y = 0 with
    node i at x = (i - (count-1)/2) * segment length.
    """
    spacing = length_m / (count - 1)
    dlon = spacing / (EARTH_RADIUS_M * _DEG * math.cos(lat0 * _DEG))
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<osm version="0.6">']
    for i in range(count):
        lines.append(f'  <node id="{i + 1}" lat="{lat0:.10f}" lon="{lon0 + i * dlon:.10f}"/>')
    lines.append('  <way id="1">')
    for i in range(count):
        lines.append(f'    <nd ref="{i + 1}"/>')
    lines.append('    <tag k="highway" v="residential"/>')
    if one_way:
        lines.append('    <tag k="oneway" v="yes"/>')
    lines.append("  </way>")
    lines.append("</osm>")
    return "\n".join(lines)


def grid_node_id(row: int, col: int) -> int:
    return 1000 + row * 100 + col


def grid_osm_xml(n: int = 5, spacing_m: float = 500.0, *, lat0: float = 51.48,
                 lon0: float = 7.55) -> str:
    """OSM XML for an n x n two-way street grid with exact ``spacing_m`` edges.

    Longitude spacing is chosen so the equirectangular projection about the
    grid centroid yields exactly ``spacing_m`` between neighbors; node (r, c)
    lands at x = (c - (n-1)/2) * spacing_m, y = (r - (n-1)/2) * spacing_m.
    """
    dlat = spacing_m / (EARTH_RADIUS_M * _DEG)
    lat_center = lat0 + dlat * (n - 1) / 2.0
    dlon = spacing_m / (EARTH_RADIUS_M * _DEG * math.cos(lat_center * _DEG))
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<osm version="0.6">']
    for r in range(n):
        for c in range(n):
            lines.append(
                f'  <node id="{grid_node_id(r, c)}" lat="{lat0 + r * dlat:.10f}" '
                f'lon="{lon0 + c * dlon:.10f}"/>'
            )
    def way(way_id: int, refs: list[int]) -> None:
        lines.append(f'  <way id="{way_id}">')
        for ref in refs:
            lines.append(f'    <nd ref="{ref}"/>')
        lines.append('    <tag k="highway" v="residential"/>')
        lines.append("  </way>")
    for r in range(n):
        way(100 + r, [grid_node_id(r, c) for c in range(n)])
    for c in range(n):
        way(200 + c, [grid_node_id(r, c) for r in range(n)])
    lines.append("</osm>")
    return "\n".join(lines)


# Criterion 3's scenario: one Trip vehicle among 100 RandomDirection vehicles
# on grid_osm_xml(5, 500.0), observed by three stations for 240 s.  The
# acceptance suite runs it; tests/test_golden.py pins its bytes.
RADIO_GRID_CONFIG = (
    "map = grid.osm\n"
    "duration = 240\n"
    "seed = 11\n"
    "dt = 0.1\n"
    "sampling = 1\n"
    "way = 100\n"
    "segment = 0\n"
    "lane = 0\n"
    "offset = 10\n"
    "speed = 0\n"
    "speed_factor = 1.0\n"
    "strategicModel = Trip\n"
    f"trip = {grid_node_id(1, 1)}, {grid_node_id(2, 2)}\n"
    "interference.count = 100\n"
    "station.0.id = eNB1\nstation.0.x = -700\nstation.0.y = -1050\n"
    "station.1.id = eNB2\nstation.1.x = -550\nstation.1.y = -600\n"
    "station.2.id = eNB3\nstation.2.x = -50\nstation.2.y = -80\n"
)


class HeapHost:
    """Minimal host queue for a host-driven ``EventKernel``: a binary heap of (fire_time, token)."""

    def __init__(self):
        self.heap = []

    def insert(self, token, fire_time):
        heapq.heappush(self.heap, (fire_time, token))

    def remove(self, token):
        self.heap = [entry for entry in self.heap if entry[1] != token]
        heapq.heapify(self.heap)

    def pop(self):
        return heapq.heappop(self.heap)[1]
