"""Seeded input generators for the benchmark workloads.

Each generator writes an OSM XML map and a scenario .ini into a directory and
returns a :class:`Spec` describing what a correct run over those inputs must
produce.  Nothing here imports vehsim: the program under test receives only
the generated files.

Why each workload exists (BENCHMARK.json records the same reasons):

* ``grid-radio``  -- the radio layer does most of the work (shadowed RSSI for
  every vehicle and station each step); mobility is single-lane and cheap.
* ``grid-dense``  -- mobility does almost all of the work (multi-lane IDM and
  MOBIL, signals, collision scan); no stations, so the radio layer is bypassed
  and a radio change must leave this workload unchanged.
* ``city-trips``  -- an extract-like map with shape nodes and ways the parser
  must skip, explicitly configured Trip vehicles (routing-heavy setup, look-
  ahead over long routes) and a trace sampled every step that is read back by
  ``map-svg --trace``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

_EARTH_RADIUS_M = 6_371_000.0
_DEG = math.pi / 180.0
_LAT0 = 51.48
_LON0 = 7.55


@dataclass(frozen=True)
class Spec:
    """What a correct run over one generated input must produce."""

    config: Path
    map: Path
    vehicles: int
    steps: int
    samples: int  # trace samples per vehicle after t = 0
    drivable_ways: int


# Sizes per workload.  ``TINY`` keeps every layer on the same path at a size
# the smoke test can run in seconds.
SIZES = {
    "grid-radio": {"n": 8, "spacing": 200.0, "vehicles": 100, "stations": 6, "duration": 100.0,
                   "sampling": 1.0},
    "grid-dense": {"n": 5, "spacing": 100.0, "vehicles": 120, "lanes": 4, "signal_every": 3,
                   "duration": 100.0, "sampling": 1.0},
    "city-trips": {"n": 40, "spacing": 110.0, "vehicles": 60, "destinations": 6, "far": 0.5,
                   "stations": 2, "duration": 100.0, "sampling": 0.1},
}
TINY = {
    "grid-radio": {"n": 4, "vehicles": 12, "stations": 3, "duration": 3.0},
    "grid-dense": {"n": 4, "vehicles": 20, "duration": 3.0},
    "city-trips": {"n": 8, "vehicles": 10, "destinations": 3, "duration": 2.0},
}
DT = 0.1


def _lat_lon(x: float, y: float) -> tuple[float, float]:
    """Inverse equirectangular projection about (_LAT0, _LON0)."""
    lat = _LAT0 + y / (_EARTH_RADIUS_M * _DEG)
    lon = _LON0 + x / (_EARTH_RADIUS_M * _DEG * math.cos(_LAT0 * _DEG))
    return lat, lon


class _Osm:
    """Minimal OSM XML writer."""

    def __init__(self) -> None:
        self.lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<osm version="0.6" generator="bench">']

    def node(self, node_id: int, x: float, y: float, tags: dict[str, str] | None = None) -> None:
        lat, lon = _lat_lon(x, y)
        head = f'  <node id="{node_id}" lat="{lat:.10f}" lon="{lon:.10f}"'
        if not tags:
            self.lines.append(head + "/>")
            return
        self.lines.append(head + ">")
        self.lines.extend(f'    <tag k="{k}" v="{v}"/>' for k, v in tags.items())
        self.lines.append("  </node>")

    def way(self, way_id: int, refs: list[int], tags: dict[str, str]) -> None:
        self.lines.append(f'  <way id="{way_id}">')
        self.lines.extend(f'    <nd ref="{r}"/>' for r in refs)
        self.lines.extend(f'    <tag k="{k}" v="{v}"/>' for k, v in tags.items())
        self.lines.append("  </way>")

    def text(self) -> str:
        return "\n".join(self.lines + ["</osm>"]) + "\n"


def _grid_node(r: int, c: int) -> int:
    return 1000 + r * 100 + c


def _grid_map(n: int, spacing: float, lanes: int, signal_every: int) -> tuple[str, int]:
    osm = _Osm()
    for r in range(n):
        for c in range(n):
            tags = None
            if signal_every and (r * n + c) % signal_every == 0:
                tags = {"highway": "traffic_signals"}
            osm.node(_grid_node(r, c), c * spacing, r * spacing, tags)
    road = {"highway": "residential"}
    if lanes > 1:
        road["lanes"] = str(lanes)
    for r in range(n):
        osm.way(100 + r, [_grid_node(r, c) for c in range(n)], road)
    for c in range(n):
        osm.way(200 + c, [_grid_node(r, c) for r in range(n)], road)
    return osm.text(), 2 * n


def _write(out: Path, osm_text: str, lines: list[str]) -> tuple[Path, Path]:
    out.mkdir(parents=True, exist_ok=True)
    map_path = out / "network.osm"
    config_path = out / "scenario.ini"
    map_path.write_text(osm_text)
    config_path.write_text("\n".join(lines) + "\n")
    return config_path, map_path


def _header(seed: int, size: dict) -> list[str]:
    return [
        "map = network.osm",
        f"duration = {size['duration']}",
        f"dt = {DT}",
        f"sampling = {size['sampling']}",
        f"seed = {seed}",
    ]


def _spec(config: Path, map_path: Path, size: dict, ways: int) -> Spec:
    return Spec(config, map_path, size["vehicles"], round(size["duration"] / DT),
                round(size["duration"] / size["sampling"]), ways)


def grid_radio(seed: int, out: Path, size: dict) -> Spec:
    n, spacing = size["n"], size["spacing"]
    osm_text, ways = _grid_map(n, spacing, lanes=1, signal_every=0)
    extent = (n - 1) * spacing
    lines = _header(seed, size)
    lines.append(f"interference.count = {size['vehicles']}")
    for i in range(size["stations"]):
        angle = 2.0 * math.pi * i / size["stations"]
        lines += [
            f"station.{i}.id = cell{i}",
            f"station.{i}.x = {extent / 2 + 0.45 * extent * math.cos(angle):.1f}",
            f"station.{i}.y = {extent / 2 + 0.45 * extent * math.sin(angle):.1f}",
        ]
    lines.append("radio.shadowing_sigma = 4")
    config, map_path = _write(out, osm_text, lines)
    return _spec(config, map_path, size, ways)


def grid_dense(seed: int, out: Path, size: dict) -> Spec:
    osm_text, ways = _grid_map(size["n"], size["spacing"], size["lanes"], size["signal_every"])
    lines = _header(seed, size) + [f"interference.count = {size['vehicles']}"]
    config, map_path = _write(out, osm_text, lines)
    return _spec(config, map_path, size, ways)


def city_trips(seed: int, out: Path, size: dict) -> Spec:
    """Jittered street lattice with shape nodes, skipped ways and POI nodes.

    Every street is two-way and the kept edges contain a random spanning tree
    of the junctions, so every junction reaches every other one.
    """
    rng = random.Random(seed)
    n, spacing = size["n"], size["spacing"]
    junction = {(r, c): 10_000 + r * 1000 + c for r in range(n) for c in range(n)}
    pos = {
        key: (key[1] * spacing + rng.uniform(-0.2, 0.2) * spacing,
              key[0] * spacing + rng.uniform(-0.2, 0.2) * spacing)
        for key in junction
    }
    edges = [((r, c), (r, c + 1)) for r in range(n) for c in range(n - 1)]
    edges += [((r, c), (r + 1, c)) for r in range(n - 1) for c in range(n)]
    rng.shuffle(edges)
    parent = {key: key for key in junction}

    def root(key):
        while parent[key] != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    def arterial(a, b) -> bool:  # every eighth row and column is a four-lane road
        return (a[0] == b[0] and a[0] % 8 == 4) or (a[1] == b[1] and a[1] % 8 == 4)

    kept = set()
    for a, b in edges:  # random spanning tree, arterials, most remaining edges
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[ra] = rb
            kept.add((a, b))
        elif arterial(a, b) or rng.random() < 0.85:
            kept.add((a, b))

    osm = _Osm()
    next_id = 1_000_000
    shape: dict[tuple, int] = {}
    xy = {junction[key]: pos[key] for key in junction}  # node id -> position
    for a, b in sorted(kept):
        (ax, ay), (bx, by) = pos[a], pos[b]
        length = math.hypot(bx - ax, by - ay)
        bend = rng.uniform(-0.08, 0.08) * length
        mx = (ax + bx) / 2 - bend * (by - ay) / length
        my = (ay + by) / 2 + bend * (bx - ax) / length
        shape[(a, b)] = next_id
        xy[next_id] = (mx, my)
        osm.node(next_id, mx, my)
        next_id += 1
    for key, node_id in junction.items():
        osm.node(node_id, *pos[key])

    # Streets: maximal runs of kept edges along each row and column, cut into
    # ways of two to six blocks, with extract-style tags in a fixed rotation
    # so that every seed has the same mix of road kinds.
    way_id = 1
    streets: dict[bool, list[tuple[int, list[int]]]] = {True: [], False: []}  # arterial -> ways

    def street(refs: list[int], major: bool) -> None:
        nonlocal way_id
        if major:
            tags = {"highway": "secondary", "lanes": "4", "maxspeed": "50"}
        else:
            tags = {"highway": _LOCAL_KINDS[way_id % len(_LOCAL_KINDS)]}
            speed = _LOCAL_SPEEDS[way_id % len(_LOCAL_SPEEDS)]
            if speed:
                tags["maxspeed"] = speed
        tags["name"] = f"Street {way_id}"
        osm.way(way_id, refs, tags)
        streets[major].append((way_id, refs))
        way_id += 1

    lines_of_junctions = [[(r, c) for c in range(n)] for r in range(n)]
    lines_of_junctions += [[(r, c) for r in range(n)] for c in range(n)]
    for line in lines_of_junctions:
        major = arterial(line[0], line[1])
        chunk: list[int] = []
        for a, b in zip(line, line[1:]):
            if (a, b) not in kept:
                if chunk:
                    street(chunk, major)
                chunk = []
                continue
            if not chunk:
                chunk, blocks = [junction[a]], rng.randint(2, 6)
            chunk += [shape[(a, b)], junction[b]]
            if len(chunk) == 2 * blocks + 1:
                street(chunk, major)
                chunk = []
        if chunk:
            street(chunk, major)

    # Ways and nodes the parser must skip: footpaths, buildings, POIs.
    for _ in range(n * n // 4):
        x, y = rng.uniform(0, (n - 1) * spacing), rng.uniform(0, (n - 1) * spacing)
        ring = []
        for dx, dy in ((0, 0), (12, 0), (12, 9), (0, 9)):
            osm.node(next_id, x + dx, y + dy)
            ring.append(next_id)
            next_id += 1
        kind = rng.choice(["footway", "cycleway", "path", "steps", None])
        tags = {"highway": kind} if kind else {"building": "yes"}
        osm.way(way_id, ring + ([ring[0]] if kind is None else []), tags)
        way_id += 1
        osm.node(next_id, x + 6, y + 4, {"amenity": rng.choice(["cafe", "bench", "parking"]),
                                         "name": f"poi {next_id}"})
        next_id += 1

    lines = _header(seed, size)
    # One vehicle per distinct directed segment, mid-segment, so no two
    # configured vehicles overlap; every fifth starts on an arterial.
    placements = []
    on_arterials = size["vehicles"] // 5
    for major, count in ((True, on_arterials), (False, size["vehicles"] - on_arterials)):
        directed = [(w, s, refs[s + 1] if fwd else refs[s], fwd) for w, refs in streets[major]
                    for s in range(len(refs) - 1) for fwd in (True, False)]
        placements += rng.sample(directed, count)
    junctions = sorted(junction.values())
    reach = size["far"] * (n - 1) * spacing
    for i, (w, s, ahead, fwd) in enumerate(placements):
        # The first destination lies farther than a vehicle drives in the run,
        # so routing happens at set-up and no step pays for a re-route.
        x0, y0 = xy[ahead]
        far = [j for j in junctions if math.hypot(xy[j][0] - x0, xy[j][1] - y0) > reach]
        trip = [rng.choice(far)]
        while len(trip) < size["destinations"]:
            node = rng.choice(junctions)
            if node != trip[-1]:
                trip.append(node)
        lines += [
            f"vehicle.{i}.way = {w}",
            f"vehicle.{i}.segment = {s}",
            f"vehicle.{i}.lane = 0",
            f"vehicle.{i}.offset = {rng.uniform(15.0, 25.0):.2f}",
            f"vehicle.{i}.forward = {'true' if fwd else 'false'}",
            f"vehicle.{i}.strategicModel = Trip",
            f"vehicle.{i}.trip = {', '.join(map(str, trip))}",
        ]
    extent = (n - 1) * spacing
    for i in range(size["stations"]):
        lines += [
            f"station.{i}.id = site{i}",
            f"station.{i}.x = {extent * (0.25 + 0.5 * i / max(size['stations'] - 1, 1)):.1f}",
            f"station.{i}.y = {extent * 0.5:.1f}",
        ]
    config, map_path = _write(out, osm.text(), lines)
    return _spec(config, map_path, size, len(streets[True]) + len(streets[False]))


_LOCAL_KINDS = ("residential", "tertiary", "residential", "unclassified")
_LOCAL_SPEEDS = ("30", None, "25 mph", None, "none")  # "none" must fall back to the default


GENERATORS = {"grid-radio": grid_radio, "grid-dense": grid_dense, "city-trips": city_trips}


def generate(name: str, seed: int, out: Path, *, tiny: bool = False) -> Spec:
    """Write the inputs of workload ``name`` for ``seed`` into ``out``."""
    size = dict(SIZES[name])
    if tiny:
        size.update(TINY[name])
    return GENERATORS[name](seed, Path(out), size)
