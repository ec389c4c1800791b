"""Road network model parsed from OSM XML extracts.

Supported input is the plain OSM XML subset: ``<node id lat lon>`` elements and
``<way id>`` elements carrying ``<nd ref>`` children plus ``<tag>`` entries for
``highway``, ``lanes``, ``maxspeed`` and ``oneway``.  Ways tagged with any
``highway`` value are drivable except footways, paths, cycleways and steps.
Nodes referenced by no drivable way are dropped.

Coordinates are projected to a local metric plane with an equirectangular
projection about the bounding-box centroid of the used nodes.  The graph is
immutable after parsing.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

EARTH_RADIUS_M = 6_371_000.0
DEFAULT_MAX_SPEED = 13.89  # m/s, urban default (50 km/h)
DEFAULT_GREEN_S = 30.0
DEFAULT_YELLOW_S = 5.0
DEFAULT_RED_S = 25.0
NON_DRIVABLE = frozenset({"footway", "path", "cycleway", "steps"})
MPH_TO_MS = 0.44704
MAX_LANES = 32  # per direction; a larger lane count is taken as bad input


class MapError(Exception):
    """Structural problem in the map input."""


class DanglingReferenceError(MapError):
    """A way references a node id that is not present in the document."""


def project(lat: float, lon: float, origin: tuple[float, float]) -> tuple[float, float]:
    """Equirectangular projection of (lat, lon) about ``origin`` = (lat0, lon0).

    Returns local metric (x, y): x grows eastward scaled by cos(lat0), y grows
    northward.  Accurate to well under a meter across a few kilometers, which
    is the intended extract size.
    """
    lat0, lon0 = origin
    if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lon <= 180.0):
        raise MapError(f"coordinate out of range: lat={lat!r} lon={lon!r}")
    k = math.pi / 180.0
    x = EARTH_RADIUS_M * (lon - lon0) * math.cos(lat0 * k) * k
    y = EARTH_RADIUS_M * (lat - lat0) * k
    return x, y


def unproject(x: float, y: float, origin: tuple[float, float] = (0.0, 0.0)) -> tuple[float, float]:
    """Inverse of :func:`project`; used when synthesizing graphs from metric coords."""
    lat0, lon0 = origin
    k = math.pi / 180.0
    lat = lat0 + y / (EARTH_RADIUS_M * k)
    lon = lon0 + x / (EARTH_RADIUS_M * math.cos(lat0 * k) * k)
    return lat, lon


@dataclass(frozen=True)
class OsmNode:
    id: int
    lat: float
    lon: float
    x: float
    y: float

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Way:
    id: int
    node_refs: tuple[int, ...]
    lanes_forward: int = 1
    lanes_backward: int = 1
    max_speed: float = DEFAULT_MAX_SPEED  # m/s
    one_way: bool = False


@dataclass(frozen=True, slots=True)
class Segment:
    """One directed-drawable piece of a way between consecutive node refs."""

    way_id: int
    index: int  # 0-based position within the way
    from_node: int
    to_node: int
    length: float  # m, Euclidean in projected plane
    heading: float  # rad, atan2(dy, dx) of the drawing direction


@dataclass(slots=True, unsafe_hash=True)
class SegmentRef:
    """A directed traversal of a segment.

    ``forward`` follows the way's drawing order; the lane count and speed
    limit are those that apply to this direction of travel.  ``start_node``,
    ``end_node``, ``length`` and ``key`` follow from ``segment`` and
    ``forward``; they are stored rather than derived because the step loop
    reads them at every look-ahead hop; ``index`` numbers the graph's refs
    (:meth:`RoadGraph.refs`).  They take no part in equality, hashing or ``repr``.

    Refs are shared by the graph, routes and vehicles and must be treated as
    read-only.  The class is not frozen only because a frozen ``__init__``
    sets every field through ``object.__setattr__``, which doubled the cost
    of building the refs of a large map; the hash is the one a frozen class
    would have.
    """

    segment: Segment
    forward: bool
    lanes: int
    max_speed: float
    start_node: int = field(compare=False, repr=False)
    end_node: int = field(compare=False, repr=False)
    length: float = field(compare=False, repr=False)
    key: tuple[int, int, bool] = field(compare=False, repr=False)  # (way, index, forward)
    index: int = field(compare=False, repr=False)


@dataclass(frozen=True)
class TrafficSignal:
    """Fixed-cycle signal head at a node: green, then yellow, then red."""

    node_id: int
    green_s: float = DEFAULT_GREEN_S
    yellow_s: float = DEFAULT_YELLOW_S
    red_s: float = DEFAULT_RED_S
    offset_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("green_s", "yellow_s", "red_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"signal {self.node_id}: {name} must be > 0")

    @property
    def period(self) -> float:
        return self.green_s + self.yellow_s + self.red_s


def signal_phase(signal: TrafficSignal, t: float) -> str:
    """Phase name ("green" | "yellow" | "red") at time t; periodic for all t."""
    u = math.fmod(t - signal.offset_s, signal.period)
    if u < 0:
        u += signal.period
    if u < signal.green_s:
        return "green"
    if u < signal.green_s + signal.yellow_s:
        return "yellow"
    return "red"


@dataclass
class RoadGraph:
    """Immutable routable road network in local metric coordinates."""

    nodes: dict[int, OsmNode]
    ways: dict[int, Way]
    segments: dict[tuple[int, int], Segment]
    signals: dict[int, TrafficSignal]
    origin: tuple[float, float]
    _out: dict[int, tuple[SegmentRef, ...]] = field(repr=False, default_factory=dict)
    _refs: dict[tuple[int, int, bool], SegmentRef] = field(repr=False, default_factory=dict)
    node_rows: dict[int, int] = field(repr=False, default_factory=dict)  # node id -> position in nodes

    def node(self, node_id: int) -> OsmNode:
        return self.nodes[node_id]

    def outgoing(self, node_id: int) -> tuple[SegmentRef, ...]:
        """Directed segment traversals leaving ``node_id``, in deterministic order."""
        return self._out.get(node_id, ())

    def segments_of(self, way_id: int) -> list[Segment]:
        way = self.ways[way_id]
        return [self.segments[(way_id, i)] for i in range(len(way.node_refs) - 1)]

    def ref(self, way_id: int, index: int, forward: bool = True) -> SegmentRef:
        return self._refs[(way_id, index, forward)]

    def refs(self) -> list[SegmentRef]:
        """Every directed segment, in ``SegmentRef.index`` order."""
        return list(self._refs.values())

    def bounds(self) -> tuple[float, float, float, float]:
        xs = [n.x for n in self.nodes.values()]
        ys = [n.y for n in self.nodes.values()]
        return min(xs), min(ys), max(xs), max(ys)


def _finish_graph(
    nodes: dict[int, OsmNode],
    ways: dict[int, Way],
    signals: dict[int, TrafficSignal],
    origin: tuple[float, float],
) -> RoadGraph:
    """Build segments, directed refs and adjacency; shared by parser and builder."""
    segments: dict[tuple[int, int], Segment] = {}
    refs: dict[tuple[int, int, bool], SegmentRef] = {}
    out: dict[int, list[SegmentRef]] = {}
    for way in ways.values():
        for lanes in (way.lanes_forward, way.lanes_backward):
            if lanes > MAX_LANES:
                raise MapError(f"way {way.id}: {lanes} lanes in one direction, more than {MAX_LANES}")
        for i in range(len(way.node_refs) - 1):
            a = nodes[way.node_refs[i]]
            b = nodes[way.node_refs[i + 1]]
            length = math.hypot(b.x - a.x, b.y - a.y)
            if length <= 0.0:
                raise MapError(f"way {way.id}: zero-length segment at index {i}")
            seg = Segment(way.id, i, a.id, b.id, length, math.atan2(b.y - a.y, b.x - a.x))
            segments[(way.id, i)] = seg
            if way.lanes_forward >= 1:
                key = (way.id, i, True)
                fwd = SegmentRef(seg, True, way.lanes_forward, way.max_speed,
                                 a.id, b.id, length, key, len(refs))
                refs[key] = fwd
                out.setdefault(a.id, []).append(fwd)
            if way.lanes_backward >= 1:
                key = (way.id, i, False)
                back = SegmentRef(seg, False, way.lanes_backward, way.max_speed,
                                  b.id, a.id, length, key, len(refs))
                refs[key] = back
                out.setdefault(b.id, []).append(back)
    adjacency = {
        node_id: tuple(sorted(lst, key=lambda r: (r.segment.way_id, r.segment.index, not r.forward)))
        for node_id, lst in out.items()
    }
    rows = {node_id: row for row, node_id in enumerate(nodes)}
    return RoadGraph(nodes, ways, segments, signals, origin, adjacency, refs, rows)


def _parse_max_speed(raw: str) -> float | None:
    text = raw.strip().lower()
    try:
        if text.endswith("mph"):
            return float(text[:-3].strip()) * MPH_TO_MS
        if text.endswith("km/h"):
            return float(text[:-4].strip()) / 3.6
        return float(text) / 3.6  # bare numbers are km/h in OSM
    except ValueError:
        return None  # unparsable optional tag: fall back to the default


def _split_lanes(total: int, one_way: bool) -> tuple[int, int]:
    if one_way:
        return max(total, 1), 0
    forward = total - total // 2
    return max(forward, 1), total // 2


def parse_osm(document: str) -> RoadGraph:
    """Parse an OSM XML extract into a :class:`RoadGraph`.

    Raises :class:`MapError` with line information for malformed XML and
    :class:`DanglingReferenceError` naming the way and node when a ``<nd>``
    ref points at a missing node.
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        line, column = exc.position
        raise MapError(f"malformed OSM XML at line {line}, column {column}: {exc.msg}") from exc

    raw_nodes: dict[int, tuple[float, float, dict[str, str]]] = {}
    for el in root.iter("node"):
        try:
            node_id = int(el.attrib["id"])
            lat = float(el.attrib["lat"])
            lon = float(el.attrib["lon"])
        except (KeyError, ValueError) as exc:
            raise MapError(f"node element missing or bad id/lat/lon: {el.attrib}") from exc
        tags = {t.attrib.get("k", ""): t.attrib.get("v", "") for t in el.iter("tag")}
        raw_nodes[node_id] = (lat, lon, tags)

    ways: dict[int, Way] = {}
    used: set[int] = set()
    for el in root.iter("way"):
        try:
            way_id = int(el.attrib["id"])
        except (KeyError, ValueError) as exc:
            raise MapError(f"way element missing or bad id: {el.attrib}") from exc
        tags = {t.attrib.get("k", ""): t.attrib.get("v", "") for t in el.iter("tag")}
        highway = tags.get("highway")
        if highway is None or highway in NON_DRIVABLE:
            continue
        refs = []
        for nd in el.iter("nd"):
            try:
                ref = int(nd.attrib["ref"])
            except (KeyError, ValueError) as exc:
                raise MapError(f"way {way_id}: bad nd element {nd.attrib}") from exc
            if ref not in raw_nodes:
                raise DanglingReferenceError(f"way {way_id} references missing node {ref}")
            refs.append(ref)
        if len(refs) < 2:
            continue  # degenerate way, nothing drivable
        one_way = tags.get("oneway", "no").strip().lower() in {"yes", "true", "1"}
        lanes_forward, lanes_backward = 1, 0 if one_way else 1
        if "lanes" in tags:
            try:
                total = int(tags["lanes"])
            except ValueError:
                total = 0
            if total >= 1:
                lanes_forward, lanes_backward = _split_lanes(total, one_way)
        max_speed = DEFAULT_MAX_SPEED
        if "maxspeed" in tags:
            parsed = _parse_max_speed(tags["maxspeed"])
            if parsed is not None and parsed > 0:
                max_speed = parsed
        ways[way_id] = Way(way_id, tuple(refs), lanes_forward, lanes_backward, max_speed, one_way)
        used.update(refs)

    if not ways:
        raise MapError("document contains no drivable ways")

    # every used coordinate is checked before the origin is taken from them:
    # one non-finite value would make the origin, and so every node, non-finite
    lats: list[float] = []
    lons: list[float] = []
    for node_id in used:
        lat, lon, _ = raw_nodes[node_id]
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            raise MapError(
                f"node {node_id}: coordinate not finite or out of range: lat={lat!r} lon={lon!r}"
            )
        lats.append(lat)
        lons.append(lon)
    origin = ((min(lats) + max(lats)) / 2.0, (min(lons) + max(lons)) / 2.0)

    nodes: dict[int, OsmNode] = {}
    signals: dict[int, TrafficSignal] = {}
    for node_id in used:
        lat, lon, tags = raw_nodes[node_id]
        x, y = project(lat, lon, origin)
        nodes[node_id] = OsmNode(node_id, lat, lon, x, y)
        if tags.get("highway") == "traffic_signals":
            signals[node_id] = TrafficSignal(node_id)

    return _finish_graph(nodes, ways, signals, origin)


def build_graph(
    nodes: list[tuple[int, float, float]],
    ways: list[tuple[int, list[int]] | tuple[int, list[int], dict]],
    signals: list[TrafficSignal] = (),
) -> RoadGraph:
    """Construct a graph directly from metric coordinates (synthetic scenarios, tests).

    ``nodes`` is a list of (id, x, y); ``ways`` entries are (id, node_refs) or
    (id, node_refs, options) where options may set lanes_forward,
    lanes_backward, max_speed and one_way.
    """
    origin = (0.0, 0.0)
    node_map: dict[int, OsmNode] = {}
    for node_id, x, y in nodes:
        lat, lon = unproject(x, y, origin)
        node_map[node_id] = OsmNode(node_id, lat, lon, x, y)
    way_map: dict[int, Way] = {}
    for entry in ways:
        way_id, refs = entry[0], entry[1]
        opts = dict(entry[2]) if len(entry) > 2 else {}
        missing = [r for r in refs if r not in node_map]
        if missing:
            raise DanglingReferenceError(f"way {way_id} references missing node {missing[0]}")
        one_way = bool(opts.pop("one_way", False))
        way_map[way_id] = Way(
            way_id,
            tuple(refs),
            lanes_forward=int(opts.pop("lanes_forward", 1)),
            lanes_backward=0 if one_way else int(opts.pop("lanes_backward", 1)),
            max_speed=float(opts.pop("max_speed", DEFAULT_MAX_SPEED)),
            one_way=one_way,
        )
        if opts:
            raise ValueError(f"way {way_id}: unknown options {sorted(opts)}")
    signal_map = {s.node_id: s for s in signals}
    return _finish_graph(node_map, way_map, signal_map, origin)
