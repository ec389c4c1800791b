"""Road network model parsed from OSM XML extracts.

Supported input is the plain OSM XML subset: ``<node id lat lon>`` elements and
``<way id>`` elements carrying ``<nd ref>`` children plus ``<tag>`` entries for
``highway``, ``lanes`` and ``oneway``.  Ways tagged with any
``highway`` value are drivable except footways, paths, cycleways and steps.
Nodes referenced by no drivable way are dropped.

Coordinates are projected to a local metric plane with an equirectangular
projection about the bounding-box centroid of the used nodes.

The parser and :func:`build_graph` write the road network once, as the
columns of :class:`RoadGraph`: node rows, directed segment rows and their
outgoing and incoming adjacency.  Routing, the vehicle step and the exporters
read those columns; a :class:`SegmentRef` is a view of one segment row.  The
graph is immutable after parsing.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable
from xml.parsers import expat

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
DEFAULT_GREEN_S = 30.0
DEFAULT_YELLOW_S = 5.0
DEFAULT_RED_S = 25.0
NON_DRIVABLE = frozenset({"footway", "path", "cycleway", "steps"})
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


@dataclass(frozen=True)
class Way:
    id: int
    node_refs: tuple[int, ...]
    lanes_forward: int = 1
    lanes_backward: int = 1
    one_way: bool = False


class SegmentRef:
    """A directed segment: a view of row ``index`` of ``graph``'s segment columns.

    ``forward`` follows the way's drawing order, ``lanes`` is the lane count
    of this direction of travel and ``key`` is (way id, index in the way,
    forward).  Views are made on demand, so two views of one segment need not
    be one object: they compare and hash by value (key, end nodes, length
    and lanes), also across graphs.
    """

    __slots__ = ("graph", "index")

    def __init__(self, graph: RoadGraph, index: int) -> None:
        self.graph, self.index = graph, index

    forward = property(lambda self: self.graph.forward.item(self.index))
    lanes = property(lambda self: self.graph.lanes.item(self.index))
    length = property(lambda self: self.graph.length.item(self.index))
    start_node = property(lambda self: self.graph.ids[self.graph.start.item(self.index)])
    end_node = property(lambda self: self.graph.ids[self.graph.end.item(self.index)])
    key = property(lambda self: (self.graph.way_ids[self.graph.way.item(self.index)],
                                 self.graph.way_index.item(self.index), self.forward))

    def _value(self) -> tuple:
        return self.key, self.start_node, self.end_node, self.length, self.lanes

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SegmentRef) and self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def __repr__(self) -> str:
        return f"SegmentRef(key={self.key}, lanes={self.lanes}, length={self.length!r})"


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


class RoadGraph:
    """Immutable routable road network in local metric coordinates, held as columns.

    Nodes are rows in ascending id order: row ``r`` is node ``ids[r]`` at
    ``(x[r], y[r])``, and ``nodes`` maps each id to its row.  Directed
    segments are rows too, numbered way by way in the order of ``ways``,
    each way's pieces in drawing order, forward before backward; segment
    ``k`` is ``SegmentRef(graph, k)``.  It runs from node row ``start[k]``
    to ``end[k]`` over ``length[k]`` metres, along piece ``way_index[k]`` of
    way ``way_ids[way[k]]`` (``way_ids`` ascending), in its drawing direction
    where ``forward[k]``.  Its ``lanes[k]`` lanes are the lane slots
    ``slot0[k]`` onwards, one slot per lane of the map.  The segments leaving
    row ``r`` are ``out_seg[out_start[r]:out_start[r + 1]]`` and those
    entering it ``in_seg[in_start[r]:in_start[r + 1]]``, both ordered by
    (way id, index in the way, backward).  Ids stay Python ints outside the
    columns, so negative ids and ids beyond 64 bits work as any other.

    The constructor, which :func:`parse_osm` and :func:`build_graph` share,
    writes the columns from each node's (x, y) and the ways.  Lengths are
    ``math.hypot`` on Python floats, since NumPy's ``hypot`` can differ in
    the last ulp.  ``where(way_id)`` is appended to a way's error message
    (the parser's ``" (line N)"``).
    """

    def __init__(
        self,
        coords: dict[int, tuple[float, float]],
        ways: dict[int, Way],
        signals: dict[int, TrafficSignal],
        origin: tuple[float, float],
        where: Callable[[int], str] = lambda way_id: "",
    ) -> None:
        self.ways, self.signals, self.origin = ways, signals, origin
        self.ids = ids = sorted(coords)
        self.nodes = nodes = {node_id: row for row, node_id in enumerate(ids)}
        self.x, self.y = x, y = np.array([coords[node_id] for node_id in ids], float).reshape(-1, 2).T.copy()
        way_list = list(ways.values())
        # piece i of a way joins its node refs i and i + 1
        n_refs = np.array([len(way.node_refs) for way in way_list], np.int64)
        pieces = np.maximum(n_refs - 1, 0)
        of_way = np.repeat(np.arange(len(way_list)), pieces)
        i = np.arange(len(of_way)) - (np.cumsum(pieces) - pieces)[of_way]
        at = (np.cumsum(n_refs) - n_refs)[of_way] + i
        refs = np.array([nodes[node_id] for way in way_list for node_id in way.node_refs], np.int64)
        a, b = refs[at], refs[at + 1]
        length = np.array(list(map(math.hypot, (x[b] - x[a]).tolist(), (y[b] - y[a]).tolist())), float)

        # errors in way order, a way's lane counts before its pieces
        zero = (length <= 0.0).nonzero()[0]
        last = int(of_way[zero[0]]) if len(zero) else len(way_list) - 1
        for way in way_list[:last + 1]:
            for count in (way.lanes_forward, way.lanes_backward):
                if count > MAX_LANES:
                    raise MapError(f"way {way.id}: {count} lanes in one direction, more than {MAX_LANES}"
                                   f"{where(way.id)}")
        if len(zero):
            way_id = way_list[last].id
            raise MapError(f"way {way_id}: zero-length segment at index {i[zero[0]]}{where(way_id)}")

        # every piece forward, then backward; a direction without lanes has no segment
        lanes = np.array([(way.lanes_forward, way.lanes_backward) for way in way_list], np.int64)
        lanes = lanes.reshape(-1, 2)[of_way].ravel()
        keep = lanes >= 1
        piece = np.repeat(np.arange(len(of_way)), 2)[keep]
        self.forward = forward = np.tile([True, False], len(of_way))[keep]
        self.lanes = lanes = lanes[keep]
        self.slot0 = np.cumsum(lanes) - lanes
        self.start = start = np.where(forward, a[piece], b[piece])
        self.end = end = np.where(forward, b[piece], a[piece])
        self.length, self.way_index = length[piece], i[piece]
        self.way_ids = sorted(ways)
        rank = {way_id: r for r, way_id in enumerate(self.way_ids)}
        self.way = np.array([rank[way.id] for way in way_list], np.int64)[of_way[piece]]
        first = np.searchsorted(of_way[piece], np.arange(len(way_list)))
        self._first = dict(zip(ways, first.tolist()))  # way id -> the way's first segment
        # adjacency order, (way id, index in the way, backward): each way's segments are in it already
        by_key = np.argsort(self.way, kind="stable")
        self.out_seg = by_key[np.argsort(start[by_key], kind="stable")]
        self.in_seg = by_key[np.argsort(end[by_key], kind="stable")]
        self.out_start = np.searchsorted(start[self.out_seg], np.arange(len(ids) + 1))
        self.in_start = np.searchsorted(end[self.in_seg], np.arange(len(ids) + 1))
        self._router = None  # vehsim.routing's compiled search graph, built on the first route query

    def position(self, node_id: int) -> tuple[float, float]:
        """Map coordinates (x, y) of node ``node_id``."""
        row = self.nodes[node_id]
        return self.x.item(row), self.y.item(row)

    def outgoing(self, node_id: int) -> tuple[SegmentRef, ...]:
        """Directed segments leaving ``node_id``, in adjacency order."""
        row = self.nodes.get(node_id)
        if row is None:
            return ()
        return tuple(SegmentRef(self, k) for k in self.out_seg[self.out_start[row]:self.out_start[row + 1]].tolist())

    def ref(self, way_id: int, index: int, forward: bool = True) -> SegmentRef:
        """The directed segment keyed ``(way_id, index, forward)``; ``KeyError`` when there is none."""
        way = self.ways.get(way_id)
        if (way is None or not 0 <= index < len(way.node_refs) - 1
                or (way.lanes_forward if forward else way.lanes_backward) < 1):
            raise KeyError((way_id, index, forward))
        both = way.lanes_forward >= 1 and way.lanes_backward >= 1
        return SegmentRef(self, self._first[way_id] + (2 * index + (not forward) if both else index))

    def refs(self) -> list[SegmentRef]:
        """Every directed segment, in ``SegmentRef.index`` order."""
        return [SegmentRef(self, k) for k in range(len(self.length))]

    @property
    def segments(self) -> dict[tuple[int, int], float]:
        """Length of every undirected segment by (way id, index in the way); built on each call."""
        return {(self.way_ids[w], i): d
                for w, i, d in zip(self.way.tolist(), self.way_index.tolist(), self.length.tolist())}

    def bounds(self) -> tuple[float, float, float, float]:
        xs, ys = self.x.tolist(), self.y.tolist()
        return min(xs), min(ys), max(xs), max(ys)


def _split_lanes(total: int, one_way: bool) -> tuple[int, int]:
    if one_way:
        return max(total, 1), 0
    forward = total - total // 2
    return max(forward, 1), total // 2


def _line(document: str, root: ET.Element, element: ET.Element) -> str:
    """``" (line N)"`` for ``element`` of the parsed ``document``.

    ElementTree keeps no line numbers, so this re-scans the text with expat and
    counts start tags of the element's name in document order; it runs only on
    the way to an error.
    """
    nth = next(i for i, el in enumerate(root.iter(element.tag)) if el is element)
    parser = expat.ParserCreate(namespace_separator="}")  # names as ElementTree's parser sees them
    lines: list[int] = []

    def start(name: str, attrs: dict) -> None:
        if name == element.tag:
            lines.append(parser.CurrentLineNumber)

    parser.StartElementHandler = start
    parser.Parse(document, True)
    return f" (line {lines[nth]})"


def parse_osm(document: str) -> RoadGraph:
    """Parse an OSM XML extract into a :class:`RoadGraph`.

    Raises :class:`MapError` for malformed XML and for any bad element, and
    :class:`DanglingReferenceError` naming the way and node when a ``<nd>``
    ref points at a missing node; every one names the line, except the error
    for a document without drivable ways.
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
            where = _line(document, root, el)
            raise MapError(f"node element missing or bad id/lat/lon: {el.attrib}{where}") from exc
        tags = {t.attrib.get("k", ""): t.attrib.get("v", "") for t in el.iter("tag")}
        raw_nodes[node_id] = (lat, lon, tags)

    ways: dict[int, Way] = {}
    way_elements: dict[int, ET.Element] = {}
    used: set[int] = set()
    for el in root.iter("way"):
        try:
            way_id = int(el.attrib["id"])
        except (KeyError, ValueError) as exc:
            where = _line(document, root, el)
            raise MapError(f"way element missing or bad id: {el.attrib}{where}") from exc
        tags = {t.attrib.get("k", ""): t.attrib.get("v", "") for t in el.iter("tag")}
        highway = tags.get("highway")
        if highway is None or highway in NON_DRIVABLE:
            continue
        refs = []
        for nd in el.iter("nd"):
            try:
                ref = int(nd.attrib["ref"])
            except (KeyError, ValueError) as exc:
                where = _line(document, root, nd)
                raise MapError(f"way {way_id}: bad nd element {nd.attrib}{where}") from exc
            if ref not in raw_nodes:
                raise DanglingReferenceError(
                    f"way {way_id} references missing node {ref}{_line(document, root, nd)}")
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
        ways[way_id] = Way(way_id, tuple(refs), lanes_forward, lanes_backward, one_way)
        way_elements[way_id] = el
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
            last = [el for el in root.iter("node") if int(el.attrib["id"]) == node_id][-1]
            raise MapError(
                f"node {node_id}: coordinate not finite or out of range: lat={lat!r} lon={lon!r}"
                f"{_line(document, root, last)}"
            )
        lats.append(lat)
        lons.append(lon)
    origin = ((min(lats) + max(lats)) / 2.0, (min(lons) + max(lons)) / 2.0)

    coords: dict[int, tuple[float, float]] = {}
    signals: dict[int, TrafficSignal] = {}
    for node_id in used:
        lat, lon, tags = raw_nodes[node_id]
        coords[node_id] = project(lat, lon, origin)
        if tags.get("highway") == "traffic_signals":
            signals[node_id] = TrafficSignal(node_id)

    return RoadGraph(coords, ways, signals, origin, lambda way_id: _line(document, root, way_elements[way_id]))


def build_graph(
    nodes: list[tuple[int, float, float]],
    ways: list[tuple[int, list[int]] | tuple[int, list[int], dict]],
    signals: list[TrafficSignal] = (),
) -> RoadGraph:
    """Construct a graph directly from metric coordinates (synthetic scenarios, tests).

    ``nodes`` is a list of (id, x, y); ``ways`` entries are (id, node_refs) or
    (id, node_refs, options) where options may set lanes_forward,
    lanes_backward and one_way.
    """
    node_map = {node_id: (x, y) for node_id, x, y in nodes}
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
            one_way=one_way,
        )
        if opts:
            raise ValueError(f"way {way_id}: unknown options {sorted(opts)}")
    signal_map = {s.node_id: s for s in signals}
    return RoadGraph(node_map, way_map, signal_map, (0.0, 0.0))
