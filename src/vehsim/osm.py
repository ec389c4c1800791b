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
from array import array
from dataclasses import dataclass
from typing import Callable
from xml.parsers import expat

import numpy as np

from ._bounds import bounded, checked

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


def project(lat: float | np.ndarray, lon: float | np.ndarray, origin: tuple[float, float]) -> tuple:
    """Equirectangular projection of (lat, lon) about ``origin`` = (lat0, lon0).

    Returns local metric (x, y): x grows eastward scaled by cos(lat0), y grows
    northward.  Accurate to well under a meter across a few kilometers, which
    is the intended extract size.  ``lat`` and ``lon`` are floats or NumPy
    arrays of them; an array is projected point by point, bit for bit as
    each float would be.
    """
    lat0, lon0 = origin
    if not (np.all((-90.0 <= lat) & (lat <= 90.0)) and np.all((-180.0 <= lon) & (lon <= 180.0))):
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


@checked
class TrafficSignal:
    """Fixed-cycle signal head at a node: green, then yellow, then red."""

    node_id: int
    green_s: float = bounded("> 0", DEFAULT_GREEN_S)
    yellow_s: float = bounded("> 0", DEFAULT_YELLOW_S)
    red_s: float = bounded("> 0", DEFAULT_RED_S)
    offset_s: float = bounded("finite", 0.0)  # any sign here; load_config's signal.NODE.offset is >= 0

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
    writes the columns from the node ids (Python ints, ascending), their
    ``x`` and ``y`` float arrays in that order, and the ways.  Lengths are
    ``math.hypot`` on Python floats, since NumPy's ``hypot`` can differ in
    the last ulp.  ``where(way_id)`` is appended to a way's error message
    (the parser's ``" (line N)"``).
    """

    def __init__(
        self,
        ids: list[int],
        x: np.ndarray,
        y: np.ndarray,
        ways: dict[int, Way],
        signals: dict[int, TrafficSignal],
        origin: tuple[float, float],
        where: Callable[[int], str] = lambda way_id: "",
    ) -> None:
        self.ways, self.signals, self.origin = ways, signals, origin
        self.ids = ids
        self.nodes = nodes = {node_id: row for row, node_id in enumerate(ids)}
        self.x, self.y = x, y = np.asarray(x, float), np.asarray(y, float)
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
        self._exits = None  # ``exits``' (offset per segment, segments), built on its first call

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

    def exits(self, k: int) -> np.ndarray:
        """The segments a vehicle arriving on segment ``k`` can drive on, in adjacency order.

        Those are the segments leaving ``k``'s end node, less the other
        direction of ``k``'s own piece, unless that is the only way out (a
        dead end's U-turn).  All segments' exits are built on the first call,
        as one array sliced per segment.
        """
        if self._exits is None:
            end = self.end
            degree = self.out_start[end + 1] - self.out_start[end]
            arrival = np.repeat(np.arange(len(end)), degree)
            first = np.cumsum(degree) - degree
            option = self.out_seg[self.out_start[end][arrival] + np.arange(len(arrival)) - first[arrival]]
            back = (self.way[option] == self.way[arrival]) & (self.way_index[option] == self.way_index[arrival])
            keep = ~back | (np.bincount(arrival[~back], minlength=len(end)) == 0)[arrival]
            start = np.zeros(len(end) + 1, np.int64)
            np.cumsum(np.bincount(arrival[keep], minlength=len(end)), out=start[1:])
            self._exits = start, option[keep]
        start, option = self._exits
        return option[start.item(k):start.item(k + 1)]

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


def _attrib(attrs: dict[str, str]) -> dict[str, str]:
    """An element's attributes as ElementTree names them (``{uri}name`` when namespaced), for messages."""
    return {"{" + name if "}" in name else name: value for name, value in attrs.items()}


def parse_osm(document: bytes | str) -> RoadGraph:
    """Parse an OSM XML extract into a :class:`RoadGraph`.

    ``document`` is the file's bytes, decoded as its XML declaration says
    (UTF-8 when it names none), or text already decoded.  One expat pass
    records every node and way with the line of its start tag, and the
    records are checked only once the whole document has parsed.  Raises
    :class:`MapError` for malformed XML (bytes that do not decode included)
    and for any bad element, nodes before ways, and
    :class:`DanglingReferenceError` naming the way and node when a ``<nd>``
    ref points at a missing node; every one names the line, except the error
    for a document without drivable ways.
    """
    # element names as ElementTree sees them: a namespaced <node> is "uri}node", not a node
    parser = expat.ParserCreate(namespace_separator="}")
    node_rows: dict[int, int] = {}  # node id -> row of its last definition
    lats, lons, node_lines = array("d"), array("d"), array("q")
    node_highway: list[str | None] = []  # each row's last highway tag
    bad_node: tuple[dict[str, str], int] | None = None
    # per way: id (its attributes when bad), line, tags, and its nds' refs (attributes when bad) and lines
    way_records: list[tuple[int | dict, int, dict[str, str], list[int | dict], list[int]]] = []
    open_nodes: list[int] = []
    open_ways: list[tuple] = []

    # an element's tags and nds are all those inside it, at any depth, as ElementTree's iter() finds them
    def start(name: str, attrs: dict[str, str]) -> None:
        nonlocal bad_node
        if name == "nd":
            try:
                ref = int(attrs["ref"])
            except (KeyError, ValueError):
                ref = _attrib(attrs)
            for way in open_ways:
                way[3].append(ref)
                way[4].append(parser.CurrentLineNumber)
        elif name == "tag":
            key, value = attrs.get("k", ""), attrs.get("v", "")
            for way in open_ways:
                way[2][key] = value
            if key == "highway":
                for row in open_nodes:
                    node_highway[row] = value
        elif name == "node":
            row = len(node_highway)
            try:
                node_id, lat, lon = int(attrs["id"]), float(attrs["lat"]), float(attrs["lon"])
            except (KeyError, ValueError):
                bad_node = bad_node or (_attrib(attrs), parser.CurrentLineNumber)
                lat = lon = math.nan
            else:
                node_rows[node_id] = row
            lats.append(lat)
            lons.append(lon)
            node_lines.append(parser.CurrentLineNumber)
            node_highway.append(None)
            open_nodes.append(row)
        elif name == "way":
            try:
                way_id = int(attrs["id"])
            except (KeyError, ValueError):
                way_id = _attrib(attrs)
            way_records.append((way_id, parser.CurrentLineNumber, {}, [], []))
            open_ways.append(way_records[-1])

    def end(name: str) -> None:
        if name == "node":
            open_nodes.pop()
        elif name == "way":
            open_ways.pop()

    parser.StartElementHandler, parser.EndElementHandler = start, end
    try:
        parser.Parse(document, True)
    except (expat.ExpatError, LookupError, ValueError) as exc:  # the latter two: an encoding expat cannot read
        raise MapError(f"malformed OSM XML at line {parser.ErrorLineNumber}, column {parser.ErrorColumnNumber}:"
                       f" {exc}") from exc
    finally:
        parser.StartElementHandler = parser.EndElementHandler = None  # they close over the parser: a cycle
    if bad_node is not None:
        raise MapError(f"node element missing or bad id/lat/lon: {bad_node[0]} (line {bad_node[1]})")

    ways: dict[int, Way] = {}
    way_lines: dict[int, int] = {}
    used: set[int] = set()
    for way_id, line, tags, nd_refs, nd_lines in way_records:
        if isinstance(way_id, dict):
            raise MapError(f"way element missing or bad id: {way_id} (line {line})")
        highway = tags.get("highway")
        if highway is None or highway in NON_DRIVABLE:
            continue
        refs = []
        for ref, nd_line in zip(nd_refs, nd_lines):
            if isinstance(ref, dict):
                raise MapError(f"way {way_id}: bad nd element {ref} (line {nd_line})")
            if ref not in node_rows:
                raise DanglingReferenceError(f"way {way_id} references missing node {ref} (line {nd_line})")
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
        way_lines[way_id] = line
        used.update(refs)

    if not ways:
        raise MapError("document contains no drivable ways")

    # every used coordinate is checked before the origin is taken from them:
    # one non-finite value would make the origin, and so every node, non-finite
    ids = sorted(used)  # Python's sort: ids beyond 64 bits are ids too
    rows = [node_rows[node_id] for node_id in ids]
    lat, lon = np.frombuffer(lats)[rows], np.frombuffer(lons)[rows]
    bad = ~((-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0))
    if bad.any():
        bad_ids = {ids[i] for i in bad.nonzero()[0].tolist()}
        node_id = next(node_id for node_id in used if node_id in bad_ids)  # the first in the set's order
        row = node_rows[node_id]
        raise MapError(f"node {node_id}: coordinate not finite or out of range: lat={lats[row]!r}"
                       f" lon={lons[row]!r} (line {node_lines[row]})")
    lat_list, lon_list = lat.tolist(), lon.tolist()
    # + 0.0 makes a zero origin +0.0: min and max keep the first of 0.0 and -0.0 they meet
    origin = ((min(lat_list) + max(lat_list)) / 2.0 + 0.0, (min(lon_list) + max(lon_list)) / 2.0 + 0.0)

    x, y = project(lat, lon, origin)
    signals = {node_id: TrafficSignal(node_id)
               for node_id in used if node_highway[node_rows[node_id]] == "traffic_signals"}
    return RoadGraph(ids, x, y, ways, signals, origin, lambda way_id: f" (line {way_lines[way_id]})")


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
    ids = sorted(node_map)
    x, y = np.array([node_map[node_id] for node_id in ids], float).reshape(-1, 2).T.copy()
    return RoadGraph(ids, x, y, way_map, signal_map, (0.0, 0.0))
