"""Map parsing, projection, and signal timing."""

import math
import re
import struct
import xml.etree.ElementTree as ET
from itertools import accumulate
from xml.parsers import expat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vehsim.osm import (
    MAX_LANES,
    NON_DRIVABLE,
    DanglingReferenceError,
    MapError,
    RoadGraph,
    SegmentRef,
    TrafficSignal,
    Way,
    _split_lanes,
    build_graph,
    parse_osm,
    project,
    signal_phase,
)

from conftest import corridor_osm_xml, grid_osm_xml
from test_routing import _grid_graph, _jittered_lattice, _random_multigraph

# One degree of latitude on the spherical earth model, in meters.
METERS_PER_DEGREE = 111194.92664455873


def test_projection_oracle_at_equator():
    x, y = project(1.0, 0.0, origin=(0.0, 0.0))
    assert y == pytest.approx(METERS_PER_DEGREE, rel=1e-12)
    assert x == 0.0
    x, y = project(0.0, 1.0, origin=(0.0, 0.0))
    assert x == pytest.approx(METERS_PER_DEGREE, rel=1e-12)
    assert y == 0.0


def test_projection_shrinks_longitude_with_latitude():
    x, _ = project(60.0, 1.0, origin=(60.0, 0.0))
    assert x == pytest.approx(METERS_PER_DEGREE * math.cos(math.radians(60.0)), rel=1e-12)
    assert x == pytest.approx(55597.463322279365, rel=1e-12)


def test_out_of_range_coordinates_rejected():
    with pytest.raises(MapError):
        project(91.0, 0.0, origin=(0.0, 0.0))
    with pytest.raises(MapError):
        project(0.0, -181.0, origin=(0.0, 0.0))


FIXTURE = """<osm version="0.6">
  <node id="1" lat="51.4800" lon="7.5500"/>
  <node id="2" lat="51.4810" lon="7.5500">
    <tag k="highway" v="traffic_signals"/>
  </node>
  <node id="3" lat="51.4820" lon="7.5500"/>
  <node id="4" lat="51.4810" lon="7.5510"/>
  <node id="5" lat="51.4810" lon="7.5490"/>
  <node id="9" lat="51.4830" lon="7.5500"/>
  <way id="10">
    <nd ref="1"/><nd ref="2"/><nd ref="3"/>
    <tag k="highway" v="residential"/>
    <tag k="lanes" v="3"/>
    <tag k="maxspeed" v="50"/>
  </way>
  <way id="11">
    <nd ref="2"/><nd ref="4"/>
    <tag k="highway" v="primary"/>
    <tag k="oneway" v="yes"/>
    <tag k="maxspeed" v="30 mph"/>
  </way>
  <way id="12">
    <nd ref="2"/><nd ref="5"/>
    <tag k="highway" v="secondary"/>
    <tag k="maxspeed" v="not-a-speed"/>
  </way>
  <way id="13">
    <nd ref="3"/><nd ref="9"/>
    <tag k="highway" v="footway"/>
  </way>
</osm>
"""


@pytest.fixture(scope="module")
def parsed():
    return parse_osm(FIXTURE)


def test_parse_filters_non_drivable_ways(parsed):
    assert set(parsed.ways) == {10, 11, 12}
    assert 9 not in parsed.nodes  # referenced only by the footway
    assert set(parsed.nodes) == {1, 2, 3, 4, 5}


def test_parse_lane_split_and_speeds(parsed):
    way = parsed.ways[10]
    assert (way.lanes_forward, way.lanes_backward) == (2, 1)
    assert not way.one_way

    one_way = parsed.ways[11]
    assert one_way.one_way
    assert (one_way.lanes_forward, one_way.lanes_backward) == (1, 0)


def test_parse_collects_signals_with_defaults(parsed):
    assert set(parsed.signals) == {2}
    sig = parsed.signals[2]
    assert (sig.green_s, sig.yellow_s, sig.red_s, sig.offset_s) == (30.0, 5.0, 25.0, 0.0)


def test_junction_adjacency_order_and_one_way(parsed):
    keys = [ref.key for ref in parsed.outgoing(2)]
    assert keys == [(10, 0, False), (10, 1, True), (11, 0, True), (12, 0, True)]
    assert all(ref.start_node == 2 for ref in parsed.outgoing(2))
    with pytest.raises(KeyError):
        parsed.ref(11, 0, False)  # one-way: no reverse traversal exists


def test_segment_rows_and_geometry(parsed):
    first, second, back = parsed.ref(10, 0), parsed.ref(10, 1), parsed.ref(10, 0, False)
    assert [ref.key for ref in (first, second, back)] == [(10, 0, True), (10, 1, True), (10, 0, False)]
    assert (first.start_node, first.end_node, back.start_node, back.end_node) == (1, 2, 2, 1)
    # nodes 1..3 lie on a meridian 0.001 degrees apart, 1 to 3 due north
    assert first.length == back.length == parsed.segments[(10, 0)]
    assert first.length == pytest.approx(0.001 * METERS_PER_DEGREE, rel=1e-9)
    (x1, y1), (x2, y2), (x3, y3) = map(parsed.position, (1, 2, 3))
    assert x1 == x2 == x3 and y1 < y2 < y3
    assert len(parsed.segments) == 4  # pieces: two of way 10, one each of ways 11 and 12


def test_parse_is_element_order_invariant(parsed):
    lines = FIXTURE.splitlines()
    header, body, footer = lines[0], lines[1:-1], lines[-1]
    blocks = []
    current = []
    for line in body:
        current.append(line)
        if "</way>" in line or ("<node" in line and "/>" in line):
            blocks.append(current)
            current = []
    shuffled = parse_osm("\n".join([header] + [ln for blk in reversed(blocks) for ln in blk] + [footer]))
    # the same network, with the segment rows numbered in the other way order
    assert _network(shuffled) == _network(parsed)
    pairs = [(ref, shuffled.ref(*ref.key)) for ref in parsed.refs()]
    assert all(a == b for a, b in pairs) and any(a.index != b.index for a, b in pairs)


def _network(graph):
    """What a graph describes, free of its row numbering: node positions, ways, signals, origin and adjacency."""
    nodes = {node_id: graph.position(node_id) for node_id in graph.nodes}
    return nodes, graph.ways, graph.signals, graph.origin, {node_id: graph.outgoing(node_id) for node_id in nodes}


def test_dangling_node_reference_names_way_and_node():
    doc = """<osm>
      <node id="1" lat="0.0" lon="0.0"/>
      <way id="7"><nd ref="1"/><nd ref="999"/><tag k="highway" v="residential"/></way>
    </osm>"""
    with pytest.raises(DanglingReferenceError) as err:
        parse_osm(doc)
    assert "way 7" in str(err.value)
    assert "999" in str(err.value)


def test_zero_length_segment_rejected():
    doc = """<osm>
      <node id="1" lat="1.0" lon="2.0"/>
      <node id="2" lat="1.0" lon="2.0"/>
      <way id="7"><nd ref="1"/><nd ref="2"/><tag k="highway" v="residential"/></way>
    </osm>"""
    with pytest.raises(MapError, match="zero-length"):
        parse_osm(doc)


def _two_node_way(node1: str, node2: str, extra: str = "") -> str:
    return f"""<osm>
      <node id="1" {node1}/>
      <node id="2" {node2}/>{extra}
      <way id="7"><nd ref="1"/><nd ref="2"/><tag k="highway" v="residential"/></way>
    </osm>"""


@pytest.mark.parametrize(
    "node1, node2, bad",
    [
        ('lat="1e999" lon="0.0"', 'lat="0.001" lon="0.0"', 1),
        ('lat="0.001" lon="0.0"', 'lat="1e999" lon="0.0"', 2),
        ('lat="0.0" lon="0.0"', 'lat="0.0" lon="-inf"', 2),
        ('lat="nan" lon="0.0"', 'lat="0.001" lon="0.0"', 1),
        ('lat="0.0" lon="0.0"', 'lat="90.5" lon="0.0"', 2),
        ('lat="0.0" lon="180.001"', 'lat="0.001" lon="0.0"', 1),
    ],
    ids=["inf-first", "inf-second", "inf-lon", "nan", "lat-out-of-range", "lon-out-of-range"],
)
def test_bad_coordinate_of_a_used_node_is_a_map_error_naming_it(node1, node2, bad):
    # a non-finite node once made the projection origin non-finite, so a later
    # finite node failed inside math.cos with a bare ValueError
    with pytest.raises(MapError, match=f"^node {bad}: coordinate not finite or out of range"):
        parse_osm(_two_node_way(node1, node2))


def test_bad_coordinate_of_an_unused_node_is_ignored():
    doc = _two_node_way('lat="0.0" lon="0.0"', 'lat="0.001" lon="0.0"',
                        '\n      <node id="3" lat="1e999" lon="nan"/>')
    assert set(parse_osm(doc).nodes) == {1, 2}


_LOCATED = """<osm>
  <node id="1" lat="0.0" lon="0.0"/>
  <node id="2" lat="0.001" lon="0.0"/>
  <node id="3" lat="0.002" lon="0.0"/>
  <way id="7">
    <nd ref="1"/>
    <nd ref="2"/>
    <tag k="highway" v="residential"/>
  </way>
  <way id="8"><nd ref="2"/><nd ref="3"/><tag k="highway" v="residential"/></way>
</osm>"""


_LOCATED_ERRORS = [
    ('<node id="2" lat="0.001"', '<node id="x2" lat="0.001"', "node element missing or bad", 3),
    ('lat="0.002" lon="0.0"', 'lat="0.002"', "node element missing or bad", 4),
    ('<way id="8">', '<way id="">', "way element missing or bad id", 10),
    ('<nd ref="2"/>\n', '<nd ref="two"/>\n', "way 7: bad nd element", 7),
    ('<nd ref="3"/>', '<nd ref="9"/>', "way 8 references missing node 9", 10),
    ('lat="0.002" lon="0.0"', 'lat="0.002" lon="nan"', "node 3: coordinate not finite", 4),
    ('lat="0.002" lon="0.0"', 'lat="0.001" lon="0.0"', "way 8: zero-length segment at index 0", 10),
    ('<tag k="highway" v="residential"/>\n  </way>',
     '<tag k="highway" v="residential"/>\n    <tag k="lanes" v="99"/>\n  </way>',
     "way 7: 50 lanes in one direction", 5),
]


@pytest.mark.parametrize(
    "old, new, message, line",
    _LOCATED_ERRORS,
    ids=["node-id", "node-lon", "way-id", "nd-ref", "dangling", "non-finite", "zero-length", "lane-cap"],
)
def test_element_level_map_errors_name_the_line(old, new, message, line):
    assert old in _LOCATED
    with pytest.raises(MapError, match=f"^{message}.* \\(line {line}\\)$"):
        parse_osm(_LOCATED.replace(old, new, 1))


def test_error_line_counts_only_elements_elementtree_sees_under_that_name():
    # a namespaced <node> is not an OSM node: the located one is the second plain <node>
    doc = _LOCATED.replace('<node id="1"', '<node xmlns="urn:other" id="0"/>\n  <node id="1"').replace(
        '<node id="2" lat', '<node id="2" lat="x" lon="0"/><node id="22" lat')
    with pytest.raises(MapError, match=r"\(line 4\)$"):
        parse_osm(doc)


# -- the ElementTree oracle ------------------------------------------------------
#
# parse_osm reads the document in one expat pass.  The parser it replaced
# built an ElementTree and walked it, finding error lines by a second expat
# scan; it is kept here as the reference that the streaming parser must
# match: the same graph, or the same error type and message.


def _reference_line(document, root, element):
    nth = next(i for i, el in enumerate(root.iter(element.tag)) if el is element)
    parser = expat.ParserCreate(namespace_separator="}")
    lines = []

    def start(name, attrs):
        if name == element.tag:
            lines.append(parser.CurrentLineNumber)

    parser.StartElementHandler = start
    parser.Parse(document, True)
    return f" (line {lines[nth]})"


def _reference_parse_osm(document):
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        line, column = exc.position
        raise MapError(f"malformed OSM XML at line {line}, column {column}: {exc.msg}") from exc

    raw_nodes = {}
    for el in root.iter("node"):
        try:
            node_id = int(el.attrib["id"])
            lat = float(el.attrib["lat"])
            lon = float(el.attrib["lon"])
        except (KeyError, ValueError) as exc:
            where = _reference_line(document, root, el)
            raise MapError(f"node element missing or bad id/lat/lon: {el.attrib}{where}") from exc
        tags = {t.attrib.get("k", ""): t.attrib.get("v", "") for t in el.iter("tag")}
        raw_nodes[node_id] = (lat, lon, tags)

    ways, way_elements, used = {}, {}, set()
    for el in root.iter("way"):
        try:
            way_id = int(el.attrib["id"])
        except (KeyError, ValueError) as exc:
            where = _reference_line(document, root, el)
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
                where = _reference_line(document, root, nd)
                raise MapError(f"way {way_id}: bad nd element {nd.attrib}{where}") from exc
            if ref not in raw_nodes:
                raise DanglingReferenceError(
                    f"way {way_id} references missing node {ref}{_reference_line(document, root, nd)}")
            refs.append(ref)
        if len(refs) < 2:
            continue
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

    lats, lons = [], []
    for node_id in used:
        lat, lon, _ = raw_nodes[node_id]
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            last = [el for el in root.iter("node") if int(el.attrib["id"]) == node_id][-1]
            raise MapError(
                f"node {node_id}: coordinate not finite or out of range: lat={lat!r} lon={lon!r}"
                f"{_reference_line(document, root, last)}"
            )
        lats.append(lat)
        lons.append(lon)
    origin = ((min(lats) + max(lats)) / 2.0 + 0.0, (min(lons) + max(lons)) / 2.0 + 0.0)  # never -0.0

    coords, signals = {}, {}
    for node_id in used:
        lat, lon, tags = raw_nodes[node_id]
        coords[node_id] = project(lat, lon, origin)
        if tags.get("highway") == "traffic_signals":
            signals[node_id] = TrafficSignal(node_id)
    ids = sorted(coords)
    return RoadGraph(ids, np.array([coords[node_id][0] for node_id in ids]),
                     np.array([coords[node_id][1] for node_id in ids]), ways, signals, origin,
                     lambda way_id: _reference_line(document, root, way_elements[way_id]))


_COLUMNS = ("x", "y", "start", "end", "length", "lanes", "way", "way_index", "forward", "slot0",
            "out_seg", "in_seg", "out_start", "in_start")


def _outcome(parse, document):
    """What ``parse`` makes of ``document``: the graph's rows, bit for bit, or the error's type and message."""
    try:
        graph = parse(document)
    except MapError as exc:
        return type(exc), str(exc)
    return (graph.ids, list(graph.ways.items()), list(graph.signals.items()), repr(graph.origin),
            graph.way_ids, [getattr(graph, name).tobytes() for name in _COLUMNS])


def _assert_parses_as_the_reference(document):
    outcome = _outcome(parse_osm, document)
    assert outcome == _outcome(_reference_parse_osm, document)
    return outcome


def _nested(way_body: str) -> str:
    return f"""<osm>
  <node id="1" lat="0.0" lon="0.0"/>
  <way id="7">
    <nd ref="1"/>{way_body}
  </way>
</osm>"""


# documents that put the parsers' precedence and nesting rules to the test
_ORACLE_CASES = {
    "malformed-after-bad-element": (
        _LOCATED.replace('<node id="2" lat', '<node id="x" lat').replace("</way>\n  <way", "</wa>\n  <way"),
        MapError, r"^malformed OSM XML at line 9, column 4: mismatched tag"),
    "bad-node-after-bad-way": (
        _LOCATED.replace('<way id="7">', '<way id="w7">').replace('<node id="3" lat="0.002" lon="0.0"/>', "")
        .replace("</osm>", '  <node id="3" lat="0.002"/>\n</osm>'),
        MapError, r"^node element missing or bad id/lat/lon: \{'id': '3', 'lat': '0.002'\} \(line 11\)$"),
    "default-namespace": (
        _LOCATED.replace("<osm>", '<osm xmlns="http://openstreetmap.org/osm/0.6">'),
        MapError, "^document contains no drivable ways$"),
    "namespaced-attribute": (
        _LOCATED.replace("<osm>", '<osm xmlns:x="urn:x">').replace('<node id="2"', '<node x:id="2"'),
        MapError, r"^node element missing or bad id/lat/lon: \{'\{urn:x\}id': '2', .* \(line 3\)$"),
    "node-nested-in-way": (
        _nested('\n    <node id="2" lat="0.001" lon="0.0"><tag k="highway" v="traffic_signals"/></node>'
                '\n    <nd ref="2"/>\n    <tag k="highway" v="residential"/>'),
        None, None),
    "node-nested-in-way-tags-it": (
        _nested('\n    <nd ref="2"/>\n    <tag k="lanes" v="4"/>'
                '\n    <node id="2" lat="0.001" lon="0.0"><tag k="highway" v="traffic_signals"/></node>'),
        None, None),
    "way-nested-in-way": (
        _LOCATED.replace('  </way>\n  <way id="8"><nd ref="2"/><nd ref="3"/><tag k="highway" v="residential"/></way>',
                         '    <way id="8"><nd ref="3"/><tag k="oneway" v="yes"/></way>\n  </way>'),
        None, None),
    "duplicate-node-bad-last": (
        _LOCATED.replace('<way id="7">', '<node id="2" lat="-91.5" lon="0.0"/>\n  <way id="7">'),
        MapError, r"^node 2: coordinate not finite or out of range: lat=-91.5 lon=0.0 \(line 5\)$"),
    "duplicate-node-good-last": (
        _LOCATED.replace('<node id="1"', '<node id="2" lat="1e999" lon="0.0"/>\n  <node id="1"'),
        None, None),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_streaming_parser_matches_the_elementtree_reference(name):
    document, error, message = _ORACLE_CASES[name]
    outcome = _assert_parses_as_the_reference(document)
    if error is None:
        assert isinstance(outcome[0], list), outcome
    else:
        assert outcome[0] is error and re.search(message, outcome[1]), outcome


def test_nested_node_is_a_node_and_its_tags_are_the_ways_too():
    graph = parse_osm(_ORACLE_CASES["node-nested-in-way"][0])
    assert graph.ways[7].node_refs == (1, 2) and set(graph.signals) == {2}
    # the nested node's highway tag is the way's last one, so the way is drivable (and four lanes wide)
    graph = parse_osm(_ORACLE_CASES["node-nested-in-way-tags-it"][0])
    assert graph.ways[7].lanes_forward == 2 and set(graph.signals) == {2}
    # a way inside a way gives the outer one its nds and tags too
    graph = parse_osm(_ORACLE_CASES["way-nested-in-way"][0])
    assert list(graph.ways) == [7] and graph.ways[7].node_refs == (1, 2, 3) and graph.ways[7].one_way


def test_bytes_are_decoded_as_the_xml_declaration_says():
    # a name that is not ASCII, in a file that declares Latin-1: read as bytes, it decodes; as UTF-8 it could not
    named = _LOCATED.replace('v="residential"/>\n  </way>', 'v="residential"/>\n    <tag k="name" v="Straße"/>\n  </way>')
    document = '<?xml version="1.0" encoding="ISO-8859-1"?>\n' + named
    data = document.encode("latin-1")
    with pytest.raises(UnicodeDecodeError):
        data.decode()
    assert set(_assert_parses_as_the_reference(data)[0]) == {1, 2, 3}
    assert _outcome(parse_osm, data) == _outcome(parse_osm, _LOCATED)
    # bytes that are not what the declaration says are a located MapError
    outcome = _assert_parses_as_the_reference(data.replace(b"ISO-8859-1", b"UTF-8"))
    assert outcome[0] is MapError and outcome[1].startswith("malformed OSM XML at line 10, column 25: not well-formed")
    # so is an encoding expat cannot read (ElementTree raised LookupError or ValueError here)
    for declared, message in ((b"no-such-codec", "unknown encoding: no-such-codec"),
                              (b"Shift_JIS", "multi-byte encodings are not supported")):
        with pytest.raises(MapError, match=f"^malformed OSM XML at line 1, column 30: {message}$"):
            parse_osm(data.replace(b"ISO-8859-1", declared))


def test_fixtures_parse_as_the_reference():
    documents = [FIXTURE, _LOCATED, grid_osm_xml(4, 120.0), corridor_osm_xml(400.0, count=4),
                 corridor_osm_xml(300.0, count=3, one_way=False)]
    documents += [_LOCATED.replace(old, new, 1) for old, new, _, _ in _LOCATED_ERRORS]
    for document in documents:
        _assert_parses_as_the_reference(document)
        _assert_parses_as_the_reference(document.encode())


def test_malformed_xml_reports_position():
    with pytest.raises(MapError, match="line"):
        parse_osm("<osm>\n  <node id='1' lat='0' lon='0'\n</osm>")


def test_document_without_drivable_ways_rejected():
    doc = """<osm>
      <node id="1" lat="0.0" lon="0.0"/>
      <node id="2" lat="0.001" lon="0.0"/>
      <way id="7"><nd ref="1"/><nd ref="2"/><tag k="highway" v="footway"/></way>
    </osm>"""
    with pytest.raises(MapError, match="drivable"):
        parse_osm(doc)


def test_build_graph_options_and_validation():
    nodes = [(1, 0.0, 0.0), (2, 100.0, 0.0), (3, 100.0, 50.0)]
    graph = build_graph(
        nodes,
        [(1, [1, 2], {"lanes_forward": 2, "one_way": True}), (2, [2, 3])],
    )
    ref = graph.ref(1, 0)
    assert ref.lanes == 2
    with pytest.raises(KeyError):
        graph.ref(1, 0, False)
    assert graph.ref(2, 0, forward=False).lanes == 1  # two-way default
    assert graph.bounds() == (0.0, 0.0, 100.0, 50.0)
    assert graph.position(3) == (100.0, 50.0)

    with pytest.raises(ValueError, match="unknown options"):
        build_graph(nodes, [(1, [1, 2], {"bogus": 1})])
    with pytest.raises(DanglingReferenceError):
        build_graph(nodes, [(1, [1, 4])])


def test_lane_counts_beyond_the_cap_are_map_errors_naming_the_way():
    def way_with_lanes(lanes: str, oneway: str = "no") -> str:
        return _two_node_way('lat="0.0" lon="0.0"', 'lat="0.001" lon="0.0"').replace(
            "</way>", f'<tag k="lanes" v="{lanes}"/><tag k="oneway" v="{oneway}"/></way>')

    assert parse_osm(way_with_lanes(str(2 * MAX_LANES))).ways[7].lanes_backward == MAX_LANES
    assert parse_osm(way_with_lanes(str(MAX_LANES), "yes")).ways[7].lanes_forward == MAX_LANES
    for lanes, oneway, per_direction in (("8000000", "no", 4000000), (str(MAX_LANES + 1), "yes", MAX_LANES + 1)):
        with pytest.raises(MapError, match=f"^way 7: {per_direction} lanes"):
            parse_osm(way_with_lanes(lanes, oneway))

    nodes = [(1, 0.0, 0.0), (2, 100.0, 0.0)]
    assert build_graph(nodes, [(3, [1, 2], {"lanes_backward": MAX_LANES})]).ref(3, 0, False).lanes == MAX_LANES
    for option in ("lanes_forward", "lanes_backward"):
        with pytest.raises(MapError, match=f"^way 3: {10 ** 9} lanes"):
            build_graph(nodes, [(3, [1, 2], {option: 10 ** 9})])


def test_build_graph_round_trips_metric_coordinates():
    graph = build_graph([(1, -250.0, 40.0), (2, 750.0, 40.0)], [(1, [1, 2])])
    assert graph.position(1) == (-250.0, 40.0)
    assert graph.segments[(1, 0)] == 1000.0


def _reference_segments(graph):
    """The object construction that the graph's columns replaced, kept as their oracle.

    Every piece of every way in order, forward then backward, as (start node,
    end node, length, lanes, key) with the length ``math.hypot`` of the node
    coordinates; and each node's outgoing and incoming segments sorted by
    (way, index, backward).
    """
    refs, out, into = [], {}, {}
    for way in graph.ways.values():
        for i in range(len(way.node_refs) - 1):
            a, b = way.node_refs[i], way.node_refs[i + 1]
            (ax, ay), (bx, by) = graph.position(a), graph.position(b)
            length = math.hypot(bx - ax, by - ay)
            for forward, lanes, start, end in ((True, way.lanes_forward, a, b), (False, way.lanes_backward, b, a)):
                if lanes >= 1:
                    ref = (start, end, struct.pack("<d", length), lanes, (way.id, i, forward))
                    refs.append(ref)
                    out.setdefault(start, []).append(ref)
                    into.setdefault(end, []).append(ref)

    def order(lst):
        return [ref[4] for ref in sorted(lst, key=lambda ref: (ref[4][0], ref[4][1], not ref[4][2]))]

    return refs, {node: order(lst) for node, lst in out.items()}, {node: order(lst) for node, lst in into.items()}


def _assert_store_matches_reference(graph):
    refs, out, into = _reference_segments(graph)
    got = graph.refs()
    assert [(r.start_node, r.end_node, struct.pack("<d", r.length), r.lanes, r.key) for r in got] == refs
    assert [r.index for r in got] == list(range(len(refs)))
    assert all(graph.ref(*ref.key) == ref and graph.ref(*ref.key).index == ref.index for ref in got)
    for way in graph.ways.values():  # a direction without lanes, or a piece past the way's end, has no segment
        for key, lanes in (((way.id, 0, True), way.lanes_forward), ((way.id, 0, False), way.lanes_backward),
                           ((way.id, len(way.node_refs) - 1, True), 0), ((way.id, -1, True), 0)):
            if lanes < 1:
                with pytest.raises(KeyError):
                    graph.ref(*key)
    assert graph.ids == sorted(graph.nodes)
    assert [graph.nodes[node_id] for node_id in graph.ids] == list(range(len(graph.ids)))
    for node_id, row in graph.nodes.items():
        assert [ref.key for ref in graph.outgoing(node_id)] == out.get(node_id, [])
        assert all(ref.start_node == node_id for ref in graph.outgoing(node_id))
        incoming = graph.in_seg[graph.in_start[row]:graph.in_start[row + 1]].tolist()
        assert [got[k].key for k in incoming] == into.get(node_id, [])
    lanes = [ref[3] for ref in refs]
    assert graph.slot0.tolist() == list(accumulate(lanes, initial=0))[:-1]


def _store_maps():
    rng = np.random.default_rng(5)
    yield parse_osm(grid_osm_xml(4, 120.0))
    yield parse_osm(FIXTURE)
    yield build_graph(
        [(1, 0.0, 0.0), (2, 100.0, 0.0), (3, 100.0, 50.0), (4, -30.0, 80.0), (5, -10**25, 3.0)],
        [(1, [1, 2, 3], {"lanes_forward": 2, "lanes_backward": 3}), (2, [3, 4, 1], {"one_way": True}),
         (-7, [4, 2, 3, 2], {"lanes_forward": 0, "lanes_backward": 2}), (10**25, [5]), (3, [])],
    )
    yield _grid_graph(5, 100.0, lanes=4)
    for _ in range(2):
        yield _jittered_lattice(rng, 5, 120.0)
    for scale, offset in ((1.0, 0.0), (1e-6, 1e6)):
        for _ in range(10):
            yield _random_multigraph(rng, scale, offset)


def test_store_matches_the_object_construction_reference():
    checked = 0
    for graph in _store_maps():
        _assert_store_matches_reference(graph)
        checked += len(graph.length)
    assert checked > 900


def test_exits_drop_the_arrival_piece_unless_it_is_the_only_way_out():
    dead_ends = 0
    for graph in _store_maps():
        for ref in graph.refs():
            options = graph.outgoing(ref.end_node)
            expected = [o.key for o in options if o.key[:2] != ref.key[:2]] or [o.key for o in options]
            exits = graph.exits(ref.index)
            assert exits.dtype == np.int64 and [SegmentRef(graph, k).key for k in exits.tolist()] == expected
            dead_ends += expected == [ref.key[:2] + (not ref.key[2],)]
    assert dead_ends >= 4


def test_refs_of_two_parses_are_equal_and_hash_alike():
    text = grid_osm_xml(3, 150.0)
    first, second = parse_osm(text), parse_osm(text)
    pairs = [(ref, second.ref(*ref.key)) for ref in first.refs()]
    assert pairs
    for a, b in pairs:
        assert a is not b and a.graph is not b.graph
        assert a == b and hash(a) == hash(b)
        # equal by value: key, end nodes, length and lanes; the other direction of the piece differs
        assert hash(a) == hash((a.key, a.start_node, a.end_node, a.length, a.lanes))
        assert a != first.ref(a.key[0], a.key[1], not a.key[2]) and a != a.key
    assert SegmentRef(first, 0) == SegmentRef(first, 0) and len(set(first.refs())) == len(pairs)


def test_signal_validation():
    with pytest.raises(ValueError):
        TrafficSignal(1, green_s=0.0)
    with pytest.raises(ValueError):
        TrafficSignal(1, red_s=-1.0)
    TrafficSignal(1, offset_s=-7.5)  # offsets may be any sign


def test_signal_phase_boundaries():
    sig = TrafficSignal(1)  # 30 green, 5 yellow, 25 red -> period 60
    assert sig.period == 60.0
    assert signal_phase(sig, 0.0) == "green"
    assert signal_phase(sig, 29.999) == "green"
    assert signal_phase(sig, 30.0) == "yellow"
    assert signal_phase(sig, 34.999) == "yellow"
    assert signal_phase(sig, 35.0) == "red"
    assert signal_phase(sig, 59.999) == "red"
    assert signal_phase(sig, 60.0) == "green"
    assert signal_phase(sig, 123.0) == signal_phase(sig, 3.0)


def test_signal_phase_with_offset_and_negative_time():
    sig = TrafficSignal(1, offset_s=25.0)
    assert signal_phase(sig, 25.0) == "green"
    assert signal_phase(sig, 0.0) == "red"  # u = -25 wraps to 35
    assert signal_phase(sig, -5.0) == "yellow"  # u = -30 wraps to 30
    assert signal_phase(sig, 24.999) == "red"


# what a mutation writes: attribute values out of every range, and tokens that
# break the markup, refer to no node or carry odd lane, speed and highway tags
_HOSTILE_VALUES = ("1e999", "-1e999", "nan", "inf", "91", "-181", "-0", "0", "-1", "33", "8000000", "1e3", "x", "")
_HOSTILE_TOKENS = (
    '"', "'", "<", ">", "/>", "&", "<!--", "-->", "1e999", "nan",
    '<nd ref="x"/>', '<nd ref="424242"/>', "<nd/>", '<node id="7" lat="0" lon="0"/>',
    '<tag k="lanes" v="8000000"/>', '<tag k="lanes" v="-2"/>', '<tag k="lanes" v="33"/>',
    '<tag k="lanes" v="x"/>', '<tag k="maxspeed" v="1e999"/>', '<tag k="maxspeed" v="nan"/>',
    '<tag k="maxspeed" v="-5 mph"/>', '<tag k="oneway" v="yes"/>', '<tag k="highway" v="steps"/>',
)
_TOKEN = r"""<!--.*?-->|<[^>]*>|"[^"]*"|[^<"\s]+|\s+"""


@st.composite
def _osm_mutations(draw):
    """A test map (grid or corridor) with attribute values replaced and tokens inserted, deleted or replaced."""
    text = draw(st.sampled_from((grid_osm_xml(3, 150.0), corridor_osm_xml(400.0, count=4),
                                 corridor_osm_xml(300.0, count=3, one_way=False))))
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):  # one attribute value: an id, a coordinate, a reference or a tag value
            values = list(re.finditer(r'"[^"]*"', text))
            value = values[draw(st.integers(0, len(values) - 1))]
            text = f'{text[:value.start()]}"{draw(st.sampled_from(_HOSTILE_VALUES))}"{text[value.end():]}'
            continue
        tokens = re.findall(_TOKEN, text, flags=re.S)
        at = draw(st.integers(0, len(tokens)))
        action = draw(st.sampled_from(("insert", "delete", "replace")))
        if action == "insert" or at == len(tokens):
            tokens.insert(at, draw(st.sampled_from(_HOSTILE_TOKENS)))
        elif action == "delete":
            del tokens[at]
        else:
            tokens[at] = draw(st.sampled_from(_HOSTILE_TOKENS))
        text = "".join(tokens)
    return text


@settings(max_examples=400, deadline=None)
@given(_osm_mutations())
def test_any_mutated_map_is_a_map_error_or_a_graph(text):
    _assert_parses_as_the_reference(text)
    try:
        graph = parse_osm(text)
    except MapError as exc:
        if str(exc) != "document contains no drivable ways":
            assert re.search(r"\bline [1-9][0-9]*\b", str(exc)), str(exc)
        return
    assert isinstance(graph, RoadGraph) and graph.ways
