"""Map parsing, projection, and signal timing."""

import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vehsim.osm import (
    DEFAULT_MAX_SPEED,
    MAX_LANES,
    DanglingReferenceError,
    MapError,
    RoadGraph,
    TrafficSignal,
    build_graph,
    parse_osm,
    project,
    signal_phase,
    unproject,
)

from conftest import corridor_osm_xml, grid_osm_xml

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


def test_unproject_round_trip():
    origin = (51.48, 7.55)
    for lat, lon in [(51.4803, 7.5511), (51.4795, 7.5488), (51.48, 7.55)]:
        x, y = project(lat, lon, origin)
        back = unproject(x, y, origin)
        assert back[0] == pytest.approx(lat, abs=1e-12)
        assert back[1] == pytest.approx(lon, abs=1e-12)


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
    assert way.max_speed == pytest.approx(50.0 / 3.6)
    assert not way.one_way

    one_way = parsed.ways[11]
    assert one_way.one_way
    assert (one_way.lanes_forward, one_way.lanes_backward) == (1, 0)
    assert one_way.max_speed == pytest.approx(30.0 * 0.44704)  # mph

    assert parsed.ways[12].max_speed == DEFAULT_MAX_SPEED  # unparsable tag falls back


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


def test_segments_of_and_geometry(parsed):
    segs = parsed.segments_of(10)
    assert [s.index for s in segs] == [0, 1]
    assert segs[0].from_node == 1 and segs[0].to_node == 2
    # nodes 1..3 lie on a meridian 0.001 degrees apart
    assert segs[0].length == pytest.approx(0.001 * METERS_PER_DEGREE, rel=1e-9)
    assert segs[0].heading == pytest.approx(math.pi / 2)  # due north


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
    shuffled = "\n".join([header] + [ln for blk in reversed(blocks) for ln in blk] + [footer])
    assert parse_osm(shuffled) == parsed


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
        [(1, [1, 2], {"lanes_forward": 2, "one_way": True, "max_speed": 20.0}), (2, [2, 3])],
    )
    ref = graph.ref(1, 0)
    assert ref.lanes == 2
    assert ref.max_speed == 20.0
    assert (1, 0, False) not in graph._refs
    assert graph.ref(2, 0, forward=False).lanes == 1  # two-way default
    assert graph.bounds() == (0.0, 0.0, 100.0, 50.0)
    assert graph.node(3).position == (100.0, 50.0)

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
    assert graph.node(1).x == pytest.approx(-250.0, abs=1e-6)
    assert graph.node(1).y == pytest.approx(40.0, abs=1e-6)
    assert graph.segments[(1, 0)].length == pytest.approx(1000.0, abs=1e-6)


def _all_refs(graph):
    return [ref for node_id in graph.nodes for ref in graph.outgoing(node_id)]


def test_stored_ref_fields_agree_with_their_segment(parsed):
    graphs = [
        parse_osm(grid_osm_xml(4, 120.0)),
        parsed,
        build_graph(
            [(1, 0.0, 0.0), (2, 100.0, 0.0), (3, 100.0, 50.0), (4, -30.0, 80.0)],
            [(1, [1, 2, 3], {"lanes_forward": 2, "lanes_backward": 3}),
             (2, [3, 4, 1], {"one_way": True})],
        ),
    ]
    for graph in graphs:
        refs = _all_refs(graph)
        assert len(refs) == len(graph._refs)
        for node_id in graph.nodes:
            assert all(ref.start_node == node_id for ref in graph.outgoing(node_id))
        for ref in refs:
            seg = ref.segment
            start, end = (seg.from_node, seg.to_node) if ref.forward else (seg.to_node, seg.from_node)
            assert (ref.start_node, ref.end_node) == (start, end)
            assert ref.length == seg.length
            assert ref.key == (seg.way_id, seg.index, ref.forward)
            assert graph.ref(*ref.key) is ref
        assert [ref.index for ref in graph.refs()] == list(range(len(refs)))
        assert list(graph.node_rows.items()) == [(node_id, row) for row, node_id in enumerate(graph.nodes)]


def test_refs_of_two_parses_are_equal_and_hash_alike():
    text = grid_osm_xml(3, 150.0)
    first, second = parse_osm(text), parse_osm(text)
    pairs = [(ref, second.ref(*ref.key)) for ref in _all_refs(first)]
    assert pairs
    for a, b in pairs:
        assert a is not b
        assert a == b and hash(a) == hash(b)
        # the stored fields follow from the others and take no part in equality or hashing
        assert hash(a) == hash((a.segment, a.forward, a.lanes, a.max_speed))
        assert replace(a, length=a.length + 1.0, key=(0, 0, True), index=a.index + 1) == a


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
    try:
        graph = parse_osm(text)
    except MapError:
        return
    assert isinstance(graph, RoadGraph) and graph.ways
