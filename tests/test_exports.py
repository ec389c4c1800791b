"""Space-time flattening and SVG rendering."""

import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vehsim.exports import (
    ExportError,
    _polyline_of,
    _project_to_polyline,
    export_spacetime,
    export_svg,
    write_spacetime_csv,
)
from conftest import corridor_graph, grid_osm_xml, trace_of

from vehsim.osm import parse_osm


# -- space-time ----------------------------------------------------------------


def test_spacetime_stationary_vehicle_constant_arc():
    samples = [(float(t), 0, 250.0, 0.0) for t in range(5)]
    rows = export_spacetime(trace_of(samples))
    assert [r[0] for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert all(r[1] == 0 for r in rows)
    arcs = [r[2] for r in rows]
    assert arcs == pytest.approx([arcs[0]] * 5)


def test_spacetime_arc_tracks_driven_distance():
    v = 12.0
    samples = [(t * 1.0, 0, 10.0 + v * t, 0.0, v) for t in range(20)]
    rows = export_spacetime(trace_of(samples))
    arcs = [r[2] for r in rows]
    deltas = [b - a for a, b in zip(arcs, arcs[1:])]
    assert deltas == pytest.approx([v] * 19, abs=1e-6)


def test_spacetime_reference_is_longest_path_and_rows_sorted():
    # vehicle 1 travels farther, so it defines the arc axis; vehicle 0 sits mid-route
    samples = [(float(t), 1, -400.0 + 80.0 * t, 0.0) for t in range(11)]
    samples += [(float(t), 0, 0.0, 0.0) for t in range(11)]
    rows = export_spacetime(trace_of(samples))
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))
    by_vid = {vid: [r[2] for r in rows if r[1] == vid] for vid in (0, 1)}
    assert by_vid[1][0] == pytest.approx(0.0, abs=1e-6)
    assert by_vid[1][-1] == pytest.approx(800.0, abs=1e-6)
    # the stationary vehicle projects onto the middle of the reference path
    assert by_vid[0][0] == pytest.approx(400.0, abs=1e-6)


def test_spacetime_arc_never_decreases_under_jitter():
    xs = [0.0, 10.0, 9.4, 20.0, 19.7, 30.0]  # small backward jitter
    samples = [(float(t), 0, x, 0.0) for t, x in enumerate(xs)]
    arcs = [r[2] for r in export_spacetime(trace_of(samples))]
    assert all(b >= a for a, b in zip(arcs, arcs[1:]))


def test_spacetime_rejects_offcorridor_trace():
    samples = [(float(t), 0, 100.0 * t, 0.0) for t in range(5)]
    samples += [(float(t), 1, 200.0, 120.0) for t in range(5)]  # 120 m off-axis
    with pytest.raises(ExportError, match="single-corridor"):
        export_spacetime(trace_of(samples))
    # the bound is 15 m: a sample 16 m off the axis is refused, one 14 m off is accepted
    on_axis = samples[:5]
    with pytest.raises(ExportError, match="vehicle 1 at t=2 lies 16.0 m off"):
        export_spacetime(trace_of(on_axis + [(2.0, 1, 200.0, 16.0)]))
    assert len(export_spacetime(trace_of(on_axis + [(2.0, 1, 200.0, 14.0)]))) == 6


def test_spacetime_empty_trace_rejected():
    with pytest.raises(ExportError, match="no trace samples"):
        export_spacetime(trace_of([]))


def test_write_spacetime_csv(tmp_path):
    path = tmp_path / "st.csv"
    write_spacetime_csv([(0.0, 0, 0.0), (0.5, 0, 6.25)], path)
    assert path.read_text().splitlines() == ["t,vehicle_id,s", "0,0,0.000", "0.5,0,6.250"]


def test_spacetime_times_keep_every_digit_of_a_long_run(tmp_path):
    # times are written as trace.csv writes them, not to six significant digits
    path = tmp_path / "st.csv"
    write_spacetime_csv([(10000.0, 0, 1.0), (10000.05, 0, 2.0), (123456.7, 0, 3.0)], path)
    assert path.read_text().splitlines() == ["t,vehicle_id,s", "10000,0,1.000", "10000.05,0,2.000",
                                             "123456.7,0,3.000"]
    samples = [(0.0, 0, 0.0, 0.0), (123456.7, 0, 100.0, 0.0), (10000.05, 1, 50.0, 20.0)]
    with pytest.raises(ExportError, match=r"vehicle 1 at t=10000\.05 lies"):
        export_spacetime(trace_of(samples))
    # a readable time past the nanosecond clock is refused before any row is written
    with pytest.raises(ExportError, match=r"^time 1e\+300 s is not finite or overflows the nanosecond clock$"):
        export_spacetime(trace_of([(0.0, 0, 0.0, 0.0), (1e300, 0, 10.0, 0.0)]))


# -- SVG -----------------------------------------------------------------------


def test_svg_draws_every_way(tmp_path):
    graph = parse_osm(grid_osm_xml(3, 300.0))
    svg = export_svg(graph)
    root = ET.fromstring(svg)
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == len(graph.ways) == 6
    for way, el in zip(sorted(graph.ways), polylines):
        points = el.attrib["points"].split()
        assert len(points) == len(graph.ways[way].node_refs) == 3


def test_svg_fits_viewbox_with_margin():
    graph = corridor_graph(500.0)
    svg = export_svg(graph)
    root = ET.fromstring(svg)
    # the longer extent (500 m of x) spans 1000 px, with a 20 px margin on each side
    assert float(root.attrib["width"]) == 1040.0
    assert float(root.attrib["height"]) == 40.0
    coords = [
        tuple(map(float, pt.split(",")))
        for el in root.iter()
        if el.tag.endswith("polyline")
        for pt in el.attrib["points"].split()
    ]
    assert all(20.0 <= x <= 1020.0 and y == 20.0 for x, y in coords)
    assert min(x for x, _ in coords) == 20.0
    assert max(x for x, _ in coords) == 1020.0


def test_svg_trace_overlay_one_polyline_per_vehicle():
    graph = corridor_graph(1000.0)
    trace = [(float(t), vid, 50.0 * t + vid, 0.0) for vid in (3, 7) for t in range(4)]
    svg = export_svg(graph, trace=trace_of(trace))
    assert svg.count('stroke="#cc2222"') == 2
    assert svg.count('stroke="#555555"') == 1


def test_svg_empty_graph_rejected():
    from vehsim.osm import build_graph

    graph = build_graph(nodes=[(1, 0.0, 0.0)], ways=[])
    with pytest.raises(ExportError, match="no ways"):
        export_svg(graph)


# -- the per-sample oracle -----------------------------------------------------
#
# The exporters read a Trace's columns and group vehicles by one stable sort.
# The code they replaced grouped (t, vehicle_id, x, y) samples vehicle by
# vehicle in Python; it is kept here as the reference they must match byte
# for byte, ties in time and unsorted vehicle ids included.


def _reference_svg_vehicles(graph, samples, size=1000.0, margin=20.0):
    min_x, min_y, max_x, max_y = graph.bounds()
    scale = size / max(max_x - min_x, max_y - min_y, 1e-9)
    by_vehicle = {}
    for sample in samples:
        by_vehicle.setdefault(sample[1], []).append(sample)
    lines = []
    for vid in sorted(by_vehicle):
        rows = sorted(by_vehicle[vid], key=lambda s: s[0])
        pts = " ".join("{:.2f},{:.2f}".format(margin + (x - min_x) * scale, margin + (max_y - y) * scale)
                       for _, _, x, y in rows)
        lines.append(f'<polyline fill="none" stroke="#cc2222" stroke-width="1" points="{pts}"/>')
    return lines


def _reference_spacetime(samples, max_residual_m=15.0):
    by_vehicle = {}
    for sample in samples:
        by_vehicle.setdefault(sample[1], []).append(sample)
    if not by_vehicle:
        raise ExportError("no trace samples to export")
    for rows in by_vehicle.values():
        rows.sort(key=lambda s: s[0])

    def path_length(rows):
        return sum(math.hypot(b[2] - a[2], b[3] - a[3]) for a, b in zip(rows, rows[1:]))

    ref_id = max(by_vehicle, key=lambda vid: (path_length(by_vehicle[vid]), -vid))
    poly = _polyline_of([(s[2], s[3]) for s in by_vehicle[ref_id]])
    out = []
    for vid in sorted(by_vehicle):
        arc_prev = -math.inf
        for t, _, x, y in by_vehicle[vid]:
            if len(poly) < 2:
                arc = math.hypot(x - poly[0][0], y - poly[0][1])
            else:
                arc, residual = _project_to_polyline(poly, x, y)
                if residual > max_residual_m:
                    raise ExportError(f"vehicle {vid} at t={t:g} lies {residual:.1f} m off the corridor axis; "
                                      "space-time export only supports single-corridor scenarios")
            arc = max(arc, arc_prev)
            arc_prev = arc
            out.append((t, vid, arc))
    out.sort(key=lambda row: (row[0], row[1]))
    return out


_samples = st.lists(st.tuples(st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 7.25)), st.integers(-3, 3),
                              st.floats(-50.0, 1050.0), st.floats(-20.0, 20.0)), max_size=40)


@settings(max_examples=300, deadline=None)
@given(_samples)
def test_exports_match_the_per_sample_reference(samples):
    graph = corridor_graph(1000.0)
    svg = export_svg(graph, trace_of(samples)).splitlines()
    assert [line for line in svg if "#cc2222" in line] == _reference_svg_vehicles(graph, samples)

    def outcome(export, data):
        try:
            return export(data)
        except ExportError as exc:
            return str(exc)

    assert outcome(export_spacetime, trace_of(samples)) == outcome(_reference_spacetime, samples)
