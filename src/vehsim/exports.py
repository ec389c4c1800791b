"""Post-processing exports: space-time tables and SVG map rendering.

Both exporters work from plain data (a :class:`~vehsim.scenario.Trace`, a
parsed road graph) and know nothing about the simulation loop, so they can be
applied to stored trace files long after a run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .kernel import _fmt_seconds, to_ns
from .osm import RoadGraph

if TYPE_CHECKING:
    from .scenario import Trace

MAX_RESIDUAL_M = 15.0  # m a space-time sample may lie off the corridor axis
SVG_SIZE = 1000.0  # px the longer map extent spans
SVG_MARGIN = 20.0  # px on each side of the map
_POINT_EPS = 1e-6


class ExportError(Exception):
    """The requested export is not applicable to the given data."""


def _by_vehicle(trace: Trace) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Rows grouped by ascending vehicle id, each vehicle's by time (file order
    among equal times), and each vehicle's ``(start, stop)`` span in that order."""
    order = np.lexsort((trace.t, trace.vehicle_id))
    vids = trace.vehicle_id[order]
    bounds = [0, *(np.flatnonzero(vids[1:] != vids[:-1]) + 1).tolist(), len(order)] if len(order) else []
    return order, list(zip(bounds, bounds[1:]))


def _polyline_of(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Drop consecutive duplicates so segments all have positive length."""
    out: list[tuple[float, float]] = []
    for p in points:
        if not out or math.hypot(p[0] - out[-1][0], p[1] - out[-1][1]) > _POINT_EPS:
            out.append(p)
    return out


def _project_to_polyline(
    poly: list[tuple[float, float]], x: float, y: float
) -> tuple[float, float]:
    """(arc length, perpendicular residual) of the closest point on ``poly``.

    The first and last segments extend tangentially beyond their endpoints,
    so points slightly before the start (negative arc) or past the end still
    project with a purely perpendicular residual instead of an inflated
    endpoint distance.
    """
    best_res = math.inf
    best_arc = 0.0
    cum = 0.0
    last = len(poly) - 2
    for i in range(len(poly) - 1):
        (px, py), (qx, qy) = poly[i], poly[i + 1]
        dx, dy = qx - px, qy - py
        length = math.hypot(dx, dy)
        u = ((x - px) * dx + (y - py) * dy) / (length * length)
        if i > 0 and u < 0.0:
            u = 0.0
        if i < last and u > 1.0:
            u = 1.0
        cx, cy = px + u * dx, py + u * dy
        res = math.hypot(x - cx, y - cy)
        if res < best_res - 1e-12:
            best_res = res
            best_arc = cum + u * length
        cum += length
    return best_arc, best_res


def export_spacetime(trace: Trace) -> list[tuple[float, int, float]]:
    """Collapse a single-corridor trace to (t, vehicle_id, arc length) rows.

    The corridor axis is taken from the sampled path of the vehicle that
    covered the most ground; every sample of every vehicle is then projected
    onto that axis.  A sample farther than ``MAX_RESIDUAL_M`` from the
    axis means the vehicles did not share one corridor and the export refuses
    rather than emit misleading positions.  Arc length per vehicle is made
    monotone (projection jitter near the axis ends cannot move a vehicle
    backwards).  Rows come out sorted by (t, vehicle_id).
    """
    if not len(trace):
        raise ExportError("no trace samples to export")
    try:  # times are written in nanoseconds, as trace.csv writes them
        to_ns(float(np.abs(trace.t).max()))
    except ValueError as exc:
        raise ExportError(str(exc)) from None
    order, spans = _by_vehicle(trace)
    x, y = trace.x[order], trace.y[order]
    ts, vids, xs, ys = trace.t[order].tolist(), trace.vehicle_id[order].tolist(), x.tolist(), y.tolist()

    def path_length(span: tuple[int, int]) -> float:
        a, b = span
        return sum(map(math.hypot, np.diff(x[a:b]).tolist(), np.diff(y[a:b]).tolist()))

    a, b = max(spans, key=lambda span: (path_length(span), -vids[span[0]]))
    poly = _polyline_of(list(zip(xs[a:b], ys[a:b])))

    out: list[tuple[float, int, float]] = []
    for a, b in spans:
        arc_prev = -math.inf
        for t, vid, px, py in zip(ts[a:b], vids[a:b], xs[a:b], ys[a:b]):
            if len(poly) < 2:
                arc = math.hypot(px - poly[0][0], py - poly[0][1])
            else:
                arc, residual = _project_to_polyline(poly, px, py)
                if residual > MAX_RESIDUAL_M:
                    raise ExportError(
                        f"vehicle {vid} at t={_fmt_seconds(to_ns(t))} lies {residual:.1f} m off the "
                        "corridor axis; space-time export only supports "
                        "single-corridor scenarios"
                    )
            arc = max(arc, arc_prev)
            arc_prev = arc
            out.append((t, vid, arc))
    out.sort(key=lambda row: (row[0], row[1]))
    return out


def write_spacetime_csv(rows: list[tuple[float, int, float]], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,vehicle_id,s\n")
        for t, vid, arc in rows:
            fh.write(f"{_fmt_seconds(to_ns(t))},{vid},{arc:.3f}\n")


def export_svg(graph: RoadGraph, trace: Trace | None = None) -> str:
    """Render the road network as an SVG document, optionally with vehicle paths.

    One polyline per way, drawn through all its node refs in map coordinates
    (y axis flipped to screen orientation); the longer map extent is scaled to
    ``SVG_SIZE`` pixels, with a margin of ``SVG_MARGIN`` pixels on each side.
    Trace samples, when given, appear as one colored polyline per vehicle, in
    ascending vehicle id.
    """
    if not graph.ways:
        raise ExportError("graph has no ways to draw")
    min_x, min_y, max_x, max_y = graph.bounds()
    scale = SVG_SIZE / max(max_x - min_x, max_y - min_y, 1e-9)

    def points(x: np.ndarray, y: np.ndarray) -> str:
        """The map points (x[i], y[i]) as space-separated ``"x,y"`` screen points, formatted by one template."""
        flat = np.empty(2 * len(x))  # x and y interleaved
        flat[0::2] = SVG_MARGIN + (x - min_x) * scale
        flat[1::2] = SVG_MARGIN + (max_y - y) * scale
        return ("%.2f,%.2f " * len(x) % tuple(flat.tolist()))[:-1]

    width = (max_x - min_x) * scale + 2 * SVG_MARGIN
    height = (max_y - min_y) * scale + 2 * SVG_MARGIN

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.1f}" height="{height:.1f}" '
        f'viewBox="0 0 {width:.1f} {height:.1f}">',
        f'<rect width="{width:.1f}" height="{height:.1f}" fill="white"/>',
    ]
    nodes, rows = points(graph.x, graph.y).split(" "), graph.nodes  # one screen point per node row
    for way_id in sorted(graph.ways):
        pts = " ".join(nodes[rows[node_id]] for node_id in graph.ways[way_id].node_refs)
        parts.append(
            f'<polyline fill="none" stroke="#555555" stroke-width="2" points="{pts}"/>'
        )
    if trace is not None:
        order, spans = _by_vehicle(trace)
        x, y = trace.x[order], trace.y[order]
        for a, b in spans:
            parts.append(
                f'<polyline fill="none" stroke="#cc2222" stroke-width="1" points="{points(x[a:b], y[a:b])}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
