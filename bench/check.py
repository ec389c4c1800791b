"""Correctness gate and artifact digests for one benchmark job."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import Spec

TRACE_HEADER = "t,vehicle_id,x,y,v,acc,serving_cell,rssi"
EVENTS_HEADER = "t,type,vehicle_id,from_cell,to_cell,x,y"
ARTIFACTS = ("trace.csv", "events.csv", "summary.json", "config.ini")


def problems(spec: Spec, out: Path, svg: Path, rc_run: int, rc_svg: int) -> list[str]:
    """Every way the job's outputs miss what ``spec`` requires; empty when correct."""
    found = []
    if rc_run != 0 or rc_svg != 0:
        return [f"exit codes run={rc_run} map-svg={rc_svg}"]
    missing = [name for name in ARTIFACTS if not (out / name).is_file()]
    if missing or not svg.is_file():
        return [f"missing artifacts {missing + ([] if svg.is_file() else [svg.name])}"]

    try:
        summary = json.loads((out / "summary.json").read_text())
    except json.JSONDecodeError as exc:
        return [f"summary.json does not parse: {exc}"]
    expected = {"aborted": False, "events_fired": spec.steps, "vehicles": spec.vehicles}
    for key, value in expected.items():
        if summary.get(key) != value:
            found.append(f"summary {key} = {summary.get(key)!r}, expected {value!r}")

    with open(out / "trace.csv") as fh:
        header = fh.readline().rstrip("\n")
        rows = sum(1 for _ in fh)
    if header != TRACE_HEADER:
        found.append(f"trace.csv header {header!r}")
    if rows != spec.vehicles * (spec.samples + 1):
        found.append(f"trace.csv has {rows} rows, expected {spec.vehicles} x {spec.samples + 1}")

    with open(out / "events.csv") as fh:
        header = fh.readline().rstrip("\n")
        times = []
        for lineno, raw in enumerate(fh, start=2):
            fields = raw.rstrip("\n").split(",")
            try:
                if len(fields) != 7:
                    raise ValueError(f"{len(fields)} fields")
                times.append(float(fields[0]))
                int(fields[2])
                float(fields[5])
                float(fields[6])
            except ValueError as exc:
                found.append(f"events.csv line {lineno} does not parse: {exc}")
                break
    if header != EVENTS_HEADER:
        found.append(f"events.csv header {header!r}")
    if times != sorted(times):
        found.append("events.csv is not sorted by time")

    polylines = svg.read_text().count("<polyline ")
    if polylines != spec.drivable_ways + spec.vehicles:
        found.append(
            f"map.svg has {polylines} polylines, expected {spec.drivable_ways} ways + "
            f"{spec.vehicles} vehicles"
        )
    return found


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of each deterministic artifact."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}
