"""One benchmark job in a fresh process: ``vehsim run`` then ``vehsim map-svg``.

Usage: python3 bench/child.py CONFIG MAP OUT_DIR RESULT_JSON --trace 0|1

The job goes through the user's entry point, ``vehsim.cli.main``, in this
process.  Untraced, a wrapper on ``World.step`` runs the calibration probe
just before each step, outside the measured interval, and probe bursts
bracket set-up and post-processing; the timings are written to RESULT_JSON
as raw wall seconds and as normalised CPU seconds (see ``probe.py``).
Traced, ``tracer.install`` wraps the layer boundaries instead and only the
bursts run, so no probe time lands inside a layer's busy time; layer times
are scaled by the job's median probe.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import probe  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import tracer  # noqa: E402

# map-svg is short; its median over repeats is steadier than one run of it.
POST_REPEATS = 3


def _import_vehsim():
    import vehsim.cli

    where = Path(vehsim.cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"vehsim imported from {where}, not from {ROOT / 'src'}")
    return vehsim.cli


def _install_probes(cli, timeline: probe.Timeline) -> None:
    """Probe before every step and during spawning; mark set-up and loop ends."""
    from vehsim.kernel import EventKernel
    from vehsim.mobility import World

    load_config, step, spawn = cli.load_config, World.step, World.spawn
    run_until = EventKernel.run_until

    def marked_load_config(*args, **kwargs):
        timeline.mark("setup_start")
        return load_config(*args, **kwargs)

    def probed_step(self, dt):
        timeline.probe()
        timeline.step()
        return step(self, dt)

    def probed_spawn(self, **kwargs):
        timeline.maybe_probe()
        return spawn(self, **kwargs)

    def marked_run_until(self, t_end):
        stats = run_until(self, t_end)
        timeline.mark("run_until_end")
        return stats

    cli.load_config = marked_load_config
    World.step = probed_step
    World.spawn = probed_spawn
    EventKernel.run_until = marked_run_until


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("map")
    parser.add_argument("out")
    parser.add_argument("result")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_vehsim()
    timeline = probe.Timeline()
    layers = None
    if args.trace:
        layers = tracer.Layers()
        tracer.install(layers)
    else:
        _install_probes(cli, timeline)

    out = Path(args.out)
    trace_csv = out / "trace.csv"
    svg = out / "map.svg"
    timeline.burst()
    timeline.mark("run_start")
    rc_run = cli.main(["run", args.config, "--out", str(out)])
    timeline.mark("run_end")
    rc_svg = 0
    for k in range(1 if args.trace else POST_REPEATS):
        timeline.burst()
        timeline.mark(f"post_start{k}")
        rc_svg = rc_svg or cli.main(
            ["map-svg", args.map, "--out", str(svg), "--trace", str(trace_csv)]
        )
        timeline.mark(f"post_end{k}")
    timeline.burst()

    result = {
        "rc_run": rc_run,
        "rc_svg": rc_svg,
        "svg": str(svg),
        # the probe buffer is the benchmark's, not the program's
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                        - probe.PROBE_BUFFER_BYTES) / 2**20,
        "probe_ns": statistics.median(timeline.cpu.probe_ns()),
    }
    if rc_run == 0 and rc_svg == 0:
        result["raw"] = _timings(timeline.clock(normalised=False))
        result["norm"] = _timings(timeline.clock(normalised=True))
    if layers is not None:
        result["layers"] = _layer_metrics(layers, timeline, trace_csv)
    Path(args.result).write_text(json.dumps(result))
    return 0


def _timings(clock: probe.Clock) -> dict:
    series = clock.series
    m = {name: clock(t) for name, t in series.marks.items()}
    post = statistics.median(
        m[f"post_end{k}"] - m[f"post_start{k}"] for k in range(POST_REPEATS) if f"post_end{k}" in m
    )
    out = {"wall_s": m["run_end"] - m["run_start"] + post, "post_s": post}
    if series.steps:
        at = [clock(t) for t in series.steps] + [m["run_until_end"]]
        out["setup_s"] = at[0] - m["setup_start"]
        out["stepping_s"] = at[-1] - at[0]
        out["step_ms"] = [(b - a) * 1e3 for a, b in zip(at, at[1:])]
    return out


def _layer_metrics(layers: tracer.Layers, timeline: probe.Timeline, trace_csv: Path) -> dict:
    """Per-layer metrics of a traced job; times in reference seconds."""
    scale = probe.REFERENCE_PROBE_NS / statistics.median(timeline.cpu.probe_ns()) / 1e9
    calls, busy, values = layers.calls, layers.busy_ns, layers.values
    enter, leave = layers.loop_marks[0], layers.loop_marks[-1]
    inner = sum(leave[k] - enter[k] for k in enter)
    updates = calls["radio.update"]
    mobil = calls["mobility.mobil"]
    lane_changes = json.loads((trace_csv.parent / "summary.json").read_text())["lane_change_count"]
    return {
        "radio.update_s": busy["radio.update"] * scale,
        "radio.update_calls": updates,
        "radio.rssi_calls": calls["radio.rssi"],
        "radio.handovers_per_update": values["handovers"] / updates if updates else 0.0,
        "mobility.step_s": busy["mobility.step"] * scale,
        "mobility.position_calls": calls["mobility.position"],
        "mobility.position_s": busy["mobility.position"] * scale,
        "mobility.idm_calls": calls["mobility.idm"],
        "mobility.mobil_calls": mobil,
        "mobility.lane_changes_per_mobil": lane_changes / mobil if mobil else 0.0,
        "mobility.spawn_s": busy["mobility.spawn"] * scale,
        "routing.shortest_path_calls": calls["routing.shortest_path"],
        "routing.shortest_path_s": busy["routing.shortest_path"] * scale,
        "routing.connecting_ref_calls": calls["routing.connecting_ref"],
        "osm.parse_s": busy["osm.parse"] * scale,
        "osm.nodes": values["osm_nodes"],
        "osm.segments": values["osm_segments"],
        "scenario.load_config_s": busy["scenario.load_config"] * scale,
        "scenario.loop_residual_s": (busy["kernel.run_until"] - inner) * scale,
        "scenario.finish_s": (values["run_end_ns"] - values["run_until_end_ns"]) * scale,
        "scenario.trace_bytes": trace_csv.stat().st_size,
        "kernel.run_until_s": busy["kernel.run_until"] * scale,
        "kernel.events_fired": values["events_fired"],
        "exports.read_trace_s": busy["exports.read_trace"] * scale,
        "exports.svg_s": busy["exports.svg"] * scale,
        "exports.trace_rows": values["trace_rows"],
    }


if __name__ == "__main__":
    sys.exit(main())
