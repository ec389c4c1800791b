"""Per-layer counters and busy times, recorded from outside the program.

``install`` replaces public functions and methods of vehsim with wrappers
that count calls and, where the metric needs it, sum CPU time.  Nothing
under ``src/`` is edited: the wrappers are set on the module or class
attribute that the calling code looks up at call time.  Only the traced run
installs them; the gated end-to-end run never does.
"""

from __future__ import annotations

import functools
import time

_now = time.process_time_ns  # the clock normalised timings use


class Layers:
    """Call counts and busy nanoseconds per wrapped function."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.busy_ns: dict[str, int] = {}
        self.values: dict[str, float] = {}
        # busy time of step/update/position at run_until entry and exit
        self.loop_marks: list[dict[str, int]] = []

    def counted(self, name: str, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name: str, fn, after=None):
        calls, busy = self.calls, self.busy_ns
        calls[name] = 0
        busy[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy[name] += _now() - start
                calls[name] += 1
            if after is not None:
                after(result)
            return result

        return wrapper


def install(layers: Layers) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    import vehsim.cli as cli
    import vehsim.mobility as mobility
    import vehsim.radio as radio
    import vehsim.routing as routing
    import vehsim.scenario as scenario
    from vehsim.kernel import EventKernel
    from vehsim.mobility import World
    from vehsim.radio import RadioObserver

    values = layers.values
    values.update(handovers=0, osm_nodes=0, osm_segments=0, trace_rows=0, events_fired=0)

    def on_update(event) -> None:
        if event is not None:
            values["handovers"] += 1

    def on_graph(graph) -> None:
        if not values["osm_nodes"]:
            values["osm_nodes"] = len(graph.nodes)
            values["osm_segments"] = len(graph.segments)

    def on_trace(samples) -> None:
        values["trace_rows"] = len(samples)

    def loop_mark(_=None) -> None:
        busy = layers.busy_ns
        layers.loop_marks.append(
            {k: busy[k] for k in ("mobility.step", "radio.update", "mobility.position")}
        )

    def on_stats(stats) -> None:
        loop_mark()
        values["events_fired"] = stats.events_fired
        values["run_until_end_ns"] = _now()

    def on_run(_artifacts) -> None:
        values["run_end_ns"] = _now()

    radio.rssi = layers.counted("radio.rssi", radio.rssi)
    RadioObserver.update = layers.timed("radio.update", RadioObserver.update, on_update)
    World.step = layers.timed("mobility.step", World.step)
    World.position = layers.timed("mobility.position", World.position)
    World.spawn = layers.timed("mobility.spawn", World.spawn)
    mobility.idm_acceleration = layers.counted("mobility.idm", mobility.idm_acceleration)
    mobility.mobil_decide = layers.counted("mobility.mobil", mobility.mobil_decide)
    routing.shortest_path = layers.timed("routing.shortest_path", routing.shortest_path)
    routing.connecting_ref = layers.counted("routing.connecting_ref", routing.connecting_ref)
    parse = layers.timed("osm.parse", scenario.parse_osm, on_graph)
    scenario.parse_osm = parse
    cli.parse_osm = parse
    cli.load_config = layers.timed("scenario.load_config", cli.load_config)
    cli.run = layers.timed("scenario.run", cli.run, on_run)
    original_run_until = EventKernel.run_until

    def run_until(self, t_end):
        loop_mark()
        return original_run_until(self, t_end)

    EventKernel.run_until = layers.timed("kernel.run_until", run_until, on_stats)
    cli.read_trace = layers.timed("exports.read_trace", cli.read_trace, on_trace)
    cli.export_svg = layers.timed("exports.svg", cli.export_svg)
