"""Command-line entry point.

Subcommands: ``run`` executes a scenario config, ``map-svg`` renders a road
network, ``spacetime`` collapses a stored trace to corridor coordinates.
Set ``VEHSIM_LOG`` (DEBUG/INFO/WARNING/ERROR) for log verbosity.  Exit
codes: 0 success, 1 configuration/input problems, 2 runtime failures.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .exports import ExportError, export_spacetime, export_svg, write_spacetime_csv
from .kernel import KernelError
from .mobility import PlacementError, SimulationError
from .osm import MapError, parse_osm
from .scenario import ConfigError, dumps_config, load_config, read_trace, run

logger = logging.getLogger(__name__)


def _configure_logging() -> None:
    name = os.environ.get("VEHSIM_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vehsim", description="microscopic vehicular mobility simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="path to the scenario .ini file")
    p_run.add_argument("--out", required=True, help="output directory for run artifacts")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument(
        "--duration", type=float, default=None, help="override the simulated duration (s)"
    )

    p_svg = sub.add_parser("map-svg", help="render a map file to SVG")
    p_svg.add_argument("map", help="path to the OSM XML file")
    p_svg.add_argument("--out", required=True, help="output SVG path")
    p_svg.add_argument("--trace", default=None, help="optional trace.csv overlay")

    p_st = sub.add_parser("spacetime", help="project a trace onto corridor coordinates")
    p_st.add_argument("trace", help="path to a trace.csv from a run")
    p_st.add_argument("--out", required=True, help="output CSV path")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    text = Path(args.config).read_text()
    file_config = load_config(text, base_dir=Path(args.config).parent)
    echo = dumps_config(file_config)
    config = file_config
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.duration is not None:
        config = replace(config, duration_s=args.duration)
    artifacts = run(config, args.out, echo_text=echo)
    print(f"wrote {artifacts.trace_path}")
    print(f"wrote {artifacts.events_path}")
    print(f"wrote {artifacts.summary_path}")
    return 0


def _cmd_map_svg(args: argparse.Namespace) -> int:
    graph = parse_osm(Path(args.map).read_text())
    overlay = read_trace(args.trace) if args.trace else None
    Path(args.out).write_text(export_svg(graph, overlay))
    print(f"wrote {args.out}")
    return 0


def _cmd_spacetime(args: argparse.Namespace) -> int:
    rows = export_spacetime(read_trace(args.trace))
    write_spacetime_csv(rows, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "map-svg":
            return _cmd_map_svg(args)
        return _cmd_spacetime(args)
    except (ConfigError, MapError, PlacementError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, KernelError, ExportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last-resort guard
        logger.exception("unhandled failure")
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
