"""vehsim: microscopic road-traffic simulation with a cellular radio observer.

The public surface re-exports the pieces most scripts need; the modules
themselves stay importable for everything else (``vehsim.kernel``,
``vehsim.osm``, ``vehsim.routing``, ``vehsim.mobility``, ``vehsim.radio``,
``vehsim.scenario``, ``vehsim.exports``).

:class:`EventKernel` runs standalone or inside a host scheduler's queue.  A
host receives each event's ``seq`` as its token and hands it back to
``deliver_from_host``; an unknown or consumed token raises
:class:`MappingError`.  ``HostQueue``, ``EventHandle`` and ``RunStats`` live
in ``vehsim.kernel``.  A :class:`Simulation` is one scenario that attaches its
step handler to either kind of kernel; :func:`run` steps one standalone.
"""

from .kernel import EventKernel, KernelError, MappingError
from .mobility import (
    IdmParams,
    MobilParams,
    PlacementError,
    RandomDirection,
    SimulationError,
    StrandedError,
    Trip,
    Vehicle,
    World,
    ballistic_update,
    equilibrium_gap,
    idm_acceleration,
    mobil_decide,
)
from .osm import (
    DanglingReferenceError,
    MapError,
    RoadGraph,
    TrafficSignal,
    build_graph,
    parse_osm,
    signal_phase,
)
from .radio import BaseStation, HandoverEvent, RadioObserver, RadioParams, detect_ping_pong, rssi
from .routing import NoRouteError, Route, shortest_path
from .scenario import ConfigError, ScenarioConfig, Simulation, Trace, dumps_config, load_config, read_trace, run
from .exports import ExportError, export_spacetime, export_svg

__version__ = "0.1.0"

__all__ = [
    "BaseStation",
    "ConfigError",
    "DanglingReferenceError",
    "EventKernel",
    "ExportError",
    "HandoverEvent",
    "IdmParams",
    "KernelError",
    "MapError",
    "MappingError",
    "MobilParams",
    "NoRouteError",
    "PlacementError",
    "RadioObserver",
    "RadioParams",
    "RandomDirection",
    "RoadGraph",
    "Route",
    "ScenarioConfig",
    "Simulation",
    "SimulationError",
    "StrandedError",
    "Trace",
    "TrafficSignal",
    "Trip",
    "Vehicle",
    "World",
    "ballistic_update",
    "build_graph",
    "detect_ping_pong",
    "dumps_config",
    "equilibrium_gap",
    "export_spacetime",
    "export_svg",
    "idm_acceleration",
    "load_config",
    "mobil_decide",
    "parse_osm",
    "read_trace",
    "rssi",
    "run",
    "shortest_path",
    "signal_phase",
    "__version__",
]
