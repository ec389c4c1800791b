"""Scenario configuration and run orchestration.

Configs are flat ``key = value`` text with ``#`` comments and dotted paths
for nested settings (``vehicle.0.idm.T = 1.2``).  ``load_config`` validates
text only; placements are resolved against the parsed map inside ``run``,
which drives the world on the event kernel and writes four artifacts into
the output directory:

* ``trace.csv``   — one sampled row per vehicle per sampling interval,
* ``events.csv``  — handovers, ping-pongs, red-light violations,
* ``summary.json``— aggregate counters for quick inspection,
* ``config.ini``  — canonical echo of the configuration that was loaded.

A simulation error mid-run still leaves the partial trace and events on
disk before the error is re-raised.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .kernel import NS_PER_SECOND, EventKernel, to_ns
from .mobility import (
    VEHICLE_LENGTH,
    IdmParams,
    MobilParams,
    PlacementError,
    RandomDirection,
    Trip,
    World,
)
from .osm import TrafficSignal, parse_osm
from .radio import (
    DEFAULT_HYSTERESIS_DB,
    DEFAULT_PATH_LOSS_EXPONENT,
    DEFAULT_PINGPONG_WINDOW_S,
    DEFAULT_TIME_TO_TRIGGER_S,
    BaseStation,
    RadioObserver,
    detect_ping_pong,
)
from .rng import substream
from .routing import NoRouteError

logger = logging.getLogger(__name__)

TRACE_HEADER = "t,vehicle_id,x,y,v,acc,serving_cell,rssi"
EVENTS_HEADER = "t,type,vehicle_id,from_cell,to_cell,x,y"
_PLACEMENT_ATTEMPTS = 200
_PLACEMENT_MARGIN_M = VEHICLE_LENGTH + 2.0


class ConfigError(Exception):
    """Invalid scenario configuration; carries the offending key and line."""

    def __init__(self, message: str, *, key: str | None = None, line: int | None = None) -> None:
        prefix = ""
        if key is not None and line is not None:
            prefix = f"{key} (line {line}): "
        elif key is not None:
            prefix = f"{key}: "
        elif line is not None:
            prefix = f"line {line}: "
        super().__init__(prefix + message)
        self.key = key
        self.line = line


# -- config model --------------------------------------------------------------


@dataclass(frozen=True)
class VehicleSpec:
    index: int
    way: int
    prefix: str = field(default="", compare=False)  # error-message key prefix
    strategic: str | None = None  # "Trip" | "RandomDirection" | None
    trip: tuple[int, ...] = ()
    segment: int = 0
    lane: int = 0
    offset: float = 0.0
    forward: bool = True
    speed: float = 0.0
    parked: bool = False
    length: float = VEHICLE_LENGTH
    speed_factor: float | None = None
    idm: IdmParams = field(default_factory=IdmParams)
    mobil: MobilParams = field(default_factory=MobilParams)


@dataclass(frozen=True)
class StationSpec:
    id: str
    x: float
    y: float
    tx_power_dbm: float = 46.0
    carrier_mhz: float = 1800.0


@dataclass(frozen=True)
class SignalSpec:
    node_id: int
    green_s: float = 30.0
    yellow_s: float = 5.0
    red_s: float = 25.0
    offset_s: float = 0.0


@dataclass(frozen=True)
class RadioParams:
    hysteresis_db: float = DEFAULT_HYSTERESIS_DB
    time_to_trigger_s: float = DEFAULT_TIME_TO_TRIGGER_S
    pingpong_window_s: float = DEFAULT_PINGPONG_WINDOW_S
    path_loss_exponent: float = DEFAULT_PATH_LOSS_EXPONENT
    shadowing_sigma_db: float = 0.0


@dataclass(frozen=True)
class InterferenceSpec:
    count: int = 0
    strategic: str = "RandomDirection"


@dataclass(frozen=True)
class ScenarioConfig:
    map_path: str
    duration_s: float
    seed: int = 0
    dt_s: float = 0.1
    sampling_s: float = 1.0
    vehicles: tuple[VehicleSpec, ...] = ()
    interference: InterferenceSpec = field(default_factory=InterferenceSpec)
    stations: tuple[StationSpec, ...] = ()
    signals: tuple[SignalSpec, ...] = ()
    radio: RadioParams = field(default_factory=RadioParams)
    key_lines: dict[str, int] = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class TraceSample:
    t: float
    vehicle_id: int
    x: float
    y: float
    v: float
    acc: float
    serving_cell: str | None = None
    rssi: float | None = None


@dataclass(frozen=True)
class RunArtifacts:
    out_dir: Path
    trace_path: Path
    events_path: Path
    summary_path: Path
    config_path: Path
    summary: dict


# -- parsing -------------------------------------------------------------------

_SCALAR_KEYS = ("map", "duration", "seed", "dt", "sampling")
_VEHICLE_FIELDS = frozenset(
    {
        "strategicModel",
        "strategicModel.trip",
        "trip",
        "way",
        "segment",
        "lane",
        "offset",
        "forward",
        "speed",
        "parked",
        "length",
        "speed_factor",
        "idm.v0",
        "idm.T",
        "idm.a_max",
        "idm.b_comf",
        "idm.delta",
        "idm.s0",
        "mobil.p",
        "mobil.delta_a_th",
        "mobil.b_safe",
    }
)
_STATION_FIELDS = frozenset({"id", "x", "y", "tx_power", "carrier"})
_SIGNAL_FIELDS = frozenset({"green", "yellow", "red", "offset"})
_RADIO_FIELDS = frozenset(
    {"hysteresis", "ttt", "pingpong_window", "path_loss_exponent", "shadowing_sigma"}
)
_VEHICLE_RE = re.compile(r"^vehicle\.(\d+)\.(.+)$")
_STATION_RE = re.compile(r"^station\.(\d+)\.(.+)$")
_SIGNAL_RE = re.compile(r"^signal\.(\d+)\.(.+)$")


def _to_int(value: str, key: str, line: int) -> int:
    try:
        return int(value, 10)
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}", key=key, line=line) from None


def _to_float(value: str, key: str, line: int) -> float:
    try:
        result = float(value)
    except ValueError:
        raise ConfigError(f"expected a number, got {value!r}", key=key, line=line) from None
    if not math.isfinite(result):
        raise ConfigError(f"expected a finite number, got {value!r}", key=key, line=line)
    return result


def _to_bool(value: str, key: str, line: int) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected true/false, got {value!r}", key=key, line=line)


def _to_id_list(value: str, key: str, line: int) -> tuple[int, ...]:
    parts = [p.strip() for p in value.split(",")]
    if not all(parts):
        raise ConfigError(f"expected comma-separated ids, got {value!r}", key=key, line=line)
    return tuple(_to_int(p, key, line) for p in parts)


def _positive(value: float, key: str, line: int) -> float:
    if value <= 0:
        raise ConfigError(f"must be > 0, got {value!r}", key=key, line=line)
    return value


def _non_negative(value: float, key: str, line: int) -> float:
    if value < 0:
        raise ConfigError(f"must be >= 0, got {value!r}", key=key, line=line)
    return value


class _Block:
    """Raw key/value entries of one dotted-path block, with line numbers."""

    def __init__(self) -> None:
        self.entries: dict[str, tuple[str, int]] = {}
        self.first_line: int | None = None

    def put(self, field_name: str, value: str, key: str, line: int) -> None:
        if field_name in self.entries:
            raise ConfigError("duplicate key", key=key, line=line)
        if self.first_line is None:
            self.first_line = line
        self.entries[field_name] = (value, line)


def _build_vehicle(index: int, prefix: str, block: _Block) -> VehicleSpec:
    entries = dict(block.entries)
    if "strategicModel.trip" in entries:
        if "trip" in entries:
            raise ConfigError(
                "trip given twice (trip and strategicModel.trip)",
                key=f"{prefix}strategicModel.trip",
                line=entries["strategicModel.trip"][1],
            )
        entries["trip"] = entries.pop("strategicModel.trip")

    def take(field_name: str) -> tuple[str, int] | None:
        return entries.pop(field_name, None)

    def key_of(field_name: str) -> str:
        return f"{prefix}{field_name}"

    strategic = None
    got = take("strategicModel")
    if got is not None:
        value, line = got
        if value not in ("Trip", "RandomDirection"):
            raise ConfigError(
                f"unknown strategic model {value!r} (expected Trip or RandomDirection)",
                key=key_of("strategicModel"),
                line=line,
            )
        strategic = value

    trip: tuple[int, ...] = ()
    got = take("trip")
    if got is not None:
        value, line = got
        if strategic != "Trip":
            raise ConfigError(
                "trip list is only valid with strategicModel = Trip",
                key=key_of("trip"),
                line=line,
            )
        trip = _to_id_list(value, key_of("trip"), line)
    elif strategic == "Trip":
        raise ConfigError(
            "strategicModel = Trip requires a trip destination list",
            key=key_of("trip"),
            line=block.first_line,
        )

    got = take("way")
    if got is None:
        raise ConfigError("required key missing", key=key_of("way"), line=block.first_line)
    way = _to_int(got[0], key_of("way"), got[1])

    def int_field(field_name: str, default: int, minimum: int = 0) -> int:
        got = take(field_name)
        if got is None:
            return default
        result = _to_int(got[0], key_of(field_name), got[1])
        if result < minimum:
            raise ConfigError(
                f"must be >= {minimum}, got {result}", key=key_of(field_name), line=got[1]
            )
        return result

    def float_field(field_name: str, default: float, *, positive: bool = False) -> float:
        got = take(field_name)
        if got is None:
            return default
        result = _to_float(got[0], key_of(field_name), got[1])
        if positive:
            return _positive(result, key_of(field_name), got[1])
        return _non_negative(result, key_of(field_name), got[1])

    def bool_field(field_name: str, default: bool) -> bool:
        got = take(field_name)
        if got is None:
            return default
        return _to_bool(got[0], key_of(field_name), got[1])

    segment = int_field("segment", 0)
    lane = int_field("lane", 0)
    offset = float_field("offset", 0.0)
    forward = bool_field("forward", True)
    speed = float_field("speed", 0.0)
    parked = bool_field("parked", False)
    length = float_field("length", VEHICLE_LENGTH, positive=True)
    speed_factor: float | None = None
    got = take("speed_factor")
    if got is not None:
        speed_factor = _positive(
            _to_float(got[0], key_of("speed_factor"), got[1]), key_of("speed_factor"), got[1]
        )

    idm_kwargs = {}
    for short in ("v0", "T", "a_max", "b_comf", "delta", "s0"):
        got = take(f"idm.{short}")
        if got is not None:
            idm_kwargs[short] = _positive(
                _to_float(got[0], key_of(f"idm.{short}"), got[1]),
                key_of(f"idm.{short}"),
                got[1],
            )
    mobil_kwargs = {}
    got = take("mobil.p")
    if got is not None:
        mobil_kwargs["p"] = _non_negative(
            _to_float(got[0], key_of("mobil.p"), got[1]), key_of("mobil.p"), got[1]
        )
    got = take("mobil.delta_a_th")
    if got is not None:
        mobil_kwargs["delta_a_th"] = _non_negative(
            _to_float(got[0], key_of("mobil.delta_a_th"), got[1]),
            key_of("mobil.delta_a_th"),
            got[1],
        )
    got = take("mobil.b_safe")
    if got is not None:
        mobil_kwargs["b_safe"] = _positive(
            _to_float(got[0], key_of("mobil.b_safe"), got[1]), key_of("mobil.b_safe"), got[1]
        )

    return VehicleSpec(
        index=index,
        way=way,
        prefix=prefix,
        strategic=strategic,
        trip=trip,
        segment=segment,
        lane=lane,
        offset=offset,
        forward=forward,
        speed=speed,
        parked=parked,
        length=length,
        speed_factor=speed_factor,
        idm=IdmParams(**idm_kwargs),
        mobil=MobilParams(**mobil_kwargs),
    )


def load_config(text: str, *, base_dir: str | Path | None = None) -> ScenarioConfig:
    """Parse and validate scenario text; raises :class:`ConfigError` on any problem.

    Top-level vehicle keys (``way = 42``, the single-vehicle idiom) describe
    vehicle 0 and cannot be mixed with explicit ``vehicle.0.*`` keys.  A
    relative ``map`` path is resolved against ``base_dir`` when given.
    Placements are checked against the map later, in :func:`run`.
    """
    scalars: dict[str, tuple[str, int]] = {}
    vehicle_blocks: dict[int, _Block] = {}
    shorthand = _Block()
    station_blocks: dict[int, _Block] = {}
    signal_blocks: dict[int, _Block] = {}
    interference_block = _Block()
    radio_block = _Block()
    key_lines: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", line=lineno)
        if not value:
            raise ConfigError("empty value", key=key, line=lineno)
        if key in key_lines:
            raise ConfigError("duplicate key", key=key, line=lineno)
        key_lines[key] = lineno

        if key in _SCALAR_KEYS:
            scalars[key] = (value, lineno)
            continue
        if key in _VEHICLE_FIELDS:
            shorthand.put(key, value, key, lineno)
            continue
        m = _VEHICLE_RE.match(key)
        if m:
            field_name = m.group(2)
            if field_name not in _VEHICLE_FIELDS:
                raise ConfigError("unknown key", key=key, line=lineno)
            vehicle_blocks.setdefault(int(m.group(1)), _Block()).put(field_name, value, key, lineno)
            continue
        m = _STATION_RE.match(key)
        if m:
            field_name = m.group(2)
            if field_name not in _STATION_FIELDS:
                raise ConfigError("unknown key", key=key, line=lineno)
            station_blocks.setdefault(int(m.group(1)), _Block()).put(field_name, value, key, lineno)
            continue
        m = _SIGNAL_RE.match(key)
        if m:
            field_name = m.group(2)
            if field_name not in _SIGNAL_FIELDS:
                raise ConfigError("unknown key", key=key, line=lineno)
            signal_blocks.setdefault(int(m.group(1)), _Block()).put(field_name, value, key, lineno)
            continue
        if key in ("interference.count", "interference.strategicModel"):
            interference_block.put(key.split(".", 1)[1], value, key, lineno)
            continue
        if key.startswith("radio.") and key.split(".", 1)[1] in _RADIO_FIELDS:
            radio_block.put(key.split(".", 1)[1], value, key, lineno)
            continue
        raise ConfigError("unknown key", key=key, line=lineno)

    # scalars
    if "map" not in scalars:
        raise ConfigError("required key missing", key="map")
    map_path = scalars["map"][0]
    if base_dir is not None and not Path(map_path).is_absolute():
        map_path = str(Path(base_dir) / map_path)
    if "duration" not in scalars:
        raise ConfigError("required key missing", key="duration")

    def scalar_float(name: str, default: float, *, positive: bool) -> float:
        if name not in scalars:
            return default
        value, line = scalars[name]
        result = _to_float(value, name, line)
        return _positive(result, name, line) if positive else result

    duration = scalar_float("duration", 0.0, positive=True)
    seed = _to_int(scalars["seed"][0], "seed", scalars["seed"][1]) if "seed" in scalars else 0
    dt = scalar_float("dt", 0.1, positive=True)
    sampling = scalar_float("sampling", 1.0, positive=True)
    dt_ns = to_ns(dt)
    if dt_ns <= 0:
        raise ConfigError("dt is below time resolution", key="dt", line=scalars["dt"][1])
    for name, seconds in (("duration", duration), ("sampling", sampling)):
        if to_ns(seconds) % dt_ns != 0:
            raise ConfigError(
                f"must be a positive multiple of dt = {dt!r}",
                key=name,
                line=scalars[name][1] if name in scalars else None,
            )

    # vehicles
    if shorthand.entries and 0 in vehicle_blocks:
        raise ConfigError(
            "top-level vehicle keys cannot be mixed with vehicle.0.* keys",
            key="vehicle.0",
            line=vehicle_blocks[0].first_line,
        )
    if shorthand.entries:
        vehicle_blocks[0] = shorthand
    vehicles = []
    for position, index in enumerate(sorted(vehicle_blocks)):
        if index != position:
            raise ConfigError(
                "vehicle indices must be contiguous from 0",
                key=f"vehicle.{index}",
                line=vehicle_blocks[index].first_line,
            )
        prefix = "" if vehicle_blocks[index] is shorthand else f"vehicle.{index}."
        vehicles.append(_build_vehicle(index, prefix, vehicle_blocks[index]))

    # interference
    interference = InterferenceSpec()
    got = interference_block.entries.get("count")
    if got is not None:
        count = _to_int(got[0], "interference.count", got[1])
        if count < 0:
            raise ConfigError("must be >= 0", key="interference.count", line=got[1])
        interference = replace(interference, count=count)
    got = interference_block.entries.get("strategicModel")
    if got is not None and got[0] != "RandomDirection":
        raise ConfigError(
            f"unsupported interference model {got[0]!r} (only RandomDirection)",
            key="interference.strategicModel",
            line=got[1],
        )

    # stations
    stations = []
    seen_ids: dict[str, int] = {}
    for index in sorted(station_blocks):
        block = station_blocks[index]
        entries = block.entries
        for required in ("x", "y"):
            if required not in entries:
                raise ConfigError(
                    "required key missing", key=f"station.{index}.{required}", line=block.first_line
                )
        sid = entries["id"][0] if "id" in entries else f"bs{index}"
        if sid in seen_ids:
            raise ConfigError(
                f"duplicate station id {sid!r}",
                key=f"station.{index}.id",
                line=entries["id"][1] if "id" in entries else block.first_line,
            )
        seen_ids[sid] = index
        x = _to_float(entries["x"][0], f"station.{index}.x", entries["x"][1])
        y = _to_float(entries["y"][0], f"station.{index}.y", entries["y"][1])
        tx = 46.0
        if "tx_power" in entries:
            tx = _positive(
                _to_float(entries["tx_power"][0], f"station.{index}.tx_power", entries["tx_power"][1]),
                f"station.{index}.tx_power",
                entries["tx_power"][1],
            )
        carrier = 1800.0
        if "carrier" in entries:
            carrier = _positive(
                _to_float(entries["carrier"][0], f"station.{index}.carrier", entries["carrier"][1]),
                f"station.{index}.carrier",
                entries["carrier"][1],
            )
        stations.append(StationSpec(id=sid, x=x, y=y, tx_power_dbm=tx, carrier_mhz=carrier))

    # signal overrides
    signals = []
    for node_id in sorted(signal_blocks):
        block = signal_blocks[node_id]
        values = {"green": 30.0, "yellow": 5.0, "red": 25.0, "offset": 0.0}
        for field_name, (value, line) in block.entries.items():
            key = f"signal.{node_id}.{field_name}"
            result = _to_float(value, key, line)
            if field_name == "offset":
                values[field_name] = _non_negative(result, key, line)
            else:
                values[field_name] = _positive(result, key, line)
        signals.append(
            SignalSpec(
                node_id=node_id,
                green_s=values["green"],
                yellow_s=values["yellow"],
                red_s=values["red"],
                offset_s=values["offset"],
            )
        )

    # radio parameters
    radio = RadioParams()
    updates = {}
    for field_name, (value, line) in radio_block.entries.items():
        key = f"radio.{field_name}"
        result = _to_float(value, key, line)
        if field_name == "pingpong_window":
            updates["pingpong_window_s"] = _positive(result, key, line)
        elif field_name == "path_loss_exponent":
            updates["path_loss_exponent"] = _positive(result, key, line)
        elif field_name == "hysteresis":
            updates["hysteresis_db"] = _non_negative(result, key, line)
        elif field_name == "ttt":
            updates["time_to_trigger_s"] = _non_negative(result, key, line)
        elif field_name == "shadowing_sigma":
            updates["shadowing_sigma_db"] = _non_negative(result, key, line)
    radio = replace(radio, **updates)

    return ScenarioConfig(
        map_path=map_path,
        duration_s=duration,
        seed=seed,
        dt_s=dt,
        sampling_s=sampling,
        vehicles=tuple(vehicles),
        interference=interference,
        stations=tuple(stations),
        signals=tuple(signals),
        radio=radio,
        key_lines=key_lines,
    )


def dumps_config(config: ScenarioConfig) -> str:
    """Canonical text form; ``load_config(dumps_config(c))`` is equivalent to ``c``."""

    def fmt(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    lines = [
        f"map = {config.map_path}",
        f"duration = {fmt(config.duration_s)}",
        f"seed = {config.seed}",
        f"dt = {fmt(config.dt_s)}",
        f"sampling = {fmt(config.sampling_s)}",
    ]
    for spec in config.vehicles:
        prefix = f"vehicle.{spec.index}."
        lines.append("")
        if spec.strategic is not None:
            lines.append(f"{prefix}strategicModel = {spec.strategic}")
        if spec.trip:
            lines.append(f"{prefix}trip = {','.join(str(n) for n in spec.trip)}")
        lines.append(f"{prefix}way = {spec.way}")
        lines.append(f"{prefix}segment = {spec.segment}")
        lines.append(f"{prefix}lane = {spec.lane}")
        lines.append(f"{prefix}offset = {fmt(spec.offset)}")
        lines.append(f"{prefix}forward = {fmt(spec.forward)}")
        lines.append(f"{prefix}speed = {fmt(spec.speed)}")
        lines.append(f"{prefix}parked = {fmt(spec.parked)}")
        lines.append(f"{prefix}length = {fmt(spec.length)}")
        if spec.speed_factor is not None:
            lines.append(f"{prefix}speed_factor = {fmt(spec.speed_factor)}")
        idm = spec.idm
        lines.append(f"{prefix}idm.v0 = {fmt(idm.v0)}")
        lines.append(f"{prefix}idm.T = {fmt(idm.T)}")
        lines.append(f"{prefix}idm.a_max = {fmt(idm.a_max)}")
        lines.append(f"{prefix}idm.b_comf = {fmt(idm.b_comf)}")
        lines.append(f"{prefix}idm.delta = {fmt(idm.delta)}")
        lines.append(f"{prefix}idm.s0 = {fmt(idm.s0)}")
        mobil = spec.mobil
        lines.append(f"{prefix}mobil.p = {fmt(mobil.p)}")
        lines.append(f"{prefix}mobil.delta_a_th = {fmt(mobil.delta_a_th)}")
        lines.append(f"{prefix}mobil.b_safe = {fmt(mobil.b_safe)}")
    if config.interference.count:
        lines.append("")
        lines.append(f"interference.count = {config.interference.count}")
        lines.append(f"interference.strategicModel = {config.interference.strategic}")
    for position, station in enumerate(config.stations):
        lines.append("")
        lines.append(f"station.{position}.id = {station.id}")
        lines.append(f"station.{position}.x = {fmt(station.x)}")
        lines.append(f"station.{position}.y = {fmt(station.y)}")
        lines.append(f"station.{position}.tx_power = {fmt(station.tx_power_dbm)}")
        lines.append(f"station.{position}.carrier = {fmt(station.carrier_mhz)}")
    for signal in config.signals:
        lines.append("")
        lines.append(f"signal.{signal.node_id}.green = {fmt(signal.green_s)}")
        lines.append(f"signal.{signal.node_id}.yellow = {fmt(signal.yellow_s)}")
        lines.append(f"signal.{signal.node_id}.red = {fmt(signal.red_s)}")
        lines.append(f"signal.{signal.node_id}.offset = {fmt(signal.offset_s)}")
    lines.append("")
    radio = config.radio
    lines.append(f"radio.hysteresis = {fmt(radio.hysteresis_db)}")
    lines.append(f"radio.ttt = {fmt(radio.time_to_trigger_s)}")
    lines.append(f"radio.pingpong_window = {fmt(radio.pingpong_window_s)}")
    lines.append(f"radio.path_loss_exponent = {fmt(radio.path_loss_exponent)}")
    lines.append(f"radio.shadowing_sigma = {fmt(radio.shadowing_sigma_db)}")
    return "\n".join(lines) + "\n"


def read_trace(path: str | Path) -> list[TraceSample]:
    """Load a trace.csv back into samples (blank optionals become None)."""
    samples = []
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header {header!r}")
        for raw in fh:
            row = raw.rstrip("\n").split(",")
            samples.append(
                TraceSample(
                    t=float(row[0]),
                    vehicle_id=int(row[1]),
                    x=float(row[2]),
                    y=float(row[3]),
                    v=float(row[4]),
                    acc=float(row[5]),
                    serving_cell=row[6] or None,
                    rssi=float(row[7]) if row[7] else None,
                )
            )
    return samples


# -- execution -----------------------------------------------------------------


def _fmt_seconds(t_ns: int) -> str:
    text = f"{t_ns / NS_PER_SECOND:.9f}".rstrip("0").rstrip(".")
    return text or "0"


def _spawn_configured(world: World, config: ScenarioConfig) -> None:
    for spec in config.vehicles:
        if spec.strategic == "Trip":
            strategic = Trip(spec.trip)
        elif spec.strategic == "RandomDirection":
            strategic = RandomDirection()
        else:
            strategic = None
        try:
            world.spawn(
                way=spec.way,
                segment=spec.segment,
                lane=spec.lane,
                offset=spec.offset,
                forward=spec.forward,
                strategic=strategic,
                speed=spec.speed,
                idm=spec.idm,
                mobil=spec.mobil,
                length=spec.length,
                parked=spec.parked,
                speed_factor=spec.speed_factor,
            )
        except PlacementError as exc:
            key = f"{spec.prefix}{exc.key}"
            raise ConfigError(str(exc), key=key, line=config.key_lines.get(key)) from exc
        except (NoRouteError, ValueError) as exc:
            key = f"{spec.prefix}trip"
            raise ConfigError(str(exc), key=key, line=config.key_lines.get(key)) from exc


def _spawn_interference(world: World, config: ScenarioConfig) -> None:
    graph = world.graph
    way_ids = sorted(graph.ways)

    def directions_of(way_id: int, segment: int) -> list[bool]:
        found = []
        for forward in (True, False):
            try:
                graph.ref(way_id, segment, forward)
            except KeyError:
                continue
            found.append(forward)
        return found

    for _ in range(config.interference.count):
        vid = world.next_vehicle_id
        stream = substream(config.seed, "vehicle", vid)
        for _attempt in range(_PLACEMENT_ATTEMPTS):
            way_id = way_ids[int(stream.integers(len(way_ids)))]
            n_segments = len(graph.ways[way_id].node_refs) - 1
            segment = int(stream.integers(n_segments))
            directions = directions_of(way_id, segment)
            forward = directions[int(stream.integers(len(directions)))]
            ref = graph.ref(way_id, segment, forward)
            lane = int(stream.integers(ref.lanes))
            offset = float(stream.uniform(0.0, ref.length))
            if world.lane_is_clear(ref, lane, offset, _PLACEMENT_MARGIN_M):
                world.spawn(
                    way=way_id,
                    segment=segment,
                    lane=lane,
                    offset=offset,
                    forward=forward,
                    strategic=RandomDirection(),
                    rng=stream,
                )
                break
        else:
            raise ConfigError(
                f"no free placement found for interference vehicle {vid} "
                f"after {_PLACEMENT_ATTEMPTS} attempts",
                key="interference.count",
                line=config.key_lines.get("interference.count"),
            )


def run(config: ScenarioConfig, out_dir: str | Path, *, echo_text: str | None = None) -> RunArtifacts:
    """Execute a scenario and write trace/events/summary/config artifacts.

    Raises on invalid placements (:class:`ConfigError`) before any stepping;
    errors during stepping leave partial trace and events files behind and
    are re-raised.  ``echo_text``, when given, is written verbatim as the
    config echo (the CLI passes the pre-override file config here so that
    seed sweeps share one echo).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.ini"
    config_path.write_text(echo_text if echo_text is not None else dumps_config(config))

    map_text = Path(config.map_path).read_text()
    graph = parse_osm(map_text)
    logger.info("parsed map %s: %d nodes, %d ways", config.map_path, len(graph.nodes), len(graph.ways))

    world = World(graph, seed=config.seed)
    for spec in config.signals:
        if spec.node_id not in graph.nodes:
            raise ConfigError(
                f"unknown node {spec.node_id}",
                key=f"signal.{spec.node_id}",
                line=min(
                    (line for k, line in config.key_lines.items() if k.startswith(f"signal.{spec.node_id}.")),
                    default=None,
                ),
            )
        world.signals[spec.node_id] = TrafficSignal(
            spec.node_id, spec.green_s, spec.yellow_s, spec.red_s, spec.offset_s
        )
    _spawn_configured(world, config)
    _spawn_interference(world, config)
    logger.info("spawned %d vehicles", len(world.vehicles))

    observer = None
    if config.stations:
        stations = [
            BaseStation(s.id, s.x, s.y, s.tx_power_dbm, s.carrier_mhz) for s in config.stations
        ]
        observer = RadioObserver(
            stations,
            hysteresis_db=config.radio.hysteresis_db,
            time_to_trigger_s=config.radio.time_to_trigger_s,
            path_loss_exponent=config.radio.path_loss_exponent,
            shadowing_sigma_db=config.radio.shadowing_sigma_db,
            seed=config.seed,
        )

    dt_ns = to_ns(config.dt_s)
    total_steps = to_ns(config.duration_s) // dt_ns
    steps_per_sample = to_ns(config.sampling_s) // dt_ns
    trace_path = out / "trace.csv"
    events_path = out / "events.csv"
    summary_path = out / "summary.json"
    event_rows: list[tuple[float, str, int, str, str, float, float]] = []

    kernel = EventKernel()
    failure: Exception | None = None
    with open(trace_path, "w", newline="") as trace_fh:
        trace_fh.write(TRACE_HEADER + "\n")

        def write_samples(t_ns: int, vids: list[int], xs: list[float], ys: list[float]) -> None:
            stamp = _fmt_seconds(t_ns)
            for vid, x, y in zip(vids, xs, ys):
                veh = world.vehicles[vid]
                serving = ""
                level = ""
                if observer is not None:
                    current = observer.current(vid)
                    if current is not None:
                        serving = current[0]
                        level = f"{current[1]:.2f}"
                trace_fh.write(
                    f"{stamp},{vid},{x:.3f},{y:.3f},{veh.v:.3f},{veh.acc:.3f},{serving},{level}\n"
                )

        def observe_and_sample(t_ns: int, sample: bool) -> None:
            # positions are computed once per step and shared by both consumers
            if observer is None and not sample:
                return
            vids = sorted(world.vehicles)
            xs, ys = [], []
            for vid in vids:
                x, y = world.position(world.vehicles[vid])
                xs.append(x)
                ys.append(y)
            if observer is not None:
                for event in observer.observe_all(vids, xs, ys, t_ns / NS_PER_SECOND):
                    event_rows.append(
                        (event.time, "handover", event.vehicle_id, event.from_cell, event.to_cell,
                         event.x, event.y)
                    )
            if sample:
                write_samples(t_ns, vids, xs, ys)

        step_count = 0

        def on_step(event) -> None:
            nonlocal step_count
            step_count += 1
            world.step(config.dt_s)
            observe_and_sample(step_count * dt_ns, step_count % steps_per_sample == 0)
            if step_count < total_steps:
                kernel.schedule("runner", "step", config.dt_s)

        kernel.bind("runner", on_step)
        observe_and_sample(0, True)
        try:
            if total_steps > 0:
                kernel.schedule("runner", "step", config.dt_s)
            stats = kernel.run_until(config.duration_s)
        except Exception as exc:  # partial artifacts stay on disk
            failure = exc
            stats = None

    for violation in world.signal_violations:
        node = graph.node(violation.node_id)
        event_rows.append(
            (violation.time, "signal_violation", violation.vehicle_id, "", "", node.x, node.y)
        )
    if observer is not None:
        for vid in sorted(observer.attachments):
            history = observer.attachments[vid].history
            for t, cell_a, cell_b in detect_ping_pong(history, config.radio.pingpong_window_s):
                back = next(
                    e for e in history if e.time == t and e.from_cell == cell_b and e.to_cell == cell_a
                )
                event_rows.append((t, "ping_pong", vid, cell_a, cell_b, back.x, back.y))

    event_rows.sort(key=lambda row: (row[0], row[2], row[1]))
    with open(events_path, "w", newline="") as events_fh:
        events_fh.write(EVENTS_HEADER + "\n")
        for t, kind, vid, from_cell, to_cell, x, y in event_rows:
            events_fh.write(
                f"{_fmt_seconds(to_ns(t))},{kind},{vid},{from_cell},{to_cell},{x:.3f},{y:.3f}\n"
            )

    total_distance = sum(v.odometer for v in world.vehicles.values())
    handover_count = 0
    ping_pong_count = 0
    if observer is not None:
        handover_count = sum(len(a.history) for a in observer.attachments.values())
        ping_pong_count = sum(len(v) for v in observer.ping_pongs(config.radio.pingpong_window_s).values())
    summary = {
        "seed": config.seed,
        "duration_s": config.duration_s,
        "dt_s": config.dt_s,
        "sampling_s": config.sampling_s,
        "vehicles": len(world.vehicles),
        "distance_driven_m": round(total_distance, 3),
        "mean_speed_ms": round(total_distance / (len(world.vehicles) * config.duration_s), 3)
        if world.vehicles
        else 0.0,
        "completed_trips": sum(1 for v in world.vehicles.values() if v.done),
        "handover_count": handover_count,
        "ping_pong_count": ping_pong_count,
        "collision_count": len(world.collisions),
        "signal_violation_count": len(world.signal_violations),
        "lane_change_count": len(world.lane_changes),
        "events_fired": stats.events_fired if stats is not None else step_count,
        "aborted": failure is not None,
    }
    if failure is not None:
        summary["error"] = f"{type(failure).__name__}: {failure}"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    logger.info(
        "run %s: %d steps, %d handovers, %d collisions",
        "aborted" if failure else "complete",
        step_count,
        handover_count,
        len(world.collisions),
    )
    if failure is not None:
        raise failure
    return RunArtifacts(
        out_dir=out,
        trace_path=trace_path,
        events_path=events_path,
        summary_path=summary_path,
        config_path=config_path,
        summary=summary,
    )
