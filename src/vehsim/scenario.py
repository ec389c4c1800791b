"""Scenario configuration and run orchestration.

Configs are flat ``key = value`` text with ``#`` comments and dotted paths
for nested settings (``vehicle.0.idm.T = 1.2``).  Each accepted key is one
row of a per-block key table (``_VEHICLE_KEYS`` and its siblings), read for
parsing and the canonical echo.  Each rule is stated once, on the record the
block builds: its fields' bounds and its own rules (a vehicle's strategic
model and trip, a station id's characters) raise ``FieldError``, a
``ValueError``, when the record is built, and ``load_config`` only parses the
text, builds the records and turns that error into a :class:`ConfigError`
with the key and line of the field it names.  The loader keeps only what no
one record can see (duplicate station ids, contiguous vehicle indices) and
two config-only bounds.  ``load_config`` validates text only; placements are
resolved against the parsed map by a
:class:`Simulation`, which steps the world on a standalone or host-driven
event kernel and writes four artifacts into the output directory:

* ``trace.csv``   — one sampled row per vehicle per sampling interval,
* ``events.csv``  — handovers, ping-pongs, red-light violations,
* ``summary.json``— aggregate counters for quick inspection,
* ``config.ini``  — canonical echo of the configuration that was loaded.

:func:`run` steps one on a standalone kernel; a simulation error mid-run
still leaves the partial artifacts on disk before the error is re-raised.
"""

from __future__ import annotations

import json
import locale
import logging
import math
import re
import warnings
from collections import Counter
from dataclasses import MISSING, dataclass, field, replace
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ._bounds import RULES, FieldError, bounded, checked
from .kernel import NS_PER_SECOND, Event, EventKernel, _fmt_seconds, to_ns
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
from .radio import BaseStation, HandoverEvent, RadioObserver, RadioParams, detect_ping_pong
from .rng import substream
from .routing import NoRouteError

logger = logging.getLogger(__name__)

TRACE_HEADER = "t,vehicle_id,x,y,v,acc,serving_cell,rssi"
_TRACE_ROW = "%s,%s,%.3f,%.3f,%.3f,%.3f,%s,%.2f\n"
_TRACE_ROW_BLANK = "%s,%s,%.3f,%.3f,%.3f,%.3f,,\n"  # no observer: empty serving cell and rssi
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

_TRIP, _RANDOM_DIRECTION = _STRATEGIC_MODELS = ("Trip", "RandomDirection")  # the strategicModel values


@checked
class VehicleSpec:
    index: int
    way: int
    prefix: str = field(default="", compare=False)  # error-message key prefix
    strategic: str | None = None  # one of _STRATEGIC_MODELS, or None
    trip: tuple[int, ...] = ()
    segment: int = bounded(">= 0", 0)
    lane: int = bounded(">= 0", 0)
    offset: float = bounded(">= 0", 0.0)
    forward: bool = True
    speed: float = bounded(">= 0", 0.0)
    parked: bool = False
    length: float = bounded("> 0", VEHICLE_LENGTH)
    speed_factor: float | None = bounded("> 0", None)  # None: drawn per vehicle
    idm: IdmParams = field(default_factory=IdmParams)
    mobil: MobilParams = field(default_factory=MobilParams)

    def __post_init__(self) -> None:
        if self.strategic not in (None, *_STRATEGIC_MODELS):
            raise FieldError("VehicleSpec", "strategic", f"is an unknown strategic model {self.strategic!r} "
                                                         f"(expected {' or '.join(_STRATEGIC_MODELS)})")
        if self.trip and self.strategic != _TRIP:
            raise FieldError("VehicleSpec", "trip", f"is only valid with strategicModel = {_TRIP}")
        if not self.trip and self.strategic == _TRIP:
            raise FieldError("VehicleSpec", "trip",
                             f"is missing: strategicModel = {_TRIP} requires a trip destination list")


@checked
class InterferenceSpec:
    count: int = bounded(">= 0", 0)
    strategic: str = _RANDOM_DIRECTION

    def __post_init__(self) -> None:
        if self.strategic != _RANDOM_DIRECTION:
            raise FieldError("InterferenceSpec", "strategic",
                             f"is an unsupported interference model {self.strategic!r} (only {_RANDOM_DIRECTION})")


@dataclass(frozen=True)
class ScenarioConfig:
    # unchecked when built, as replace() may leave the time grid off: Simulation checks it (_check_clock)
    map_path: str
    duration_s: float = bounded("> 0")
    seed: int = 0
    dt_s: float = bounded("> 0", 0.1)
    sampling_s: float = bounded("> 0", 1.0)
    vehicles: tuple[VehicleSpec, ...] = ()
    interference: InterferenceSpec = field(default_factory=InterferenceSpec)
    stations: tuple[BaseStation, ...] = ()
    signals: tuple[TrafficSignal, ...] = ()
    radio: RadioParams = field(default_factory=RadioParams)
    key_lines: dict[str, int] = field(default_factory=dict, compare=False, repr=False)  # normalised key -> line


class Trace:
    """A ``trace.csv`` held as columns, one row per sample in file order.

    ``t``, ``x``, ``y``, ``v`` and ``acc`` are float64 and ``vehicle_id`` is
    int64.  ``rssi`` is float64, NaN where the file leaves it blank (a file
    never holds a non-finite number), and ``serving_cell`` holds None where
    blank and otherwise one string object per distinct cell.  ``len()`` is
    the number of rows.
    """

    __slots__ = ("t", "vehicle_id", "x", "y", "v", "acc", "rssi", "serving_cell")

    def __init__(self, t, vehicle_id, x, y, v, acc, rssi, serving_cell) -> None:
        self.t, self.x, self.y, self.v, self.acc, self.rssi = (
            np.asarray(column, float) for column in (t, x, y, v, acc, rssi))
        self.vehicle_id = np.asarray(vehicle_id, np.int64)
        self.serving_cell = np.asarray(serving_cell, object)
        if any(getattr(self, name).shape != self.t.shape for name in self.__slots__) or self.t.ndim != 1:
            raise ValueError("trace columns must be one-dimensional and of one length")

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class RunArtifacts:
    out_dir: Path
    trace_path: Path
    events_path: Path
    summary_path: Path
    config_path: Path
    summary: dict


# -- parsing -------------------------------------------------------------------


def _to_str(value: str, key: str, line: int) -> str:
    return value


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


class _Key(NamedTuple):
    """One config key of a block: the attribute it sets, its parser and its bound (see :func:`_table`)."""

    name: str
    attr: str  # dotted (``idm.T``) for the nested driver-model parameters of a vehicle
    parse: Callable[[str, str, int], object]
    bound: str | None = None  # a key of RULES; given in a row only where the config is stricter than code


def _table(cls: type, keys: tuple[_Key, ...]) -> tuple[_Key, ...]:
    """The rows of a block that builds ``cls``, each with its own bound or else its attribute's field's."""
    def declared(attr: str) -> str | None:
        head, _, name = attr.rpartition(".")  # a dotted idm.T names a field of the class idm defaults to
        owner = cls.__dataclass_fields__[head].default_factory if head else cls
        return owner.__dataclass_fields__[name].metadata.get("bound")
    return tuple(key._replace(bound=key.bound or declared(key.attr)) for key in keys)


# Row order is the order of the canonical echo and of validation within a block.
_SCALAR_KEYS = _table(ScenarioConfig, (
    _Key("map", "map_path", _to_str),
    _Key("duration", "duration_s", _to_float),
    _Key("seed", "seed", _to_int),
    _Key("dt", "dt_s", _to_float),
    _Key("sampling", "sampling_s", _to_float),
))
_VEHICLE_KEYS = _table(VehicleSpec, (
    _Key("strategicModel", "strategic", _to_str),
    _Key("trip", "trip", _to_id_list),
    _Key("way", "way", _to_int),
    _Key("segment", "segment", _to_int),
    _Key("lane", "lane", _to_int),
    _Key("offset", "offset", _to_float),
    _Key("forward", "forward", _to_bool),
    _Key("speed", "speed", _to_float),
    _Key("parked", "parked", _to_bool),
    _Key("length", "length", _to_float),
    _Key("speed_factor", "speed_factor", _to_float),
    _Key("idm.v0", "idm.v0", _to_float),
    _Key("idm.T", "idm.T", _to_float),
    _Key("idm.a_max", "idm.a_max", _to_float),
    _Key("idm.b_comf", "idm.b_comf", _to_float),
    _Key("idm.delta", "idm.delta", _to_float),
    _Key("idm.s0", "idm.s0", _to_float),
    _Key("mobil.p", "mobil.p", _to_float, ">= 0"),  # config-only: MobilParams.p may be negative
    _Key("mobil.delta_a_th", "mobil.delta_a_th", _to_float),
    _Key("mobil.b_safe", "mobil.b_safe", _to_float),
))
_INTERFERENCE_KEYS = _table(InterferenceSpec, (
    _Key("count", "count", _to_int),
    _Key("strategicModel", "strategic", _to_str),
))
_STATION_KEYS = _table(BaseStation, (
    _Key("id", "id", _to_str),
    _Key("x", "x", _to_float),
    _Key("y", "y", _to_float),
    _Key("tx_power", "tx_power_dbm", _to_float),
    _Key("carrier", "carrier_mhz", _to_float),
))
_SIGNAL_KEYS = _table(TrafficSignal, (
    _Key("green", "green_s", _to_float),
    _Key("yellow", "yellow_s", _to_float),
    _Key("red", "red_s", _to_float),
    _Key("offset", "offset_s", _to_float, ">= 0"),  # config-only: TrafficSignal.offset_s may be negative
))
_RADIO_KEYS = _table(RadioParams, (
    _Key("hysteresis", "hysteresis_db", _to_float),
    _Key("ttt", "time_to_trigger_s", _to_float),
    _Key("pingpong_window", "pingpong_window_s", _to_float),
    _Key("path_loss_exponent", "path_loss_exponent", _to_float),
    _Key("shadowing_sigma", "shadowing_sigma_db", _to_float),
))
_TRIP_ALIAS = "strategicModel.trip"
_TABLES = {"scalar": _SCALAR_KEYS, "vehicle": _VEHICLE_KEYS, "interference": _INTERFERENCE_KEYS,
           "station": _STATION_KEYS, "signal": _SIGNAL_KEYS, "radio": _RADIO_KEYS}
_NAMES = {kind: frozenset(key.name for key in keys) for kind, keys in _TABLES.items()}
_NAMES["vehicle"] |= {_TRIP_ALIAS}  # resolved to trip in load_config
_INDEXED_RE = re.compile(r"^(vehicle|station|signal)\.(\d+)\.(.+)$")


class _Block:
    """Raw key/value entries of one dotted-path block, with line numbers."""

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self.entries: dict[str, tuple[str, int]] = {}
        self.first_line: int | None = None

    def put(self, field_name: str, value: str, key: str, line: int) -> None:
        if field_name in self.entries:
            raise ConfigError("duplicate key", key=key, line=line)
        if self.first_line is None:
            self.first_line = line
        self.entries[field_name] = (value, line)

    def line(self, field_name: str) -> int | None:
        return self.entries[field_name][1] if field_name in self.entries else None

    def build(self, cls: type, keys: tuple[_Key, ...], *, by_line: bool = False, **supplied: object):
        """``cls`` built from ``supplied`` and the entries that ``keys`` name, which take precedence;
        ``idm.*`` and ``mobil.*`` entries build their field's class.

        A key whose field has no default needs an entry unless its attribute is
        supplied.  Entries are parsed and checked against their key's bound in
        table order, or in file order with ``by_line``.  The first missing key,
        bad entry or :class:`FieldError` of the record raises
        :class:`ConfigError` at the key's line, or at the block's first line
        when the key has no entry.
        """
        specs = cls.__dataclass_fields__
        for key in keys:
            spec = specs.get(key.attr)  # None for a dotted idm.T, whose fields all have defaults
            if (spec is not None and spec.default is MISSING and spec.default_factory is MISSING
                    and key.attr not in supplied and key.name not in self.entries):
                raise ConfigError("required key missing", key=self.prefix + key.name, line=self.first_line)
        table = {key.name: key for key in keys}
        values = dict(supplied)
        nested: dict[str, dict[str, object]] = {}  # idm / mobil -> attribute -> value
        for name in self.entries if by_line else table:
            if name not in table or name not in self.entries:
                continue
            text, line = self.entries[name]
            key = table[name]
            value = key.parse(text, self.prefix + name, line)
            if key.bound is not None and not RULES[key.bound](value):
                raise ConfigError(f"must be {key.bound}, got {value!r}", key=self.prefix + name, line=line)
            head, _, attr = key.attr.rpartition(".")
            (nested.setdefault(head, {}) if head else values)[attr] = value
        values.update((head, specs[head].default_factory(**group)) for head, group in nested.items())
        try:
            return cls(**values)
        except FieldError as exc:
            name = next(key.name for key in keys if key.attr == exc.field)
            raise ConfigError(exc.reason, key=self.prefix + name, line=self.line(name) or self.first_line) from None


def _check_clock(config: ScenarioConfig, line: Callable[[str], int | None] = lambda name: None) -> None:
    """Raise :class:`ConfigError` naming the key, at ``line(key)``, unless ``dt`` is at least
    the clock's 1 ns and ``duration`` and ``sampling`` are positive multiples of it."""
    ns = {}
    for name, seconds in (("dt", config.dt_s), ("duration", config.duration_s), ("sampling", config.sampling_s)):
        try:
            ns[name] = to_ns(seconds)
        except ValueError:  # inf, nan or beyond the nanosecond clock
            raise ConfigError(f"{seconds!r} s is not finite or overflows the nanosecond clock",
                              key=name, line=line(name)) from None
        if ns[name] <= 0 or ns[name] % ns["dt"] != 0:
            rule = "at least the clock's 1 ns" if name == "dt" else f"a positive multiple of dt = {config.dt_s!r}"
            raise ConfigError(f"must be {rule}, got {seconds!r}", key=name, line=line(name))


def load_config(text: str, *, base_dir: str | Path | None = None) -> ScenarioConfig:
    """Parse and validate scenario text; raises :class:`ConfigError` on any problem.

    Top-level vehicle keys (``way = 42``, the single-vehicle idiom) describe
    vehicle 0 and cannot be mixed with explicit ``vehicle.0.*`` keys.  A
    relative ``map`` path is resolved against ``base_dir`` when given.
    Placements are checked against the map later, by :class:`Simulation`.
    """
    scalars = _Block()
    shorthand = _Block()
    sections = {"interference": _Block("interference."), "radio": _Block("radio.")}
    indexed: dict[str, dict[int, _Block]] = {"vehicle": {}, "station": {}, "signal": {}}
    key_lines: dict[str, int] = {}

    # lines end where they do in a file read as text (str.splitlines also ends one at \x0b, \x0c, \x1c, ...)
    for lineno, raw in enumerate(re.split("\r\n|\r|\n", text), start=1):
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

        section, _, name = key.partition(".")
        if key in _NAMES["scalar"]:
            block, name = scalars, key
        elif key in _NAMES["vehicle"]:
            block, name = shorthand, key
        elif (m := _INDEXED_RE.match(key)) and m.group(3) in _NAMES[m.group(1)]:
            kind, index, name = m.group(1), int(m.group(2)), m.group(3)
            block = indexed[kind].setdefault(index, _Block(f"{kind}.{index}."))
        elif section in sections and name in _NAMES[section]:
            block = sections[section]
        else:
            raise ConfigError("unknown key", key=key, line=lineno)
        block.put(name, value, key, lineno)
        key_lines[block.prefix + name] = lineno  # vehicle.00.x is recorded as vehicle.0.x

    config = scalars.build(ScenarioConfig, _SCALAR_KEYS, key_lines=key_lines)
    _check_clock(config, scalars.line)

    vehicle_blocks = indexed["vehicle"]
    if shorthand.entries and 0 in vehicle_blocks:
        raise ConfigError(
            "top-level vehicle keys cannot be mixed with vehicle.0.* keys",
            key="vehicle.0",
            line=vehicle_blocks[0].first_line,
        )
    if shorthand.entries:
        vehicle_blocks[0] = shorthand
    vehicles = []
    for position, (index, block) in enumerate(sorted(vehicle_blocks.items())):
        if index != position:
            raise ConfigError("vehicle indices must be contiguous from 0", key=f"vehicle.{index}",
                              line=block.first_line)
        if _TRIP_ALIAS in block.entries:
            if "trip" in block.entries:
                raise ConfigError("trip given twice (trip and strategicModel.trip)", key=block.prefix + _TRIP_ALIAS,
                                  line=block.line(_TRIP_ALIAS))
            block.entries["trip"] = block.entries.pop(_TRIP_ALIAS)
        vehicles.append(block.build(VehicleSpec, _VEHICLE_KEYS, index=index, prefix=block.prefix))

    interference = sections["interference"].build(InterferenceSpec, _INTERFERENCE_KEYS)

    stations: dict[str, BaseStation] = {}  # by id
    for index, block in sorted(indexed["station"].items()):
        station = block.build(BaseStation, _STATION_KEYS, id=f"bs{index}")
        if station.id in stations:
            raise ConfigError(f"duplicate station id {station.id!r}", key=block.prefix + "id",
                              line=block.line("id") or block.first_line)
        stations[station.id] = station

    signals = tuple(block.build(TrafficSignal, _SIGNAL_KEYS, by_line=True, node_id=node_id)
                    for node_id, block in sorted(indexed["signal"].items()))
    map_path = config.map_path
    if base_dir is not None and not Path(map_path).is_absolute():
        map_path = str(Path(base_dir) / map_path)
    return replace(
        config,
        map_path=map_path,
        vehicles=tuple(vehicles),
        interference=interference,
        stations=tuple(stations.values()),
        signals=signals,
        radio=sections["radio"].build(RadioParams, _RADIO_KEYS, by_line=True),
    )


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(n) for n in value)
    return str(value)


def _dump_block(prefix: str, keys: tuple[_Key, ...], obj: object) -> str:
    """``prefix + name = value`` lines for ``obj``; unset optional values are left out."""
    lines = []
    for key in keys:
        value = attrgetter(key.attr)(obj)
        if value is not None and value != ():
            lines.append(f"{prefix}{key.name} = {_fmt(value)}")
    return "\n".join(lines)


def dumps_config(config: ScenarioConfig) -> str:
    """Canonical text form; ``load_config(dumps_config(c))`` is equivalent to ``c``."""
    blocks = [_dump_block("", _SCALAR_KEYS, config)]
    blocks += [_dump_block(f"vehicle.{v.index}.", _VEHICLE_KEYS, v) for v in config.vehicles]
    if config.interference.count:
        blocks.append(_dump_block("interference.", _INTERFERENCE_KEYS, config.interference))
    blocks += [
        _dump_block(f"station.{i}.", _STATION_KEYS, s) for i, s in enumerate(config.stations)
    ]
    blocks += [_dump_block(f"signal.{s.node_id}.", _SIGNAL_KEYS, s) for s in config.signals]
    blocks.append(_dump_block("radio.", _RADIO_KEYS, config.radio))
    return "\n\n".join(blocks) + "\n"


def _number(text: str, parse: Callable[[str], float] = float) -> float:
    """``text`` read as NumPy's C reader reads a number: as ``parse`` (float or int) reads it, less what only
    ``parse`` takes (a ``_``, a non-ASCII digit, an int beyond 64 bits), and finite."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"expected ASCII digits without '_', got {text!r}")
    value = parse(text)
    if parse is int and not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"expected a 64-bit integer, got {text!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


# Bytes the trace format refuses anywhere in a file.  No run writes them (a
# station id may not hold one), and NumPy's C reader would read each of them
# otherwise than as text: it drops a \r that ends a line, reads a NUL in a
# one-character cell as blank and strips \x1c-\x1f around a number as whitespace.
_UNSAFE_BYTES = (b"\r", b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_UNSAFE_CHAR = re.compile("[" + b"".join(_UNSAFE_BYTES).decode() + "]")
_SCAN_CHUNK = 1 << 20
_NUMBER_COLUMNS = (("t", "f8"), ("vehicle_id", "i8"), ("x", "f8"), ("y", "f8"), ("v", "f8"), ("acc", "f8"))


class _CellCodes(dict):
    """Cell name -> code, blank first as 0; a new name gets the next code, so
    codes follow first sight and each name is stored as the first string seen."""

    def __init__(self) -> None:
        super().__init__({"": 0})

    def __missing__(self, name: str) -> int:
        self[name] = code = len(self)
        return code


def _scan_trace(path: str | Path) -> tuple[int, bool] | None:
    """Pre-scan a trace file as bytes: its number of rows and whether its first
    row's rssi is blank, or None if it does not start with the header and then
    a non-blank row or its end, or if it holds a byte of ``_UNSAFE_BYTES``."""
    header = TRACE_HEADER.encode() + b"\n"
    with open(path, "rb") as fh:
        chunk = fh.read(_SCAN_CHUNK)
        if chunk == header[:-1]:  # the header alone, with no line end
            return 0, True
        # a blank first row, which the C reader would skip (and warn of, if no row follows)
        if not chunk.startswith(header) or chunk.startswith(b"\n", len(header)):
            return None
        end = chunk.find(b"\n", len(header))
        blank_rssi = chunk[len(header):end if end >= 0 else len(chunk)].endswith(b",")
        rows, last = -1, b""  # the header's newline ends no row
        while chunk:
            if any(byte in chunk for byte in _UNSAFE_BYTES):
                return None
            rows += chunk.count(b"\n")
            last = chunk[-1:]
            chunk = fh.read(_SCAN_CHUNK)
    return rows + (last != b"\n"), blank_rssi


def _first_fault(path: str | Path) -> ValueError:
    """The error naming the first fault of a trace :func:`read_trace` refused, found by walking
    its lines and building no columns: the header, then each row's bytes, field count and fields
    in column order, its rssi last, which is blank in every row or in none.  Each line is decoded on
    its own, with the encoding :func:`open` reads a text file with, so an undecodable byte is named
    at its own line, not at the line a text layer decoding ahead has reached."""
    encoding = locale.getpreferredencoding(False)
    with open(path, "rb") as fh:
        header = fh.readline().decode(encoding, "replace").rstrip("\n")
        if header != TRACE_HEADER:
            return ValueError(f"line 1: unexpected trace header {header!r}")
        try:
            for rows, raw in enumerate(fh):
                raw = raw.decode(encoding)
                if unsafe := _UNSAFE_CHAR.search(raw):
                    raise ValueError(f"holds {unsafe.group()!r}, which a trace may not")
                t, vid, x, y, v, acc, _, rssi = raw.rstrip("\n").split(",")
                _number(t), _number(vid, int), _number(x), _number(y), _number(v), _number(acc)
                if rows and blank_rssi != (not rssi):
                    raise ValueError(f"rssi {rssi!r} where the first row's is {'blank' if blank_rssi else 'a number'}")
                blank_rssi = not rssi
                rssi and _number(rssi)
        except ValueError as exc:
            return ValueError(f"line {rows + 2}: {exc}")  # each line before the failing one is a row
    return ValueError("NumPy's text reader refused the trace at no line the format faults")


def read_trace(path: str | Path) -> Trace:
    """Load a trace.csv back as a :class:`Trace` in one streaming pass of NumPy's C
    text reader, behind a byte pre-scan (:func:`_scan_trace`).

    Cell names are interned to codes by a converter, a bound ``dict`` lookup
    that calls no Python code for a name seen before.  The rssi column is read
    as numbers, or, when the first row leaves it blank, as one-character text
    that must then be blank in every row.  A blank line, which the C reader
    skips, shows as a row count short of the pre-scan's.  Any file refused here
    raises the ``ValueError`` of :func:`_first_fault`, naming its first fault.
    """
    scan = _scan_trace(path)
    if scan is not None:
        rows, blank_rssi = scan
        if not rows:  # the header alone, as a run without vehicles writes it
            return Trace(*[()] * 8)
        cells = _CellCodes()
        dtype = [*_NUMBER_COLUMNS, ("cell", "i8"), ("rssi", "U1" if blank_rssi else "f8")]
        try:
            with open(path, newline="") as fh, warnings.catch_warnings():
                # NumPy 1.x reads an integer such as "1.5" through a float, with only this warning
                warnings.simplefilter("error", DeprecationWarning)
                fh.readline()  # the header, which the pre-scan has checked
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1, encoding=None,
                                   converters={6: cells.__getitem__})
        except (ValueError, DeprecationWarning):
            pass
        else:
            numbers = ("t", "x", "y", "v", "acc") if blank_rssi else ("t", "x", "y", "v", "acc", "rssi")
            if (len(table) == rows and all(np.isfinite(table[name]).all() for name in numbers)
                    and not (blank_rssi and (table["rssi"] != "").any())):
                rssi = np.full(rows, math.nan) if blank_rssi else table["rssi"]
                names = np.array([name or None for name in cells], object)
                return Trace(table["t"], table["vehicle_id"], table["x"], table["y"], table["v"], table["acc"],
                             rssi, names[table["cell"]])
    raise _first_fault(path)


# -- execution -----------------------------------------------------------------


def _typed_line(config: ScenarioConfig, *keys: str) -> int | None:
    """First line that sets one of ``keys`` (normalised spelling, as ``key_lines`` records them).

    A key ending in ``.`` matches every key of its block.
    """
    lines = [line for typed, line in config.key_lines.items()
             if any(typed == key or (key.endswith(".") and typed.startswith(key)) for key in keys)]
    return min(lines, default=None)


def _spawn_configured(world: World, config: ScenarioConfig) -> None:
    for spec in config.vehicles:
        if spec.strategic == _TRIP:
            strategic = Trip(spec.trip)
        elif spec.strategic == _RANDOM_DIRECTION:
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
            raise ConfigError(str(exc), key=key, line=_typed_line(config, key)) from exc
        except (NoRouteError, ValueError) as exc:
            key = f"{spec.prefix}trip"
            line = _typed_line(config, key, spec.prefix + _TRIP_ALIAS)
            raise ConfigError(str(exc), key=key, line=line) from exc


def _spawn_interference(world: World, config: ScenarioConfig) -> None:
    graph = world.graph
    way_ids = sorted(graph.ways)
    placed: dict[tuple[int, int], list[float]] = {}  # (segment, lane) -> offsets of the vehicles there
    n = world.n
    for key, offset in zip(zip(world.seg[:n].tolist(), world.lane[:n].tolist()), world.s[:n].tolist()):
        placed.setdefault(key, []).append(offset)

    for _ in range(config.interference.count):
        vid = world.n
        stream = substream(config.seed, "vehicle", vid)
        for _attempt in range(_PLACEMENT_ATTEMPTS):
            way_id = way_ids[int(stream.integers(len(way_ids)))]
            way = graph.ways[way_id]
            segment = int(stream.integers(len(way.node_refs) - 1))
            directions = [forward for forward, lanes in ((True, way.lanes_forward), (False, way.lanes_backward))
                          if lanes >= 1]  # the directions the graph has a segment for
            forward = directions[int(stream.integers(len(directions)))]
            ref = graph.ref(way_id, segment, forward)
            lane = int(stream.integers(ref.lanes))
            offset = float(stream.uniform(0.0, ref.length))
            taken = placed.setdefault((ref.index, lane), [])
            if not any(abs(existing - offset) < _PLACEMENT_MARGIN_M for existing in taken):
                world.spawn(
                    way=way_id,
                    segment=segment,
                    lane=lane,
                    offset=offset,
                    forward=forward,
                    strategic=RandomDirection(),
                    rng=stream,
                )
                taken.append(offset)
                break
        else:
            raise ConfigError(
                f"no free placement found for interference vehicle {vid} "
                f"after {_PLACEMENT_ATTEMPTS} attempts",
                key="interference.count",
                line=config.key_lines.get("interference.count"),
            )


class Simulation:
    """One scenario stepped by an event kernel, from set-up to its four artifacts.

    The constructor applies :func:`load_config`'s time-grid rule, which a
    config built in code may skip (its other bounds are checked when its parts
    are built), writes the ``config.ini`` echo (``echo_text`` verbatim when
    given: the CLI passes the pre-override file config so that seed sweeps
    share one echo), parses the map, spawns the vehicles, builds the radio
    observer and writes the t = 0 trace rows; a bad placement raises
    :class:`ConfigError` before any step.  :meth:`attach` binds the step
    handler to a standalone or host-driven kernel, and each step schedules the
    next until ``duration`` is covered.  :meth:`finish` closes the trace,
    writes ``events.csv`` and ``summary.json`` and drops the kernel, after
    which no reference cycle holds the run.  Trace stamps, radio times and
    the summary's ``events_fired`` count the simulation's own completed steps
    (``steps``), so other modules sharing the kernel move no output byte.
    """

    TARGET = "runner"

    def __init__(self, config: ScenarioConfig, out_dir: str | Path, *, echo_text: str | None = None) -> None:
        _check_clock(config)
        self.config = config
        self.out_dir = out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.ini").write_text(echo_text if echo_text is not None else dumps_config(config))

        graph = parse_osm(Path(config.map_path).read_bytes())
        logger.info("parsed map %s: %d nodes, %d ways", config.map_path, len(graph.nodes), len(graph.ways))
        self.world = world = World(graph, seed=config.seed)
        for signal in config.signals:
            if signal.node_id not in graph.nodes:
                raise ConfigError(
                    f"unknown node {signal.node_id}",
                    key=f"signal.{signal.node_id}",
                    line=_typed_line(config, f"signal.{signal.node_id}."),
                )
            world.signals[signal.node_id] = signal
        _spawn_configured(world, config)
        _spawn_interference(world, config)
        logger.info("spawned %d vehicles", world.n)

        self.observer = None if not config.stations else RadioObserver(list(config.stations), config.radio,
                                                                       seed=config.seed)

        self.steps = 0  # completed steps
        self._kernel: EventKernel | None = None
        self._dt_ns = to_ns(config.dt_s)
        self._total_steps = to_ns(config.duration_s) // self._dt_ns
        self._steps_per_sample = to_ns(config.sampling_s) // self._dt_ns
        self._rows: list[tuple[float, str, int, str, str, float, float]] = []  # events.csv
        self._last_handover: dict[int, HandoverEvent] = {}  # per vehicle, for ping-pong detection
        self._trace = open(out / "trace.csv", "w", newline="")
        self._trace.write(TRACE_HEADER + "\n")
        self._observe(0, True)

    def attach(self, kernel: EventKernel) -> None:
        """Bind the step handler to ``kernel`` and schedule the first step ``dt`` after its clock."""
        kernel.bind(self.TARGET, self._step)
        self._kernel = kernel
        if self._total_steps > 0:
            kernel.schedule(self.TARGET, "step", self.config.dt_s)

    def _step(self, event: Event) -> None:
        step = self.steps + 1
        self.world.step(self.config.dt_s)
        self._observe(step * self._dt_ns, step % self._steps_per_sample == 0)
        self.steps = step
        if step < self._total_steps:
            self._kernel.schedule(self.TARGET, "step", self.config.dt_s)

    def _observe(self, t_ns: int, sample: bool) -> None:
        """Radio update and, on sampling steps, trace rows; positions are computed once for both."""
        observer = self.observer
        if observer is None and not sample:
            return
        world = self.world
        ids = range(world.n)  # spawn order, which is ascending id
        xs, ys = world.positions()
        if observer is not None:
            window = self.config.radio.pingpong_window_s
            for ho in observer.observe_all(ids, xs, ys, t_ns / NS_PER_SECOND):
                vid = ho.vehicle_id
                self._rows.append((ho.time, "handover", vid, ho.from_cell, ho.to_cell, ho.x, ho.y))
                # a ping-pong is this handover reversing the vehicle's previous one; a first
                # handover is paired with itself, which never reverses
                for t, cell_a, cell_b in detect_ping_pong([self._last_handover.get(vid, ho), ho], window):
                    self._rows.append((t, "ping_pong", vid, cell_a, cell_b, ho.x, ho.y))
                self._last_handover[vid] = ho
        if sample:  # one format and one write for the step's rows
            n = len(ids)
            columns = [repeat(_fmt_seconds(t_ns)), ids, xs.tolist(), ys.tolist(), world.v[:n].tolist(),
                       world.acc[:n].tolist()]
            template = _TRACE_ROW_BLANK
            if observer is not None:  # observe_all has attached every vehicle: its cell and rounded level
                template = _TRACE_ROW
                columns += observer._trace_levels()
            self._trace.write(template * n % tuple(chain.from_iterable(zip(*columns))))

    def finish(self, failure: Exception | None = None) -> RunArtifacts:
        """Close the trace, write ``events.csv`` and ``summary.json``; ``failure`` marks an aborted run.

        The kernel, which holds the step handler, is dropped: no reference cycle is left.
        """
        self._trace.close()
        self._kernel = None
        config, world, out = self.config, self.world, self.out_dir
        rows = list(self._rows)
        for violation in world.signal_violations:
            x, y = world.graph.position(violation.node_id)
            rows.append((violation.time, "signal_violation", violation.vehicle_id, "", "", x, y))
        rows.sort(key=lambda row: (row[0], row[2], row[1]))
        with open(out / "events.csv", "w", newline="") as events_fh:
            events_fh.write(EVENTS_HEADER + "\n")
            for t, kind, vid, from_cell, to_cell, x, y in rows:
                events_fh.write(
                    f"{_fmt_seconds(to_ns(t))},{kind},{vid},{from_cell},{to_cell},{x:.3f},{y:.3f}\n"
                )

        kinds = Counter(row[1] for row in rows)
        n = world.n
        total_distance = sum(world.odometer[:n].tolist())  # in id order, as the per-vehicle sum
        summary = {
            "seed": config.seed,
            "duration_s": config.duration_s,
            "dt_s": config.dt_s,
            "sampling_s": config.sampling_s,
            "vehicles": n,
            "distance_driven_m": round(total_distance, 3),
            "mean_speed_ms": round(total_distance / (n * config.duration_s), 3) if n else 0.0,
            "completed_trips": int(world.done[:n].sum()),
            "handover_count": kinds["handover"],
            "ping_pong_count": kinds["ping_pong"],
            "collision_count": len(world.collisions),
            "signal_violation_count": kinds["signal_violation"],
            "lane_change_count": len(world.lane_changes),
            "events_fired": self.steps,
            "aborted": failure is not None,
        }
        if failure is not None:
            summary["error"] = f"{type(failure).__name__}: {failure}"
        # the bytes of json.dumps(summary, indent=2, sort_keys=True) for this flat mapping of scalars, without
        # the indenting encoder, whose closures would stay in reference cycles after the run
        (out / "summary.json").write_text(
            "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(summary.items())) + "\n}\n")
        logger.info("run %s: %d steps, %d handovers, %d collisions", "aborted" if failure else "complete",
                    self.steps, kinds["handover"], len(world.collisions))
        return RunArtifacts(
            out_dir=out,
            trace_path=out / "trace.csv",
            events_path=out / "events.csv",
            summary_path=out / "summary.json",
            config_path=out / "config.ini",
            summary=summary,
        )


def run(config: ScenarioConfig, out_dir: str | Path, *, echo_text: str | None = None) -> RunArtifacts:
    """Execute a scenario as a :class:`Simulation` on a standalone kernel.

    ``echo_text`` is passed on to :class:`Simulation`.  An error during
    stepping is re-raised once the partial artifacts are written.
    """
    simulation = Simulation(config, out_dir, echo_text=echo_text)
    kernel = EventKernel()
    simulation.attach(kernel)
    try:
        kernel.run_until(config.duration_s)
    except Exception as exc:  # partial artifacts stay on disk
        simulation.finish(exc)
        raise
    return simulation.finish()
