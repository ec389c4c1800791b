"""Config parsing, run orchestration, artifacts, CLI behavior."""

import gc
import json
import math
import re
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vehsim import mobility, osm, radio, scenario
from vehsim._bounds import FieldError
from vehsim.cli import main as cli_main
from vehsim.kernel import EventKernel, KernelError
from vehsim.mobility import MobilParams, StrandedError
from vehsim.exports import export_svg
from vehsim.osm import TrafficSignal, parse_osm
from vehsim.radio import BaseStation
from vehsim.scenario import (
    EVENTS_HEADER,
    TRACE_HEADER,
    ConfigError,
    InterferenceSpec,
    RadioParams,
    ScenarioConfig,
    Simulation,
    VehicleSpec,
    dumps_config,
    load_config,
    read_trace,
    run,
)

from conftest import HeapHost, corridor_osm_xml, grid_node_id, grid_osm_xml

MINIMAL = "map = net.osm\nduration = 10\n"


# -- parsing ------------------------------------------------------------------


def test_minimal_config_defaults():
    cfg = load_config(MINIMAL)
    assert cfg.map_path == "net.osm"
    assert cfg.duration_s == 10.0
    assert (cfg.seed, cfg.dt_s, cfg.sampling_s) == (0, 0.1, 1.0)
    assert cfg.vehicles == ()
    assert cfg.stations == ()
    assert cfg.signals == ()
    assert cfg.interference == InterferenceSpec(count=0, strategic="RandomDirection")
    assert cfg.radio == RadioParams()


def test_single_vehicle_shorthand():
    cfg = load_config(
        "map = net.osm\n"
        "duration = 10\n"
        "strategicModel = Trip\n"
        "trip = 677230875, 275672221, 3569208993, 477807\n"
        "way = 337055293\n"
        "segment = 4\n"
        "lane = 0\n"
        "offset = 1\n"
    )
    assert len(cfg.vehicles) == 1
    veh = cfg.vehicles[0]
    assert veh.way == 337055293
    assert veh.segment == 4
    assert veh.lane == 0
    assert veh.offset == 1.0
    assert veh.strategic == "Trip"
    assert veh.trip == (677230875, 275672221, 3569208993, 477807)
    assert cfg.key_lines["way"] == 5


def test_shorthand_equals_indexed_form():
    shorthand = load_config(MINIMAL + "strategicModel = RandomDirection\nway = 7\nspeed = 3\n")
    indexed = load_config(
        MINIMAL
        + "vehicle.0.strategicModel = RandomDirection\nvehicle.0.way = 7\nvehicle.0.speed = 3\n"
    )
    assert shorthand == indexed


def test_shorthand_cannot_mix_with_indexed_vehicle_0():
    with pytest.raises(ConfigError, match="cannot be mixed"):
        load_config(MINIMAL + "way = 7\nvehicle.0.lane = 0\n")


def test_multi_vehicle_blocks_and_contiguity():
    cfg = load_config(
        MINIMAL
        + "vehicle.0.way = 7\nvehicle.1.way = 8\nvehicle.1.idm.T = 1.2\nvehicle.1.mobil.p = 0.1\n"
    )
    assert [v.way for v in cfg.vehicles] == [7, 8]
    assert cfg.vehicles[1].idm.T == 1.2
    assert cfg.vehicles[1].mobil.p == 0.1
    assert cfg.vehicles[0].idm.T == 1.5  # untouched defaults
    with pytest.raises(ConfigError, match="contiguous"):
        load_config(MINIMAL + "vehicle.1.way = 8\n")


def test_unknown_keys_name_key_and_line():
    with pytest.raises(ConfigError) as err:
        load_config("map = net.osm\nduration = 10\nbogus = 1\n")
    assert "bogus" in str(err.value)
    assert "line 3" in str(err.value)
    with pytest.raises(ConfigError, match="vehicle.0.warp"):
        load_config(MINIMAL + "vehicle.0.warp = 9\n")
    with pytest.raises(ConfigError, match="radio.bogus"):
        load_config(MINIMAL + "radio.bogus = 1\n")
    # a line ends at \n, \r\n or a lone \r, as in a file read as text, and nowhere else
    for text in ("map = net.osm\r\nduration = 10\r\nbogus = 1\r\n", "map = net.osm\rduration = 10\rbogus = 1\r",
                 "map = net.osm # a\x0bb\x0cc\x1cd\x85e\u2028f\u2029g\nduration = 10\nbogus = 1\n"):
        with pytest.raises(ConfigError, match="unknown key") as err:
            load_config(text)
        assert (err.value.key, err.value.line) == ("bogus", 3), text


def test_required_scalars():
    with pytest.raises(ConfigError, match="map"):
        load_config("duration = 10\n")
    with pytest.raises(ConfigError, match="duration"):
        load_config("map = net.osm\n")


def test_duplicate_key_rejected():
    # one repeated key per block kind, as typed and with another spelling of its index
    for first, again in [("seed = 1", "seed = 2"), ("way = 1", "way = 2"),
                         ("vehicle.0.way = 1", "vehicle.0.way = 2"), ("vehicle.0.way = 1", "vehicle.00.way = 2"),
                         ("station.0.x = 1", "station.0.x = 2"), ("signal.5.green = 9", "signal.05.green = 8"),
                         ("radio.shadowing_sigma = 1", "radio.shadowing_sigma = 2"),
                         ("interference.count = 1", "interference.count = 2")]:
        with pytest.raises(ConfigError, match="duplicate key") as err:
            load_config(MINIMAL + f"{first}\n# lines 1-2 are MINIMAL's\n{again}\n")
        assert (err.value.key, err.value.line) == (again.split(" =")[0], 5), first


def test_line_syntax_errors():
    with pytest.raises(ConfigError, match="key = value"):
        load_config("map = net.osm\nduration\n")
    with pytest.raises(ConfigError, match="empty key"):
        load_config("map = net.osm\n= 5\n")
    with pytest.raises(ConfigError, match="empty value"):
        load_config("map = net.osm\nduration =\n")


def test_comments_and_blank_lines_ignored():
    cfg = load_config(
        "# scenario head\n\nmap = net.osm  # the network\nduration = 10\n\n# tail\n"
    )
    assert cfg.map_path == "net.osm"


def test_value_type_errors():
    with pytest.raises(ConfigError, match="integer"):
        load_config(MINIMAL + "way = abc\n")
    with pytest.raises(ConfigError, match="number"):
        load_config(MINIMAL + "way = 1\noffset = xyz\n")
    with pytest.raises(ConfigError, match="true/false"):
        load_config(MINIMAL + "way = 1\nforward = maybe\n")
    with pytest.raises(ConfigError, match="integer"):
        load_config("map = net.osm\nduration = 10\nseed = 1.5\n")
    with pytest.raises(ConfigError, match="finite"):
        load_config(MINIMAL + "way = 1\noffset = nan\n")


def test_trip_and_strategic_model_coupling():
    with pytest.raises(ConfigError, match="only valid with strategicModel = Trip"):
        load_config(MINIMAL + "way = 1\ntrip = 2,3\n")
    with pytest.raises(ConfigError, match="requires a trip"):
        load_config(MINIMAL + "way = 1\nstrategicModel = Trip\n")
    with pytest.raises(ConfigError, match="unknown strategic model"):
        load_config(MINIMAL + "way = 1\nstrategicModel = Teleport\n")
    with pytest.raises(ConfigError, match="twice"):
        load_config(
            MINIMAL + "way = 1\nstrategicModel = Trip\ntrip = 2\nstrategicModel.trip = 2\n"
        )
    # the long-form alias alone is accepted and lands in the same field
    cfg = load_config(MINIMAL + "way = 1\nstrategicModel = Trip\nstrategicModel.trip = 2,3\n")
    assert cfg.vehicles[0].trip == (2, 3)
    with pytest.raises(ConfigError, match="comma-separated"):
        load_config(MINIMAL + "way = 1\nstrategicModel = Trip\ntrip = 2,,3\n")


def test_timing_grid_validation():
    with pytest.raises(ConfigError, match="multiple of dt"):
        load_config("map = net.osm\nduration = 10.05\n")
    with pytest.raises(ConfigError, match="multiple of dt"):
        load_config("map = net.osm\nduration = 10\nsampling = 0.25\n")
    with pytest.raises(ConfigError, match="> 0"):
        load_config("map = net.osm\nduration = 0\n")
    cfg = load_config("map = net.osm\nduration = 9\ndt = 0.05\nsampling = 0.3\n")
    assert (cfg.dt_s, cfg.sampling_s) == (0.05, 0.3)
    # beyond the nanosecond clock: a located ConfigError, not an OverflowError
    for text, key in (
        ("map = net.osm\nduration = 1e300\n", "duration"),
        ("map = net.osm\nduration = 10\ndt = 1e300\n", "dt"),
        ("map = net.osm\nduration = 10\nsampling = 1e300\n", "sampling"),
    ):
        with pytest.raises(ConfigError, match="overflows") as err:
            load_config(text)
        assert (err.value.key, err.value.line) == (key, text.count("\n"))


def test_interference_validation():
    cfg = load_config(MINIMAL + "interference.count = 12\n")
    assert cfg.interference.count == 12
    with pytest.raises(ConfigError, match=">= 0"):
        load_config(MINIMAL + "interference.count = -1\n")
    with pytest.raises(ConfigError, match="only RandomDirection"):
        load_config(MINIMAL + "interference.count = 1\ninterference.strategicModel = Trip\n")


def test_station_parsing():
    cfg = load_config(
        MINIMAL
        + "station.0.x = -400\nstation.0.y = 30\n"
        + "station.1.id = mast\nstation.1.x = 400\nstation.1.y = 30\n"
        + "station.1.tx_power = 20\nstation.1.carrier = 2600\n"
    )
    assert cfg.stations[0] == BaseStation(id="bs0", x=-400.0, y=30.0)
    assert cfg.stations[1] == BaseStation(
        id="mast", x=400.0, y=30.0, tx_power_dbm=20.0, carrier_mhz=2600.0
    )
    with pytest.raises(ConfigError, match="station.0.y"):
        load_config(MINIMAL + "station.0.x = 1\n")
    with pytest.raises(ConfigError, match="may not contain") as err:
        load_config(MINIMAL + "station.0.x = 1\nstation.0.y = 1\nstation.0.id = a,b\n")
    assert (err.value.key, err.value.line) == ("station.0.id", 5)
    with pytest.raises(ConfigError, match="duplicate station id"):
        load_config(
            MINIMAL
            + "station.0.id = a\nstation.0.x = 1\nstation.0.y = 1\n"
            + "station.1.id = a\nstation.1.x = 2\nstation.1.y = 2\n"
        )


def test_signal_overrides_and_validation():
    cfg = load_config(MINIMAL + "signal.42.offset = 12\nsignal.7.green = 40\n")
    assert cfg.signals == (
        TrafficSignal(node_id=7, green_s=40.0),
        TrafficSignal(node_id=42, offset_s=12.0),
    )
    with pytest.raises(ConfigError, match="> 0"):
        load_config(MINIMAL + "signal.42.green = 0\n")


def test_radio_parameters():
    cfg = load_config(
        MINIMAL
        + "radio.hysteresis = 5\nradio.ttt = 2\nradio.pingpong_window = 20\n"
        + "radio.path_loss_exponent = 3\nradio.shadowing_sigma = 6\n"
    )
    assert cfg.radio == RadioParams(
        hysteresis_db=5.0,
        time_to_trigger_s=2.0,
        pingpong_window_s=20.0,
        path_loss_exponent=3.0,
        shadowing_sigma_db=6.0,
    )


# -- declared bounds --------------------------------------------------------------

# every dataclass that declares a bound on a field; all but ScenarioConfig check them when built
_DECLARING = sorted(
    {cls for module in (osm, mobility, radio, scenario) for cls in vars(module).values()
     if isinstance(cls, type) and is_dataclass(cls) and any("bound" in f.metadata for f in fields(cls))},
    key=lambda cls: cls.__name__,
)
# each config block: its key table, the class it builds, its key prefix and the keys it needs
_BLOCKS = (
    (scenario._SCALAR_KEYS, ScenarioConfig, "", {}),
    (scenario._VEHICLE_KEYS, VehicleSpec, "vehicle.0.", {"vehicle.0.way": "1"}),
    (scenario._INTERFERENCE_KEYS, scenario.InterferenceSpec, "interference.", {}),
    (scenario._STATION_KEYS, BaseStation, "station.0.", {"station.0.x": "0", "station.0.y": "0"}),
    (scenario._SIGNAL_KEYS, TrafficSignal, "signal.7.", {}),
    (scenario._RADIO_KEYS, RadioParams, "radio.", {}),
)


def _past_and_edge(rule, is_int):
    """The values just past ``rule`` (besides nan and +-inf) and those at its edge."""
    zero, tiny = (0, 1) if is_int else (0.0, 5e-324)
    if rule == "finite":
        return [], [sys.float_info.max, -sys.float_info.max]
    return ([zero], [tiny]) if rule == "> 0" else ([-tiny], [zero])


def _keys_setting(cls, name):
    """(table, key, prefix, needs) of every config key that sets field ``name`` of ``cls``."""
    found = []
    for table, owner, prefix, needs in _BLOCKS:
        for key in table:
            head, _, attr = key.attr.rpartition(".")
            row_cls = {f.name: f for f in fields(owner)}[head].default_factory if head else owner
            if (row_cls, attr) == (cls, name):
                found.append((table, key, prefix, needs))
    return found


def test_bound_declarations_are_found():
    names = {cls.__name__ for cls in _DECLARING}
    assert names >= {"IdmParams", "MobilParams", "TrafficSignal", "BaseStation", "RadioParams", "VehicleSpec",
                     "InterferenceSpec", "ScenarioConfig"}


@pytest.mark.parametrize(
    "cls, name",
    [(cls, f.name) for cls in _DECLARING for f in fields(cls) if "bound" in f.metadata],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_declared_bounds_hold_when_built_and_when_loaded(cls, name):
    spec = {f.name: f for f in fields(cls)}[name]
    rule = spec.metadata["bound"]
    past, edges = _past_and_edge(rule, spec.type == "int")
    required = {f.name: {"int": 1, "float": 0.0, "str": "a"}[f.type]
                for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    for bad in (math.nan, math.inf, -math.inf, *past):
        if cls is ScenarioConfig:  # built unchecked; Simulation checks its time grid
            assert getattr(cls(**{**required, name: bad}), name) is bad
            continue
        with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{name} must be finite"):
            cls(**{**required, name: bad})
    for edge in edges:
        assert getattr(cls(**{**required, name: edge}), name) == edge

    # the same values as config text: a ConfigError with the key and its line, and the edge loads
    keys = _keys_setting(cls, name)
    assert keys, f"no config key sets {cls.__name__}.{name}"
    for table, key, prefix, needs in keys:
        if key.bound != rule:  # a config-only bound, stricter than the field's
            assert (cls, name) in {(MobilParams, "p"), (TrafficSignal, "offset_s")}
        past, edges = _past_and_edge(key.bound, key.parse is scenario._to_int)
        for value in (math.nan, math.inf, -math.inf, *past, *edges):
            loads = value in edges
            entries = {"map": "net.osm", "duration": "10", **needs, prefix + key.name: repr(value)}
            text = "".join(f"{k} = {v}\n" for k, v in entries.items())
            line = list(entries).index(prefix + key.name) + 1
            if loads and table is scenario._SCALAR_KEYS:  # the time grid is stricter: at least 1 ns
                with pytest.raises(ConfigError, match="clock's 1 ns|positive multiple of dt") as err:
                    load_config(text)
            elif loads:
                load_config(text)
                continue
            else:
                with pytest.raises(ConfigError) as err:
                    load_config(text)
            assert (err.value.key, err.value.line) == (prefix + key.name, line), text


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: VehicleSpec(0, 1, strategic="Bogus"), "VehicleSpec.strategic"),
        (lambda: VehicleSpec(0, 1, strategic="Trip"), "VehicleSpec.trip"),
        (lambda: VehicleSpec(0, 1, trip=(2, 3)), "VehicleSpec.trip"),
        (lambda: VehicleSpec(0, 1, strategic="RandomDirection", trip=(2, 3)), "VehicleSpec.trip"),
        (lambda: scenario.InterferenceSpec(2, "Trip"), "InterferenceSpec.strategic"),
    ],
    ids=["unknown-model", "trip-model-without-trip", "trip-without-model", "trip-with-random", "interference-trip"],
)
def test_code_built_specs_check_the_strategic_model_rules(build, field):
    # the rules load_config applies to strategicModel and trip, as a ValueError naming the field
    with pytest.raises(ValueError, match=rf"^{field} "):
        build()


def test_code_built_specs_accept_every_strategic_model():
    assert VehicleSpec(0, 1, strategic="Trip", trip=(2,)).trip == (2,)
    assert VehicleSpec(0, 1, strategic="RandomDirection").strategic == "RandomDirection"
    assert VehicleSpec(0, 1).strategic is None


@pytest.mark.parametrize(
    "text, build, key, line",
    [
        ("way = 1\nstrategicModel = Teleport\n", lambda: VehicleSpec(0, 1, strategic="Teleport"), "strategicModel", 4),
        ("vehicle.0.way = 1\nvehicle.0.trip = 2,3\n", lambda: VehicleSpec(0, 1, trip=(2, 3)), "vehicle.0.trip", 4),
        ("vehicle.0.way = 1\nvehicle.0.strategicModel = Trip\n", lambda: VehicleSpec(0, 1, strategic="Trip"),
         "vehicle.0.trip", 3),  # no trip line: the block's first
        ("interference.count = 1\ninterference.strategicModel = Trip\n", lambda: InterferenceSpec(1, "Trip"),
         "interference.strategicModel", 4),
        ("station.0.x = 1\nstation.0.id = a,b\nstation.0.y = 1\n", lambda: BaseStation("a,b", 1.0, 1.0),
         "station.0.id", 4),
        # the bytes a trace refuses, which no station id may hold either
        *[(f"station.0.x = 1\nstation.0.id = a{c}b\nstation.0.y = 1\n", lambda c=c: BaseStation(f"a{c}b", 1.0, 1.0),
           "station.0.id", 4) for c in "\x00\x1c\x1d\x1e\x1f"],
    ],
    ids=["unknown-model", "trip-without-model", "trip-model-without-trip", "interference-trip", "station-id",
         *(f"station-id-{ord(c):#04x}" for c in "\x00\x1c\x1d\x1e\x1f")],
)
def test_a_records_own_rule_is_loaded_as_its_error_at_the_key_and_line(text, build, key, line):
    with pytest.raises(FieldError) as built:
        build()
    with pytest.raises(ConfigError) as loaded:
        load_config(MINIMAL + text)
    assert str(loaded.value) == f"{key} (line {line}): {built.value.reason}"
    assert (loaded.value.key, loaded.value.line) == (key, line)


def _readme_bounds():
    """Key -> bound (None where blank) of every row of the README's configuration tables."""
    section = (Path(__file__).parents[1] / "README.md").read_text().split("## Configuration reference")[1]
    bounds, prefix = {}, ""
    for row in section.split("\n## ")[0].splitlines():
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        if not row.startswith("|") or set(cells[0]) <= {"-", " "}:
            continue
        if cells[0] in ("key", "field"):  # a table's header: vehicle fields are keys of vehicle.N.
            prefix = "vehicle.N." if cells[0] == "field" else ""
            continue
        for key in re.findall(r"`([^`]+)`", cells[0]):
            head, _, names = key.rpartition(".")
            for name in names.split("/"):  # signal.NODE.green/yellow/red
                bounds[prefix + (head + "." if head else "") + name] = cells[2].strip("`") or None
    return bounds


def test_readme_bound_column_is_the_key_tables():
    prefixes = {"scalar": "", "vehicle": "vehicle.N.", "interference": "interference.", "station": "station.N.",
                "signal": "signal.NODE.", "radio": "radio."}
    tables = {prefixes[kind] + key.name: key.bound for kind, keys in scenario._TABLES.items() for key in keys}
    assert _readme_bounds() == tables


def _readme_required():
    """Every key whose default cell in the README's configuration tables reads *required*."""
    section = (Path(__file__).parents[1] / "README.md").read_text().split("## Configuration reference")[1]
    required, prefix = set(), ""
    for row in section.split("\n## ")[0].splitlines():
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        if cells[0] in ("key", "field"):  # a table's header: vehicle fields are keys of vehicle.N.
            prefix = "vehicle.N." if cells[0] == "field" else ""
        elif row.startswith("|") and cells[1].startswith("*required"):
            required |= {prefix + key for key in re.findall(r"`([^`]+)`", cells[0])}
    return required


def test_readme_required_cells_are_the_keys_the_loader_requires():
    # leave out each line of the echo of every key in turn: the keys then reported missing are the
    # required ones, each named with the first line of its block in the shortened text
    lines = EVERY_KEY_ECHO.splitlines()
    required = set()
    for index, line in enumerate(lines):
        key = line.split(" = ")[0]
        text = "\n".join(lines[:index] + lines[index + 1:]) + "\n"
        try:
            load_config(text)
        except ConfigError as exc:
            if str(exc).endswith("required key missing"):
                first = next(number for number, other in enumerate(text.splitlines(), 1)
                             if other and _block_of(other.split(" = ")[0]) == _block_of(key))
                assert (exc.key, exc.line) == (key, first)
                required.add(re.sub(r"^(vehicle|station)\.\d+\.", r"\1.N.", key))
    assert required == _readme_required() == {"map", "duration", "vehicle.N.way", "station.N.x", "station.N.y"}


def test_relative_map_path_resolves_against_base_dir():
    cfg = load_config("map = maps/net.osm\nduration = 10\n", base_dir="/data/scenarios")
    assert cfg.map_path == str(Path("/data/scenarios/maps/net.osm"))
    absolute = load_config("map = /tmp/net.osm\nduration = 10\n", base_dir="/data")
    assert absolute.map_path == "/tmp/net.osm"


def test_dumps_load_round_trip():
    cfg = ScenarioConfig(
        map_path="net.osm",
        duration_s=30.0,
        seed=17,
        dt_s=0.05,
        sampling_s=0.5,
        vehicles=(
            VehicleSpec(index=0, way=9, strategic="Trip", trip=(5, 6), offset=2.5, speed=7.0),
            VehicleSpec(index=1, way=9, strategic="RandomDirection", lane=1, parked=True,
                        speed_factor=1.05),
        ),
        interference=InterferenceSpec(count=4),
        stations=(BaseStation(id="a", x=1.0, y=2.0), BaseStation(id="b", x=3.0, y=4.0,
                                                                 tx_power_dbm=20.0)),
        signals=(TrafficSignal(node_id=11, red_s=40.0, offset_s=3.0),),
        radio=RadioParams(hysteresis_db=2.0, shadowing_sigma_db=1.5),
    )
    assert load_config(dumps_config(cfg)) == cfg
    # …and the canonical form is a fixed point of itself
    assert dumps_config(load_config(dumps_config(cfg))) == dumps_config(cfg)


# every key, each block kind, the trip alias, a default station id and
# out-of-order station and signal indices
EVERY_KEY = """\
map = maps/net.osm
duration = 120
seed = 42
dt = 0.05
sampling = 0.5
vehicle.0.strategicModel = Trip
vehicle.0.trip = 5, 6, 7
vehicle.0.way = 9
vehicle.0.segment = 2
vehicle.0.lane = 1
vehicle.0.offset = 12.5
vehicle.0.forward = false
vehicle.0.speed = 8
vehicle.0.parked = no
vehicle.0.length = 4.2
vehicle.0.speed_factor = 1.05
vehicle.0.idm.v0 = 25
vehicle.0.idm.T = 1.2
vehicle.0.idm.a_max = 1.1
vehicle.0.idm.b_comf = 2
vehicle.0.idm.delta = 3.5
vehicle.0.idm.s0 = 2.5
vehicle.0.mobil.p = 0.3
vehicle.0.mobil.delta_a_th = 0.2
vehicle.0.mobil.b_safe = 3
vehicle.1.strategicModel = Trip
vehicle.1.strategicModel.trip = 11
vehicle.1.way = 10
vehicle.2.strategicModel = RandomDirection
vehicle.2.way = 10
vehicle.2.parked = on
interference.count = 4
interference.strategicModel = RandomDirection
station.3.id = mast
station.3.x = -400
station.3.y = 30.5
station.3.tx_power = 20
station.3.carrier = 2600
station.8.x = 400
station.8.y = 0
signal.42.green = 40
signal.42.yellow = 4
signal.42.red = 20
signal.42.offset = 7.5
signal.7.red = 1e-3
radio.hysteresis = 2
radio.ttt = 0.5
radio.pingpong_window = 20
radio.path_loss_exponent = 3
radio.shadowing_sigma = 4
"""

EVERY_KEY_ECHO = """\
map = maps/net.osm
duration = 120.0
seed = 42
dt = 0.05
sampling = 0.5

vehicle.0.strategicModel = Trip
vehicle.0.trip = 5,6,7
vehicle.0.way = 9
vehicle.0.segment = 2
vehicle.0.lane = 1
vehicle.0.offset = 12.5
vehicle.0.forward = false
vehicle.0.speed = 8.0
vehicle.0.parked = false
vehicle.0.length = 4.2
vehicle.0.speed_factor = 1.05
vehicle.0.idm.v0 = 25.0
vehicle.0.idm.T = 1.2
vehicle.0.idm.a_max = 1.1
vehicle.0.idm.b_comf = 2.0
vehicle.0.idm.delta = 3.5
vehicle.0.idm.s0 = 2.5
vehicle.0.mobil.p = 0.3
vehicle.0.mobil.delta_a_th = 0.2
vehicle.0.mobil.b_safe = 3.0

vehicle.1.strategicModel = Trip
vehicle.1.trip = 11
vehicle.1.way = 10
vehicle.1.segment = 0
vehicle.1.lane = 0
vehicle.1.offset = 0.0
vehicle.1.forward = true
vehicle.1.speed = 0.0
vehicle.1.parked = false
vehicle.1.length = 5.0
vehicle.1.idm.v0 = 13.89
vehicle.1.idm.T = 1.5
vehicle.1.idm.a_max = 1.4
vehicle.1.idm.b_comf = 2.0
vehicle.1.idm.delta = 4.0
vehicle.1.idm.s0 = 2.0
vehicle.1.mobil.p = 0.5
vehicle.1.mobil.delta_a_th = 0.2
vehicle.1.mobil.b_safe = 4.0

vehicle.2.strategicModel = RandomDirection
vehicle.2.way = 10
vehicle.2.segment = 0
vehicle.2.lane = 0
vehicle.2.offset = 0.0
vehicle.2.forward = true
vehicle.2.speed = 0.0
vehicle.2.parked = true
vehicle.2.length = 5.0
vehicle.2.idm.v0 = 13.89
vehicle.2.idm.T = 1.5
vehicle.2.idm.a_max = 1.4
vehicle.2.idm.b_comf = 2.0
vehicle.2.idm.delta = 4.0
vehicle.2.idm.s0 = 2.0
vehicle.2.mobil.p = 0.5
vehicle.2.mobil.delta_a_th = 0.2
vehicle.2.mobil.b_safe = 4.0

interference.count = 4
interference.strategicModel = RandomDirection

station.0.id = mast
station.0.x = -400.0
station.0.y = 30.5
station.0.tx_power = 20.0
station.0.carrier = 2600.0

station.1.id = bs8
station.1.x = 400.0
station.1.y = 0.0
station.1.tx_power = 46.0
station.1.carrier = 1800.0

signal.7.green = 30.0
signal.7.yellow = 5.0
signal.7.red = 0.001
signal.7.offset = 0.0

signal.42.green = 40.0
signal.42.yellow = 4.0
signal.42.red = 20.0
signal.42.offset = 7.5

radio.hysteresis = 2.0
radio.ttt = 0.5
radio.pingpong_window = 20.0
radio.path_loss_exponent = 3.0
radio.shadowing_sigma = 4.0
"""


def test_canonical_echo_is_pinned():
    cfg = load_config(EVERY_KEY)
    assert dumps_config(cfg) == EVERY_KEY_ECHO
    assert load_config(EVERY_KEY_ECHO) == cfg


_ECHO_KEYS = [line.split(" = ")[0] for line in EVERY_KEY_ECHO.splitlines() if line]
_KEYS = sorted(
    set(_ECHO_KEYS)
    | {key.removeprefix("vehicle.0.") for key in _ECHO_KEYS}
    | {"vehicle.1.strategicModel.trip", "strategicModel.trip", "vehicle.00.way", "station.01.id"}
    | {"bogus", "vehicle.0.warp", "radio.bogus", "station.a.x", "vehicle..way", "interference",
       "vehicle.0", "idm.bogus", "Map", "vehicle.-1.way", "signal.x.green", "mobil"}
)
_VALUES = [
    "0", "-0", "1", "-1", "2.5", "7", "10", "42", "1e-12", "1e300", "-1e300", "nan", "inf",
    "true", "off", "maybe", "Trip", "RandomDirection", "Teleport", "1,2", "1,,2", ",", "a,b",
    "a b", "0x10", "1_0", "+3", "٣", "net.osm",
]


@st.composite
def _config_texts(draw):
    lines = []
    if draw(st.booleans()):
        lines += ["map = net.osm", f"duration = {draw(st.sampled_from(['10', '0.5', '1e300']))}"]
    entry = st.tuples(
        st.sampled_from(_KEYS),
        st.one_of(
            st.sampled_from(_VALUES),
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.integers(-3, 60).map(str),
            st.text(alphabet="ab,.-+e019 _#=", max_size=6),
        ),
    )
    for key, value in draw(st.lists(entry, max_size=12)):
        lines.append(f"{key} = {value}")
    lines += draw(st.lists(st.text(alphabet="ab.=# 1\t", max_size=8), max_size=2))
    return "\n".join(draw(st.permutations(lines))) + "\n"


def _valid_text(key):
    """A strategy of entry text that a numeric or boolean ``key``'s parser and bound accept, or None for
    a text or id-list key, whose value the block sets."""
    if key.parse is scenario._to_float:
        return st.floats({"> 0": 1e-3, ">= 0": 0.0}.get(key.bound, -1e3), 1e3).map(repr)
    if key.parse is scenario._to_int:
        return st.integers(0 if key.bound else -3, 60).map(str)
    if key.parse is scenario._to_bool:
        return st.sampled_from(["true", "false"])
    return None


_BAD_TEXTS = ["-1", "0", "-0.5", "nan", "inf", "1e999", "x", "Trip", "RandomDirection", "Teleport", "bs1",
              "a,b", "1,,2", "maybe"]


@st.composite
def _block_texts(draw):
    """Whole blocks of valid entries, then one fault: the scalars, up to two vehicles (vehicle 0 possibly
    in the top-level shorthand), up to two stations and signals, and the radio and interference keys, each
    block with the entries it sets and a drawn subset of the rest.  The fault swaps one entry's value for
    a bad one or drops an entry, so most texts fail on a record's own rule or bound, not on line syntax."""
    def block(prefix, keys, **fixed):
        rows = [(prefix + name, value) for name, value in fixed.items()]
        for key in keys:
            if key.name not in fixed and (valid := _valid_text(key)) is not None and draw(st.booleans()):
                rows.append((prefix + key.name, draw(valid)))
        return rows

    # of the scalars only seed is drawn: dt and sampling keep the defaults, which divide the duration
    entries = block("", [key for key in scenario._SCALAR_KEYS if key.name == "seed"], map="net.osm", duration="10")
    count = draw(st.integers(0, 2))
    for index in range(count):
        prefix = "" if count == 1 and draw(st.booleans()) else f"vehicle.{index}."
        strategy = draw(st.sampled_from([{}, {"strategicModel": "RandomDirection"},
                                         {"strategicModel": "Trip", "trip": "1,2"},
                                         {"strategicModel": "Trip", "strategicModel.trip": "3"}]))
        entries += block(prefix, scenario._VEHICLE_KEYS, way=str(draw(st.integers(1, 9))), **strategy)
    for index in draw(st.lists(st.integers(0, 3), max_size=2, unique=True)):
        named = {"id": f"cell{index}"} if draw(st.booleans()) else {}
        entries += block(f"station.{index}.", scenario._STATION_KEYS, x="0.0", y=repr(index * 500.0), **named)
    for node in draw(st.lists(st.integers(1, 9), max_size=2, unique=True)):
        entries += block(f"signal.{node}.", scenario._SIGNAL_KEYS)
    entries += block("radio.", scenario._RADIO_KEYS)
    entries += block("interference.", scenario._INTERFERENCE_KEYS,
                     **({"strategicModel": "RandomDirection"} if draw(st.booleans()) else {}))
    at = draw(st.integers(0, len(entries) - 1))
    key, _ = entries.pop(at)
    if draw(st.booleans()):
        entries.insert(at, (key, draw(st.sampled_from(_BAD_TEXTS))))
    return "\n".join(draw(st.permutations([f"{key} = {value}" for key, value in entries]))) + "\n"


def _block_of(key):
    """The block a config key's entry belongs to, as the loader groups them (a top-level vehicle key is
    vehicle 0's, and ``vehicle.0`` names vehicle 0's block), or None for a key no block accepts."""
    if m := re.fullmatch(r"(vehicle|station|signal)\.(\d+)(\..+)?", key):
        return f"{m.group(1)}.{int(m.group(2))}."
    section, _, name = key.partition(".")
    if section in ("interference", "radio") and name:
        return section + "."
    return {**dict.fromkeys(scenario._NAMES["vehicle"], "vehicle.0."),
            **dict.fromkeys(scenario._NAMES["scalar"], "")}.get(key)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_config_texts(), _block_texts()))
def test_any_config_text_is_located_error_or_round_trips(text):
    try:
        cfg = load_config(text)
    except ConfigError as exc:
        assert exc.key is not None or exc.line is not None
        if exc.line is not None:  # a line of the text, setting the error's key or another of its block
            lines = text.splitlines()
            assert 1 <= exc.line <= len(lines)
            typed = lines[exc.line - 1].split("#", 1)[0].partition("=")[0].strip()
            if exc.key is not None:
                assert typed == exc.key or _block_of(typed) == _block_of(exc.key) is not None, (exc, typed)
        return
    echo = dumps_config(cfg)
    assert load_config(echo) == cfg
    assert dumps_config(load_config(echo)) == echo


def test_read_trace_rejects_foreign_files(tmp_path):
    bad = tmp_path / "other.csv"
    bad.write_text("time,id\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_trace(bad)


_GOOD_ROW = "0,0,1.000,2.000,3.000,0.000,,"
_MALFORMED_TRACES = {
    "short-row": (f"{TRACE_HEADER}\n{_GOOD_ROW}\n0,1,1.0\n", "line 3"),
    "long-row": (f"{TRACE_HEADER}\n{_GOOD_ROW},7\n", "line 2"),
    "bad-header": ("t,id,x\n0,0,1\n", "line 1"),
    "bad-id": (f"{TRACE_HEADER}\n{_GOOD_ROW}\n{_GOOD_ROW}\n0,1.5,1,2,3,0,,\n", "line 4"),
    "bad-number": (f"{TRACE_HEADER}\n0,0,1,2,x,0,,\n", "line 2"),
    "bad-rssi": (f"{TRACE_HEADER}\n0,0,1,2,3,0,a,dbm\n", "line 2"),
    "nan-x": (f"{TRACE_HEADER}\n{_GOOD_ROW}\n0,1,nan,2,3,0,,\n", "line 3"),
    "inf-y": (f"{TRACE_HEADER}\n0,0,1,inf,3,0,,\n", "line 2"),
    "minus-inf-t": (f"{TRACE_HEADER}\n{_GOOD_ROW}\n{_GOOD_ROW}\n-inf,1,1,2,3,0,,\n", "line 4"),
    "nan-v": (f"{TRACE_HEADER}\n0,0,1,2,NaN,0,,\n", "line 2"),
    "inf-acc": (f"{TRACE_HEADER}\n0,0,1,2,3,Infinity,,\n", "line 2"),
    "nan-rssi": (f"{TRACE_HEADER}\n0,0,1,2,3,0,a,nan\n", "line 2"),
    # the first fault in the file is the one reported, and within a line the first field's
    "nan-before-short-row": (f"{TRACE_HEADER}\n{_GOOD_ROW}\n0,1,nan,2,3,0,,\n{_GOOD_ROW}\n0,1,1.0\n", "line 3"),
    "nan-before-bad-number": (f"{TRACE_HEADER}\n0,0,1,inf,x,0,,\n", "line 2: expected a finite number, got 'inf'"),
    "bad-id-before-bad-number": (f"{TRACE_HEADER}\n0,1.5,x,2,3,0,,\n", "line 2: invalid literal for int"),
    "nan-before-bad-rssi": (f"{TRACE_HEADER}\n0,0,1,2,nan,0,a,dbm\n", "line 2: expected a finite number, got 'nan'"),
    "blank-line": (f"{TRACE_HEADER}\n{_GOOD_ROW}\n\n{_GOOD_ROW}\n", "line 3"),
    "crlf": (f"{TRACE_HEADER}\r\n{_GOOD_ROW}\r\n", "line 1"),
    "id-beyond-int64": (f"{TRACE_HEADER}\n{_GOOD_ROW}\n0,{2 ** 63},1,2,3,0,,\n", "line 3"),
    # a byte that does not decode is named at its own line, not at the line a decoder reading ahead has reached
    "undecodable-byte": ((f"{TRACE_HEADER}\n" + f"{_GOOD_ROW}\n" * 1499).encode() + b"0,0,1\xff,2,3,0,,\n"
                         + f"{_GOOD_ROW}\n".encode() * 1500, "line 1501"),
    "undecodable-byte-in-a-short-trace": (f"{TRACE_HEADER}\n{_GOOD_ROW}\n".encode() + b"0,0,1\xff,2,3,0,,\n"
                                          + f"{_GOOD_ROW}\n".encode() * 8, "line 3"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_TRACES))
def test_malformed_trace_is_a_located_input_error(corridor_map, tmp_path, capsys, caplog, name):
    text, where = _MALFORMED_TRACES[name]
    trace = tmp_path / "trace.csv"
    trace.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValueError, match=where):
        read_trace(trace)
    for argv in (["spacetime", str(trace), "--out", str(tmp_path / "st.csv")],
                 ["map-svg", str(corridor_map), "--trace", str(trace), "--out", str(tmp_path / "m.svg")]):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert where in err and str(trace) in err and len(err.splitlines()) == 1
        assert "Traceback" not in err + caplog.text


def _reference_read_trace(path):
    """The per-sample reader that :class:`Trace` replaced, kept as its oracle
    and narrowed to the format NumPy's C reader reads: one (t, vehicle_id, x,
    y, v, acc, serving_cell, rssi) tuple per line, blanks None."""
    def number(text, parse=float):
        if "_" in text or any(ord(c) > 127 for c in text.strip()):
            raise ValueError(f"expected ASCII digits without '_', got {text!r}")
        value = parse(text)
        if parse is int and not -(2 ** 63) <= value <= 2 ** 63 - 1:
            raise ValueError(f"expected a 64-bit integer, got {text!r}")
        if parse is float and value - value != 0.0:  # inf - inf and nan - nan are nan
            raise ValueError(f"expected a finite number, got {text!r}")
        return value

    rows = []
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise ValueError(f"line 1: unexpected trace header {header!r}")
        try:
            for raw in fh:
                for c in raw:
                    if c in "\r\x00\x1c\x1d\x1e\x1f":
                        raise ValueError(f"holds {c!r}, which a trace may not")
                t, vid, x, y, v, acc, cell, rssi = raw.rstrip("\n").split(",")
                row = (number(t), number(vid, int), number(x), number(y), number(v), number(acc), cell or None)
                if rows and (rows[0][-1] is None) != (rssi == ""):
                    first = "blank" if rows[0][-1] is None else "a number"
                    raise ValueError(f"rssi {rssi!r} where the first row's is {first}")
                rows.append(row + (number(rssi) if rssi else None,))
        except ValueError as exc:
            raise ValueError(f"line {len(rows) + 2}: {exc}") from None
    return rows


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


# values that the format accepts
_GOOD_NUMBERS = ("0", "-0", "1.5", "-3.250", "1e308", "-1e308", "2.5e-300", " 7", "+4.", "2 ", "\xa07", "7\x85")
_GOOD_IDS = ("0", "7", "-3", "0012", "+5", " 7", "\xa07", str(-2 ** 63), str(2 ** 63 - 1))
_GOOD_CELLS = ("", "eNB1", "cell 2", "é", " eNB1 ", "a#b", '"q"', "#")
_GOOD_RSSI = ("-70.25", "-112.91", " -3")
# and values that it refuses, some of which float() or int() alone would read
_NUMBERS = _GOOD_NUMBERS + ("1_0", "١٢", "nan", "NaN", "inf", "-inf", "Infinity", "1e999", "x", "", "0x10", "1.5.2",
                            "\x1c7", "7\x1f")
_IDS = _GOOD_IDS + ("1.5", "x", "", "1e3", "7\x1c", "1_0", "١٢", str(2 ** 63), str(-2 ** 63 - 1))
_CELLS = _GOOD_CELLS + ('"a,b"', "\x00", "a\x1cb")
_RSSI = ("", *_GOOD_RSSI, "nan", "inf", "dbm", "\x00", " ", "-70#")


@st.composite
def _trace_texts(draw):
    # half the files hold only values that the format accepts, under a blank or
    # a numeric rssi column, so that well-formed files are common
    good = draw(st.booleans())
    numbers, ids, cells = (_GOOD_NUMBERS, _GOOD_IDS, _GOOD_CELLS) if good else (_NUMBERS, _IDS, _CELLS)
    rssi = draw(st.sampled_from((("",), _GOOD_RSSI))) if good else _RSSI
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        fields = [draw(st.sampled_from(numbers)), draw(st.sampled_from(ids))]
        fields += [draw(st.sampled_from(numbers)) for _ in range(4)]
        fields += [draw(st.sampled_from(cells)), draw(st.sampled_from(rssi))]
        if not good and draw(st.integers(0, 9)) == 0:  # a row one field short or long
            fields = fields[:-1] if draw(st.booleans()) else fields + ["1"]
        lines.append(",".join(fields))
    ending = draw(st.sampled_from(("\n", "\n", "\n", "\r\n", "\n\n", "\r")))
    return TRACE_HEADER + "\n" + ending.join(lines) + draw(st.sampled_from(("", "\n", "\n\n")))


@settings(max_examples=300, deadline=None)
@given(_trace_texts())
def test_read_trace_matches_the_per_sample_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "oracle_trace.csv"
    path.write_bytes(text.encode())
    got, want = _outcome(read_trace, path), _outcome(_reference_read_trace, path)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert len(got) == len(want)
    columns = [got.t, got.vehicle_id, got.x, got.y, got.v, got.acc, got.serving_cell,
               np.where(np.isnan(got.rssi), None, got.rssi)]
    assert list(zip(*(column.tolist() for column in columns))) == want


def test_read_trace_columns(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text(f"{TRACE_HEADER}\n0.5,3,1.000,-2.000,3.500,-0.250,eNB1,-71.25\n1,-4,0,0,0,0,eNB2,-90\n"
                     f"1.5,3,1,2,3,4,eNB1,-80\n")
    columns = read_trace(trace)
    assert len(columns) == 3
    assert columns.t.tolist() == [0.5, 1.0, 1.5] and columns.vehicle_id.tolist() == [3, -4, 3]
    assert columns.x.tolist() == [1.0, 0.0, 1.0] and columns.y.tolist() == [-2.0, 0.0, 2.0]
    assert columns.v.tolist() == [3.5, 0.0, 3.0] and columns.acc.tolist() == [-0.25, 0.0, 4.0]
    assert columns.vehicle_id.dtype == np.int64 and columns.t.dtype == columns.rssi.dtype == np.float64
    assert columns.rssi.tolist() == [-71.25, -90.0, -80.0]
    assert columns.serving_cell.tolist() == ["eNB1", "eNB2", "eNB1"]
    assert columns.serving_cell[0] is columns.serving_cell[2]  # one string object per distinct cell
    # a blank rssi and serving cell, as a run without stations writes them in every row
    trace.write_text(f"{TRACE_HEADER}\n1,-4,0,0,0,0,,\n")
    columns = read_trace(trace)
    assert np.isnan(columns.rssi).all() and columns.serving_cell.tolist() == [None]
    # an rssi blank in some rows only is refused at the first row that differs from the first
    trace.write_text(f"{TRACE_HEADER}\n0.5,3,1,2,3,4,eNB1,-71.25\n1,-4,0,0,0,0,,\n")
    with pytest.raises(ValueError, match=r"^line 3: rssi '' where the first row's is a number$"):
        read_trace(trace)


def test_read_trace_accepts_finite_numbers_whose_sum_overflows(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text(f"{TRACE_HEADER}\n1e308,0,1e308,-1e308,1e308,1e308,,\n")
    columns = read_trace(trace)
    assert columns.x.tolist() == [1e308] and columns.y.tolist() == [-1e308] and np.isnan(columns.rssi[0])


def _rows(trace):
    """A Trace as the reference's tuples, blanks None."""
    columns = [trace.t, trace.vehicle_id, trace.x, trace.y, trace.v, trace.acc, trace.serving_cell,
               np.where(np.isnan(trace.rssi), None, trace.rssi)]
    return list(zip(*(column.tolist() for column in columns)))


_BLANK_ROW = "0,1,2,3,4,5,,"
_VALUE_ROW = "0.1,2,3,4,5,6,a,-70.5"
# name -> (text, whether the format accepts it); each reads as the reference reads it
_EDGE_TRACES = {
    "blank-rssi": (f"{TRACE_HEADER}\n{_BLANK_ROW}\n{_BLANK_ROW}\n", True),
    "numeric-rssi": (f"{TRACE_HEADER}\n{_VALUE_ROW}\n{_VALUE_ROW}\n", True),
    "no-final-newline": (f"{TRACE_HEADER}\n{_VALUE_ROW}\n{_VALUE_ROW}", True),
    "cells-with-spaces-hash-and-quotes": (f'{TRACE_HEADER}\n0,1,2,3,4,5, a ,-1\n0,2,2,3,4,5,#,-2\n0,3,2,3,4,5,"q",-3\n',
                                          True),
    "signed-and-spaced-ids": (f"{TRACE_HEADER}\n0,+5,2,3,4,5,,\n0, 7,2,3,4,5,,\n", True),
    "non-ascii-space-around-numbers": (f"{TRACE_HEADER}\n\xa00,7\x85,2,3,4,5,,\n", True),
    "ids-at-the-int64-bounds": (f"{TRACE_HEADER}\n0,{-2 ** 63},2,3,4,5,,\n0,{2 ** 63 - 1},2,3,4,5,,\n", True),
    # what a run without vehicles writes
    "header-only": (f"{TRACE_HEADER}\n", True),
    "header-without-line-end": (TRACE_HEADER, True),
    # an rssi blank in some rows only, refused at the first row that differs from the first
    "blank-then-value-rssi": (f"{TRACE_HEADER}\n{_BLANK_ROW}\n{_VALUE_ROW}\n", False),
    "value-then-blank-rssi": (f"{TRACE_HEADER}\n{_VALUE_ROW}\n{_BLANK_ROW}\n", False),
    "header-then-blank-line": (f"{TRACE_HEADER}\n\n", False),
    "blank-line-between-rows": (f"{TRACE_HEADER}\n{_VALUE_ROW}\n\n{_VALUE_ROW}\n", False),
    "lone-cr-endings": (f"{TRACE_HEADER}\n{_VALUE_ROW}\r{_VALUE_ROW}\r", False),
    # after a blank first rssi, NumPy's C reader would read a NUL or the \r of a \r\n in the rssi cell as blank
    "nul-rssi": (f"{TRACE_HEADER}\n{_BLANK_ROW}\n{_BLANK_ROW}\x00\n", False),
    "crlf-after-blank-rssi": (f"{TRACE_HEADER}\n{_BLANK_ROW}\n{_BLANK_ROW}\r\n", False),
    "separator-around-a-number": (f"{TRACE_HEADER}\n0,\x1c7,2,3,4,5,,\n", False),
    "separator-in-a-cell": (f"{TRACE_HEADER}\n0,7,2,3,4,5,a\x1fb,-1\n", False),
    # float() and int() read these, NumPy's C reader does not
    "underscore-in-a-number": (f"{TRACE_HEADER}\n0,1,2_0,3,4,5,,\n", False),
    "non-ascii-digits": (f"{TRACE_HEADER}\n0,١٢,2,3,4,5,,\n", False),
    "id-beyond-int64": (f"{TRACE_HEADER}\n0,{-2 ** 63 - 1},2,3,4,5,,\n", False),
    "float-id": (f"{TRACE_HEADER}\n0,1.5,2,3,4,5,,\n", False),
    "id-as-exponent": (f"{TRACE_HEADER}\n0,1e3,2,3,4,5,,\n", False),
    "non-finite-rssi": (f"{TRACE_HEADER}\n0,1,2,3,4,5,a,inf\n", False),
}


@pytest.mark.parametrize("name", sorted(_EDGE_TRACES))
def test_edge_traces_read_as_the_reference_reads_them(tmp_path, name):
    text, accepted = _EDGE_TRACES[name]
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    got, want = _outcome(read_trace, path), _outcome(_reference_read_trace, path)
    assert (got if isinstance(got, str) else _rows(got)) == want
    assert isinstance(got, scenario.Trace) == accepted
    assert accepted or re.match(r"line \d+: ", got), got


def test_a_numpy_1x_deprecation_warning_is_a_located_fault(tmp_path, monkeypatch):
    # NumPy 1.x parses an integer cell such as "1.5" through a float and only warns; the
    # C reader's table is then dropped, and the line that holds the id is named
    path = tmp_path / "trace.csv"
    path.write_text(f"{TRACE_HEADER}\n{_BLANK_ROW}\n0,1.5,2,3,4,5,,\n")
    loadtxt, calls = np.loadtxt, []

    def numpy_1x_loadtxt(*args, **kwargs):
        calls.append(1)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning, stacklevel=2)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(scenario.np, "loadtxt", numpy_1x_loadtxt)
    with pytest.raises(ValueError, match=r"^line 3: invalid literal for int\(\) with base 10: '1\.5'$"):
        read_trace(path)
    assert calls == [1]


def test_run_traces_read_as_the_reference_reads_them(handover_run, grid_map, tmp_path):
    # one run with stations, one without (blank serving cell and rssi columns)
    config = load_config(f"map = {grid_map}\nduration = 20\nsampling = 0.1\nseed = 3\ninterference.count = 6\n")
    blank = run(config, tmp_path / "blank")
    for artifacts in (handover_run[0], blank):
        trace = read_trace(artifacts.trace_path)
        assert len(trace) > 90 and _rows(trace) == _reference_read_trace(artifacts.trace_path)
    assert np.isnan(trace.rssi).all() and all(cell is None for cell in trace.serving_cell)


def test_a_run_without_vehicles_reads_back_as_an_empty_trace(grid_map, tmp_path, capsys):
    artifacts = run(load_config(f"map = {grid_map}\nduration = 5\n"), tmp_path / "out")
    assert artifacts.trace_path.read_text() == TRACE_HEADER + "\n"
    trace = read_trace(artifacts.trace_path)
    assert len(trace) == 0 and trace.vehicle_id.dtype == np.int64 and trace.t.dtype == np.float64
    assert cli_main(["map-svg", str(grid_map), "--trace", str(artifacts.trace_path),
                     "--out", str(tmp_path / "map.svg")]) == 0
    assert "wrote" in capsys.readouterr().out and "#cc2222" not in (tmp_path / "map.svg").read_text()  # no vehicle


def test_read_trace_peak_memory_is_at_most_twice_its_columns(tmp_path):
    rng = np.random.default_rng(5)
    n = 20_000
    x, y = rng.uniform(-2000.0, 2000.0, (2, n))
    v, rssi = rng.uniform(0.0, 20.0, n), rng.uniform(-120.0, -60.0, n)
    path = tmp_path / "trace.csv"
    path.write_text(TRACE_HEADER + "\n" + "".join(
        f"{i // 40 / 10:g},{i % 40},{x[i]:.3f},{y[i]:.3f},{v[i]:.3f},0.000,site{i % 3},{rssi[i]:.2f}\n"
        for i in range(n)))
    read_trace(path)  # once first, so that lazy imports and caches are not counted
    tracemalloc.start()
    try:
        trace = read_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(trace, name).nbytes for name in scenario.Trace.__slots__)
    assert len(trace) == n and peak <= 2 * columns


def test_map_and_trace_io_leave_no_garbage_cycles(corridor_map, handover_run):
    # the expat handlers close over their parser: left set, parser, handlers
    # and every record they reach would wait for a full collection
    artifacts, _ = handover_run
    gc.collect()
    graph = parse_osm(corridor_map.read_bytes())
    trace = read_trace(artifacts.trace_path)
    assert export_svg(graph, trace).count("#cc2222") == 1
    del graph, trace
    assert gc.collect() == 0


def test_map_declaring_latin1_runs_and_draws(tmp_path, capsys, caplog):
    # the map is read as bytes, so expat decodes it as its XML declaration says
    text = grid_osm_xml(3, 300.0).replace('encoding="UTF-8"', 'encoding="ISO-8859-1"').replace(
        '<tag k="highway" v="residential"/>', '<tag k="highway" v="residential"/><tag k="name" v="Straße"/>')
    (tmp_path / "grid.osm").write_bytes(text.encode("latin-1"))
    config = _write_config(tmp_path, "map = grid.osm\nduration = 5\nseed = 2\ninterference.count = 3\n")
    assert cli_main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    assert cli_main(["map-svg", str(tmp_path / "grid.osm"), "--trace", str(tmp_path / "out" / "trace.csv"),
                     "--out", str(tmp_path / "map.svg")]) == 0
    assert (tmp_path / "map.svg").read_text().count("#cc2222") == 3
    # bytes that do not decode as declared are an input error naming the line
    (tmp_path / "grid.osm").write_bytes(text.replace("ISO-8859-1", "UTF-8").encode("latin-1"))
    assert cli_main(["map-svg", str(tmp_path / "grid.osm"), "--out", str(tmp_path / "map.svg")]) == 1
    err = capsys.readouterr().err
    assert "malformed OSM XML at line" in err and "not well-formed (invalid token)" in err
    assert "Traceback" not in err + caplog.text


# -- running ------------------------------------------------------------------


@pytest.fixture(scope="module")
def corridor_map(tmp_path_factory):
    path = tmp_path_factory.mktemp("maps") / "corridor.osm"
    path.write_text(corridor_osm_xml(1000.0))
    return path


@pytest.fixture(scope="module")
def grid_map(tmp_path_factory):
    path = tmp_path_factory.mktemp("maps") / "grid.osm"
    path.write_text(grid_osm_xml(3, 300.0))
    return path


def test_trace_fencepost_and_blank_radio_columns(corridor_map, tmp_path):
    cfg = load_config(f"map = {corridor_map}\nduration = 60\nway = 1\nparked = true\n")
    artifacts = run(cfg, tmp_path / "out")
    lines = artifacts.trace_path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 1 + 61  # t = 0..60 inclusive at 1 s sampling
    assert lines[1].split(",")[0] == "0"
    assert lines[2].split(",")[0] == "1"
    samples = read_trace(artifacts.trace_path)
    assert len(samples) == 61
    assert all(cell is None for cell in samples.serving_cell) and np.isnan(samples.rssi).all()
    assert artifacts.summary["events_fired"] == 600
    assert artifacts.summary["vehicles"] == 1
    assert artifacts.summary["aborted"] is False
    assert artifacts.events_path.read_text().splitlines() == [EVENTS_HEADER]
    # the echo is the canonical dump and reloads to the same config
    assert load_config(artifacts.config_path.read_text()) == cfg


def test_every_trace_rssi_is_the_exact_level_rounded(tmp_path):
    # the shadowed radio grid of the golden pins, sampled every step: each trace row's cell and
    # rssi are those of current_all's full-precision level at that step
    (tmp_path / "grid.osm").write_text(grid_osm_xml(4, 300.0))
    stations = "".join(f"station.{i}.id = {cell}\nstation.{i}.x = {x}\nstation.{i}.y = {y}\n"
                       for i, (cell, x, y) in enumerate([("n", 0, 400), ("s", 0, -400), ("e", 400, 0), ("w", -450, 0)]))
    config = load_config("map = grid.osm\nduration = 60\nseed = 5\ndt = 0.1\nsampling = 0.1\n"
                         "interference.count = 30\nradio.shadowing_sigma = 4\n" + stations, base_dir=tmp_path)
    host = HeapHost()
    kernel = EventKernel(host=host)
    simulation = Simulation(config, tmp_path / "out")
    simulation.attach(kernel)
    expected = []
    while True:
        expected += [f"{cell},{level:.2f}" for cell, level in simulation.observer.current_all(range(30))]
        if not host.heap:
            break
        kernel.deliver_from_host(host.pop())  # one step
    artifacts = simulation.finish()
    rows = artifacts.trace_path.read_text().splitlines()[1:]
    assert len(rows) == len(expected) == 601 * 30
    assert [row.split(",", 6)[6] for row in rows] == expected


def test_fractional_sample_stamps(corridor_map, tmp_path):
    cfg = load_config(f"map = {corridor_map}\nduration = 2\nsampling = 0.5\nway = 1\nparked = true\n")
    artifacts = run(cfg, tmp_path / "out")
    stamps = [line.split(",")[0] for line in artifacts.trace_path.read_text().splitlines()[1:]]
    assert stamps == ["0", "0.5", "1", "1.5", "2"]


# run-time errors name the key in its normalised spelling and the line it was typed on
@pytest.mark.parametrize("prefix", ["", "vehicle.0.", "vehicle.00."], ids=lambda p: p + "offset")
def test_placement_failure_names_key_and_line(corridor_map, tmp_path, prefix):
    text = f"map = {corridor_map}\nduration = 10\n{prefix}way = 1\n{prefix}offset = 5000\n"
    with pytest.raises(ConfigError) as err:
        run(load_config(text), tmp_path / "out")
    key = prefix.replace("00", "0") + "offset"
    assert (err.value.key, err.value.line) == (key, 4)
    assert f"{key} (line 4)" in str(err.value)


def test_interference_with_no_room_left_names_key_and_line(tmp_path):
    # a 50 m one-way lane holds at most eight vehicles 7 m apart
    (tmp_path / "short.osm").write_text(corridor_osm_xml(50.0))
    text = f"map = {tmp_path / 'short.osm'}\nduration = 10\ninterference.count = 20\n"
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=r"interference vehicle \d+ after 200 attempts") as err:
        run(load_config(text), out)
    assert (err.value.key, err.value.line) == ("interference.count", 3)
    assert "interference.count (line 3)" in str(err.value)
    assert not (out / "trace.csv").exists()


def test_red_crossing_writes_a_signal_violation_row(tmp_path):
    # as tests/test_mobility.py's: on the stop line at 10 m/s while node 2's light is red
    path = tmp_path / "chain.osm"
    path.write_text(corridor_osm_xml(600.0, count=3))
    graph = parse_osm(path.read_bytes())
    text = (
        f"map = {path}\nduration = 1\nway = 1\noffset = {graph.ref(1, 0, True).length!r}\nspeed = 10\n"
        "speed_factor = 1\nstrategicModel = Trip\ntrip = 3\nsignal.2.offset = 25\n"
    )
    artifacts = run(load_config(text), tmp_path / "out")
    x, y = graph.position(2)
    assert artifacts.events_path.read_text().splitlines() == [
        EVENTS_HEADER, f"0,signal_violation,0,,,{x:.3f},{y:.3f}"]
    assert json.loads(artifacts.summary_path.read_text())["signal_violation_count"] == 1


@pytest.mark.parametrize(
    "prefix, trip_key",
    [("", "trip"), ("", "strategicModel.trip"),
     ("vehicle.00.", "trip"), ("vehicle.00.", "strategicModel.trip")],
    ids=["trip", "strategicModel.trip", "vehicle.00.trip", "vehicle.00.strategicModel.trip"],
)
def test_unroutable_trip_reported_on_trip_key(corridor_map, tmp_path, prefix, trip_key):
    text = (
        f"map = {corridor_map}\nduration = 10\n{prefix}way = 1\n"
        f"{prefix}strategicModel = Trip\n{prefix}{trip_key} = 1\n"  # against the one-way direction
    )
    cfg = load_config(text)
    with pytest.raises(ConfigError) as err:
        run(cfg, tmp_path / "out")
    key = prefix.replace("00", "0") + "trip"
    assert (err.value.key, err.value.line) == (key, 5)
    assert f"{key} (line 5)" in str(err.value)
    assert "no route" in str(err.value)


@pytest.mark.parametrize("index", ["99999", "099999"], ids=lambda i: f"signal.{i}")
def test_unknown_signal_node_rejected(grid_map, tmp_path, index):
    text = f"map = {grid_map}\nduration = 1\nsignal.{index}.red = 10\nsignal.{index}.green = 10\n"
    with pytest.raises(ConfigError, match="signal.99999") as err:
        run(load_config(text), tmp_path / "out")
    assert (err.value.key, err.value.line) == ("signal.99999", 3)


def test_aborted_run_leaves_partial_artifacts(corridor_map, tmp_path):
    # a random walker on a one-way dead end must strand mid-run
    text = (
        f"map = {corridor_map}\nduration = 30\nsampling = 0.1\n"
        "way = 1\noffset = 900\nspeed = 13.89\nspeed_factor = 1.0\n"
        "strategicModel = RandomDirection\n"
    )
    out = tmp_path / "out"
    with pytest.raises(StrandedError):
        run(load_config(text), out)
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == TRACE_HEADER
    assert len(trace_lines) > 5  # several seconds of samples before the abort
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted"] is True
    assert "StrandedError" in summary["error"]
    # one row per completed step after the header and the t = 0 row; the
    # step that raised wrote no row and does not count as fired
    assert summary["events_fired"] == len(trace_lines) - 2
    assert (out / "events.csv").exists()


def test_second_simulation_on_a_shared_kernel_is_refused(corridor_map, tmp_path):
    config = load_config(f"map = {corridor_map}\nduration = 1\nway = 1\nspeed = 10\n")
    kernel = EventKernel()
    first = Simulation(config, tmp_path / "first")
    first.attach(kernel)
    second = Simulation(config, tmp_path / "second")
    # a second "runner" binding would take over the first simulation's steps
    with pytest.raises(KernelError, match="already has a handler"):
        second.attach(kernel)
    second.finish()
    kernel.run_until(config.duration_s)
    assert first.finish().summary["events_fired"] == first.steps == 10


HANDOVER_SCENARIO = (
    "map = {map}\nduration = 90\nsampling = {sampling}\n"
    "way = 1\nspeed = 13.89\nspeed_factor = 1.0\n"
    "strategicModel = Trip\ntrip = 2\n"
    "station.0.id = west\nstation.0.x = -400\nstation.0.y = 30\n"
    "station.1.id = east\nstation.1.x = 400\nstation.1.y = 30\n"
)


@pytest.fixture(scope="module")
def handover_run(corridor_map, tmp_path_factory):
    out = tmp_path_factory.mktemp("ho")
    cfg = load_config(HANDOVER_SCENARIO.format(map=corridor_map, sampling=1))
    return run(cfg, out), cfg


def test_radio_columns_fully_populated(handover_run):
    artifacts, _ = handover_run
    samples = read_trace(artifacts.trace_path)
    assert len(samples)
    assert set(samples.serving_cell) == {"west", "east"}
    assert samples.rssi.dtype == float and np.isfinite(samples.rssi).all()
    assert samples.serving_cell[0] == "west"
    assert samples.serving_cell[-1] == "east"


def test_handover_recorded_in_events_and_summary(handover_run):
    artifacts, _ = handover_run
    lines = artifacts.events_path.read_text().splitlines()
    assert lines[0] == EVENTS_HEADER
    handovers = [ln for ln in lines[1:] if ln.split(",")[1] == "handover"]
    assert len(handovers) == 1
    fields = handovers[0].split(",")
    assert (fields[3], fields[4]) == ("west", "east")
    assert artifacts.summary["handover_count"] == 1
    assert artifacts.summary["ping_pong_count"] == 0
    assert artifacts.summary["completed_trips"] == 1


def test_handover_sequence_is_sampling_invariant(handover_run, corridor_map, tmp_path):
    coarse_cfg = load_config(HANDOVER_SCENARIO.format(map=corridor_map, sampling=3))
    coarse = run(coarse_cfg, tmp_path / "coarse")
    fine, _ = handover_run
    assert coarse.events_path.read_bytes() == fine.events_path.read_bytes()
    coarse_lines = coarse.trace_path.read_text().splitlines()
    assert len(coarse_lines) == 1 + 31  # 90 s at 3 s sampling


PING_PONG_SCENARIO = (
    "map = {map}\nduration = 60\nseed = 4\ninterference.count = 40\n"
    "station.0.x = 0\nstation.0.y = 0\nstation.1.x = 1200\nstation.1.y = 1200\n"
    "station.2.x = 1200\nstation.2.y = 0\n"
    "radio.hysteresis = 0.5\nradio.ttt = 0.2\nradio.shadowing_sigma = 3\nradio.pingpong_window = {window}\n"
)


@pytest.mark.parametrize("window, ping_pongs", [(30, 162), (3, 139)])
def test_ping_pong_rows_reverse_the_previous_handover_within_the_window(tmp_path_factory, window, ping_pongs):
    grid = tmp_path_factory.mktemp("maps") / "grid5.osm"
    grid.write_text(grid_osm_xml(5, 300.0))
    artifacts = run(load_config(PING_PONG_SCENARIO.format(map=grid, window=window)), tmp_path_factory.mktemp("pp"))
    rows = [line.split(",") for line in artifacts.events_path.read_text().splitlines()[1:]]
    # rows are sorted by (time, vehicle, kind), so a ping-pong follows the handover it flags
    previous, expected, seen = {}, [], []
    for t, kind, vid, cell_a, cell_b, x, y in rows:
        if kind == "handover":
            back = previous.get(vid)
            if back and (back[1], back[2]) == (cell_b, cell_a) and float(t) - float(back[0]) <= window:
                expected.append([t, "ping_pong", vid, cell_b, cell_a, x, y])
            previous[vid] = (t, cell_a, cell_b)
        else:
            assert kind == "ping_pong"
            seen.append([t, kind, vid, cell_a, cell_b, x, y])
    assert seen == expected
    assert (artifacts.summary["handover_count"], artifacts.summary["ping_pong_count"]) == (172, ping_pongs)


def test_same_seed_reproduces_bytes_different_seed_does_not(grid_map, tmp_path):
    text = f"map = {grid_map}\nduration = 5\nseed = 7\ninterference.count = 8\n"
    cfg = load_config(text)
    a = run(cfg, tmp_path / "a")
    b = run(cfg, tmp_path / "b")
    assert a.trace_path.read_bytes() == b.trace_path.read_bytes()
    assert a.summary == b.summary
    c = run(replace(cfg, seed=8), tmp_path / "c")
    assert c.trace_path.read_bytes() != a.trace_path.read_bytes()


def test_interference_streams_are_stable_per_vehicle_id(grid_map, tmp_path):
    few = run(
        load_config(f"map = {grid_map}\nduration = 1\ninterference.count = 3\n"),
        tmp_path / "few",
    )
    many = run(
        load_config(f"map = {grid_map}\nduration = 1\ninterference.count = 5\n"),
        tmp_path / "many",
    )
    first_rows_few = few.trace_path.read_text().splitlines()[1:4]
    first_rows_many = many.trace_path.read_text().splitlines()[1:4]
    assert first_rows_few == first_rows_many  # adding vehicles must not move earlier ones


# -- command line ---------------------------------------------------------------


def _write_config(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return path


def test_cli_run_happy_path(corridor_map, tmp_path, capsys):
    config = _write_config(
        tmp_path, f"map = {corridor_map}\nduration = 5\nway = 1\nparked = true\n"
    )
    out = tmp_path / "out"
    assert cli_main(["run", str(config), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("wrote ") == 3
    assert (out / "trace.csv").exists()
    assert (out / "summary.json").exists()


def test_cli_run_leaves_nothing_to_collect(grid_map, tmp_path, capsys):
    # the parser is built once, at import, summary.json is written without json's indenting encoder and
    # the lane tables' rearmost buffer holds a table's token, not the table, so a run leaves no object in a
    # reference cycle; the Trip vehicle sees past the node ahead, so its look-ahead fills that buffer
    config = _write_config(tmp_path, f"map = {grid_map}\nduration = 1\ninterference.count = 3\n"
                                     f"way = 100\nstrategicModel = Trip\ntrip = {grid_node_id(2, 2)}\n")
    gc.collect()
    debug = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)  # every unreachable object a collection finds lands in gc.garbage
    try:
        assert cli_main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
        gc.collect()
        left = [f"{type(obj).__module__}.{type(obj).__qualname__}" for obj in gc.garbage]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    assert left == []


def test_cli_relative_map_resolves_against_config_dir(corridor_map, tmp_path, capsys):
    config = _write_config(
        tmp_path, f"map = {corridor_map.name}\nduration = 5\nway = 1\nparked = true\n"
    )
    # copy the map next to the config so the relative name resolves
    (tmp_path / corridor_map.name).write_text(corridor_map.read_text())
    assert cli_main(["run", str(config), "--out", str(tmp_path / "out")]) == 0


def test_cli_seed_override_keeps_config_echo(grid_map, tmp_path, capsys):
    config = _write_config(
        tmp_path, f"map = {grid_map}\nduration = 2\nseed = 7\ninterference.count = 5\n"
    )
    assert cli_main(["run", str(config), "--out", str(tmp_path / "base")]) == 0
    assert cli_main(["run", str(config), "--out", str(tmp_path / "alt"), "--seed", "99"]) == 0
    capsys.readouterr()
    base, alt = tmp_path / "base", tmp_path / "alt"
    assert (base / "config.ini").read_bytes() == (alt / "config.ini").read_bytes()
    assert json.loads((alt / "summary.json").read_text())["seed"] == 99
    assert (base / "trace.csv").read_bytes() != (alt / "trace.csv").read_bytes()


def test_cli_duration_override_validated(corridor_map, tmp_path, capsys):
    config = _write_config(
        tmp_path, f"map = {corridor_map}\nduration = 5\nway = 1\nparked = true\n"
    )
    assert cli_main(["run", str(config), "--out", str(tmp_path / "bad"), "--duration", "1.23"]) == 1
    assert "multiple of dt" in capsys.readouterr().err
    for beyond in ("1e300", "inf", "nan"):
        out = str(tmp_path / "bad")
        assert cli_main(["run", str(config), "--out", out, "--duration", beyond]) == 1
        assert "duration" in capsys.readouterr().err
    assert cli_main(["run", str(config), "--out", str(tmp_path / "ok"), "--duration", "2"]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "ok" / "summary.json").read_text())["duration_s"] == 2.0


@pytest.mark.parametrize(
    "change, key",
    [({"duration_s": 0.15}, "duration"), ({"sampling_s": 0.05}, "sampling"),
     ({"dt_s": 1e-12}, "dt"), ({"duration_s": math.nan}, "duration")],
    ids=["duration-off-grid", "sampling-off-grid", "dt-below-1-ns", "duration-nan"],
)
def test_simulation_checks_the_time_grid_before_writing(corridor_map, tmp_path, change, key):
    # a config changed after load_config reaches the same rule, not a bare
    # ZeroDivisionError or ValueError, nor a run of a duration other than the summary's
    cfg = replace(load_config(f"map = {corridor_map}\nduration = 5\nway = 1\nparked = true\n"), **change)
    with pytest.raises(ConfigError) as err:
        run(cfg, tmp_path / "out")
    assert err.value.key == key
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", scenario._RADIO_KEYS, ids=lambda key: key.name)
def test_code_built_radio_params_at_their_edge_run_and_echo(corridor_map, tmp_path, key):
    # RadioParams built in code at the edge of each declared bound runs, and its echo loads back (a value
    # past the bound fails when built: test_declared_bounds_hold_when_built_and_when_loaded)
    base = load_config(f"map = {corridor_map}\nduration = 1\nway = 1\nparked = true\n"
                       "station.0.x = 0\nstation.0.y = 0\nstation.1.x = 900\nstation.1.y = 0\n")
    edge = 5e-324 if key.bound == "> 0" else 0.0
    cfg = replace(base, radio=replace(base.radio, **{key.attr: edge}))
    run(cfg, tmp_path / "edge")
    assert load_config((tmp_path / "edge" / "config.ini").read_text()).radio == cfg.radio


def test_cli_config_errors_exit_1(corridor_map, tmp_path, capsys, caplog):
    bad = _write_config(tmp_path, "map = net.osm\nduration = 10\nbogus = 1\n")
    assert cli_main(["run", str(bad), "--out", str(tmp_path / "o1")]) == 1
    assert "bogus" in capsys.readouterr().err
    missing_map = _write_config(tmp_path, "map = nowhere.osm\nduration = 10\n")
    assert cli_main(["run", str(missing_map), "--out", str(tmp_path / "o2")]) == 1
    assert "error" in capsys.readouterr().err
    # a directory where a file is read: as the config, as its map and as a trace
    folder = tmp_path / "folder"
    folder.mkdir()
    map_is_folder = _write_config(tmp_path, f"map = {folder}\nduration = 10\n")
    for argv in (["run", str(folder), "--out", str(tmp_path / "o3")],
                 ["run", str(map_is_folder), "--out", str(tmp_path / "o4")],
                 ["map-svg", str(folder), "--out", str(tmp_path / "m.svg")],
                 ["map-svg", str(corridor_map), "--trace", str(folder), "--out", str(tmp_path / "m.svg")],
                 ["spacetime", str(folder), "--out", str(tmp_path / "st.csv")]):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err + caplog.text


def test_cli_simulation_errors_exit_2(corridor_map, tmp_path, capsys):
    config = _write_config(
        tmp_path,
        f"map = {corridor_map}\nduration = 30\nway = 1\noffset = 900\nspeed = 13.89\n"
        "strategicModel = RandomDirection\n",
    )
    assert cli_main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_map_svg(grid_map, tmp_path, capsys):
    out = tmp_path / "grid.svg"
    assert cli_main(["map-svg", str(grid_map), "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 6  # 3 row ways + 3 column ways


def test_cli_map_svg_with_trace_overlay(corridor_map, handover_run, tmp_path, capsys):
    artifacts, _ = handover_run
    out = tmp_path / "overlay.svg"
    code = cli_main(
        ["map-svg", str(corridor_map), "--out", str(out), "--trace", str(artifacts.trace_path)]
    )
    assert code == 0
    capsys.readouterr()
    assert out.read_text().count("#cc2222") == 1  # one traced vehicle


def test_cli_spacetime_on_corridor_trace(handover_run, tmp_path, capsys):
    artifacts, _ = handover_run
    out = tmp_path / "st.csv"
    assert cli_main(["spacetime", str(artifacts.trace_path), "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "t,vehicle_id,s"
    arcs = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert arcs == sorted(arcs)  # single vehicle moving forward: monotone arc
    assert arcs[-1] > 900.0


def test_cli_spacetime_rejects_branching_trace(grid_map, tmp_path, capsys):
    config = _write_config(
        tmp_path,
        f"map = {grid_map}\nduration = 30\nseed = 2\ninterference.count = 6\n",
    )
    out = tmp_path / "runout"
    assert cli_main(["run", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    code = cli_main(["spacetime", str(out / "trace.csv"), "--out", str(tmp_path / "st.csv")])
    assert code == 2
    assert "corridor" in capsys.readouterr().err


@pytest.mark.parametrize("rewrite", [lambda n: -n, lambda n: 10**25 + n], ids=["negative", "beyond-int64"])
def test_negative_and_huge_osm_ids_run_and_draw(tmp_path, capsys, rewrite):
    # negative ids (as JOSM writes new elements) and ids wider than 64 bits stay Python ints
    text = re.sub(r'\b(id|ref)="(\d+)"', lambda m: f'{m[1]}="{rewrite(int(m[2]))}"', grid_osm_xml(4, 150.0))
    (tmp_path / "grid.osm").write_text(text)
    config = _write_config(tmp_path, f"map = grid.osm\nduration = 30\nseed = 3\ninterference.count = 8\n"
                                     f"way = {rewrite(100)}\nsegment = 0\nstrategicModel = Trip\n"
                                     f"trip = {rewrite(grid_node_id(3, 3))}, {rewrite(grid_node_id(0, 2))}\n")
    out = tmp_path / "out"
    assert cli_main(["run", str(config), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["vehicles"] == 9
    assert cli_main(["map-svg", str(tmp_path / "grid.osm"), "--trace", str(out / "trace.csv"),
                     "--out", str(tmp_path / "map.svg")]) == 0


def test_finished_and_aborted_runs_are_freed_by_reference_counting(corridor_map, grid_map, tmp_path, monkeypatch):
    # no reference cycle holds a run's state: with collection disabled, each
    # simulation, its world and its map (with the compiled router) are freed
    # once the caller drops them, after a run, an aborted run and a host's finish()
    refs = []
    attach = Simulation.attach

    def recording_attach(simulation, kernel):
        refs.append([weakref.ref(obj) for obj in (simulation, simulation.world, simulation.world.graph)])
        attach(simulation, kernel)

    monkeypatch.setattr(Simulation, "attach", recording_attach)
    routed = load_config(f"map = {grid_map}\nduration = 5\nseed = 3\ninterference.count = 6\n"
                         f"way = 100\nstrategicModel = Trip\ntrip = {grid_node_id(2, 2)}\n"
                         "station.0.id = a\nstation.0.x = 0\nstation.0.y = 0\n")
    stranded = load_config(f"map = {corridor_map}\nduration = 30\nway = 1\noffset = 900\nspeed = 13.89\n"
                           "strategicModel = RandomDirection\n")
    gc.disable()
    try:
        run(routed, tmp_path / "run")
        with pytest.raises(StrandedError):
            run(stranded, tmp_path / "aborted")
        host = HeapHost()
        kernel = EventKernel(host=host)
        simulation = Simulation(routed, tmp_path / "host")
        simulation.attach(kernel)
        vehicle = simulation.world.vehicles[0]
        while host.heap:
            kernel.deliver_from_host(host.pop())
        assert simulation.world.graph._router is not None  # the trip was routed at spawn
        assert simulation.finish().summary["events_fired"] == 50 and vehicle.odometer > 0.0
        del kernel, simulation, vehicle
        assert [[ref() for ref in case] for case in refs] == [[None] * 3] * 3
    finally:
        gc.enable()