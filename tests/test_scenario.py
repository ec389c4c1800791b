"""Config parsing, run orchestration, artifacts, CLI behavior."""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vehsim.cli import main as cli_main
from vehsim.kernel import EventKernel, KernelError
from vehsim.mobility import StrandedError
from vehsim.osm import TrafficSignal
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

from conftest import corridor_osm_xml, grid_node_id, grid_osm_xml

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


def test_required_scalars():
    with pytest.raises(ConfigError, match="map"):
        load_config("duration = 10\n")
    with pytest.raises(ConfigError, match="duration"):
        load_config("map = net.osm\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(MINIMAL + "way = 1\nway = 2\n")


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


@settings(max_examples=400, deadline=None)
@given(_config_texts())
def test_any_config_text_is_located_error_or_round_trips(text):
    try:
        cfg = load_config(text)
    except ConfigError as exc:
        assert exc.key is not None or exc.line is not None
        return
    echo = dumps_config(cfg)
    assert load_config(echo) == cfg
    assert dumps_config(load_config(echo)) == echo


def test_read_trace_rejects_foreign_files(tmp_path):
    bad = tmp_path / "other.csv"
    bad.write_text("time,id\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_trace(bad)


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
    assert all(s.serving_cell is None and s.rssi is None for s in samples)
    assert artifacts.summary["events_fired"] == 600
    assert artifacts.summary["vehicles"] == 1
    assert artifacts.summary["aborted"] is False
    assert artifacts.events_path.read_text().splitlines() == [EVENTS_HEADER]
    # the echo is the canonical dump and reloads to the same config
    assert load_config(artifacts.config_path.read_text()) == cfg


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
    assert samples
    assert all(s.serving_cell in ("west", "east") for s in samples)
    assert all(isinstance(s.rssi, float) for s in samples)
    assert samples[0].serving_cell == "west"
    assert samples[-1].serving_cell == "east"


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


def test_cli_config_errors_exit_1(corridor_map, tmp_path, capsys):
    bad = _write_config(tmp_path, "map = net.osm\nduration = 10\nbogus = 1\n")
    assert cli_main(["run", str(bad), "--out", str(tmp_path / "o1")]) == 1
    assert "bogus" in capsys.readouterr().err
    missing_map = _write_config(tmp_path, "map = nowhere.osm\nduration = 10\n")
    assert cli_main(["run", str(missing_map), "--out", str(tmp_path / "o2")]) == 1
    assert "error" in capsys.readouterr().err


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
