"""Golden pins: SHA-256 digests of the deterministic artifacts of six scenarios.

Two of them also run host-driven, sharing the kernel with a foreign module,
and must give the same bytes.  A refactor that is meant to keep behaviour
must leave these bytes alone.  A change that moves a digest on purpose says
so in CHANGES.md and gives the oracle that justifies the new bytes.
"""

from __future__ import annotations

import hashlib

import pytest

from vehsim.kernel import EventKernel
from vehsim.mobility import StrandedError
from vehsim.scenario import Simulation, load_config, run

from conftest import RADIO_GRID_CONFIG, HeapHost, corridor_osm_xml, grid_osm_xml

_ARTIFACTS = ("trace.csv", "events.csv", "summary.json")

# 4 x 4 one-lane grid, 30 vehicles, four shadowed stations (sigma = 4 dB)
RADIO_CONFIG = """\
map = grid.osm
duration = 60
seed = 5
dt = 0.1
sampling = 1
interference.count = 30
station.0.id = n
station.0.x = 0
station.0.y = 400
station.1.id = s
station.1.x = 0
station.1.y = -400
station.2.id = e
station.2.x = 400
station.2.y = 0
station.3.id = w
station.3.x = -450
station.3.y = 0
radio.shadowing_sigma = 4
"""

# 4 x 4 grid of four-lane two-way streets, 40 vehicles, no stations
MULTILANE_CONFIG = """\
map = grid.osm
duration = 30
seed = 9
dt = 0.1
sampling = 0.5
interference.count = 40
"""

# 5 x 5 one-lane grid with two signals; four Trip vehicles with three or four
# far destinations each (so routes span many hops and are re-planned at every
# intermediate destination) among 16 RandomDirection vehicles
TRIPS_CONFIG = """\
map = grid.osm
duration = 300
seed = 13
dt = 0.1
sampling = 2
interference.count = 16
signal.1202.green = 20
signal.1202.yellow = 3
signal.1202.red = 20
signal.1301.green = 12
signal.1301.red = 15
signal.1301.offset = 9
vehicle.0.way = 100
vehicle.0.offset = 20
vehicle.0.strategicModel = Trip
vehicle.0.trip = 1202, 1404, 1004
vehicle.1.way = 204
vehicle.1.offset = 30
vehicle.1.strategicModel = Trip
vehicle.1.trip = 1400, 1002, 1204
vehicle.2.way = 102
vehicle.2.segment = 3
vehicle.2.forward = false
vehicle.2.offset = 50
vehicle.2.strategicModel = Trip
vehicle.2.trip = 1000, 1404, 1200
vehicle.3.way = 201
vehicle.3.segment = 1
vehicle.3.offset = 10
vehicle.3.strategicModel = Trip
vehicle.3.trip = 1403, 1000, 1302, 1004
"""

# 5 x 5 grid whose middle row (way 102) and middle column (way 202) are
# four-lane arterials crossing one-lane streets, with signals at three of the
# arterial junctions.  Four Trip vehicles start in the inner lane of an
# arterial and route across the grid among 40 RandomDirection vehicles, so the
# look-ahead crosses lane-count changes, stops at yellow and red signals and
# MOBIL runs on the arterials.
ARTERIAL_WAYS = (102, 202)
ARTERIAL_CONFIG = """\
map = grid.osm
duration = 120
seed = 21
dt = 0.1
sampling = 1
interference.count = 40
signal.1202.green = 15
signal.1202.yellow = 4
signal.1202.red = 15
signal.1201.green = 10
signal.1201.yellow = 3
signal.1201.red = 12
signal.1201.offset = 5
signal.1302.green = 12
signal.1302.yellow = 3
signal.1302.red = 10
signal.1302.offset = 11
vehicle.0.way = 102
vehicle.0.lane = 1
vehicle.0.offset = 30
vehicle.0.strategicModel = Trip
vehicle.0.trip = 1204, 1000, 1404
vehicle.1.way = 202
vehicle.1.lane = 1
vehicle.1.offset = 40
vehicle.1.strategicModel = Trip
vehicle.1.trip = 1402, 1001, 1304
vehicle.2.way = 102
vehicle.2.segment = 3
vehicle.2.forward = false
vehicle.2.lane = 1
vehicle.2.offset = 20
vehicle.2.strategicModel = Trip
vehicle.2.trip = 1200, 1403, 1004
vehicle.3.way = 202
vehicle.3.segment = 3
vehicle.3.forward = false
vehicle.3.lane = 1
vehicle.3.offset = 60
vehicle.3.strategicModel = Trip
vehicle.3.trip = 1002, 1300, 1400
"""

RADIO_DIGESTS = {
    "trace.csv": "0b262907b5a6887b914b1e688e54ab9e0aeea1c9cd50192fb5e42be84c3f7d4d",
    "events.csv": "1ab7cdc2bcac6bcdc89bddc52fa991e11d12c8072b5246be931bc9d1778560e8",
    "summary.json": "6df0b5df543069ceab28511eafaa5628ef3deaa91e1925a167e90f1b7baaae92",
}

MULTILANE_DIGESTS = {
    "trace.csv": "7818d84f0e400a68c918f023e5a51176d46d3b7e45af2d99f42a075ba8e6741b",
    "events.csv": "0b52bd1d3b5a1553562e7730005ef8d485039b92bbac1a4f9574b14b3afa1fdd",
    "summary.json": "b8d2671dceb3fc66b920ae7a72c1bccf3c0bac6078094f42b4cc12d9eb721a23",
}

TRIPS_DIGESTS = {
    "trace.csv": "b2c56bca85d264f7911509c602e20cab2a8b2f0f64c891d768d9bfd5391661e2",
    "events.csv": "0b52bd1d3b5a1553562e7730005ef8d485039b92bbac1a4f9574b14b3afa1fdd",
    "summary.json": "48316ff7baa90b6cf7ef5f243c795fc7553d07d06d47df1e5fdd0428867b4435",
}


ARTERIAL_DIGESTS = {
    "trace.csv": "844d285f70a9828a29ef94e2a6937c781f0d80f541b9770cf737ec06f5d41995",
    "events.csv": "0b52bd1d3b5a1553562e7730005ef8d485039b92bbac1a4f9574b14b3afa1fdd",
    "summary.json": "c13185af6f0cf3053b76f3392543eebacaf7f02da5edf74792de6df2aa718a64",
}

# criterion 3 of the acceptance suite: 101 vehicles, three stations, 240 s
RADIO_GRID_DIGESTS = {
    "trace.csv": "cc4bc3f99402962daf9ba220435d50963c30bf4e19158a191efcfb7b2eeca3b9",
    "events.csv": "dcb7a6ad4035715568b851850e53446eddf3accb719f28093a3c66ff5f290881",
    "summary.json": "21bde6e60776886923bdd8282182466e9ee0e76b7d615eae2ab80e6786431518",
}

# a RandomDirection vehicle sampled every step on a one-way 1 km corridor
# (``_run`` writes every map to grid.osm) strands at the dead end after 71
# steps; the run aborts and still writes all its artifacts
STRANDED_CONFIG = """\
map = grid.osm
duration = 30
sampling = 0.1
way = 1
offset = 900
speed = 13.89
speed_factor = 1.0
strategicModel = RandomDirection
"""

STRANDED_DIGESTS = {
    "trace.csv": "51b74bb7b157c115230f9caf83e42e5daedeffbabe3da2fce4e9f127a5d46c39",
    "events.csv": "0b52bd1d3b5a1553562e7730005ef8d485039b92bbac1a4f9574b14b3afa1fdd",
    "summary.json": "185497f44ae96ea7cb600247733e95df281f3e1a47caeac02beb27f660e25360",
}


def _arterial_grid_xml() -> str:
    """``grid_osm_xml(5, 150.0)`` with ``lanes=4`` on the ``ARTERIAL_WAYS``."""
    lines = []
    way_id = None
    for line in grid_osm_xml(5, 150.0).splitlines():
        lines.append(line)
        if line.lstrip().startswith("<way "):
            way_id = int(line.split('"')[1])
        elif 'k="highway"' in line and way_id in ARTERIAL_WAYS:
            lines.append('    <tag k="lanes" v="4"/>')
    return "\n".join(lines)


def _digests(out_dir) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in _ARTIFACTS}


def _run(tmp_path, osm_text: str, config_text: str):
    (tmp_path / "grid.osm").write_text(osm_text)
    artifacts = run(load_config(config_text, base_dir=tmp_path), tmp_path / "out")
    return artifacts.summary, _digests(artifacts.out_dir)


def test_shadowed_radio_grid_bytes_are_pinned(tmp_path):
    summary, digests = _run(tmp_path, grid_osm_xml(4, 300.0), RADIO_CONFIG)
    assert summary["handover_count"] >= 1
    assert digests == RADIO_DIGESTS


def test_multilane_grid_without_stations_bytes_are_pinned(tmp_path):
    osm_text = grid_osm_xml(4, 150.0).replace(
        '<tag k="highway" v="residential"/>',
        '<tag k="highway" v="residential"/>\n    <tag k="lanes" v="4"/>',
    )
    summary, digests = _run(tmp_path, osm_text, MULTILANE_CONFIG)
    assert summary["lane_change_count"] >= 1
    assert digests == MULTILANE_DIGESTS


def test_trips_through_signals_bytes_are_pinned(tmp_path):
    summary, digests = _run(tmp_path, grid_osm_xml(5, 200.0), TRIPS_CONFIG)
    assert summary["completed_trips"] >= 1
    assert digests == TRIPS_DIGESTS


def test_arterials_signals_and_trips_bytes_are_pinned(tmp_path):
    summary, digests = _run(tmp_path, _arterial_grid_xml(), ARTERIAL_CONFIG)
    assert summary["lane_change_count"] >= 1
    assert digests == ARTERIAL_DIGESTS


def test_criterion_3_radio_grid_bytes_are_pinned(tmp_path):
    summary, digests = _run(tmp_path, grid_osm_xml(5, 500.0), RADIO_GRID_CONFIG)
    assert summary["completed_trips"] == 1
    assert summary["handover_count"] >= 1
    assert digests == RADIO_GRID_DIGESTS


def test_aborted_stranded_corridor_bytes_are_pinned(tmp_path):
    with pytest.raises(StrandedError):
        _run(tmp_path, corridor_osm_xml(1000.0), STRANDED_CONFIG)
    assert _digests(tmp_path / "out") == STRANDED_DIGESTS


BEACON_PERIOD_S = 0.1


@pytest.mark.parametrize(
    "osm_text, config_text, pinned",
    [
        (grid_osm_xml(4, 300.0), RADIO_CONFIG, RADIO_DIGESTS),
        (grid_osm_xml(5, 500.0), RADIO_GRID_CONFIG, RADIO_GRID_DIGESTS),
    ],
    ids=["shadowed-radio-grid", "criterion-3-grid"],
)
def test_host_driven_simulation_with_a_beacon_reproduces_pinned_bytes(
    tmp_path, osm_text, config_text, pinned
):
    # the host queue owns delivery; a 100 ms beacon halfway between the steps
    # reads every position from the same kernel
    (tmp_path / "grid.osm").write_text(osm_text)
    config = load_config(config_text, base_dir=tmp_path)
    host = HeapHost()
    kernel = EventKernel(host=host)
    simulation = Simulation(config, tmp_path / "out")
    beacons = round(config.duration_s / BEACON_PERIOD_S)
    seen = []

    def beacon(event):
        world = simulation.world
        seen.append([world.position(vehicle) for vehicle in world.vehicles.values()])
        if len(seen) < beacons:
            kernel.schedule("beacon", "tick", BEACON_PERIOD_S)

    kernel.bind("beacon", beacon)
    kernel.schedule("beacon", "tick", BEACON_PERIOD_S / 2)
    simulation.attach(kernel)
    while host.heap:
        kernel.deliver_from_host(host.pop())
    artifacts = simulation.finish()

    assert len(seen) == beacons
    assert artifacts.summary["events_fired"] == simulation.steps == round(config.duration_s / config.dt_s)
    assert simulation.steps < kernel.events_fired == simulation.steps + beacons
    assert _digests(artifacts.out_dir) == pinned
