"""Golden pins: SHA-256 digests of the deterministic artifacts of seven scenarios,
and of the in-memory records and full-precision per-step state of five more.

Two of the seven also run host-driven, sharing the kernel with a foreign module,
and must give the same bytes.  A refactor that is meant to keep behaviour
must leave these bytes alone.  A change that moves a digest on purpose says
so in CHANGES.md and gives the oracle that justifies the new bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from vehsim.kernel import EventKernel
from vehsim.mobility import VEHICLE_LENGTH, IdmParams, RandomDirection, StrandedError, Trip, World, equilibrium_gap
from vehsim.osm import TrafficSignal
from vehsim.scenario import Simulation, load_config, run

from conftest import (
    RADIO_GRID_CONFIG,
    HeapHost,
    chain_graph,
    corridor_graph,
    corridor_osm_xml,
    grid_osm_xml,
)

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


# the stranded corridor with two more vehicles behind the one that strands:
# vehicles are moved in ascending id, so in the step that aborts the vehicles
# after the stranded one have not moved, and the summary's distance and mean
# speed count only the steps before
STRANDED_CONVOY_CONFIG = """\
map = grid.osm
duration = 30
sampling = 0.1
vehicle.0.way = 1
vehicle.0.offset = 900
vehicle.0.speed = 13.89
vehicle.0.speed_factor = 1.0
vehicle.0.strategicModel = RandomDirection
vehicle.1.way = 1
vehicle.1.offset = 400
vehicle.1.speed = 13.89
vehicle.1.speed_factor = 1.0
vehicle.1.strategicModel = RandomDirection
vehicle.2.way = 1
vehicle.2.offset = 100
vehicle.2.speed = 8
vehicle.2.strategicModel = RandomDirection
"""

STRANDED_CONVOY_DIGESTS = {
    "trace.csv": "530d4b4fa01f83ba70943fb53f842146e1093a3fd128a398f7d87b326cd2c8c8",
    "events.csv": "0b52bd1d3b5a1553562e7730005ef8d485039b92bbac1a4f9574b14b3afa1fdd",
    "summary.json": "f2642a91c3311960c103313f6315191f9990a48d8ca9b573b02b7efb54576ce7",
}

def test_aborted_stranded_convoy_bytes_are_pinned(tmp_path):
    with pytest.raises(StrandedError):
        _run(tmp_path, corridor_osm_xml(1000.0), STRANDED_CONVOY_CONFIG)
    assert _digests(tmp_path / "out") == STRANDED_CONVOY_DIGESTS


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


# -- in-memory record lists and full-precision state ---------------------------
#
# ``trace.csv`` rounds to millimetres and collision or lane-change records
# never reach ``events.csv``, so the pins below hash what the world holds in
# memory: the collision, lane-change and signal-violation records in the order
# they were appended, and every vehicle's (segment, lane, s, v, acc) after each
# step, written with ``repr`` so every float bit counts.


def _record_digests(world) -> dict[str, str]:
    return {
        name: hashlib.sha256(repr(getattr(world, name)).encode()).hexdigest()
        for name in ("collisions", "lane_changes", "signal_violations")
    }


def _state_line(world) -> bytes:
    return repr(
        [(v.id, v.ref.key, v.lane, v.s, v.v, v.acc, v.route_pos, v.done) for v in world.vehicles.values()]
    ).encode()


def _stepped(world, dt: float, steps: int) -> str:
    """Step ``world`` and return the SHA-256 of its full state after every step."""
    states = hashlib.sha256()
    for _ in range(steps):
        world.step(dt)
        states.update(_state_line(world))
    return states.hexdigest()


def _simulated_world(tmp_path, osm_text: str, config_text: str):
    (tmp_path / "grid.osm").write_text(osm_text)
    config = load_config(config_text, base_dir=tmp_path)
    simulation = Simulation(config, tmp_path / "out")
    simulation.finish()  # closes the trace; the tests step the world directly
    return simulation.world, config


def _dense_grid_xml() -> str:
    """The benchmark's dense shape: a 5 x 5, 100 m grid of four-lane two-way
    streets with a signal at every third junction (default cycle)."""
    lines = []
    for index, line in enumerate(grid_osm_xml(5, 100.0).splitlines()):
        if line.lstrip().startswith("<node ") and (index - 2) % 3 == 0:
            line = line.replace("/>", '>\n    <tag k="highway" v="traffic_signals"/>\n  </node>')
        elif 'k="highway"' in line:
            line += '\n    <tag k="lanes" v="4"/>'
        lines.append(line)
    return "\n".join(lines)


# 130 vehicles on the dense grid; two of its signals retimed so that phases
# differ.  Signal 1103 starts red, and two configured vehicles sit within a
# micrometre of it at speed, so the first step records two violations.
DENSE_CONFIG = """\
map = grid.osm
duration = 100
seed = 17
dt = 0.1
sampling = 1
interference.count = 128
vehicle.0.way = 203
vehicle.0.lane = 0
vehicle.0.offset = 99.9999993
vehicle.0.speed = 10
vehicle.0.strategicModel = RandomDirection
vehicle.1.way = 101
vehicle.1.segment = 2
vehicle.1.lane = 1
vehicle.1.offset = 100.000005
vehicle.1.speed = 10
vehicle.1.strategicModel = RandomDirection
signal.1103.green = 9
signal.1103.yellow = 2
signal.1103.red = 7
signal.1103.offset = 6.5
signal.1302.green = 11
signal.1302.yellow = 3
signal.1302.red = 8
signal.1302.offset = 4
"""

DENSE_DIGESTS = {
    "collisions": "48e8d077aaddf3cddf9bbedffde630bda828d04a9ff644e7300aea173f1fcc92",
    "lane_changes": "5d4e6f389eb4680b79688b0c94ae8264619cbd5a0d0e41487746d3c7ef1c7664",
    "signal_violations": "a7a6b0ed6a5e0c11bb6b9b55a0462cb1d3a8abb8a1f8eecd63ba888a8a4c1297",
    "states": "59e9dd381262ef1b96abe0a3e64fcfd4150c564de63f9a2604bb9b752d50aa51",
}

# ROADMAP baseline: 200 interference vehicles on the 8 x 8 one-lane 200 m grid,
# 60 s, seed 3; its 38 collision records are junction overlaps
BASELINE_200_CONFIG = """\
map = grid.osm
duration = 60
seed = 3
dt = 0.1
sampling = 1
interference.count = 200
"""

BASELINE_200_DIGESTS = {
    "collisions": "edd550f90c1b9eb2504bc6a2041b8ceffbf45677fbbf134e6e386fbae9123fb1",
    "lane_changes": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "signal_violations": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "states": "c9fc618c5320801f978d857ad796adb81b2ba13181d473129c8a247e6a692ad8",
}


def test_dense_multilane_grid_records_and_states_are_pinned(tmp_path):
    world, config = _simulated_world(tmp_path, _dense_grid_xml(), DENSE_CONFIG)
    assert len(world.vehicles) == 130 and len(world.signals) >= 8
    states = _stepped(world, config.dt_s, round(config.duration_s / config.dt_s))
    assert len(world.lane_changes) >= 50 and world.collisions
    assert [(r.time, r.vehicle_id, r.node_id) for r in world.signal_violations[:2]] == [(0.0, 0, 1103), (0.0, 1, 1103)]
    assert {**_record_digests(world), "states": states} == DENSE_DIGESTS


def test_baseline_200_vehicle_grid_records_and_states_are_pinned(tmp_path):
    world, config = _simulated_world(tmp_path, grid_osm_xml(8, 200.0), BASELINE_200_CONFIG)
    states = _stepped(world, config.dt_s, round(config.duration_s / config.dt_s))
    assert len(world.collisions) == 38
    assert {**_record_digests(world), "states": states} == BASELINE_200_DIGESTS


# criterion 1's platoon run by the world: the first three parameter sets that
# criterion 1 draws, a leader cruising at exactly its desired speed (zero free
# acceleration) and 20 followers starting 3 % beyond the equilibrium gap
PLATOON_DIGEST = "ec42b8fa87799ea1105488205578a9d22fc4d188f58c5c5edc03736de82fd74c"


def test_criterion_1_platoon_in_the_world_is_pinned():
    rng = np.random.default_rng(7)
    states = hashlib.sha256()
    for _ in range(3):
        v0 = float(rng.uniform(10.0, 35.0))
        idm = IdmParams(
            v0=v0,
            T=float(rng.uniform(1.0, 2.2)),
            a_max=float(rng.uniform(0.8, 2.5)),
            b_comf=float(rng.uniform(1.0, 3.0)),
            delta=float(rng.uniform(3.0, 5.0)),
            s0=float(rng.uniform(1.0, 4.0)),
        )
        v_lead = float(rng.uniform(0.4, 0.85)) * v0
        s_e = equilibrium_gap(v_lead, v0, idm)
        world = World(corridor_graph(20_000.0), seed=1)
        lead_idm = IdmParams(v0=v_lead, T=idm.T, a_max=idm.a_max, b_comf=idm.b_comf, delta=idm.delta, s0=idm.s0)
        offset = 200.0 + 20 * (1.03 * s_e + VEHICLE_LENGTH)
        world.spawn(way=1, offset=offset, speed=v_lead, idm=lead_idm, speed_factor=1.0)
        for i in range(1, 21):
            world.spawn(way=1, offset=offset - i * (1.03 * s_e + VEHICLE_LENGTH), speed=v_lead, idm=idm,
                        speed_factor=1.0)
        states.update(_stepped(world, 0.1, 600).encode())
        assert not world.collisions
        assert world.vehicles[0].acc == 0.0
    assert states.hexdigest() == PLATOON_DIGEST


# criterion 8's signal corridor: a Trip vehicle stops at a red signal mid-chain
# and leaves on green
SIGNAL_CORRIDOR_DIGEST = "35598121cf787a7fc1f27865785e955b6bf55e1e5274927889ac8ee68b45737c"


def test_criterion_8_signal_corridor_is_pinned():
    signal = TrafficSignal(2, red_s=60.0, offset_s=45.0)
    world = World(chain_graph(250.0, 3, signals=(signal,)), seed=0)
    world.spawn(way=1, segment=0, offset=250.0 - 200.0 - 2.5, speed=IdmParams().v0, speed_factor=1.0,
                strategic=Trip((3,)))
    states = _stepped(world, 0.1, 750)
    assert not world.signal_violations and not world.collisions
    assert states == SIGNAL_CORRIDOR_DIGEST


# the stranded convoy's three vehicles in a bare world: per-step state, then every
# vehicle's (s, v, acc, odometer) as the aborted step leaves them
STRANDED_CONVOY_STATE = "8f02a022237caf15818010d0c57b34b92eb6202fd9110f86bd5d9e533ff1a609"


def test_aborted_step_leaves_the_vehicles_after_the_stranded_one_unmoved():
    world = World(corridor_graph(1000.0), seed=2)
    for offset, speed in ((900.0, 13.89), (400.0, 13.89), (100.0, 8.0)):
        world.spawn(way=1, offset=offset, speed=speed, strategic=RandomDirection())
    states = hashlib.sha256()
    with pytest.raises(StrandedError):
        while True:
            world.step(0.1)
            states.update(_state_line(world))
    states.update(repr([(v.id, v.s, v.v, v.acc, v.odometer) for v in world.vehicles.values()]).encode())
    assert world.time == pytest.approx(7.6)  # the aborted step does not advance the clock
    assert states.hexdigest() == STRANDED_CONVOY_STATE
