"""Vehicle dynamics: car following, lane changes, routing on the world graph."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vehsim.mobility import (
    LANE_CHANGE_COOLDOWN,
    PERCEPTION_HORIZON,
    IdmParams,
    LaneNeighbors,
    MobilParams,
    Neighbor,
    NeighborContext,
    PlacementError,
    RandomDirection,
    StrandedError,
    Trip,
    Vehicle,
    World,
    ballistic_update,
    equilibrium_gap,
    idm_acceleration,
    mobil_decide,
)
from vehsim.osm import SegmentRef, TrafficSignal, build_graph, parse_osm, signal_phase
from vehsim.rng import substream

from conftest import chain_graph, corridor_graph, grid_osm_xml


# -- IDM ------------------------------------------------------------------


def test_idm_free_road_anchors():
    p = IdmParams()
    assert idm_acceleration(0.0, p.v0, 0.0, math.inf, p) == pytest.approx(p.a_max)
    assert idm_acceleration(p.v0, p.v0, 0.0, math.inf, p) == pytest.approx(0.0, abs=1e-12)
    # above the desired speed the model brakes
    assert idm_acceleration(p.v0 * 1.2, p.v0, 0.0, math.inf, p) < 0.0


def test_idm_frozen_value():
    # independently evaluated closed form for v=10, dv=2, gap=30, defaults
    p = IdmParams()
    acc = idm_acceleration(10.0, 13.89, 2.0, 30.0, p)
    assert acc == pytest.approx(0.20270371010910626, rel=1e-12)


def test_idm_argument_validation():
    p = IdmParams()
    with pytest.raises(ValueError):
        idm_acceleration(5.0, p.v0, 0.0, 0.0, p)
    with pytest.raises(ValueError):
        idm_acceleration(5.0, p.v0, 0.0, -1.0, p)
    with pytest.raises(ValueError):
        idm_acceleration(-0.1, p.v0, 0.0, 10.0, p)


def test_idm_params_must_be_positive():
    with pytest.raises(ValueError):
        IdmParams(T=0.0)
    with pytest.raises(ValueError):
        IdmParams(s0=-2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["v0", "T", "a_max", "b_comf", "delta", "s0"])
def test_idm_params_must_be_finite(name, bad):
    with pytest.raises(ValueError, match=f"IdmParams.{name} must be finite"):
        IdmParams(**{name: bad})


def test_equilibrium_gap_zeroes_the_model():
    # the returned gap must be the root of the acceleration at matched speeds
    rng = np.random.default_rng(55)
    for _ in range(30):
        p = IdmParams(
            v0=float(rng.uniform(8.0, 40.0)),
            T=float(rng.uniform(0.8, 2.5)),
            a_max=float(rng.uniform(0.8, 3.0)),
            b_comf=float(rng.uniform(1.0, 3.0)),
            s0=float(rng.uniform(1.0, 4.0)),
        )
        v = float(rng.uniform(0.1, 0.95)) * p.v0
        gap = equilibrium_gap(v, p.v0, p)
        assert idm_acceleration(v, p.v0, 0.0, gap, p) == pytest.approx(0.0, abs=1e-9)
        # bisection cross-check on [s0/10, 10*gap]
        lo, hi = p.s0 / 10.0, gap * 10.0
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if idm_acceleration(v, p.v0, 0.0, mid, p) < 0.0:
                lo = mid
            else:
                hi = mid
        assert gap == pytest.approx((lo + hi) / 2.0, rel=1e-6)
    assert equilibrium_gap(10.0, 13.89, IdmParams()) == pytest.approx(19.878657670245683)
    with pytest.raises(ValueError):
        equilibrium_gap(13.89, 13.89, IdmParams())


def test_ballistic_update_stopping_clamp():
    ds, v = ballistic_update(2.0, -3.0, 1.0)
    assert v == 0.0
    assert ds == pytest.approx(2.0 * 2.0 / (2.0 * 3.0))  # kinematic stopping distance
    assert ballistic_update(0.0, 0.0, 1.0) == (0.0, 0.0)
    ds, v = ballistic_update(1.0, -0.5, 1.0)
    assert (ds, v) == (pytest.approx(0.75), pytest.approx(0.5))
    ds, v = ballistic_update(0.0, 2.0, 0.5)
    assert (ds, v) == (pytest.approx(0.25), pytest.approx(1.0))


# -- spawning -------------------------------------------------------------


def test_spawn_addressing_on_multi_segment_way():
    world = World(chain_graph(250.0, 5))
    veh = world.spawn(way=1, segment=2, lane=0, offset=42.0, speed=3.0, speed_factor=1.0)
    assert veh.ref.key == (1, 2, True)
    assert veh.s == 42.0
    assert veh.v == 3.0
    assert (veh.ref.start_node, veh.ref.end_node) == (3, 4)


def test_spawn_ids_and_streams_are_per_vehicle():
    world = World(corridor_graph(500.0), seed=9)
    a = world.spawn(way=1, offset=10.0)
    b = world.spawn(way=1, offset=100.0)
    assert (a.id, b.id) == (0, 1)
    assert world.n == 2
    # speed factors drawn from distinct substreams of the world seed
    expected_a = 0.8 + 0.4 * float(substream(9, "vehicle", 0).random())
    assert a.speed_factor == pytest.approx(expected_a)
    assert a.speed_factor != b.speed_factor
    assert 0.8 <= a.speed_factor <= 1.2


def test_spawn_placement_errors_name_the_field():
    world = World(corridor_graph(500.0))
    cases = {
        "way": dict(way=99),
        "segment": dict(way=1, segment=5),
        "lane": dict(way=1, lane=3),
        "offset": dict(way=1, offset=600.0),
    }
    for key, kwargs in cases.items():
        with pytest.raises(PlacementError) as err:
            world.spawn(**kwargs)
        assert err.value.key == key
    with pytest.raises(PlacementError) as err:
        world.spawn(way=1, forward=False)  # one-way corridor
    assert err.value.key == "lane"


@pytest.mark.parametrize(
    "key, values",
    [("speed", [math.nan, math.inf, -math.inf, -5.0]),
     ("length", [math.nan, math.inf, 0.0, -1.0]),
     ("speed_factor", [math.nan, math.inf, 0.0, -0.5])],
)
def test_spawn_rejects_non_finite_and_out_of_range_kinematics(key, values):
    world = World(corridor_graph(500.0))
    for value in values:
        with pytest.raises(PlacementError, match=f"^{key}: ") as err:
            world.spawn(way=1, offset=50.0, **{key: value})
        assert err.value.key == key
    assert world.vehicles == {}  # nothing was placed
    veh = world.spawn(way=1, offset=50.0, speed=0.0, length=4.0, speed_factor=1.0)
    for _ in range(50):
        world.step(0.1)
    assert math.isfinite(veh.v) and veh.v > 0.0


def test_spawn_parked_overrides_speed_and_trip_is_copied():
    world = World(corridor_graph(500.0))
    veh = world.spawn(way=1, offset=50.0, speed=10.0, parked=True)
    assert veh.v == 0.0 and veh.parked
    template = Trip([2])
    veh2 = world.spawn(way=1, offset=100.0, strategic=template)
    template.cursor = 99
    assert veh2.strategic.cursor == 0


# -- perception -----------------------------------------------------------


def test_perceive_same_lane_leader():
    world = World(corridor_graph(1000.0))
    ego = world.spawn(way=1, offset=100.0, speed=10.0, strategic=RandomDirection())
    world.spawn(way=1, offset=120.0, speed=4.0)
    gap, closing = world.perceive_leader(ego)
    assert gap == pytest.approx(15.0)  # 20 m center-to-center minus two half lengths
    assert closing == pytest.approx(6.0)


def test_other_lane_vehicle_is_invisible():
    world = World(corridor_graph(1000.0, lanes=2))
    ego = world.spawn(way=1, lane=0, offset=100.0, strategic=RandomDirection())
    world.spawn(way=1, lane=1, offset=120.0)
    assert world.perceive_leader(ego) is None


def test_red_signal_is_a_standing_leader_green_is_invisible():
    red = corridor_graph(1000.0, signals=(TrafficSignal(2, offset_s=25.0),))  # red at t=0
    world = World(red)
    ego = world.spawn(way=1, offset=960.0, speed=10.0, strategic=RandomDirection())
    gap, closing = world.perceive_leader(ego)
    assert gap == pytest.approx(40.0 - 2.5)  # line is 40 m ahead of the center
    assert closing == pytest.approx(10.0)

    green = corridor_graph(1000.0, signals=(TrafficSignal(2),))  # green at t=0
    world2 = World(green)
    ego2 = world2.spawn(way=1, offset=960.0, speed=10.0, strategic=RandomDirection())
    assert world2.perceive_leader(ego2) is None


def test_perception_crosses_segment_boundaries_along_route():
    world = World(chain_graph(300.0, 3))
    ego = world.spawn(way=1, segment=0, offset=290.0, speed=5.0, strategic=Trip([3]))
    world.spawn(way=1, segment=1, offset=15.0, speed=2.0)
    gap, closing = world.perceive_leader(ego)
    assert gap == pytest.approx(10.0 + 15.0 - 5.0)
    assert closing == pytest.approx(3.0)


def test_perception_horizon_cuts_off():
    # the horizon is 500 m: a vehicle 520 m ahead is not seen, one 480 m ahead is
    world = World(corridor_graph(1000.0))
    ego = world.spawn(way=1, offset=0.0, strategic=RandomDirection())
    world.spawn(way=1, offset=520.0)
    assert world.perceive_leader(ego) is None
    near = World(corridor_graph(1000.0))
    ego2 = near.spawn(way=1, offset=0.0, strategic=RandomDirection())
    near.spawn(way=1, offset=480.0)
    assert near.perceive_leader(ego2) == (480.0 - 5.0, 0.0)


def test_trip_final_stop_appears_as_standing_obstruction():
    world = World(corridor_graph(1000.0))
    ego = world.spawn(way=1, offset=600.0, speed=10.0)  # no strategic model: stop at route end
    gap, closing = world.perceive_leader(ego)
    assert gap == pytest.approx(400.0 - 2.5)
    assert closing == pytest.approx(10.0)
    # the same stop line is invisible while it sits beyond the perception horizon
    empty = World(corridor_graph(1000.0))
    far = empty.spawn(way=1, offset=100.0, speed=10.0)
    assert empty.perceive_leader(far) is None


# -- MOBIL ------------------------------------------------------------------


def _ego(v=15.0, p=0.5, th=0.2, b_safe=4.0):
    return World(corridor_graph()).spawn(
        way=1, lane=0, offset=0.0, speed=v, length=5.0, speed_factor=1.0,
        idm=IdmParams(v0=20.0), mobil=MobilParams(p=p, delta_a_th=th, b_safe=b_safe),
    )


def _lanes(leader=None, follower=None):
    return LaneNeighbors(leader=leader, follower=follower)


def _mobil(ego, ctx):
    """``mobil_decide`` given the ego's IDM acceleration behind its current leader."""
    leader = ctx.current.leader
    if leader is None:
        a_c = idm_acceleration(ego.v, ego.v0_eff, 0.0, math.inf, ego.idm)
    else:
        gap = leader.raw_dist - (ego.length + leader.length) / 2.0
        a_c = idm_acceleration(ego.v, ego.v0_eff, ego.v - leader.v, gap, ego.idm)
    return mobil_decide(ego, a_c, ctx)


def test_mobil_changes_left_past_slow_leader():
    slow = Neighbor(raw_dist=20.0, v=5.0)
    ctx = NeighborContext(current=_lanes(leader=slow), left=_lanes(), right=None)
    assert _mobil(_ego(), ctx) == (+1, None)


def test_mobil_safety_veto_protects_new_follower():
    slow = Neighbor(raw_dist=20.0, v=5.0)
    # a matched-speed follower 10 m behind the insertion point is forced to
    # roughly -7.5 m/s^2: blocked at the default bound, allowed at a loose one
    tail = Neighbor(raw_dist=-15.0, v=15.0, idm=IdmParams(v0=20.0), v0_eff=20.0, vehicle_id=7)
    ctx = NeighborContext(current=_lanes(leader=slow), left=_lanes(follower=tail), right=None)
    assert _mobil(_ego(b_safe=4.0), ctx) == (0, None)
    direction, follower_acc = _mobil(_ego(b_safe=8.0), ctx)
    assert direction == +1
    assert -8.0 <= follower_acc < -4.0  # the acceleration the change imposes on the follower


def test_mobil_politeness_suppresses_selfish_change():
    slow = Neighbor(raw_dist=25.0, v=10.0)
    # mild imposition on the new follower (about -1.1 m/s^2, no veto): the
    # decision hinges purely on how much the driver weighs the follower's loss
    tail = Neighbor(raw_dist=-25.0, v=15.0, idm=IdmParams(v0=20.0), v0_eff=20.0, vehicle_id=3)
    ctx = NeighborContext(current=_lanes(leader=slow), left=_lanes(follower=tail), right=None)
    assert _mobil(_ego(p=4.0), ctx)[0] == 0  # heavily polite driver stays
    assert _mobil(_ego(p=0.0), ctx)[0] == +1  # selfish driver goes


def test_mobil_symmetric_tie_keeps_right():
    slow = Neighbor(raw_dist=15.0, v=2.0)
    ctx = NeighborContext(current=_lanes(leader=slow), left=_lanes(), right=_lanes())
    assert _mobil(_ego(), ctx) == (-1, None)


def test_mobil_no_gain_no_change():
    ctx = NeighborContext(current=_lanes(), left=_lanes(), right=_lanes())
    assert _mobil(_ego(), ctx) == (0, None)


def test_mobil_rejects_overlapping_target_gap():
    slow = Neighbor(raw_dist=20.0, v=5.0)
    blocker = Neighbor(raw_dist=3.0, v=15.0)  # net gap -2: physically occupied
    ctx = NeighborContext(current=_lanes(leader=slow), left=_lanes(leader=blocker), right=None)
    assert _mobil(_ego(), ctx) == (0, None)


# -- stepping ---------------------------------------------------------------


def test_step_follower_brakes_behind_slow_leader():
    world = World(corridor_graph(1000.0))
    ego = world.spawn(way=1, offset=100.0, speed=13.0, speed_factor=1.0, strategic=RandomDirection())
    world.spawn(way=1, offset=130.0, speed=2.0, speed_factor=1.0, strategic=RandomDirection())
    world.step(0.1)
    assert ego.acc < -0.5
    assert ego.v < 13.0


def test_vehicle_spawned_between_steps_is_seen_by_the_next_step():
    # the lane registry kept from the first step must not hide the newcomer
    world = World(corridor_graph(1000.0))
    ego = world.spawn(way=1, offset=100.0, speed=13.0, speed_factor=1.0,
                      strategic=RandomDirection())
    world.step(0.1)
    assert ego.acc > 0.0
    assert world.perceive_leader(ego) is None
    world.spawn(way=1, offset=ego.s + 20.0, parked=True)
    world.step(0.1)
    assert ego.acc < -0.5
    gap, closing = world.perceive_leader(ego)
    assert gap < 15.0 and closing > 0.0


def test_signal_added_between_steps_stops_the_next_step():
    # the blocking-signal set is built per step, so it cannot miss a newcomer
    world = World(corridor_graph(1000.0))
    ego = world.spawn(way=1, offset=965.0, speed=10.0, speed_factor=1.0,
                      strategic=RandomDirection())
    world.step(0.1)
    assert ego.acc > 0.0
    world.signals[2] = TrafficSignal(2, offset_s=25.0)  # red from t = 0 to 25
    world.step(0.1)
    assert ego.acc < -0.5


def test_perceive_leader_between_steps_uses_the_phase_at_world_time():
    # green during the step from t = 0, yellow at t = 0.1 when the step is done
    signal = TrafficSignal(2, green_s=0.05, yellow_s=5.0, red_s=25.0)
    world = World(corridor_graph(1000.0, signals=(signal,)))
    ego = world.spawn(way=1, offset=950.0, speed=10.0, speed_factor=1.0,
                      strategic=RandomDirection())
    world.step(0.1)
    assert ego.acc > 0.0  # the step saw green
    assert signal_phase(signal, world.time) == "yellow"
    gap, closing = world.perceive_leader(ego)
    assert gap == pytest.approx(1000.0 - ego.s - 2.5)
    assert closing == pytest.approx(ego.v)


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf, -math.inf])
def test_step_requires_positive_dt(dt):
    world = World(corridor_graph(100.0))
    veh = world.spawn(way=1, offset=10.0, speed=5.0)
    world.step(0.1)
    before = (world.time, veh.s, veh.v)
    with pytest.raises(ValueError, match=repr(dt)):
        world.step(dt)
    assert (world.time, veh.s, veh.v) == before  # rejected before any state changed


def test_segment_crossing_carries_leftover_distance():
    world = World(chain_graph(300.0, 3))
    veh = world.spawn(way=1, segment=0, offset=299.5, speed=10.0, speed_factor=1.0, strategic=Trip([3]))
    world.step(0.1)
    assert veh.ref.key == (1, 1, True)
    assert veh.route_pos == 1
    # crossed the node and kept the surplus distance on the next segment
    assert veh.s == pytest.approx(299.5 + 10.0 * 0.1 + 0.5 * veh.acc * 0.01 - 300.0)
    assert 0.0 < veh.s < 1.0


def test_lane_index_clamps_at_narrowing():
    nodes = [(1, 0.0, 0.0), (2, 300.0, 0.0), (3, 600.0, 0.0)]
    ways = [
        (1, [1, 2], {"one_way": True, "lanes_forward": 2}),
        (2, [2, 3], {"one_way": True, "lanes_forward": 1}),
    ]
    world = World(build_graph(nodes, ways))
    veh = world.spawn(way=1, lane=1, offset=299.0, speed=15.0, speed_factor=1.0, strategic=Trip([3]))
    veh.last_lane_change = 0.0  # suppress tactical moves; this tests the topology clamp
    world.step(0.1)
    assert veh.ref.key == (2, 0, True)
    assert veh.lane == 0


def test_red_crossing_is_recorded_as_violation():
    graph = chain_graph(300.0, 3, signals=(TrafficSignal(2, offset_s=25.0),))  # red at t=0
    world = World(graph)
    # contrived: materialize already on the stop line with speed, so the clamp
    # still pushes the center across the node inside the first step
    veh = world.spawn(way=1, segment=0, offset=300.0, speed=10.0, speed_factor=1.0, strategic=Trip([3]))
    world.step(0.1)
    assert [(rec.vehicle_id, rec.node_id) for rec in world.signal_violations] == [(veh.id, 2)]


def test_red_light_holds_then_releases_without_violation():
    # offset 35 into a 30/5/60 cycle puts the light at the start of red, so the
    # approach sees red for the first 60 s and green from then on
    graph = chain_graph(300.0, 3, signals=(TrafficSignal(2, red_s=60.0, offset_s=35.0),))
    world = World(graph)
    veh = world.spawn(way=1, segment=0, offset=200.0, speed=13.89, speed_factor=1.0, strategic=Trip([3]))
    for _ in range(300):  # 30 s deep into the red phase
        world.step(0.1)
    assert veh.ref.key == (1, 0, True)
    assert veh.v < 0.1
    stop_gap = 300.0 - veh.s - veh.length / 2.0
    assert 0.0 <= stop_gap <= veh.idm.s0 + 0.1
    for _ in range(450):  # through the green onset at t=60: clear the intersection
        world.step(0.1)
    assert veh.ref.key[1] == 1
    assert world.signal_violations == []


def test_strategic_random_direction_is_uniform_and_excludes_reverse():
    nodes = [(1, 0.0, 0.0), (2, 0.0, 100.0), (3, 100.0, 0.0), (4, 0.0, -100.0), (5, -100.0, 0.0)]
    ways = [(10, [5, 1]), (11, [1, 2]), (12, [1, 3]), (13, [1, 4])]
    world = World(build_graph(nodes, ways), seed=3)
    veh = world.spawn(way=10, offset=10.0, strategic=RandomDirection())
    counts = {2: 0, 3: 0, 4: 0, 5: 0}
    for _ in range(9999):
        counts[world.strategic_next(veh, 1)] += 1
    assert counts[5] == 0  # no immediate U-turn back up way 10
    for node in (2, 3, 4):
        assert counts[node] / 9999 == pytest.approx(1.0 / 3.0, abs=0.02)
    with pytest.raises(ValueError, match="end of its segment"):  # the vehicle arrives at node 1 only
        world.strategic_next(veh, 5)


def test_random_direction_drives_the_parallel_way_it_drew():
    # two equally long ways from node 2 to node 3 behind a one-way approach:
    # the vehicle drives the segment it drew, so both occur across seeds
    nodes = [(1, 0.0, 0.0), (2, 100.0, 0.0), (3, 200.0, 0.0)]
    ways = [(10, [1, 2], {"one_way": True}), (11, [2, 3]), (12, [2, 3])]
    graph = build_graph(nodes, ways)
    driven = set()
    for seed in range(40):
        world = World(graph, seed=seed)
        veh = world.spawn(way=10, offset=95.0, speed=10.0, speed_factor=1.0, strategic=RandomDirection())
        while veh.ref.key[0] == 10:
            world.step(0.1)
        driven.add(veh.ref.key)
    assert driven == {(11, 0, True), (12, 0, True)}


def test_trip_advanced_by_hand_stops_where_its_route_now_ends():
    # strategic_next moves the trip on: heading for its last destination,
    # the vehicle brakes to a stop at the end of the route it is driving
    world = World(chain_graph(300.0, 4), seed=0)
    veh = world.spawn(way=1, offset=50.0, speed=10.0, speed_factor=1.0, strategic=Trip((3, 4)))
    assert world.strategic_next(veh, 2) == 4
    for _ in range(1000):
        world.step(0.1)
    assert veh.done and veh.ref.end_node == 3
    assert 0.0 < 300.0 - veh.s - veh.length / 2.0 <= veh.idm.s0 * 1.5  # stopped short of node 3, not parked on it


def test_dead_end_allows_u_turn():
    world = World(corridor_graph(500.0, lanes=1, way_id=1), seed=0)
    # corridor_graph is one-way; build a two-way dead end instead
    graph = build_graph([(1, 0.0, 0.0), (2, 400.0, 0.0)], [(1, [1, 2])])
    world = World(graph, seed=0)
    veh = world.spawn(way=1, offset=10.0, strategic=RandomDirection())
    assert world.strategic_next(veh, 2) == 1


def test_one_way_dead_end_strands():
    world = World(corridor_graph(500.0))
    veh = world.spawn(way=1, offset=10.0, strategic=RandomDirection())
    with pytest.raises(StrandedError):
        world.strategic_next(veh, 2)


def test_aborted_step_keeps_the_crossings_before_the_stranded_vehicle_and_unmoves_the_ones_after():
    # a one-way chain 1 -> 2 -> 3 -> 4 of 100 m segments, each vehicle 0.5 m
    # short of its segment's end: vehicle 0 crosses node 2, vehicle 1 strands
    # at the dead end 4, and vehicle 2 would cross node 3 after it
    world = World(chain_graph(100.0, 4), seed=0)
    for segment in (0, 2, 1):
        world.spawn(way=1, segment=segment, offset=99.5, speed=13.89, speed_factor=1.0,
                    strategic=RandomDirection())
    before = [(v.s, v.v, v.odometer, v.ref.index) for v in world.vehicles.values()]
    with pytest.raises(StrandedError):
        world.step(0.1)
    assert world.time == 0.0
    moved = [ballistic_update(v, world.acc[vid], 0.1) for vid, (_, v, _, _) in enumerate(before)]
    assert all(before[vid][0] + moved[vid][0] > 100.0 for vid in range(3))  # each one reaches its node
    # vehicle 0's crossing stands: it drives on the segment after node 2
    first = world.vehicles[0]
    assert first.ref.index == world.graph.ref(1, 1, True).index and world.route_pos[0] == 1
    assert (first.s, first.v) == (before[0][0] + moved[0][0] - 100.0, moved[0][1])
    # the stranded vehicle keeps its move, past the dead end it did not cross
    stranded = world.vehicles[1]
    assert (stranded.s, stranded.v, stranded.odometer) == (before[1][0] + moved[1][0], moved[1][1], moved[1][0])
    assert stranded.ref.index == before[1][3]
    # vehicle 2 stands where the step found it, bit for bit
    last = world.vehicles[2]
    assert (last.s, last.v, last.odometer, last.ref.index) == before[2]


def test_collision_is_recorded_not_raised():
    world = World(corridor_graph(500.0))
    world.spawn(way=1, offset=10.0, speed=5.0, speed_factor=1.0, strategic=RandomDirection())
    world.spawn(way=1, offset=12.0, parked=True)  # overlapping: centers 2 m apart
    world.step(0.1)
    assert len(world.collisions) >= 1
    rec = world.collisions[0]
    assert (rec.rear_id, rec.front_id) == (0, 1)
    assert rec.gap == pytest.approx(2.0 - 5.0, abs=1e-4)
    world.step(0.1)  # the world keeps stepping after recording


def test_lane_change_cooldown_delays_next_change():
    world = World(corridor_graph(1000.0, lanes=2))
    ego = world.spawn(way=1, lane=0, offset=50.0, speed=10.0, speed_factor=1.0, strategic=RandomDirection())
    world.spawn(way=1, lane=0, offset=110.0, parked=True)
    ego.last_lane_change = 0.0  # as if a change had just executed
    for _ in range(60):
        world.step(0.1)
    times = [rec.time for rec in world.lane_changes if rec.vehicle_id == ego.id]
    assert times, "the blocked ego never took the free lane"
    assert times[0] >= LANE_CHANGE_COOLDOWN - 1e-9
    assert times[0] == pytest.approx(2.0)


def test_lane_change_record_captures_follower_pressure():
    world = World(corridor_graph(1000.0, lanes=2))
    ego = world.spawn(way=1, lane=0, offset=100.0, speed=12.0, speed_factor=1.0, strategic=RandomDirection())
    world.spawn(way=1, lane=0, offset=140.0, parked=True)
    follower = world.spawn(
        way=1, lane=1, offset=40.0, speed=12.0, speed_factor=1.0, strategic=RandomDirection()
    )
    for _ in range(30):
        world.step(0.1)
    recs = [r for r in world.lane_changes if r.vehicle_id == ego.id]
    assert recs
    rec = recs[0]
    assert rec.from_lane == 0 and rec.to_lane == 1
    assert rec.follower_id == follower.id
    assert rec.follower_acc_after is not None
    assert rec.follower_acc_after >= -ego.mobil.b_safe


def test_done_vehicles_stand_like_parked_ones():
    # test_golden's route-ends world: vehicle 0's trip ends by crossing its
    # terminal node at speed, vehicle 2 (no strategic model) by the smooth
    # arrival short of its last node; vehicle 3, off their routes, is parked
    world = World(parse_osm(grid_osm_xml(4, 200.0)), seed=4)
    world.spawn(way=100, offset=20.0, speed=5.0, strategic=Trip((1102, 1202, 1202)))
    world.spawn(way=201, segment=1, offset=60.0, speed=8.0, strategic=Trip((1303, 1303)))
    world.spawn(way=200, offset=50.0, speed=6.0)
    world.spawn(way=103, offset=100.0, forward=False, speed=7.0, parked=True)
    standing, after = {}, 0
    while after < 50:
        world.step(0.1)
        for veh in world.vehicles.values():
            if veh.done or veh.parked:
                assert (veh.v, veh.acc) == (0.0, 0.0)
                state = (veh.s, veh.ref.index, veh.odometer)
                assert standing.setdefault(veh.id, state) == state
        after = after + 1 if len(standing) == 4 else 0
        assert world.time < 200.0
    crossed, arrived, parked = world.vehicles[0], world.vehicles[2], world.vehicles[3]
    assert crossed.done and crossed.s == crossed.ref.length  # put back on the node it crossed
    assert arrived.done and arrived.s < arrived.ref.length - arrived.length / 2.0
    assert (parked.s, parked.odometer, parked.done) == (100.0, 0.0, False)


def test_a_speed_written_to_a_standing_vehicle_stays():
    world = World(chain_graph(200.0, 3))
    done = world.spawn(way=1, offset=150.0, speed=2.0)  # stops at node 2, its route's end
    parked = world.spawn(way=1, segment=1, offset=100.0, parked=True)
    while not done.done:
        world.step(0.1)
    before = [(veh.s, veh.ref.index, veh.odometer) for veh in (done, parked)]
    done.v = parked.v = 3.0
    for _ in range(20):
        world.step(0.1)
        assert [(veh.v, veh.acc) for veh in (done, parked)] == [(3.0, 0.0)] * 2
    assert [(veh.s, veh.ref.index, veh.odometer) for veh in (done, parked)] == before


def test_an_empty_world_steps_its_clock():
    world, t = World(corridor_graph(1000.0)), 0.0
    for dt in (0.1, 0.25, 0.1):
        world.step(dt)
        t += dt
        assert world.time == t
    for dt in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match=repr(dt)):
            world.step(dt)
    assert world.time == t
    assert (world.lane_changes, world.collisions, world.signal_violations) == ([], [], [])
    # a vehicle spawned now drives as in a world that had it from the start
    fresh = World(corridor_graph(1000.0))
    late, first = (w.spawn(way=1, offset=100.0, speed=10.0, strategic=RandomDirection()) for w in (world, fresh))
    for _ in range(100):
        world.step(0.1)
        fresh.step(0.1)
        assert (late.s, late.v, late.acc, late.odometer) == (first.s, first.v, first.acc, first.odometer)


def test_trip_records_arrivals_and_odometer():
    world = World(chain_graph(200.0, 5))
    veh = world.spawn(way=1, segment=0, offset=0.0, speed=0.0, speed_factor=1.0, strategic=Trip([3, 5]))
    trip, arrivals = veh.strategic, []
    for _ in range(1500):
        cursor, t = trip.cursor, world.time
        world.step(0.1)
        arrivals += [(t, node) for node in trip.destinations[cursor:trip.cursor]]  # the trip's cursor records them
        if veh.done:
            break
    assert veh.done
    assert [node for _, node in arrivals] == [3, 5]
    t3, t5 = arrivals[0][0], arrivals[1][0]
    assert 0.0 < t3 < t5 <= world.time
    # total driving distance: 800 m to the end, minus the standstill shortfall
    assert 790.0 < veh.odometer <= 800.0
    assert veh.v == 0.0 and veh.acc == 0.0


def test_odometer_ends_at_a_terminal_node_crossed_at_speed():
    # the route-ends scenario: Trips 0 and 1 cross their last node at speed and park on
    # it, so each has driven the segments it entered, less its spawn offset, and no more
    world = World(parse_osm(grid_osm_xml(4, 200.0)), seed=4)
    world.spawn(way=100, offset=20.0, speed=5.0, strategic=Trip((1102, 1202, 1202)))
    world.spawn(way=201, segment=1, offset=60.0, speed=8.0, strategic=Trip((1303, 1303)))
    world.spawn(way=200, offset=50.0, speed=6.0)
    driven = {vid: [world.vehicles[vid].ref] for vid in (0, 1)}
    while not all(v.done for v in world.vehicles.values()):
        world.step(0.1)
        for vid, refs in driven.items():
            if world.vehicles[vid].ref != refs[-1]:
                refs.append(world.vehicles[vid].ref)
        assert world.time < 200.0
    for vid, offset in ((0, 20.0), (1, 60.0)):
        veh = world.vehicles[vid]
        assert veh.s == veh.ref.length and len(driven[vid]) > 2
        assert veh.odometer == pytest.approx(sum(ref.length for ref in driven[vid]) - offset, rel=1e-9, abs=0.0)


def test_free_vehicle_converges_to_effective_desired_speed():
    world = World(corridor_graph(3000.0))
    veh = world.spawn(way=1, offset=0.0, speed=0.0, speed_factor=1.1, strategic=RandomDirection())
    for _ in range(600):
        world.step(0.1)
    assert veh.v == pytest.approx(13.89 * 1.1, rel=1e-3)


# -- the array step against the public per-vehicle model --------------------


_STRATEGIES = (lambda: None, lambda: Trip([4]), lambda: Trip([3, 4]))  # the last only before node 3


@st.composite
def _chain_states(draw):
    """A two-lane three-segment chain with signals at both inner nodes and up to 20 vehicles."""
    signals = [
        TrafficSignal(node, green_s=draw(st.floats(1.0, 30.0)), yellow_s=draw(st.floats(0.5, 5.0)),
                      red_s=draw(st.floats(1.0, 30.0)), offset_s=draw(st.floats(0.0, 60.0)))
        for node in (2, 3) if draw(st.booleans())
    ]
    position = st.one_of(st.floats(0.0, 300.0), st.sampled_from([0.0, 150.0, 299.0, 300.0]))
    vehicles = draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 1), position, st.floats(0.0, 20.0),
                  st.integers(0, len(_STRATEGIES) - 1), st.floats(0.8, 1.2), st.booleans()),
        min_size=1, max_size=20,
    ))
    return signals, vehicles, draw(st.floats(0.0, 100.0))


def _dense_chain_state(seed):
    """A seeded :func:`_chain_states` value far denser than it draws, so that a NumPy power or square in
    place of libm ``pow`` changes some acceleration's bits.  Lane 0 packs 5000 vehicles: their gaps fall
    under the model's floor and the interaction term ``(s*/s) ** 2`` sets their bits.  Lane 1 holds one
    vehicle every 5.6 m at a speed factor of 0.02-0.2, so ``v`` far exceeds ``v0_eff`` and the free term
    ``(v/v0_eff) ** delta`` sets theirs.  Speeds are uniform in 0-25 m/s, so many followers are slower
    than their leaders (negative closing speed)."""
    rng = np.random.default_rng(seed)
    spaced = [(segment, 1, offset) for segment in range(3)
              for offset in (np.arange(53) * 5.6 + rng.uniform(0.0, 0.5, 53)).tolist()]
    packed = list(zip(rng.integers(0, 3, 5000).tolist(), [0] * 5000, rng.uniform(0.0, 300.0, 5000).tolist()))
    factors = [*rng.uniform(0.02, 0.2, len(spaced)).tolist(), *rng.uniform(0.8, 1.2, len(packed)).tolist()]
    n = len(factors)
    vehicles = [(*place, speed, strategic, factor, parked) for place, speed, strategic, factor, parked in zip(
        spaced + packed, rng.uniform(0.0, 25.0, n).tolist(), rng.integers(0, len(_STRATEGIES), n).tolist(),
        factors, (rng.random(n) < 0.05).tolist())]
    return [], vehicles, 0.0


@settings(max_examples=150, deadline=None)
@given(_chain_states())
@example(_dense_chain_state(4))
def test_step_acceleration_is_the_scalar_idm_behind_the_perceived_leader(state):
    signals, vehicles, t0 = state
    world = World(chain_graph(300.0, 4, lanes=2, signals=signals), seed=5)
    world.time = t0
    for segment, lane, offset, speed, strategic, factor, parked in vehicles:
        world.spawn(way=1, segment=segment, lane=lane, offset=offset, speed=speed, speed_factor=factor,
                    strategic=_STRATEGIES[min(strategic, 1 if segment == 2 else 2)](), parked=parked and segment == 2)
    expected = {}
    for veh in world.vehicles.values():
        if veh.parked:
            continue
        seen = world.perceive_leader(veh)
        if seen is None:
            expected[veh.id] = idm_acceleration(veh.v, veh.v0_eff, 0.0, math.inf, veh.idm)
        else:
            gap, closing = seen
            expected[veh.id] = idm_acceleration(veh.v, veh.v0_eff, closing, max(gap, 0.01), veh.idm)
    world.step(0.1)
    changed = {rec.vehicle_id for rec in world.lane_changes}
    after = world.vehicles  # views of every vehicle, built once
    for vid, acc in expected.items():
        veh = after[vid]
        if vid not in changed and not veh.done:  # a vehicle that ends its trip in the step parks with acc 0
            assert veh.acc == acc  # bit for bit, not approximately


def _scalar_neighbors(world, ego, lane):
    """Leader and follower of ``ego`` in ``lane`` on a single long segment, by linear scan."""
    ahead = [o for o in world.vehicles.values() if o.lane == lane and o.s > ego.s and o.s - ego.s <= PERCEPTION_HORIZON]
    behind = [o for o in world.vehicles.values() if o.lane == lane and o.s < ego.s]
    leader = min(ahead, key=lambda o: (o.s, o.id), default=None)
    follower = max(behind, key=lambda o: (o.s, o.id), default=None)  # ties: the lane list's last
    return LaneNeighbors(
        Neighbor(leader.s - ego.s, leader.v, leader.length, vehicle_id=leader.id) if leader else None,
        Neighbor(follower.s - ego.s, follower.v, follower.length, follower.idm, follower.v0_eff, follower.id)
        if follower else None,
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 2), st.one_of(st.floats(0.0, 1200.0), st.sampled_from([300.0, 310.0])),
              st.floats(0.0, 20.0), st.floats(0.8, 1.2), st.floats(-0.2, 1.0), st.floats(0.0, 0.5)),
    min_size=2, max_size=25,
))
def test_lane_changes_are_those_of_the_scalar_mobil(rows):
    # one 3 km three-lane segment; RandomDirection vehicles see nothing past its end
    world = World(corridor_graph(3000.0, lanes=3), seed=1)
    for lane, offset, speed, factor, politeness, threshold in rows:
        world.spawn(way=1, lane=lane, offset=offset, speed=speed, speed_factor=factor,
                    mobil=MobilParams(p=politeness, delta_a_th=threshold), strategic=RandomDirection())
    expected = []
    for ego in world.vehicles.values():
        current = _scalar_neighbors(world, ego, ego.lane)
        sides = [_scalar_neighbors(world, ego, ego.lane + d) if 0 <= ego.lane + d < 3 else None for d in (1, -1)]
        a_c = idm_acceleration(ego.v, ego.v0_eff, 0.0, math.inf, ego.idm) if current.leader is None else (
            idm_acceleration(ego.v, ego.v0_eff, ego.v - current.leader.v,
                             max(abs(current.leader.raw_dist) - (ego.length + current.leader.length) / 2.0, 0.01),
                             ego.idm))
        direction, follower_acc = mobil_decide(ego, a_c, NeighborContext(current, *sides))
        if direction:
            follower = sides[0 if direction == 1 else 1].follower
            expected.append((ego.id, ego.lane, ego.lane + direction, follower and follower.vehicle_id, follower_acc))
    world.step(0.1)
    assert [(r.vehicle_id, r.from_lane, r.to_lane, r.follower_id, r.follower_acc_after)
            for r in world.lane_changes] == expected


def test_positions_equal_position_for_every_vehicle():
    world = World(chain_graph(300.0, 4, lanes=2), seed=2)
    for offset in (0.0, 10.0, 150.0, 299.9, 300.0):
        world.spawn(way=1, segment=0, offset=offset, speed=12.0, strategic=Trip([4]))
    for _ in range(1200):
        xs, ys = world.positions()
        assert list(zip(xs, ys)) == [world.position(veh) for veh in world.vehicles.values()]
        world.step(0.1)
    assert any(veh.done for veh in world.vehicles.values())


def test_lane_is_clear_sees_vehicles_spawned_and_moved():
    world = World(corridor_graph(1000.0, lanes=2))
    ref = world.graph.ref(1, 0, True)
    assert world.lane_is_clear(ref, 0, 100.0, 8.0)
    world.spawn(way=1, lane=0, offset=100.0, speed=10.0, speed_factor=1.0, strategic=RandomDirection())
    assert not world.lane_is_clear(ref, 0, 105.0, 8.0)
    assert world.lane_is_clear(ref, 1, 105.0, 8.0)
    for _ in range(10):
        world.step(0.1)  # one second at about 10 m/s
    assert world.lane_is_clear(ref, 0, 100.0, 8.0)
    assert not world.lane_is_clear(ref, 0, 110.0, 8.0)
    world.spawn(way=1, lane=1, offset=500.0)
    assert not world.lane_is_clear(ref, 1, 495.0, 8.0)


def test_a_vehicle_is_a_view_of_the_world_columns():
    world = World(corridor_graph(1000.0, lanes=2))
    ego = world.spawn(way=1, offset=100.0, speed=10.0, speed_factor=1.0, strategic=RandomDirection())
    other = world.spawn(way=1, lane=1, offset=300.0, speed=10.0, speed_factor=1.0, strategic=RandomDirection())
    world.step(0.1)
    assert (ego.s, other.s) == (world.s[0], world.s[1])
    assert {type(ego.s), type(ego.lane), type(ego.done)} == {float, int, bool}
    # a write goes to the column and drops the lane table and the placement index built from it
    assert world.perceive_leader(ego) is None and world.lane_is_clear(world.graph.ref(1, 0), 0, 301.0, 8.0)
    other.lane = 0
    assert world.lane[1] == 0
    gap, _ = world.perceive_leader(ego)
    assert gap == other.s - ego.s - 5.0
    assert not world.lane_is_clear(world.graph.ref(1, 0), 0, 301.0, 8.0)
    # each read builds new views; their driver fields read the one record per id, which no view assigns
    view = world.vehicles[0]
    assert view is not ego and view.id == ego.id and view.strategic is ego.strategic and view.rng is ego.rng
    with pytest.raises(AttributeError):
        ego.idm = IdmParams()


def test_a_vehicles_lookup_builds_one_view(monkeypatch):
    world = World(corridor_graph(40000.0))
    for k in range(3000):
        world.spawn(way=1, offset=10.0 * k, parked=True)
    built = []
    init = Vehicle.__init__
    monkeypatch.setattr(Vehicle, "__init__", lambda view, w, vid: built.append(vid) or init(view, w, vid))
    vehicles = world.vehicles
    assert len(vehicles) == 3000 and list(vehicles)[-2:] == [2998, 2999] and built == []
    assert vehicles[1234].s == 12340.0 and built == [1234]
    assert 2999 in vehicles and vehicles.get(3000) is None and -1 not in vehicles and "0" not in vehicles
    with pytest.raises(KeyError):
        vehicles[3000]
    with pytest.raises(TypeError):
        vehicles[0] = None  # read-only
    assert [veh.id for veh in vehicles.values()][:3] == [0, 1, 2] and vehicles != {}


def test_perception_reaches_many_short_segments_ahead():
    # 40 segments of 12 m: the horizon spans more hops than one look-ahead pass
    signal = TrafficSignal(30, offset_s=25.0)  # red at t = 0
    world = World(chain_graph(12.0, 41, signals=(signal,)))
    ego = world.spawn(way=1, segment=0, offset=6.0, speed=10.0, strategic=Trip([41]))
    gap, closing = world.perceive_leader(ego)
    assert gap == 29 * 12.0 - 6.0 - 2.5 and closing == 10.0  # the red signal at node 30
    world.spawn(way=1, segment=25, offset=3.0, speed=4.0)
    gap, closing = world.perceive_leader(ego)
    assert gap == 25 * 12.0 - 6.0 + 3.0 - 5.0 and closing == 6.0


def _walk_leader(world, ego, route, stop):
    """What blocks ``ego``, by walking its route in plain Python: (vehicle or "standing", distance) or None.

    ``route`` lists the segments (``SegmentRef``) after the ego's own and ``stop`` is the node id a
    final leg stops at (None: none).  On the ego's segment the nearest vehicle strictly ahead in its
    lane; then, node by node, the horizon, a blocking signal or the stop, the route's end, and the
    next segment's rearmost vehicle in lane min(lane, lanes - 1), ties to the smaller id.
    """
    others = [veh for veh in world.vehicles.values() if veh.id != ego.id]  # views are built per read: compare ids

    def rearmost(ref, lane, beyond=-math.inf):
        in_lane = [veh for veh in others if veh.ref == ref and veh.lane == lane and veh.s > beyond]
        return min(in_lane, key=lambda veh: (veh.s, veh.id), default=None)

    lead = rearmost(ego.ref, ego.lane, ego.s)
    if lead is not None and lead.s - ego.s <= PERCEPTION_HORIZON:
        return lead, lead.s - ego.s
    dist, ref = ego.ref.length - ego.s, ego.ref
    for nxt in [*route, None]:
        node = ref.end_node
        signal = world.signals.get(node)
        if dist > PERCEPTION_HORIZON:
            return None
        if signal is not None and signal_phase(signal, world.time) != "green" or node == stop:
            return "standing", dist
        if nxt is None:
            return None
        lead = rearmost(nxt, min(ego.lane, nxt.lanes - 1))
        if lead is not None:
            dist = dist + lead.s
            return (lead, dist) if dist <= PERCEPTION_HORIZON else None
        dist, ref = dist + nxt.length, nxt


@st.composite
def _long_chains(draw):
    """A one-way chain of 20-60 segments in up to four ways of one or two lanes, with signals and vehicles.

    Segments are 2-10 m long, times a scale drawn as 1 or from 1-60: short chains, whose walks can
    span up to four look-ahead passes (vehicle 0 starts on the first segment with a trip to the
    chain's end), and long ones, which the horizon cuts within a pass or on a vehicle's own segment.
    """
    n = draw(st.integers(20, 60))
    lengths = draw(st.lists(st.floats(2.0, 10.0), min_size=n, max_size=n))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3)))
    lanes = [draw(st.integers(1, 2)) for _ in range(len(cuts) + 1)]
    signals = [
        TrafficSignal(node, green_s=draw(st.floats(1.0, 30.0)), yellow_s=draw(st.floats(0.5, 5.0)),
                      red_s=draw(st.floats(1.0, 30.0)), offset_s=draw(st.floats(0.0, 60.0)))
        for node in draw(st.sets(st.integers(2, n + 1), max_size=3))
    ]
    # (segment, lane, offset kind, offset fraction, speed, length, parked, leg, destination fraction)
    scout = (0, draw(st.integers(0, 1)), "inside", draw(st.floats(0.0, 1.0)), 10.0, 5.0, False, "final", 1.0)
    vehicles = [scout] + draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, 1), st.sampled_from(["start", "end", "inside"]), st.floats(0.0, 1.0),
        st.floats(0.0, 20.0), st.floats(3.0, 8.0), st.booleans(), st.sampled_from(["stop", "final", "on"]),
        st.floats(0.0, 1.0)), max_size=8))
    scale = draw(st.one_of(st.just(1.0), st.floats(1.0, 60.0)))
    return lengths, cuts, lanes, signals, vehicles, scale, draw(st.floats(0.0, 100.0))


@settings(max_examples=150, deadline=None)
@given(_long_chains())
@example(([10.0] * 20, [], [1], [], [  # the rearmost vehicle of segment 5 is 525 m ahead, past the horizon
    (0, 0, "inside", 0.5, 10.0, 5.0, False, "final", 1.0), (5, 0, "inside", 0.5, 0.0, 5.0, False, "stop", 0.0),
], 10.5, 0.0))
# a 512 m first segment: a vehicle on it 510 m ahead is past the horizon, one 490 m ahead is not,
# and a red signal at its end 510 m away is past the horizon
@example(([512.0] + [10.0] * 19, [], [1], [], [
    (0, 0, "inside", 0.0, 10.0, 5.0, False, "final", 1.0), (0, 0, "inside", 255 / 256, 0.0, 5.0, False, "stop", 0.0),
], 1.0, 0.0))
@example(([512.0] + [10.0] * 19, [], [1], [], [
    (0, 0, "inside", 0.0, 10.0, 5.0, False, "final", 1.0), (0, 0, "inside", 245 / 256, 0.0, 5.0, False, "stop", 0.0),
], 1.0, 0.0))
@example(([512.0] + [10.0] * 19, [], [1], [TrafficSignal(2, green_s=1.0, yellow_s=1.0, red_s=30.0)], [
    (0, 0, "inside", 1 / 256, 10.0, 5.0, False, "final", 1.0),
], 1.0, 5.0))
def test_perceive_leader_is_the_plain_route_walk(case):
    lengths, cuts, lanes, signals, vehicles, scale, t0 = case
    lengths = [length * scale for length in lengths]
    n = len(lengths)
    xs = [0.0]
    for length in lengths:
        xs.append(xs[-1] + length)
    bounds = [0, *cuts, n]  # way w holds segments bounds[w]..bounds[w + 1] - 1
    ways = [(w + 1, list(range(bounds[w] + 1, bounds[w + 1] + 2)), {"one_way": True, "lanes_forward": lanes[w]})
            for w in range(len(lanes))]
    graph = build_graph([(i + 1, x, 0.0) for i, x in enumerate(xs)], ways, signals)
    world = World(graph)
    world.time = t0
    place = [(w + 1, k) for w in range(len(lanes)) for k in range(bounds[w + 1] - bounds[w])]
    chain = [graph.ref(way, k) for way, k in place]  # segment k runs from node k + 1 to node k + 2
    for k, lane, where, frac, speed, length, parked, leg, extra in vehicles:
        ref = chain[k]
        offset = {"start": 0.0, "end": ref.length, "inside": frac * ref.length}[where]
        target = k + 2 + int(extra * (n - 1 - k))  # a node from the segment's end to the chain's
        strategic = None if leg == "stop" else Trip([target] if leg == "final" or target == n + 1 else [target, n + 1])
        world.spawn(way=place[k][0], segment=place[k][1], lane=min(lane, ref.lanes - 1), offset=offset,
                    speed=speed, length=length, parked=parked, strategic=strategic)
    # again after steps: vehicles move, change lanes and reach destinations, and each step's lane
    # table takes over the per-slot buffer the one before it filled
    for steps in (0, 5, 10):
        for _ in range(steps):
            world.step(0.5)
        for ego in world.vehicles.values():
            if ego.done:
                continue
            k, sm = chain.index(ego.ref), ego.strategic
            if sm is None:  # no strategic model: stop at the segment's end
                route, stop = [], k + 2
            else:
                target = sm.destinations[sm.cursor]
                route, stop = chain[k + 1:target - 1], target if sm.cursor == len(sm.destinations) - 1 else None
            walked = _walk_leader(world, ego, route, stop)
            if walked is None:
                expected = None
            else:
                lead, dist = walked
                lead_length, lead_v = (0.0, 0.0) if lead == "standing" else (lead.length, lead.v)
                expected = abs(dist) - (ego.length + lead_length) / 2.0, ego.v - lead_v
            assert world.perceive_leader(ego) == expected


def test_perceive_leader_is_the_route_walk_after_every_step_of_a_multilane_grid():
    # a signalled 4 x 4 grid of two-way, two-lane streets: vehicles leave lane
    # slots by crossing nodes and changing lanes, so each step's lane table
    # must reset the slots the previous table marked in the shared rearmost
    # buffer; checked after the fill each step's first query makes, and again
    # after a spawn has dropped the table
    nodes = [(r * 4 + c + 1, c * 80.0, r * 80.0) for r in range(4) for c in range(4)]
    two_lanes = {"lanes_forward": 2, "lanes_backward": 2}
    ways = [(100 + r, [r * 4 + c + 1 for c in range(4)], two_lanes) for r in range(4)]
    ways += [(200 + c, [r * 4 + c + 1 for r in range(4)], two_lanes) for c in range(4)]
    signals = [TrafficSignal(6, green_s=8.0, yellow_s=2.0, red_s=8.0),
               TrafficSignal(11, green_s=6.0, yellow_s=2.0, red_s=10.0, offset_s=5.0)]
    graph = build_graph(nodes, ways, signals)
    world = World(graph, seed=7)
    rng = np.random.default_rng(11)
    way_ids = sorted(graph.ways)

    def place() -> None:
        for _ in range(20):
            way, segment, lane = int(rng.choice(way_ids)), int(rng.integers(3)), int(rng.integers(2))
            forward, offset = bool(rng.integers(2)), float(rng.uniform(5.0, 75.0))
            if world.lane_is_clear(graph.ref(way, segment, forward), lane, offset, 8.0):
                strategic = Trip([int(rng.integers(1, 17))]) if rng.random() < 0.2 else RandomDirection()
                world.spawn(way=way, segment=segment, lane=lane, offset=offset, forward=forward,
                            speed=float(rng.uniform(0.0, 12.0)), strategic=strategic)
                return

    def check() -> None:
        for ego in world.vehicles.values():
            if ego.done:
                continue
            vid = ego.id
            route = [SegmentRef(graph, k) for k in world.route[vid, world.route_pos[vid]:world.route_len[vid]].tolist()]
            stop = graph.ids[world._final[vid]] if world._final[vid] >= 0 else None
            walked = _walk_leader(world, ego, route, stop)
            if walked is None:
                expected = None
            else:
                lead, dist = walked
                lead_length, lead_v = (0.0, 0.0) if lead == "standing" else (lead.length, lead.v)
                expected = abs(dist) - (ego.length + lead_length) / 2.0, ego.v - lead_v
            assert world.perceive_leader(ego) == expected

    for _ in range(40):
        place()
    crossings = 0
    for step in range(120):
        before = world.seg[:world.n].copy()
        world.step(0.5)
        crossings += int((world.seg[:len(before)] != before).sum())
        check()
        if step % 10 == 9:
            place()
            check()
    assert crossings > 50 and len(world.lane_changes) > 5  # slots were left both ways
