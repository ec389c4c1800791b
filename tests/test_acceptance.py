"""Acceptance suite: nine end-to-end checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
verdict lines; without ``-s`` they appear only for failing tests.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from vehsim.exports import export_spacetime
from vehsim.kernel import EventKernel
from vehsim.mobility import (
    IdmParams,
    MobilParams,
    Trip,
    World,
    ballistic_update,
    idm_acceleration,
)
from vehsim.osm import TrafficSignal, build_graph
from vehsim.radio import BaseStation, RadioObserver, detect_ping_pong
from vehsim.routing import NoRouteError, shortest_path
from vehsim.scenario import TraceSample, dumps_config, load_config, read_trace, run

from conftest import RADIO_GRID_CONFIG, HeapHost, chain_graph, corridor_graph, grid_osm_xml


def _verdict(criterion, ok, detail):
    print(f"\n[acceptance {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance criterion {criterion}: {detail}"


# -- 1: car-following equilibrium ------------------------------------------------


def test_criterion_1_platoon_converges_to_analytic_equilibrium_gap():
    rng = np.random.default_rng(7)
    dt, n_followers = 0.1, 20
    worst_rel = 0.0
    started = time.perf_counter()
    for _ in range(50):
        v0 = float(rng.uniform(10.0, 35.0))
        params = IdmParams(
            v0=v0,
            T=float(rng.uniform(1.0, 2.2)),
            a_max=float(rng.uniform(0.8, 2.5)),
            b_comf=float(rng.uniform(1.0, 3.0)),
            delta=float(rng.uniform(3.0, 5.0)),
            s0=float(rng.uniform(1.0, 4.0)),
        )
        v_lead = float(rng.uniform(0.4, 0.85)) * v0
        # analytic zero-acceleration gap at matched speeds, computed here
        # independently of the implementation under test
        s_star = params.s0 + v_lead * params.T
        s_e = s_star / math.sqrt(1.0 - (v_lead / v0) ** params.delta)

        length = 5.0
        xs, vs = [0.0], [v_lead]
        for _ in range(n_followers):
            xs.append(xs[-1] - (1.03 * s_e + length))
            vs.append(v_lead)
        rel = math.inf
        for _chunk in range(240):  # at most 1200 s of simulated time
            for _ in range(50):
                accs = [0.0]
                for i in range(1, n_followers + 1):
                    gap = xs[i - 1] - xs[i] - length
                    accs.append(idm_acceleration(vs[i], v0, vs[i] - vs[i - 1], gap, params))
                xs[0] += v_lead * dt
                for i in range(1, n_followers + 1):
                    ds, v_new = ballistic_update(vs[i], accs[i], dt)
                    xs[i] += ds
                    vs[i] = v_new
            rel = max(
                abs((xs[i - 1] - xs[i] - length) - s_e) / s_e
                for i in range(1, n_followers + 1)
            )
            if rel < 2e-4:
                break
        worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        worst_rel < 1e-3 and elapsed < 10.0,
        f"worst steady-state gap deviation {worst_rel:.2e} relative "
        f"(limit 1e-3) across 50 parameter sets in {elapsed:.1f} s (limit 10 s)",
    )


# -- 2: jam dissolution and re-jam on a blocked corridor -------------------------


def test_criterion_2_corridor_jam_dissolves_and_reforms_at_obstacle():
    started = time.perf_counter()
    graph = corridor_graph(1000.0)
    world = World(graph, seed=2)
    world.spawn(way=1, offset=700.0, parked=True, speed_factor=1.0)
    # brisk drivers (short headway, sharp desired-speed adherence) so the
    # discharging queue actually reaches free flow inside the short corridor
    idm = IdmParams(T=0.9, a_max=2.2, b_comf=2.5, delta=15.0)
    vids = [
        world.spawn(way=1, offset=2.5 + (idm.s0 + 5.0) * i, idm=idm, speed_factor=1.0).id
        for i in range(15)
    ]
    v0_eff = idm.v0  # speed factor pinned to 1.0

    peak_mid = {vid: 0.0 for vid in vids}
    jam_front_ok = True
    last_front = math.inf
    samples = []
    for step in range(1600):  # 160 s at dt 0.1
        world.step(0.1)
        stopped = []
        for vid in vids:
            veh = world.vehicles[vid]
            x, y = world.position(veh)
            if 200.0 <= x <= 600.0 and veh.v > peak_mid[vid]:
                peak_mid[vid] = veh.v
            if veh.v < 0.1 and x > 300.0:
                stopped.append(x)
            if step % 10 == 9:
                samples.append(
                    TraceSample(world.time, vid, x, y, veh.v, veh.acc, None, None)
                )
        if stopped:
            front = min(stopped)
            if front > last_front + 0.5:
                jam_front_ok = False
            last_front = min(last_front, front)
    elapsed = time.perf_counter() - started

    reaches_free_flow = min(peak_mid.values()) >= 0.9 * v0_eff
    finals = [(world.position(world.vehicles[v])[0], world.vehicles[v].v) for v in vids]
    all_rest_upstream = all(v < 0.1 and x < 700.0 for x, v in finals)
    no_collisions = not world.collisions
    arcs = [row[2] for row in export_spacetime(samples)]
    spacetime_ok = all(0.0 <= arc <= 1000.0 for arc in arcs)

    _verdict(
        2,
        reaches_free_flow
        and all_rest_upstream
        and no_collisions
        and jam_front_ok
        and spacetime_ok
        and elapsed < 5.0,
        f"free flow {min(peak_mid.values()):.2f} m/s >= {0.9 * v0_eff:.2f} in 200-600 m: "
        f"{reaches_free_flow}; all rest upstream of 700 m: {all_rest_upstream}; "
        f"collisions {len(world.collisions)}; jam front nonincreasing: {jam_front_ok}; "
        f"space-time export consistent: {spacetime_ok}; {elapsed:.1f} s (limit 5 s)",
    )


# -- 3 & 7: full scenario on a synthetic grid ------------------------------------


@pytest.fixture(scope="module")
def grid_env(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance_grid")
    (base / "grid.osm").write_text(grid_osm_xml(5, 500.0))
    return base, load_config(RADIO_GRID_CONFIG, base_dir=base)


@pytest.fixture(scope="module")
def grid_first_run(grid_env):
    base, config = grid_env
    started = time.perf_counter()
    artifacts = run(config, base / "first")
    return artifacts, time.perf_counter() - started


def test_criterion_3_grid_scenario_completes_trip_with_radio_trace(grid_first_run):
    artifacts, elapsed = grid_first_run
    summary = artifacts.summary
    samples = read_trace(artifacts.trace_path)
    populated = samples and all(
        s.serving_cell is not None and s.rssi is not None for s in samples
    )
    trip_done = summary["completed_trips"] == 1
    has_handover = summary["handover_count"] >= 1
    _verdict(
        3,
        trip_done and has_handover and populated and elapsed < 60.0,
        f"trip completed: {trip_done}; handovers {summary['handover_count']} (>= 1); "
        f"all {len(samples)} trace rows carry speed/acceleration/cell/signal values: "
        f"{bool(populated)}; 101 vehicles for {summary['duration_s']:.0f} s simulated "
        f"in {elapsed:.1f} s (limit 60 s)",
    )


def test_criterion_7_reruns_are_byte_identical_and_seed_only_moves_traffic(
    grid_env, grid_first_run
):
    base, config = grid_env
    first, _ = grid_first_run
    second = run(config, base / "second")
    identical = first.trace_path.read_bytes() == second.trace_path.read_bytes()

    reseeded = run(
        replace(config, seed=config.seed + 1),
        base / "reseeded",
        echo_text=dumps_config(config),
    )
    trace_differs = reseeded.trace_path.read_bytes() != first.trace_path.read_bytes()
    echo_same = reseeded.config_path.read_bytes() == first.config_path.read_bytes()
    # the configured vehicle's spawn state does not depend on the seed
    first_t0 = first.trace_path.read_text().splitlines()[1]
    reseeded_t0 = reseeded.trace_path.read_text().splitlines()[1]
    spawn_stable = first_t0 == reseeded_t0 and first_t0.startswith("0,0,")

    _verdict(
        7,
        identical and trace_differs and echo_same and spawn_stable,
        f"same seed byte-identical trace: {identical}; reseeded trace differs: "
        f"{trace_differs}; config echo unchanged by seed: {echo_same}; configured "
        f"vehicle spawn row unchanged: {spawn_stable}",
    )


# -- 4: ping-pong handover on a constructed two-cell geometry --------------------


def test_criterion_4_ping_pong_windows_match_closed_form_crossings():
    hysteresis, ttt, exponent = 3.0, 1.0, 3.5
    v, dt = 20.0, 0.1
    cx, y_far, y_near = 225.0, 400.0, 9.0
    far = BaseStation(id="a", x=cx, y=y_far, tx_power_dbm=46.0)
    near = BaseStation(id="b", x=cx, y=y_near, tx_power_dbm=20.0)

    # Along y=0, the signal advantage of b over a is
    #   (tx_b - tx_a) + 5*exponent*log10(d_a^2 / d_b^2)
    # with d_a^2 = u^2 + y_far^2 and d_b^2 = u^2 + y_near^2 for u = x - cx.
    # Solving advantage = +/-hysteresis for u gives the switch radii.
    q_in = 10 ** ((far.tx_power_dbm - near.tx_power_dbm + hysteresis) / (5 * exponent))
    q_out = 10 ** ((far.tx_power_dbm - near.tx_power_dbm - hysteresis) / (5 * exponent))
    u_in = math.sqrt((y_far**2 - q_in * y_near**2) / (q_in - 1.0))
    u_out = math.sqrt((y_far**2 - q_out * y_near**2) / (q_out - 1.0))
    expected_first = (cx - u_in) / v + ttt
    expected_second = (cx + u_out) / v + ttt
    expected_gap = expected_second - expected_first
    assert 5.0 < expected_gap <= 8.0  # geometry is built to sit between the windows

    observer = RadioObserver([far, near], hysteresis_db=hysteresis, time_to_trigger_s=ttt)
    events = []
    for i in range(int(round(450.0 / v / dt)) + 1):
        t = i * dt
        event = observer.update(7, v * t, 0.0, t)
        if event:
            events.append(event)

    shape_ok = (
        len(events) == 2
        and (events[0].from_cell, events[0].to_cell) == ("a", "b")
        and (events[1].from_cell, events[1].to_cell) == ("b", "a")
    )
    timing_ok = shape_ok and (
        abs(events[0].time - expected_first) <= 2 * dt
        and abs(events[1].time - expected_second) <= 2 * dt
        and abs(events[0].x - (cx - u_in + v * ttt)) <= 2 * v * dt
        and abs(events[1].x - (cx + u_out + v * ttt)) <= 2 * v * dt
    )
    history = observer.attachments[7].history
    wide = detect_ping_pong(history, 10.0)
    narrow = detect_ping_pong(history, 5.0)
    counts_ok = set(observer.attachments) == {7} and len(wide) == 1 and narrow == []

    _verdict(
        4,
        shape_ok and timing_ok and counts_ok,
        f"a->b->a derived at t={expected_first:.2f}/{expected_second:.2f} s "
        f"(gap {expected_gap:.2f} s), observed "
        f"{[(e.time, e.from_cell, e.to_cell) for e in events]}; "
        f"ping-pongs: window 10 s -> {len(wide)} (want 1), "
        f"window 5 s -> {len(narrow)} (want 0)",
    )


# -- 5: lane-change safety and cooldown discipline -------------------------------


def test_criterion_5_no_unsafe_lane_change_and_cooldown_respected():
    b_safe = MobilParams().b_safe
    total_changes = 0
    worst_follower_acc = 0.0
    min_spacing = math.inf
    for seed in range(100):
        graph = corridor_graph(2000.0, lanes=2)
        world = World(graph, seed=seed)
        world.spawn(way=1, lane=0, offset=500.0, parked=True, speed_factor=1.0)
        for i in range(8):  # speed factors drawn per vehicle: mixed desired speeds
            world.spawn(way=1, lane=0, offset=10.0 + 20.0 * i, speed=10.0)
        for _ in range(450):  # 45 s
            world.step(0.1)
        total_changes += len(world.lane_changes)
        by_vehicle = {}
        for record in world.lane_changes:
            if record.follower_acc_after is not None:
                worst_follower_acc = min(worst_follower_acc, record.follower_acc_after)
            by_vehicle.setdefault(record.vehicle_id, []).append(record.time)
        for times in by_vehicle.values():
            for earlier, later in zip(times, times[1:]):
                min_spacing = min(min_spacing, later - earlier)

    safety_ok = worst_follower_acc >= -b_safe - 1e-9
    cooldown_ok = min_spacing >= 2.0 - 1e-9
    _verdict(
        5,
        safety_ok and cooldown_ok and total_changes > 0,
        f"{total_changes} lane changes over 100 seeded runs; hardest braking imposed "
        f"on a new follower {worst_follower_acc:.2f} m/s^2 (floor -{b_safe}); closest "
        f"same-vehicle change spacing {min_spacing:.2f} s (floor 2.0)",
    )


# -- 6: event ordering, standalone vs host-mapped --------------------------------


def _run_event_load(host):
    kernel = EventKernel(host=host)
    rng = np.random.default_rng(606)
    parent_delays = rng.uniform(0.0, 1000.0, size=95_000)
    child_delays = rng.uniform(0.0, 50.0, size=5_000)
    log, expected = [], []
    parents_seen = [0]

    def handler(event):
        log.append((event.fire_time_ns, event.seq, event.kind))
        if event.kind == "parent":
            parents_seen[0] += 1
            if parents_seen[0] % 19 == 0:
                handle = kernel.schedule(
                    "sink", "child", float(child_delays[parents_seen[0] // 19 - 1])
                )
                child = kernel.event_of(handle)
                expected.append((child.fire_time_ns, child.seq))

    kernel.bind("sink", handler)
    for delay in parent_delays:
        handle = kernel.schedule("sink", "parent", float(delay))
        event = kernel.event_of(handle)
        expected.append((event.fire_time_ns, event.seq))
    if host is None:
        kernel.run_until(1100.0)
    else:
        while host.heap:
            kernel.deliver_from_host(host.pop())
    return log, expected


def test_criterion_6_event_order_and_host_equivalence():
    standalone_log, expected = _run_event_load(None)
    hosted_log, _ = _run_event_load(HeapHost())
    count_ok = len(standalone_log) == 100_000
    order_ok = [(ft, seq) for ft, seq, _ in standalone_log] == sorted(expected)
    hosts_agree = standalone_log == hosted_log
    _verdict(
        6,
        count_ok and order_ok and hosts_agree,
        f"{len(standalone_log)} events fired in exact (fire time, sequence) order: "
        f"{order_ok}; host-mapped execution log identical: {hosts_agree}",
    )


# -- 8: stopping at a red signal, clearing on green ------------------------------


def test_criterion_8_red_signal_stop_band_and_green_release():
    # signal sits mid-chain at x = 250; its cycle is red for the first 45 s
    signal = TrafficSignal(2, red_s=60.0, offset_s=45.0)
    graph = chain_graph(250.0, 3, signals=(signal,))
    world = World(graph, seed=0)
    idm = IdmParams()
    half_length = 5.0 / 2.0  # positions track vehicle centers
    vehicle = world.spawn(
        way=1,
        segment=0,
        offset=250.0 - 200.0 - half_length,  # front bumper 200 m before the line
        speed=idm.v0,
        speed_factor=1.0,
        strategic=Trip((3,)),
    )
    stop_line = 250.0
    red_state = None
    crossed_at = None
    for _ in range(750):  # 75 s: red phase plus 30 s of green
        world.step(0.1)
        x = world.position(vehicle)[0]
        if world.time < 44.95:
            red_state = (world.time, vehicle.v, stop_line - (x + vehicle.length / 2))
        if crossed_at is None and x - vehicle.length / 2 > stop_line:
            crossed_at = world.time

    _, v_red, bumper_gap = red_state
    # the approach settles toward the s0 band asymptotically from above; allow
    # 5 cm on top of s0 for the finite settling time of the creep phase
    stopped_ok = v_red < 0.1 and -1e-9 <= bumper_gap <= idm.s0 + 0.05
    cleared_ok = crossed_at is not None and crossed_at > 45.0
    legal = not world.signal_violations and not world.collisions
    _verdict(
        8,
        stopped_ok and cleared_ok and legal,
        f"at end of red: v={v_red:.3f} m/s, front bumper {bumper_gap:.3f} m before the "
        f"line (band [0, {idm.s0 + 0.05}]); crossed at t={crossed_at and round(crossed_at, 1)} s "
        f"(green starts at 45 s); violations {len(world.signal_violations)}, "
        f"collisions {len(world.collisions)}",
    )


# -- 9: shortest paths against exhaustive enumeration ----------------------------


def _exhaustive_min_cost(graph, src, dst):
    best = None
    stack = [(src, 0.0, frozenset((src,)))]
    while stack:
        node, cost, seen = stack.pop()
        if node == dst:
            best = cost if best is None else min(best, cost)
            continue
        for ref in graph.outgoing(node):
            if ref.end_node not in seen:
                stack.append((ref.end_node, cost + ref.length, seen | {ref.end_node}))
    return best


def _random_digraph(rng):
    n = int(rng.integers(4, 13))
    coords = set()
    while len(coords) < n:
        coords.add((float(rng.integers(0, 800)), float(rng.integers(0, 800))))
    nodes = [(i + 1, x, y) for i, (x, y) in enumerate(sorted(coords))]
    ways = []
    way_id = 500
    for a, b in itertools.permutations([nid for nid, _, _ in nodes], 2):
        if rng.random() < 0.25:
            ways.append((way_id, [a, b], {"one_way": True}))
            way_id += 1
    if not ways:
        ways.append((way_id, [nodes[0][0], nodes[1][0]], {"one_way": True}))
    return build_graph(nodes, ways)


def test_criterion_9_shortest_path_matches_exhaustive_enumeration():
    rng = np.random.default_rng(909)
    mismatches = []
    reachable_checked = 0
    for graph_index in range(50):
        graph = _random_digraph(rng)
        ids = sorted(graph.nodes)
        pairs = {(ids[0], ids[-1])}
        while len(pairs) < 3:
            a, b = (int(i) for i in rng.choice(len(ids), size=2, replace=False))
            pairs.add((ids[a], ids[b]))
        for src, dst in sorted(pairs):
            expected = _exhaustive_min_cost(graph, src, dst)
            if expected is None:
                try:
                    found = shortest_path(graph, src, dst).total_cost
                    mismatches.append((graph_index, src, dst, "route found", found))
                except NoRouteError:
                    pass
            else:
                try:
                    found = shortest_path(graph, src, dst).total_cost
                except NoRouteError:
                    mismatches.append((graph_index, src, dst, expected, "no route"))
                    continue
                if abs(found - expected) > 1e-9:
                    mismatches.append((graph_index, src, dst, expected, found))
                reachable_checked += 1
    _verdict(
        9,
        not mismatches and reachable_checked >= 30,
        f"150 queries on 50 random digraphs, {reachable_checked} reachable pairs, "
        f"{len(mismatches)} disagreements with exhaustive enumeration"
        + (f": {mismatches[:3]}" if mismatches else ""),
    )
