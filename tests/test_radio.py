"""Radio layer: path loss, attachment state machine, ping-pong detection."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vehsim.radio as radio
from vehsim.radio import (
    _RANK_MARGIN_DB,
    _SHADOW_ROWS,
    BaseStation,
    HandoverEvent,
    RadioObserver,
    RadioParams,
    detect_ping_pong,
    reference_loss_db,
    rssi,
)
from vehsim.rng import substream


def test_reference_loss_frozen_value():
    assert reference_loss_db(1800.0) == pytest.approx(37.547222288114796, rel=1e-12)


def test_rssi_at_reference_distance():
    bs = BaseStation("a", 0.0, 0.0)  # 46 dBm, 1800 MHz
    assert rssi(bs, 1.0, 0.0) == pytest.approx(8.452777711885204, rel=1e-12)


def test_rssi_floors_below_reference_distance():
    bs = BaseStation("a", 0.0, 0.0)
    at_ref = rssi(bs, 1.0, 0.0)
    assert rssi(bs, 0.2, 0.0) == at_ref
    assert rssi(bs, 0.0, 0.0) == at_ref


def test_rssi_doubling_decrement():
    bs = BaseStation("a", 0.0, 0.0)
    # each doubling of distance costs 10 * n * log10(2) dB
    decrement = 10.536049848239342
    assert rssi(bs, 100.0, 0.0) - rssi(bs, 200.0, 0.0) == pytest.approx(decrement, rel=1e-12)
    assert rssi(bs, 7.0, 0.0) - rssi(bs, 14.0, 0.0) == pytest.approx(decrement, rel=1e-12)
    # a different exponent scales the slope
    d2 = rssi(bs, 100.0, 0.0, path_loss_exponent=2.0) - rssi(bs, 200.0, 0.0, path_loss_exponent=2.0)
    assert d2 == pytest.approx(10.0 * 2.0 * math.log10(2.0), rel=1e-12)


def test_rssi_depends_only_on_distance():
    bs = BaseStation("a", 10.0, -5.0)
    r = 250.0
    samples = [rssi(bs, 10.0 + r * math.cos(w), -5.0 + r * math.sin(w)) for w in (0.0, 1.0, 2.5, 4.0)]
    assert max(samples) - min(samples) < 1e-9
    assert rssi(bs, 10.0 + 300.0, -5.0) < samples[0]  # strictly falls with distance


def test_station_validation():
    with pytest.raises(ValueError):
        BaseStation("a", 0.0, 0.0, tx_power_dbm=0.0)
    with pytest.raises(ValueError):
        BaseStation("a", 0.0, 0.0, carrier_mhz=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for kwargs in ({"x": bad}, {"y": bad}, {"tx_power_dbm": bad}, {"carrier_mhz": bad}):
            with pytest.raises(ValueError, match="finite"):
                BaseStation(**{"id": "a", "x": 0.0, "y": 0.0, **kwargs})
    with pytest.raises(ValueError):
        HandoverEvent(1.0, 0, "a", "a", 0.0, 0.0)
    # the id is written unquoted into CSV rows, which read_trace would then refuse
    for bad in ("a,b", "a\nb", "a\r", ","):
        with pytest.raises(ValueError, match="id may not contain"):
            BaseStation(bad, 0.0, 0.0)


def test_observer_rejects_bad_station_sets():
    with pytest.raises(ValueError):
        RadioObserver([])
    with pytest.raises(ValueError):
        RadioObserver([BaseStation("a", 0.0, 0.0), BaseStation("a", 5.0, 0.0)])


def test_first_update_attaches_strongest_without_event():
    obs = RadioObserver([BaseStation("a", 0.0, 0.0), BaseStation("b", 1000.0, 0.0)])
    assert obs.current(7) is None
    assert obs.update(7, 100.0, 0.0, 0.0) is None
    cell, level = obs.current(7)
    assert cell == "a"
    assert level == pytest.approx(rssi(BaseStation("a", 0.0, 0.0), 100.0, 0.0))


def test_single_station_never_hands_over():
    obs = RadioObserver([BaseStation("a", 0.0, 0.0)])
    for k in range(100):
        assert obs.update(1, 50.0 * k, 0.0, 0.1 * k) is None
    assert obs.current(1)[0] == "a"


def test_margin_below_hysteresis_never_triggers():
    # static point where b is stronger than a, but by less than the margin
    a = BaseStation("a", 0.0, 0.0)
    b = BaseStation("b", 1000.0, 0.0)
    obs = RadioObserver([a, b], RadioParams(hysteresis_db=3.0, time_to_trigger_s=1.0))
    x = 520.0  # past the midpoint: b is stronger here, yet within the margin
    advantage = rssi(b, x, 0.0) - rssi(a, x, 0.0)
    assert 0.0 < advantage < 3.0
    obs.update(5, 100.0, 0.0, 0.0)  # attach to a
    for k in range(1, 200):
        assert obs.update(5, x, 0.0, 0.1 * k) is None
    assert obs.current(5)[0] == "a"


def test_two_cell_drive_hands_over_once_past_crossing():
    # equal-power cells 1 km apart: the +3 dB line sits at D*r/(1+r) with
    # r = 10^(H/(10 n)); the handover completes one time-to-trigger later
    a = BaseStation("a", 0.0, 0.0)
    b = BaseStation("b", 1000.0, 0.0)
    obs = RadioObserver([a, b], RadioParams(hysteresis_db=3.0, time_to_trigger_s=1.0))
    crossing = 549.1815663652214
    v, dt = 10.0, 0.1
    events = []
    steps = int(100.0 / dt)
    for k in range(steps + 1):
        t = k * dt
        event = obs.update(3, v * t, 0.0, t)
        if event:
            events.append(event)
    assert len(events) == 1
    ho = events[0]
    assert (ho.from_cell, ho.to_cell) == ("a", "b")
    expected_t = crossing / v + 1.0  # trigger opens at the crossing, fires TTT later
    assert abs(ho.time - expected_t) <= 2 * dt
    assert abs(ho.x - (crossing + v * 1.0)) <= 2 * v * dt
    assert obs.current(3)[0] == "b"


def test_candidate_identity_change_restarts_trigger():
    a = BaseStation("a", 0.0, 0.0)
    b = BaseStation("b", 2000.0, 0.0)
    c = BaseStation("c", -2000.0, 0.0)
    obs = RadioObserver([a, b, c], RadioParams(hysteresis_db=3.0, time_to_trigger_s=1.0))
    near_b = (1990.0, 0.0)
    near_c = (-1990.0, 0.0)
    events = [obs.update(1, 1.0, 0.0, 0.0)]  # attach to a
    # alternate the strongest cell faster than the time-to-trigger
    t = 0.0
    for k in range(1, 13):
        t = 0.5 * k
        spot = near_b if k % 2 else near_c
        events.append(obs.update(1, *spot, t))
    assert events == [None] * 13
    # now hold still near b: the timer finally runs to completion
    assert obs.update(1, *near_b, t + 0.5) is None  # timer restarted by the b/c flapping
    events = [obs.update(1, *near_b, t + 0.5 + 0.1 * k) for k in range(1, 30)]
    held = [e for e in events if e is not None]
    assert [(e.from_cell, e.to_cell) for e in held] == [("a", "b")]
    assert obs.current(1)[0] == "b"


def test_zero_hysteresis_zero_ttt_is_pure_argmax():
    a = BaseStation("a", 0.0, 0.0)
    b = BaseStation("b", 1000.0, 0.0)
    obs = RadioObserver([a, b], RadioParams(hysteresis_db=0.0, time_to_trigger_s=0.0))
    obs.update(1, 400.0, 0.0, 0.0)
    assert obs.current(1)[0] == "a"
    event = obs.update(1, 501.0, 0.0, 0.1)  # strictly past the midpoint
    assert event is not None and event.to_cell == "b"


def test_detect_ping_pong_window_semantics():
    def ho(t, src, dst):
        return HandoverEvent(t, 1, src, dst, 0.0, 0.0)

    out_and_back = [ho(10.0, "a", "b"), ho(15.0, "b", "a")]
    assert detect_ping_pong(out_and_back, 10.0) == [(15.0, "a", "b")]
    assert detect_ping_pong(out_and_back, 4.0) == []
    boundary = [ho(10.0, "a", "b"), ho(20.0, "b", "a")]
    assert detect_ping_pong(boundary, 10.0) == [(20.0, "a", "b")]  # inclusive window
    onward = [ho(10.0, "a", "b"), ho(15.0, "b", "c")]
    assert detect_ping_pong(onward, 10.0) == []
    assert detect_ping_pong([], 10.0) == []
    chain = [ho(0.0, "a", "b"), ho(2.0, "b", "a"), ho(4.0, "a", "b")]
    assert detect_ping_pong(chain, 10.0) == [(2.0, "a", "b"), (4.0, "b", "a")]


def test_observer_ping_pong_aggregation():
    a = BaseStation("a", 0.0, 0.0)
    b = BaseStation("b", 1000.0, 0.0)
    obs = RadioObserver([a, b], RadioParams(hysteresis_db=0.0, time_to_trigger_s=0.0))
    history = {1: [], 2: []}  # the observer returns handovers; the caller collects them
    for vid, x, t in ((1, 400.0, 0.0), (1, 600.0, 1.0), (1, 400.0, 3.0), (2, 400.0, 0.0), (2, 400.0, 3.0)):
        event = obs.update(vid, x, 0.0, t)  # vehicle 1: a -> b -> a; vehicle 2 never moves
        history[vid] += [event] if event else []
    assert [(e.time, e.from_cell, e.to_cell) for e in history[1]] == [(1.0, "a", "b"), (3.0, "b", "a")]
    hits = {vid: detect_ping_pong(events, 10.0) for vid, events in history.items()}
    assert hits == {1: [(3.0, "a", "b")], 2: []}
    assert all(detect_ping_pong(events, 1.0) == [] for events in history.values())
    assert obs.current_all([1, 2]) == [("a", rssi(a, 400.0, 0.0))] * 2


def _serving_after_one_update(stations, vehicle_id, seed):
    obs = RadioObserver(stations, RadioParams(shadowing_sigma_db=4.0), seed=seed)
    obs.update(vehicle_id, 100.0, 0.0, 0.0)
    return obs.current(vehicle_id)


def test_shadowing_is_deterministic_per_seed_and_vehicle():
    stations = [BaseStation("a", 0.0, 0.0), BaseStation("b", 500.0, 0.0)]
    first = _serving_after_one_update(stations, 3, 11)
    assert first == _serving_after_one_update(stations, 3, 11)
    assert first[1] != _serving_after_one_update(stations, 4, 11)[1]  # another vehicle's stream
    assert first[1] != _serving_after_one_update(stations, 3, 12)[1]  # another seed
    # a (21 dB closer) serves; its level takes the substream's first draw, as rssi plus that draw
    expected = substream(11, "shadowing", 3)
    assert first == ("a", rssi(stations[0], 100.0, 0.0) + float(expected.normal(0.0, 4.0)))


def test_shadowing_draws_follow_the_station_order():
    # at (600, 0) b (100 m away) serves: its level takes the second draw, after a's
    stations = [BaseStation("b", 500.0, 0.0), BaseStation("a", 0.0, 0.0)]
    obs = RadioObserver(stations, RadioParams(shadowing_sigma_db=4.0), seed=11)
    obs.update(3, 600.0, 0.0, 0.0)
    draws = substream(11, "shadowing", 3).normal(0.0, 4.0, size=2).tolist()
    assert obs.current(3) == ("b", rssi(stations[0], 600.0, 0.0) + draws[1])


def test_sigma_zero_is_pure_path_loss():
    stations = [BaseStation("a", 0.0, 0.0)]
    obs = RadioObserver(stations, RadioParams(shadowing_sigma_db=0.0), seed=99)
    obs.update(1, 250.0, 0.0, 0.0)
    assert obs.current(1) == ("a", rssi(stations[0], 250.0, 0.0))
    assert obs._streams == []  # no streams were ever created


# -- batched kernel against the scalar reference -----------------------------------


class _ScalarReference:
    """The per-vehicle, per-station loop the batched kernel replaces.

    Levels come from scalar ``rssi`` calls plus one scalar ``normal`` draw per
    station from the vehicle's substream; the attachment rules are the
    observer's, written out with dicts.
    """

    def __init__(self, stations, *, hysteresis_db=3.0, time_to_trigger_s=1.0,
                 path_loss_exponent=3.5, shadowing_sigma_db=0.0, seed=0):
        self.stations = sorted(stations, key=lambda s: s.id)
        self.hysteresis_db = hysteresis_db
        self.time_to_trigger_s = time_to_trigger_s
        self.path_loss_exponent = path_loss_exponent
        self.sigma = shadowing_sigma_db
        self.seed = seed
        self.serving, self.candidate, self.levels, self.rngs = {}, {}, {}, {}

    def update(self, vid, x, y, t):
        levels = {s.id: rssi(s, x, y, path_loss_exponent=self.path_loss_exponent) for s in self.stations}
        if self.sigma > 0.0:
            if vid not in self.rngs:
                self.rngs[vid] = substream(self.seed, "shadowing", vid)
            for s in self.stations:
                levels[s.id] += float(self.rngs[vid].normal(0.0, self.sigma))
        self.levels[vid] = [levels[s.id] for s in self.stations]
        best = min(levels, key=lambda cid: (-levels[cid], cid))
        serving = self.serving.get(vid)
        if serving is None:
            self.serving[vid] = best
            return None
        if best == serving or levels[best] <= levels[serving] + self.hysteresis_db:
            self.candidate.pop(vid, None)
            return None
        if self.candidate.get(vid, (None,))[0] != best:
            self.candidate[vid] = (best, t)
        if t - self.candidate[vid][1] >= self.time_to_trigger_s - 1e-12:
            del self.candidate[vid]
            self.serving[vid] = best
            return (t, vid, serving, best, x, y)
        return None


def _observer(stations, *, seed=0, **settings):
    """A RadioObserver from _ScalarReference's keywords: the RadioParams fields and the seed."""
    return RadioObserver(stations, RadioParams(**settings), seed=seed)


def _as_tuple(event):
    return (event.time, event.vehicle_id, event.from_cell, event.to_cell, event.x, event.y)


def _assert_same_state(obs, ref, vids):
    ids = [s.id for s in obs.stations]
    for vid in vids:  # bitwise: the serving cell and its level
        assert obs.current(vid) == (ref.serving[vid], ref.levels[vid][ids.index(ref.serving[vid])])
    assert obs.current_all(vids) == [obs.current(vid) for vid in vids]


_coord = st.floats(-3000.0, 3000.0, allow_nan=False)
_station = st.tuples(_coord, _coord, st.floats(1.0, 60.0), st.floats(400.0, 6000.0))


@settings(max_examples=60, deadline=None)
@given(
    stations=st.lists(_station, min_size=1, max_size=6),
    points=st.lists(st.tuples(_coord, _coord), max_size=8),
    near=st.lists(st.tuples(st.integers(0, 5), st.floats(-0.99, 0.99), st.floats(-0.7, 0.7)), max_size=4),
    exponent=st.floats(1.5, 5.0),
    sigma=st.sampled_from([0.0, 4.0]),
    seed=st.integers(0, 1000),
)
def test_observe_all_is_bitwise_scalar_rssi(stations, points, near, exponent, sigma, seed):
    bs = [BaseStation(f"s{i}", x, y, tx, f) for i, (x, y, tx, f) in enumerate(stations)]
    # points on a station and inside its 1 m floor, next to arbitrary ones
    points = points + [(bs[i % len(bs)].x, bs[i % len(bs)].y) for i, _, _ in near]
    points += [(bs[i % len(bs)].x + dx, bs[i % len(bs)].y + dy) for i, dx, dy in near]
    kwargs = dict(hysteresis_db=0.5, time_to_trigger_s=0.0, path_loss_exponent=exponent,
                  shadowing_sigma_db=sigma, seed=seed)
    obs, ref = _observer(bs, **kwargs), _ScalarReference(bs, **kwargs)
    vids = list(range(len(points)))
    for step in range(3):  # attach, then two re-evaluations on rotated positions
        moved = points[step:] + points[:step]
        xs, ys = [p[0] for p in moved], [p[1] for p in moved]
        events = obs.observe_all(vids, xs, ys, 0.5 * step)
        expected = [ref.update(v, x, y, 0.5 * step) for v, x, y in zip(vids, xs, ys)]
        assert [_as_tuple(e) for e in events] == [e for e in expected if e is not None]
        _assert_same_state(obs, ref, vids)


def test_dense_random_batch_is_bitwise_scalar_rssi():
    rng = np.random.default_rng(2024)
    stations = [BaseStation(f"s{i}", *rng.uniform(-2000.0, 2000.0, 2).tolist()) for i in range(5)]
    xs, ys = rng.uniform(-2000.0, 2000.0, (2, 2000)).tolist()
    obs = RadioObserver(stations, RadioParams(shadowing_sigma_db=4.0), seed=3)
    ref = _ScalarReference(stations, shadowing_sigma_db=4.0, seed=3)
    vids = list(range(len(xs)))
    obs.observe_all(vids, xs, ys, 0.0)
    for vid, x, y in zip(vids, xs, ys):
        ref.update(vid, x, y, 0.0)
    _assert_same_state(obs, ref, vids)

    # the batch reaches inputs where NumPy's hypot or log10 would move a level
    pairs = [(s, x, y) for x, y in zip(xs, ys) for s in stations]
    scalar = [rssi(s, x, y) for s, x, y in pairs]
    np_hypot = np.maximum(np.hypot([x - s.x for s, x, _ in pairs], [y - s.y for s, _, y in pairs]), 1.0)

    def level(station, log_d):
        return station.tx_power_dbm - (reference_loss_db(station.carrier_mhz) + 35.0 * log_d)

    assert [level(s, math.log10(d)) for (s, _, _), d in zip(pairs, np_hypot.tolist())] != scalar
    assert [level(s, lg) for (s, _, _), lg in zip(pairs, np.log10(np_hypot).tolist())] != scalar


def test_kernel_floors_distance_at_reference_on_and_near_a_station():
    a, b = BaseStation("a", 10.0, 20.0), BaseStation("b", 900.0, 20.0)
    points = [(10.0, 20.0), (10.3, 19.6), (11.0, 20.0)]  # on a, inside its floor, at 1 m
    points += [(900.0, 20.0), (899.5, 20.5), (900.0, 21.0)]  # the same on b
    obs = RadioObserver([a, b])
    obs.observe_all(range(6), [p[0] for p in points], [p[1] for p in points], 0.0)
    floor = rssi(a, 11.0, 20.0)
    assert floor == rssi(b, 900.0, 21.0)
    assert obs.current_all(range(6)) == [("a", floor)] * 3 + [("b", floor)] * 3


def test_equidistant_stations_tie_to_smaller_id():
    stations = [BaseStation("c", 0.0, 100.0), BaseStation("b", 100.0, 0.0), BaseStation("a", -100.0, 0.0)]
    obs = RadioObserver(stations, RadioParams(hysteresis_db=0.0, time_to_trigger_s=0.0))
    assert obs.observe_all([1, 2], [0.0, 90.0], [0.0, 0.0], 0.0) == []
    assert obs.current(1)[0] == "a"
    assert obs.current(2)[0] == "b"
    # at the centre every cell is equal: a tie is no improvement, so b keeps serving
    assert obs.observe_all([2], [0.0], [0.0], 0.1) == []
    assert obs.current(2)[0] == "b"
    event = obs.update(2, -1.0, 0.0, 0.2)  # a strictly ahead now
    assert (event.from_cell, event.to_cell) == ("b", "a")


def _count_blocks(obs):
    """Count the shadow blocks each row draws from here on, its first one included, by wrapping ``obs._refill``."""
    blocks, refill = Counter(), obs._refill

    def counted(row, length):
        blocks[row] += 1
        refill(row, length)

    obs._refill = counted
    return blocks


def test_long_shadowed_run_mixing_update_and_observe_all_matches_scalar():
    # 260-300 updates per vehicle cross at least two shadow-block refills; vehicle 2
    # is sometimes updated on its own and vehicle 3 joins late
    stations = [BaseStation("a", 0.0, 0.0), BaseStation("b", 600.0, 0.0),
                BaseStation("c", 300.0, 400.0, tx_power_dbm=40.0)]
    kwargs = dict(hysteresis_db=2.0, time_to_trigger_s=0.3, shadowing_sigma_db=4.0, seed=7)
    obs, ref = _observer(stations, **kwargs), _ScalarReference(stations, **kwargs)
    blocks = _count_blocks(obs)
    seen, expected = [], []
    for k in range(300):
        t = 0.1 * k
        rows = [(1, 4.0 * k, 10.0), (2, 600.0 - 4.0 * k, -30.0)] + ([(3, 300.0, 400.0 - 3.0 * k)] if k >= 40 else [])
        solo = [r for r in rows if r[0] == 2 and k % 5 == 0]
        batch = [r for r in rows if r not in solo]
        seen += [_as_tuple(e) for e in obs.observe_all(*map(list, zip(*batch)), t)]
        for vid, x, y in solo:
            event = obs.update(vid, x, y, t)
            seen += [_as_tuple(event)] if event else []
        expected += [e for e in (ref.update(vid, x, y, t) for vid, x, y in batch + solo) if e]
        _assert_same_state(obs, ref, [r[0] for r in rows])
    assert len(expected) >= 3
    assert seen == expected
    assert len(obs._streams) == 3
    assert (obs._block_len[:3] == _SHADOW_ROWS).all()  # every stream has refilled
    # the first block, then three refills, or two for the late vehicle
    assert [blocks[obs._row[vid]] for vid in (1, 2, 3)] == [4, 4, 3]


def test_shadow_values_do_not_depend_on_the_block_size(monkeypatch):
    # blocks of 7, 64 and 128 updates cut each vehicle's stream at different updates and raise the
    # ranking margin's shadowing term at different times; every handover and level must stay the same
    stations = [BaseStation("a", 0.0, 0.0), BaseStation("b", 500.0, 0.0), BaseStation("c", 250.0, 400.0),
                BaseStation("d", 250.0, -300.0, tx_power_dbm=43.0)]
    runs = []
    for depth in (7, 64, 128):
        monkeypatch.setattr(radio, "_SHADOW_ROWS", depth)
        obs = _observer(stations, hysteresis_db=1.0, time_to_trigger_s=0.2, shadowing_sigma_db=6.0, seed=21)
        blocks = _count_blocks(obs)
        log = []
        for k in range(200):
            t = 0.1 * k
            # vehicle v joins at step 15 * (v % 4); vehicle 5 is updated on its own every third step
            rows = [(v, 30.0 * v + 2.5 * k, 100.0 * (v % 3) - 1.5 * k) for v in range(10) if k >= 15 * (v % 4)]
            solo = [r for r in rows if r[0] == 5 and k % 3 == 0]
            batch = [r for r in rows if r not in solo]
            log += [_as_tuple(e) for e in obs.observe_all(*map(list, zip(*batch)), t)]
            for vid, x, y in solo:
                log += [_as_tuple(e) for e in [obs.update(vid, x, y, t)] if e]
            log.append(obs.current_all(range(10)))
        runs.append(log)
        assert min(blocks.values()) >= 2  # every vehicle refilled
    assert sum(isinstance(entry, tuple) for entry in runs[0]) >= 5  # handovers happen
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("sigma", [0.0, 4.0])
def test_close_and_tied_ranked_levels_are_settled_exactly(sigma):
    # b sits 1e-9 m from a and d 1e-12 m from c, so their levels differ by far less than
    # the ranking margin; x = 5e-10 ties a and b exactly, y = 0 ties c and e exactly
    stations = [BaseStation("a", 0.0, 0.0), BaseStation("b", 1e-9, 0.0), BaseStation("c", 900.0, 400.0),
                BaseStation("d", 900.0 + 1e-12, 400.0), BaseStation("e", 900.0, -400.0)]
    rng = np.random.default_rng(8)
    points = [tuple(p) for p in rng.uniform((-1500.0, -1000.0), (2500.0, 1000.0), (240, 2)).tolist()]
    points += [(5e-10, y) for y in rng.uniform(-1000.0, 1000.0, 30).tolist()]
    points += [(x, 0.0) for x in rng.uniform(-1500.0, 2500.0, 30).tolist()]
    kwargs = dict(hysteresis_db=0.0, time_to_trigger_s=0.0, shadowing_sigma_db=sigma, seed=5)
    for subset in (stations, stations[:1]):
        obs, ref = _observer(subset, **kwargs), _ScalarReference(subset, **kwargs)
        vids = list(range(len(points)))
        handovers = 0
        for step in range(4):  # attach, then three re-evaluations on rotated positions
            moved = points[7 * step:] + points[:7 * step]
            xs, ys = [p[0] for p in moved], [p[1] for p in moved]
            events = obs.observe_all(vids, xs, ys, 0.5 * step)
            expected = [ref.update(v, x, y, 0.5 * step) for v, x, y in zip(vids, xs, ys)]
            assert [_as_tuple(e) for e in events] == [e for e in expected if e is not None]
            _assert_same_state(obs, ref, vids)
            handovers += len(events)
        if len(subset) == 1:
            assert handovers == 0
            continue
        assert handovers > 0
        if sigma == 0.0:  # the last step reached close levels and exact ties
            levels = np.array([ref.levels[v] for v in vids])
            top2 = np.sort(levels, axis=1)[:, -2:]
            assert (top2[:, 1] - top2[:, 0] < _RANK_MARGIN_DB).sum() > len(vids) // 2
            on_x, on_y = np.array([x == 5e-10 for x in xs]), np.array([y == 0.0 for y in ys])
            assert on_x.sum() == on_y.sum() == 30
            assert (levels[on_x, 0] == levels[on_x, 1]).all() and (levels[on_y, 2] == levels[on_y, 4]).all()

    obs = _observer(stations, **kwargs)
    obs.observe_all([1, 2], [0.0, 5.0], [0.0, 5.0], 0.0)
    before = obs.current(1), obs.current(2)
    with pytest.raises(ValueError, match="duplicate"):
        obs.observe_all([1, 3, 1], [900.0, 0.0, 900.0], [400.0, 0.0, 400.0], 0.1)
    assert (obs.current(1), obs.current(2), obs.current(3)) == (*before, None)
    assert obs.current_all([2, 3, 1]) == [before[1], None, before[0]]


@pytest.mark.parametrize("tx, exponent, sigma", [(46.0, 1e10, 0.0), (1e15, 3.5, 0.0), (46.0, 1e10, 1e12)])
def test_ranking_margin_scales_with_huge_levels(tx, exponent, sigma):
    # at these magnitudes one ulp of a level is far above _RANK_MARGIN_DB; vehicles a few
    # ulps off the bisector of a and b have levels closer than NumPy's rounding error
    stations = [BaseStation(cid, x, y, tx_power_dbm=tx)
                for cid, x, y in (("a", 0.0, 0.0), ("b", 1000.0, 0.0), ("c", 500.0, 900.0))]
    rng = np.random.default_rng(1)
    points = [(500.0 + n * math.ulp(500.0), y) for n in range(-4, 5) for y in rng.uniform(-800.0, 800.0, 150).tolist()]
    kwargs = dict(hysteresis_db=0.0, time_to_trigger_s=0.0, path_loss_exponent=exponent,
                  shadowing_sigma_db=sigma, seed=3)
    obs, ref = _observer(stations, **kwargs), _ScalarReference(stations, **kwargs)
    vids = list(range(len(points)))
    for step in range(3):
        moved = points[step:] + points[:step]
        xs, ys = [p[0] for p in moved], [p[1] for p in moved]
        events = obs.observe_all(vids, xs, ys, 0.5 * step)
        expected = [ref.update(v, x, y, 0.5 * step) for v, x, y in zip(vids, xs, ys)]
        assert [_as_tuple(e) for e in events] == [e for e in expected if e is not None]
        _assert_same_state(obs, ref, vids)


@pytest.mark.parametrize("exponent, hysteresis", [(1e11, 1e12), (3.5, None)], ids=["huge", "spread"])
def test_ranking_margin_covers_the_hysteresis(exponent, hysteresis):
    # at x = 1000 a is ten times farther than b, at x = 100 b ten times farther than a: the
    # serving level plus the hysteresis (k = 10 * exponent, or the spread of the two levels there)
    # meets the other level within a few ulps, so every step tests the hysteresis on a knife-edge
    a, b = BaseStation("a", 0.0, 0.0), BaseStation("b", 1100.0, 0.0)
    stations = [a, b, BaseStation("c", 550.0, 3000.0)]
    if hysteresis is None:
        hysteresis = rssi(b, 1000.0, 0.0, path_loss_exponent=exponent) - rssi(a, 1000.0, 0.0,
                                                                               path_loss_exponent=exponent)
    ys = np.random.default_rng(4).uniform(-1e-5, 1e-5, 40).tolist()
    near_b = [(1000.0 + n * math.ulp(1000.0), y) for n in range(-6, 7) for y in ys]
    near_a = [(1100.0 - x, y) for x, y in near_b]
    kwargs = dict(hysteresis_db=hysteresis, time_to_trigger_s=0.0, path_loss_exponent=exponent, seed=3)
    obs, ref = _observer(stations, **kwargs), _ScalarReference(stations, **kwargs)
    vids = list(range(len(near_b)))
    handovers = []
    for step in range(6):  # attach to a, then alternate between the two boundaries
        points = [(50.0, 0.0)] * len(vids) if step == 0 else near_b if step % 2 else near_a
        points = points[step:] + points[:step]
        xs, ys = [p[0] for p in points], [p[1] for p in points]
        events = obs.observe_all(vids, xs, ys, 0.5 * step)
        expected = [ref.update(v, x, y, 0.5 * step) for v, x, y in zip(vids, xs, ys)]
        assert [_as_tuple(e) for e in events] == [e for e in expected if e is not None]
        _assert_same_state(obs, ref, vids)
        handovers.append(len(events))
    assert all(0 < count < len(vids) for count in handovers[1:])  # both outcomes on every step


def _count_exact_levels(monkeypatch):
    counted = []
    exact_log_d = radio._exact_log_d
    monkeypatch.setattr(radio, "_exact_log_d", lambda dx, dy: counted.append(dx.size) or exact_log_d(dx, dy))
    return counted


def test_only_open_rows_and_read_levels_are_computed_exactly(monkeypatch):
    # every vehicle sits near one of six stations, far from any tie or hysteresis boundary:
    # the ranking settles every choice, and a level is computed exactly only when it is read
    stations = [BaseStation(f"cell{i}", 700.0 * math.cos(i), 700.0 * math.sin(i)) for i in range(6)]
    kwargs = dict(shadowing_sigma_db=4.0, seed=2)
    obs, ref = _observer(stations, **kwargs), _ScalarReference(stations, **kwargs)
    counted = _count_exact_levels(monkeypatch)
    vids = list(range(60))
    for step in range(3):
        xs = [s.x + 20.0 * step for s in stations] * 10
        ys = [s.y + v - 30.0 for v, s in zip(vids, stations * 10)]
        expected = [ref.update(v, x, y, 0.1 * step) for v, x, y in zip(vids, xs, ys)]
        assert obs.observe_all(vids, xs, ys, 0.1 * step) == [] and not any(expected)
        assert sum(counted) == 0
    listed = [5, 99, 0, 59, -1, 17]  # two of them never observed
    levels = obs.current_all(listed)
    assert sum(counted) == 4
    assert levels[1] is levels[4] is None
    _assert_same_state(obs, ref, [5, 0, 59, 17])


def test_level_read_lazily_outlives_other_updates_and_refills():
    # current() computes the level from the row's last position and the shadowing row that
    # update read: other vehicles' updates, their block refills and column growth leave it be
    stations = [BaseStation("a", 0.0, 0.0), BaseStation("b", 600.0, 0.0), BaseStation("c", 300.0, 500.0)]
    kwargs = dict(hysteresis_db=2.0, time_to_trigger_s=0.3, shadowing_sigma_db=4.0, seed=13)
    obs, ref = _observer(stations, **kwargs), _ScalarReference(stations, **kwargs)
    blocks = _count_blocks(obs)
    first, other = 0, 1  # vehicle 0's first shadow block is one update long

    def update(vid, x, y, t):
        event, expected = obs.update(vid, x, y, t), ref.update(vid, x, y, t)
        assert (event and _as_tuple(event)) == expected

    update(first, 120.0, 40.0, 0.0)
    for k in range(2):
        for step in range(1, 141):  # two of the other vehicle's blocks and more
            update(other, 4.0 * step, 10.0, 14.0 * k + 0.1 * step)
            _assert_same_state(obs, ref, [first])
        if k == 0:  # joining vehicles grow the columns; the first vehicle's second update refills
            obs.observe_all(range(2, 40), [300.0] * 38, [100.0] * 38, 14.05)
            update(first, 480.0, -60.0, 14.05)
            assert obs._pointer[obs._row[first]] == 1
            _assert_same_state(obs, ref, [first])
    assert blocks[obs._row[other]] >= 3  # the first block and two refills at least


def test_observe_all_empty_batch_and_ragged_input():
    obs = RadioObserver([BaseStation("a", 0.0, 0.0)], RadioParams(shadowing_sigma_db=4.0))
    assert obs.observe_all([], [], [], 1.0) == []
    assert obs.current_all([1, 2]) == [None, None] and obs._streams == []
    with pytest.raises(ValueError):
        obs.observe_all([1, 2], [0.0], [0.0, 1.0], 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("argument", ["x", "y", "t"])
def test_non_finite_positions_and_times_are_rejected_without_side_effects(argument, bad):
    stations = [BaseStation("a", 0.0, 0.0), BaseStation("b", 1000.0, 0.0)]
    kwargs = dict(hysteresis_db=0.5, time_to_trigger_s=0.3, shadowing_sigma_db=2.0, seed=9)
    obs, twin = _observer(stations, **kwargs), _observer(stations, **kwargs)
    for o in (obs, twin):
        o.observe_all([1, 2], [100.0, 900.0], [0.0, 0.0], 0.0)
    before = obs.current_all([1, 2, 3])
    batch = {"x": [700.0, 200.0, 5.0], "y": [0.0, 0.0, 0.0], "t": 0.1}
    batch[argument] = bad if argument == "t" else [bad if i == 1 else v for i, v in enumerate(batch[argument])]
    with pytest.raises(ValueError, match="finite"):
        obs.observe_all([1, 2, 3], batch["x"], batch["y"], batch["t"])
    with pytest.raises(ValueError, match="finite"):
        obs.update(3, *(bad if name == argument else 1.0 for name in "xyt"))
    assert obs.current_all([1, 2, 3]) == before
    # no timer started and no shadowing draw was taken: the observer goes on as its twin does
    for k in range(1, 8):
        xs, ys, t = [100.0 + 100.0 * k, 900.0 - 100.0 * k, 5.0], [0.0, 0.0, 0.0], 0.1 * k
        assert obs.observe_all([1, 2, 3], xs, ys, t) == twin.observe_all([1, 2, 3], xs, ys, t)
        assert obs.current_all([1, 2, 3]) == twin.current_all([1, 2, 3])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"shadowing_sigma_db": -1.0},
        {"hysteresis_db": -0.1},
        {"time_to_trigger_s": -1.0},
        {"path_loss_exponent": 0.0},
        {"path_loss_exponent": -2.0},
        {"hysteresis_db": math.inf},
        {"shadowing_sigma_db": math.nan},
    ],
)
def test_observer_rejects_parameters_load_config_rejects(kwargs):
    # the observer takes its settings as a RadioParams, which refuses them when built
    with pytest.raises(ValueError):
        RadioParams(**kwargs)


@pytest.mark.parametrize("sigma", [0.0, 3.0])
@pytest.mark.parametrize("first_seen, same", [
    ([[3], [4, 1]], 0),  # one sparse sighting, then an out-of-order batch: no row equals its id
    ([[0, 1, 5]], 2),  # rows equal ids for vehicles 0 and 1 only
    ([[0], [1, 2]], 6),  # every row equals its id: range batches map to the cached rows
])
def test_range_batches_decide_as_list_batches(first_seen, same, sigma):
    stations = [BaseStation("a", 0.0, 0.0), BaseStation("b", 600.0, 0.0), BaseStation("c", 300.0, 500.0)]
    kwargs = dict(hysteresis_db=1.0, time_to_trigger_s=0.2, shadowing_sigma_db=sigma, seed=4)
    obs, twin = _observer(stations, **kwargs), _observer(stations, **kwargs)
    for batch in first_seen:
        if len(batch) == 1:
            assert obs.update(batch[0], 50.0, 10.0, 0.0) == twin.update(batch[0], 50.0, 10.0, 0.0)
        else:
            xs, ys = [40.0 * i for i in batch], [10.0] * len(batch)
            assert obs.observe_all(batch, xs, ys, 0.0) == twin.observe_all(batch, xs, ys, 0.0)

    def levels(observer, ids):
        return [(cell, float.hex(level)) for cell, level in observer.current_all(ids)]

    handovers = []
    for k in range(1, 16):
        ids = range(6) if k % 3 else range(1, 5)
        xs = [30.0 + 55.0 * k + 25.0 * i for i in ids]
        ys = [10.0 + (20.0 * k if i % 2 else 0.0) for i in ids]
        events = obs.observe_all(ids, xs, ys, 0.1 * k)
        assert events == twin.observe_all(list(ids), xs, ys, 0.1 * k)
        assert levels(obs, ids) == levels(twin, list(ids))
        assert levels(obs, range(6)) == levels(twin, list(range(6)))
        handovers += events
    assert len(handovers) >= 6 and obs._same == same
    # a range batch with a NaN position is refused before any state changes
    before = levels(obs, range(6))
    with pytest.raises(ValueError, match="finite"):
        obs.observe_all(range(6), [100.0, 200.0, math.nan, 0.0, 0.0, 0.0], [0.0] * 6, 1.6)
    assert levels(obs, range(6)) == before
    xs, ys = [900.0 - 100.0 * i for i in range(6)], [0.0] * 6
    assert obs.observe_all(range(6), xs, ys, 1.7) == twin.observe_all(list(range(6)), xs, ys, 1.7)
    assert levels(obs, range(6)) == levels(twin, list(range(6)))


def _crossing(level, target):
    """The largest distance in [1, 1e5] m that bisection reaches with ``level(r) >= target``; ``level`` falls."""
    lo, hi = 1.0, 1e5
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if level(mid) >= target else (lo, mid)
    return lo


# 0 dBm, where '%.2f' writes the sign, and '%.2f' midpoints (-40.125 and -70.125 are doubles)
_ROUNDING_TARGETS = (0.0, -40.125, -60.005, -70.125, -81.115, -99.995)


@pytest.mark.parametrize("sigma", [0.0, 4.0])
def test_trace_levels_round_as_exact_levels_next_to_every_rounding_boundary(sigma):
    stations = [BaseStation("a", 0.0, 0.0), BaseStation("b", 5000.0, 0.0, carrier_mhz=900.0)]
    n, seed = 2400, 3
    targets, xs, ys = [], [], []
    for vid in range(n):  # on a ray from its station, within an ulp of distance of its target's crossing
        i, target = vid % 2, _ROUNDING_TARGETS[vid // 2 % len(_ROUNDING_TARGETS)]
        station, angle = stations[i], 0.7 + 0.37 * vid
        c, s = math.cos(angle), math.sin(angle)
        shadow = float(substream(seed, "shadowing", vid).normal(0.0, sigma, 2)[i]) if sigma else 0.0
        r = _crossing(lambda r: rssi(station, station.x + r * c, station.y + r * s) + shadow, target)
        r = math.nextafter(r, (0.0, r, math.inf)[vid % 3])
        targets.append(target)
        xs.append(station.x + r * c)
        ys.append(station.y + r * s)
    obs = RadioObserver(stations, RadioParams(shadowing_sigma_db=sigma), seed=seed)
    obs.observe_all(range(n), xs, ys, 0.0)
    exact = obs.current_all(range(n))
    assert sum(abs(level - target) < 1e-9 for (_, level), target in zip(exact, targets)) > 0.95 * n

    written = ["%.2f" % level for _, level in exact]
    cells, levels = obs._trace_levels()
    assert cells == [cell for cell, _ in exact]
    assert ["%.2f" % level for level in levels] == written
    # any ranked level within the margin of the exact one is written as the exact one, here
    # across a midpoint or 0 dBm for rows of every target, whatever NumPy's own rounding
    rows, cell, ranked, margin = obs._batch
    crossed = set()
    for shift in (-0.99, -0.5, 0.5, 0.99):
        off = [level + shift * margin for _, level in exact]
        crossed |= {t for t, level, w in zip(targets, off, written) if "%.2f" % level != w}
        shifted = ranked.copy()
        shifted[cell, np.arange(n)] = off
        obs._batch = rows, cell, shifted, margin
        assert ["%.2f" % level for level in obs._trace_levels()[1]] == written
    assert crossed == set(_ROUNDING_TARGETS)


def test_trace_levels_are_all_exact_where_two_margins_exceed_the_rounding_step(monkeypatch):
    stations = [BaseStation("a", 0.0, 0.0, tx_power_dbm=1e13), BaseStation("b", 700.0, 0.0)]
    obs = RadioObserver(stations, RadioParams(shadowing_sigma_db=4.0), seed=1)
    xs, ys = np.random.default_rng(7).uniform(-900.0, 900.0, (2, 300)).tolist()
    obs.observe_all(range(300), xs, ys, 0.0)
    exact = obs.current_all(range(300))
    assert 2.0 * obs._batch[3] > 0.005
    exact_rows, serving_levels = [], obs._serving_levels
    monkeypatch.setattr(obs, "_serving_levels", lambda rows: exact_rows.extend(rows.tolist()) or serving_levels(rows))
    cells, levels = obs._trace_levels()
    assert exact_rows == list(range(300))
    assert list(zip(cells, levels)) == exact
