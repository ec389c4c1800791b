"""Radio layer: path loss, attachment state machine, ping-pong detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vehsim.radio import (
    _RANK_MARGIN_DB,
    BaseStation,
    HandoverEvent,
    RadioObserver,
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
    assert obs.attachments[1].history == []


def test_margin_below_hysteresis_never_triggers():
    # static point where b is stronger than a, but by less than the margin
    a = BaseStation("a", 0.0, 0.0)
    b = BaseStation("b", 1000.0, 0.0)
    obs = RadioObserver([a, b], hysteresis_db=3.0, time_to_trigger_s=1.0)
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
    obs = RadioObserver([a, b], hysteresis_db=3.0, time_to_trigger_s=1.0)
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
    obs = RadioObserver([a, b, c], hysteresis_db=3.0, time_to_trigger_s=1.0)
    near_b = (1990.0, 0.0)
    near_c = (-1990.0, 0.0)
    obs.update(1, 1.0, 0.0, 0.0)  # attach to a
    # alternate the strongest cell faster than the time-to-trigger
    t = 0.0
    for k in range(1, 13):
        t = 0.5 * k
        spot = near_b if k % 2 else near_c
        assert obs.update(1, *spot, t) is None
    # now hold still near b: the timer finally runs to completion
    first = obs.update(1, *near_b, t + 0.5)
    assert first is None  # timer restarted by the b/c flapping
    held = None
    for k in range(1, 30):
        held = obs.update(1, *near_b, t + 0.5 + 0.1 * k)
        if held:
            break
    assert held is not None
    assert (held.from_cell, held.to_cell) == ("a", "b")
    assert len(obs.attachments[1].history) == 1


def test_zero_hysteresis_zero_ttt_is_pure_argmax():
    a = BaseStation("a", 0.0, 0.0)
    b = BaseStation("b", 1000.0, 0.0)
    obs = RadioObserver([a, b], hysteresis_db=0.0, time_to_trigger_s=0.0)
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
    obs = RadioObserver([a, b], hysteresis_db=0.0, time_to_trigger_s=0.0)
    obs.update(1, 400.0, 0.0, 0.0)
    obs.update(1, 600.0, 0.0, 1.0)  # a -> b
    obs.update(1, 400.0, 0.0, 3.0)  # b -> a
    obs.update(2, 400.0, 0.0, 0.0)  # second vehicle never moves
    obs.update(2, 400.0, 0.0, 3.0)
    hits = {vid: detect_ping_pong(att.history, 10.0) for vid, att in obs.attachments.items()}
    assert hits == {1: [(3.0, "a", "b")], 2: []}
    assert all(detect_ping_pong(att.history, 1.0) == [] for att in obs.attachments.values())


def test_shadowing_is_deterministic_per_seed_and_vehicle():
    stations = [BaseStation("a", 0.0, 0.0), BaseStation("b", 500.0, 0.0)]
    obs1 = RadioObserver(stations, shadowing_sigma_db=4.0, seed=11)
    obs2 = RadioObserver(stations, shadowing_sigma_db=4.0, seed=11)
    m1 = obs1.measure(3, 100.0, 0.0)
    m2 = obs2.measure(3, 100.0, 0.0)
    assert m1 == m2
    other_vehicle = obs1.measure(4, 100.0, 0.0)
    assert other_vehicle != m1
    different_seed = RadioObserver(stations, shadowing_sigma_db=4.0, seed=12).measure(3, 100.0, 0.0)
    assert different_seed != m1
    # draws follow the station order: the values come from the same substream
    expected = substream(11, "shadowing", 3)
    base_a = rssi(stations[0], 100.0, 0.0)
    assert m1["a"] == pytest.approx(base_a + float(expected.normal(0.0, 4.0)))


def test_sigma_zero_is_pure_path_loss():
    stations = [BaseStation("a", 0.0, 0.0)]
    obs = RadioObserver(stations, shadowing_sigma_db=0.0, seed=99)
    m = obs.measure(1, 250.0, 0.0)
    assert m["a"] == rssi(stations[0], 250.0, 0.0)
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


def _as_tuple(event):
    return (event.time, event.vehicle_id, event.from_cell, event.to_cell, event.x, event.y)


def _assert_same_state(obs, ref, vids):
    ids = [s.id for s in obs.stations]
    for vid in vids:
        assert obs.last_levels(vid) == ref.levels[vid]  # bitwise, every station
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
    obs, ref = RadioObserver(bs, **kwargs), _ScalarReference(bs, **kwargs)
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
    obs = RadioObserver(stations, shadowing_sigma_db=4.0, seed=3)
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
    obs = RadioObserver([a, b])
    obs.observe_all([0, 1, 2], [p[0] for p in points], [p[1] for p in points], 0.0)
    floor = rssi(a, 11.0, 20.0)
    for vid, (x, y) in enumerate(points):
        assert obs.last_levels(vid) == [floor, rssi(b, x, y)]
        assert obs.current(vid) == ("a", floor)


def test_equidistant_stations_tie_to_smaller_id():
    stations = [BaseStation("c", 0.0, 100.0), BaseStation("b", 100.0, 0.0), BaseStation("a", -100.0, 0.0)]
    obs = RadioObserver(stations, hysteresis_db=0.0, time_to_trigger_s=0.0)
    assert obs.observe_all([1, 2], [0.0, 90.0], [0.0, 0.0], 0.0) == []
    assert obs.current(1)[0] == "a"
    assert obs.current(2)[0] == "b"
    # at the centre every cell is equal: a tie is no improvement, so b keeps serving
    assert obs.observe_all([2], [0.0], [0.0], 0.1) == []
    assert obs.current(2)[0] == "b"
    event = obs.update(2, -1.0, 0.0, 0.2)  # a strictly ahead now
    assert (event.from_cell, event.to_cell) == ("b", "a")


def test_long_shadowed_run_mixing_update_and_observe_all_matches_scalar():
    # 110-150 updates per vehicle cross at least two shadow-block refills; vehicle 2
    # is sometimes updated on its own and vehicle 3 joins late
    stations = [BaseStation("a", 0.0, 0.0), BaseStation("b", 600.0, 0.0),
                BaseStation("c", 300.0, 400.0, tx_power_dbm=40.0)]
    kwargs = dict(hysteresis_db=2.0, time_to_trigger_s=0.3, shadowing_sigma_db=4.0, seed=7)
    obs, ref = RadioObserver(stations, **kwargs), _ScalarReference(stations, **kwargs)
    seen, expected = [], []
    for k in range(150):
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
    assert (obs._block_len[:3] == 64).all()  # every stream has refilled


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
        obs, ref = RadioObserver(subset, **kwargs), _ScalarReference(subset, **kwargs)
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

    obs = RadioObserver(stations, **kwargs)
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
    obs, ref = RadioObserver(stations, **kwargs), _ScalarReference(stations, **kwargs)
    vids = list(range(len(points)))
    for step in range(3):
        moved = points[step:] + points[:step]
        xs, ys = [p[0] for p in moved], [p[1] for p in moved]
        events = obs.observe_all(vids, xs, ys, 0.5 * step)
        expected = [ref.update(v, x, y, 0.5 * step) for v, x, y in zip(vids, xs, ys)]
        assert [_as_tuple(e) for e in events] == [e for e in expected if e is not None]
        _assert_same_state(obs, ref, vids)


def test_observe_all_empty_batch_and_ragged_input():
    obs = RadioObserver([BaseStation("a", 0.0, 0.0)], shadowing_sigma_db=4.0)
    assert obs.observe_all([], [], [], 1.0) == []
    assert obs.attachments == {} and obs._streams == []
    with pytest.raises(ValueError):
        obs.observe_all([1, 2], [0.0], [0.0, 1.0], 1.0)


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
    with pytest.raises(ValueError):
        RadioObserver([BaseStation("a", 0.0, 0.0)], **kwargs)
